package sim

import (
	"reflect"
	"testing"
	"unsafe"
)

// gcScanned reports the first field path in t that the garbage collector
// must scan or that drags a payload into the value: pointers, interfaces,
// slices, maps, strings, channels and functions, at any nesting depth.
func gcScanned(t reflect.Type, path string) string {
	switch t.Kind() {
	case reflect.Pointer, reflect.UnsafePointer, reflect.Interface, reflect.Slice,
		reflect.Map, reflect.String, reflect.Chan, reflect.Func:
		return path + " (" + t.Kind().String() + ")"
	case reflect.Array:
		return gcScanned(t.Elem(), path+"[]")
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if bad := gcScanned(f.Type, path+"."+f.Name); bad != "" {
				return bad
			}
		}
	}
	return ""
}

// TestEventSlimPointerFree pins the queue's element layout: an event is at
// most 24 bytes and holds nothing the garbage collector scans, so the heap
// moves small flat values without write barriers.
// A field that brings a pointer, interface, slice or map back into event —
// a Delivery, say — must go to the payload slab instead.
func TestEventSlimPointerFree(t *testing.T) {
	if size := unsafe.Sizeof(event{}); size > 24 {
		t.Errorf("event is %d bytes, want <= 24", size)
	}
	if bad := gcScanned(reflect.TypeOf(event{}), "event"); bad != "" {
		t.Errorf("event holds a GC-scanned field: %s", bad)
	}
	// The walker itself must catch what it guards against.
	if gcScanned(reflect.TypeOf(heldEvent{}), "heldEvent") == "" {
		t.Error("gcScanned missed the Delivery.Msg interface in heldEvent")
	}
}

// TestPayloadSlabReusesSlots checks the slab's contract: take returns what
// hold stored and releases the slot's Msg reference, freed slots are reused
// last-in first-out, and the slab only grows past its live population.
func TestPayloadSlabReusesSlots(t *testing.T) {
	var c engineCore
	a := c.hold(Delivery{Msg: testMsg{Seq: 1}, Port: 1})
	b := c.hold(Delivery{Msg: testMsg{Seq: 2}, Port: 2})
	if a == b || a < 0 || b < 0 {
		t.Fatalf("hold returned slots %d and %d", a, b)
	}
	if d := c.take(a); d.Msg != (testMsg{Seq: 1}) || d.Port != 1 {
		t.Fatalf("take(%d) = %+v", a, d)
	}
	if c.slab[a] != (Delivery{}) {
		t.Fatalf("take left slot %d holding %+v", a, c.slab[a])
	}
	if s := c.hold(Delivery{Msg: testMsg{Seq: 3}}); s != a {
		t.Fatalf("hold after take used slot %d, want the freed slot %d", s, a)
	}
	if len(c.slab) != 2 {
		t.Fatalf("slab grew to %d slots for 2 live payloads", len(c.slab))
	}
	c.resetSlab(0)
	if len(c.slab) != 0 || len(c.free) != 0 || cap(c.slab) < 2 {
		t.Fatalf("resetSlab: len %d free %d cap %d", len(c.slab), len(c.free), cap(c.slab))
	}
	if c.slab[:2][0] != (Delivery{}) || c.slab[:2][1] != (Delivery{}) {
		t.Fatal("resetSlab kept payload references of live slots")
	}
}
