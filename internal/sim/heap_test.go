package sim

import (
	"container/heap"
	"math/rand"
	"sort"
	"testing"
)

// refQueue is the engine's previous event queue verbatim: a container/heap
// implementation over the same (at, seq) key. It exists only as the
// differential-testing reference that pins the monomorphic eventHeap to the
// old pop order, byte for byte.
type refQueue []event

func (q refQueue) Len() int { return len(q) }
func (q refQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q refQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x any)   { *q = append(*q, x.(event)) }
func (q *refQueue) Pop() any {
	old := *q
	n := len(old)
	ev := old[n-1]
	*q = old[:n-1]
	return ev
}

// randomEvents mixes fresh timestamps with duplicates of earlier ones so
// the (at, ·) tie-break through seq is exercised heavily.
func randomEvents(rng *rand.Rand, n int) []event {
	evs := make([]event, n)
	for i := range evs {
		var at Time
		if i > 0 && rng.Intn(3) == 0 {
			at = evs[rng.Intn(i)].at // duplicate timestamp
		} else {
			at = Time(rng.Float64() * 10)
		}
		evs[i] = event{at: at, seq: int64(i), node: int32(i), slot: int32(i)}
	}
	return evs
}

// TestEventHeapMatchesContainerHeap pops interleaved random pushes from the
// eventHeap and from the old container/heap queue and requires identical
// event sequences — the byte-identical-ordering guarantee of the rewrite.
func TestEventHeapMatchesContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		evs := randomEvents(rng, 200)
		var h eventHeap
		ref := &refQueue{}
		i := 0
		step := 0
		for i < len(evs) || h.len() > 0 {
			push := i < len(evs) && (h.len() == 0 || rng.Intn(2) == 0)
			if push {
				h.push(evs[i])
				heap.Push(ref, evs[i])
				i++
				continue
			}
			got := h.pop()
			want := heap.Pop(ref).(event)
			if got != want {
				t.Fatalf("trial %d step %d: eventHeap popped %+v, container/heap popped %+v", trial, step, got, want)
			}
			step++
		}
		if ref.Len() != 0 {
			t.Fatalf("trial %d: reference queue retains %d events after eventHeap drained", trial, ref.Len())
		}
	}
}

// TestEventHeapPopsSortedOrder drains a batch of pushes and checks the pop
// sequence against sort.SliceStable on the (at, seq) key. Keys are unique
// (seq is), so sorted order is the unique correct answer for any heap.
func TestEventHeapPopsSortedOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	evs := randomEvents(rng, 500)
	var h eventHeap
	for _, ev := range evs {
		h.push(ev)
	}
	want := append([]event(nil), evs...)
	sort.SliceStable(want, func(i, j int) bool { return eventLess(&want[i], &want[j]) })
	for k, w := range want {
		got := h.pop()
		if got != w {
			t.Fatalf("pop %d: got %+v, want %+v", k, got, w)
		}
	}
	if h.len() != 0 {
		t.Fatalf("heap not empty after draining: %d left", h.len())
	}
}

// checkHeapInvariant verifies the 4-ary min-heap property directly.
func checkHeapInvariant(t *testing.T, h *eventHeap) {
	t.Helper()
	for i := 1; i < len(h.a); i++ {
		parent := (i - 1) / 4
		if eventLess(&h.a[i], &h.a[parent]) {
			t.Fatalf("heap invariant violated: a[%d]=%+v < parent a[%d]=%+v", i, h.a[i], parent, h.a[parent])
		}
	}
}

// TestWakePushesKeepHeapOrdered pins the invariant RunAsync relies on when
// it seeds the queue from the wake schedule: push alone maintains heap
// order, so no heapify step is needed before the event loop (the
// container/heap predecessor's heap.Init at that point was redundant).
// Wake times arrive unsorted here on purpose.
func TestWakePushesKeepHeapOrdered(t *testing.T) {
	wakes := []Wakeup{
		{Node: 3, At: 2.5}, {Node: 0, At: 0}, {Node: 7, At: 1.25},
		{Node: 1, At: 0}, {Node: 4, At: 9}, {Node: 2, At: 0.5},
	}
	var h eventHeap
	var seq int64
	for _, w := range wakes {
		h.push(event{at: w.At, seq: seq, node: int32(w.Node), slot: wakeSlot})
		seq++
		checkHeapInvariant(t, &h)
	}
	// Draining yields the wakes in (at, seq) order with no extra fix-up.
	var last event
	for i := 0; h.len() > 0; i++ {
		ev := h.pop()
		checkHeapInvariant(t, &h)
		if i > 0 && !eventLess(&last, &ev) {
			t.Fatalf("pop %d out of order: %+v after %+v", i, ev, last)
		}
		last = ev
	}
}

// TestEventHeapResetReusesBacking checks the reset contract: the backing
// array survives when large enough and is replaced only to grow.
func TestEventHeapResetReusesBacking(t *testing.T) {
	var h eventHeap
	h.reset(64)
	if cap(h.a) < 64 {
		t.Fatalf("reset(64) left capacity %d", cap(h.a))
	}
	for i := 0; i < 32; i++ {
		h.push(event{at: Time(i), seq: int64(i)})
	}
	before := cap(h.a)
	h.reset(16)
	if h.len() != 0 {
		t.Fatalf("reset left %d events", h.len())
	}
	if cap(h.a) != before {
		t.Fatalf("reset(16) reallocated: cap %d -> %d", before, cap(h.a))
	}
	h.reset(4 * before)
	if cap(h.a) < 4*before {
		t.Fatalf("reset(%d) did not grow: cap %d", 4*before, cap(h.a))
	}
}

// FuzzEventHeap feeds adversarial push/pop scripts — including long runs of
// duplicate timestamps — through both heaps and requires identical pops.
// Before every pop, peek must show the reference's minimum, since the
// sharded engine's window drain decides on the peeked root.
func FuzzEventHeap(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 0, 255, 2, 2}, int64(1))
	f.Add([]byte{10, 10, 10, 10, 10, 10, 10, 10}, int64(42))
	f.Add([]byte{}, int64(0))
	f.Fuzz(func(t *testing.T, script []byte, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		var h eventHeap
		ref := &refQueue{}
		var seq int64
		var ats []Time
		for _, b := range script {
			if b%4 == 3 && h.len() > 0 {
				peekMatches(t, &h, ref)
				got := h.pop()
				want := heap.Pop(ref).(event)
				if got != want {
					t.Fatalf("pop mismatch: eventHeap %+v, container/heap %+v", got, want)
				}
				continue
			}
			// b selects a coarse timestamp so collisions are common; some
			// bytes reuse an existing timestamp exactly.
			var at Time
			if b%4 == 2 && len(ats) > 0 {
				at = ats[rng.Intn(len(ats))]
			} else {
				at = Time(b % 8)
			}
			ats = append(ats, at)
			ev := event{at: at, seq: seq, node: int32(b), slot: int32(b)}
			seq++
			h.push(ev)
			heap.Push(ref, ev)
		}
		var last event
		first := true
		for h.len() > 0 {
			peekMatches(t, &h, ref)
			got := h.pop()
			want := heap.Pop(ref).(event)
			if got != want {
				t.Fatalf("drain mismatch: eventHeap %+v, container/heap %+v", got, want)
			}
			if !first && !eventLess(&last, &got) {
				t.Fatalf("total order violated: %+v after %+v", got, last)
			}
			last, first = got, false
		}
		if ref.Len() != 0 {
			t.Fatalf("reference retains %d events", ref.Len())
		}
	})
}

// peekMatches requires the heap's peeked root to equal the container/heap
// reference's minimum, which sits at index 0 of its backing slice.
func peekMatches(t *testing.T, h *eventHeap, ref *refQueue) {
	t.Helper()
	if got, want := *h.peek(), (*ref)[0]; got != want {
		t.Fatalf("peek mismatch: eventHeap %+v, container/heap minimum %+v", got, want)
	}
}
