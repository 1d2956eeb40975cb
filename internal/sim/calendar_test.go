package sim

import (
	"bytes"
	"math/rand"
	"testing"

	"riseandshine/internal/graph"
)

// diffQueues interleaves the given pushes with random pops on both the
// calendar queue and the 4-ary heap and requires identical pop sequences —
// the byte-identical-ordering contract behind Config.Queue.
func diffQueues(t *testing.T, rng *rand.Rand, capacity int, evs []event) {
	t.Helper()
	var cal calendarQueue
	var h eventHeap
	cal.reset(capacity)
	h.reset(capacity)
	i := 0
	for step := 0; i < len(evs) || cal.len() > 0; step++ {
		push := i < len(evs) && (cal.len() == 0 || rng.Intn(2) == 0)
		if push {
			cal.push(evs[i])
			h.push(evs[i])
			i++
			continue
		}
		got, want := cal.pop(), h.pop()
		if got != want {
			t.Fatalf("step %d: calendar popped %+v, heap popped %+v", step, got, want)
		}
	}
	if h.len() != 0 {
		t.Fatalf("heap retains %d events after calendar drained", h.len())
	}
}

// TestCalendarMatchesHeapRandom runs the same differential workload the
// heap was pinned with — random timestamps with heavy duplication, and
// pops interleaved arbitrarily, so pushes land in the calendar's past and
// exercise the current-bucket clamp.
func TestCalendarMatchesHeapRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		diffQueues(t, rng, 1+rng.Intn(2048), randomEvents(rng, 200))
	}
}

// TestCalendarMatchesHeapQuantized drives the adversarial tie-heavy
// pattern: delays quantized to a coarse lattice so whole batches of events
// share exact timestamps and order is decided by seq alone, plus lattices
// incommensurate with the bucket width so events straddle bucket
// boundaries.
func TestCalendarMatchesHeapQuantized(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, quantum := range []float64{1, 0.5, 0.125, 1.0 / 3, 0.1, 1.0 / 48} {
		for trial := 0; trial < 10; trial++ {
			evs := make([]event, 300)
			for i := range evs {
				evs[i] = event{
					at:   Time(float64(rng.Intn(40)) * quantum),
					seq:  int64(i),
					node: int32(i),
					slot: int32(i),
				}
			}
			diffQueues(t, rng, 256, evs)
		}
	}
}

// TestCalendarMatchesHeapEnginePattern mimics the engine's actual usage:
// time only moves forward, and every push lands within (now, now+τ] — the
// bounded-horizon structure the calendar exploits. The queue starts from
// an unsorted wake schedule including far-future wakes that must take the
// overflow path and migrate back into the ring.
func TestCalendarMatchesHeapEnginePattern(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 20; trial++ {
		var cal calendarQueue
		var h eventHeap
		cal.reset(512)
		h.reset(512)
		var seq int64
		push := func(at Time) {
			ev := event{at: at, seq: seq, node: int32(seq), slot: int32(seq)}
			seq++
			cal.push(ev)
			h.push(ev)
		}
		// Wake schedule: bursts at time 0 plus stragglers far beyond the
		// ring horizon (slot ≥ nb), unsorted.
		for i := 0; i < 10; i++ {
			push(Time(rng.Float64() * 2000))
		}
		for i := 0; i < 10; i++ {
			push(0)
		}
		for step := 0; cal.len() > 0; step++ {
			got, want := cal.pop(), h.pop()
			if got != want {
				t.Fatalf("trial %d step %d: calendar popped %+v, heap popped %+v", trial, step, got, want)
			}
			now := got.at
			// Deliveries within (now, now+1], sometimes exactly now+1
			// (unit-delay ties), sometimes quantized.
			if step < 4000 {
				for k := rng.Intn(3); k > 0; k-- {
					switch rng.Intn(3) {
					case 0:
						push(now + 1)
					case 1:
						push(now + Time(rng.Float64()))
					default:
						push(now + Time(float64(1+rng.Intn(8))/8))
					}
				}
			}
		}
		if h.len() != 0 {
			t.Fatalf("trial %d: heap retains %d events", trial, h.len())
		}
	}
}

// TestCalendarFarFuture pins the overflow path on extreme timestamps,
// including ones whose slot arithmetic would overflow without the
// calendarMaxSlot clamp.
func TestCalendarFarFuture(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	ats := []Time{0, 1, 1e6, 1e6 + 0.5, 1e12, 3e18, 3e18, 9e18, 2.5, 1e6}
	evs := make([]event, len(ats))
	for i, at := range ats {
		evs[i] = event{at: at, seq: int64(i), node: int32(i), slot: int32(i)}
	}
	diffQueues(t, rng, 256, evs)
}

// TestCalendarResetReusesBacking checks the reset contract: same ring size
// keeps bucket storage; the queue is empty and usable after reset.
func TestCalendarResetReusesBacking(t *testing.T) {
	var q calendarQueue
	q.reset(1024)
	nb := q.nb
	for i := 0; i < 500; i++ {
		q.push(event{at: Time(float64(i) / 250), seq: int64(i)})
	}
	for i := 0; i < 100; i++ {
		q.pop()
	}
	q.reset(1024)
	if q.len() != 0 {
		t.Fatalf("reset left %d events", q.len())
	}
	if q.nb != nb {
		t.Fatalf("reset with the same hint resized the ring: %d -> %d", nb, q.nb)
	}
	for i, evs := range q.buckets {
		if len(evs) != 0 || q.head[i] != 0 {
			t.Fatalf("bucket %d not emptied by reset: len %d head %d", i, len(evs), q.head[i])
		}
	}
	// The queue stays correct after reuse.
	q.push(event{at: 1, seq: 0})
	q.push(event{at: 0.5, seq: 1})
	if got := q.pop(); got.at != 0.5 {
		t.Fatalf("reused queue popped %+v first", got)
	}
}

// FuzzCalendarQueue feeds adversarial push/pop scripts through the
// calendar queue and the heap and requires identical pops — the same
// harness that pinned the heap to container/heap, now pinning the calendar
// to the heap.
func FuzzCalendarQueue(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 0, 255, 2, 2}, int64(1))
	f.Add([]byte{10, 10, 10, 10, 10, 10, 10, 10}, int64(42))
	f.Add([]byte{7, 3, 7, 3, 7, 3, 255, 255, 0}, int64(9))
	f.Add([]byte{}, int64(0))
	f.Fuzz(func(t *testing.T, script []byte, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		var cal calendarQueue
		var h eventHeap
		cal.reset(64)
		h.reset(64)
		var seq int64
		var ats []Time
		for _, b := range script {
			if b%4 == 3 && cal.len() > 0 {
				got, want := cal.pop(), h.pop()
				if got != want {
					t.Fatalf("pop mismatch: calendar %+v, heap %+v", got, want)
				}
				continue
			}
			// Coarse timestamps make collisions common; some bytes reuse an
			// existing timestamp exactly, some go far beyond the ring.
			var at Time
			switch {
			case b%4 == 2 && len(ats) > 0:
				at = ats[rng.Intn(len(ats))]
			case b%16 == 1:
				at = Time(float64(b) * 1e9)
			default:
				at = Time(b % 8)
			}
			ats = append(ats, at)
			ev := event{at: at, seq: seq, node: int32(b), slot: int32(b)}
			seq++
			cal.push(ev)
			h.push(ev)
		}
		for cal.len() > 0 {
			got, want := cal.pop(), h.pop()
			if got != want {
				t.Fatalf("drain mismatch: calendar %+v, heap %+v", got, want)
			}
		}
		if h.len() != 0 {
			t.Fatalf("heap retains %d events", h.len())
		}
	})
}

// TestCalendarEngineByteIdentical is the cross-engine acceptance guard:
// the full mixed workload (random graphs, schedules, random delays, digest
// recording) must produce byte-for-byte identical Results with the
// calendar queue selected, on fresh and on reused engines.
func TestCalendarEngineByteIdentical(t *testing.T) {
	eng := &AsyncEngine{}
	for i, cfg := range reuseConfigs(t) {
		alg := fuzzAlg{budget: 12}
		heapRes, err := RunAsync(cfg, alg)
		if err != nil {
			t.Fatalf("run %d heap: %v", i, err)
		}
		cfg.Queue = QueueCalendar
		calRes, err := RunAsync(cfg, alg)
		if err != nil {
			t.Fatalf("run %d calendar: %v", i, err)
		}
		a, b := marshalResult(t, heapRes), marshalResult(t, calRes)
		if !bytes.Equal(a, b) {
			t.Fatalf("run %d: calendar queue diverged from heap\nheap:     %s\ncalendar: %s", i, a, b)
		}
		reused, err := eng.Run(cfg, alg)
		if err != nil {
			t.Fatalf("run %d calendar reused: %v", i, err)
		}
		if c := marshalResult(t, reused); !bytes.Equal(a, c) {
			t.Fatalf("run %d: reused calendar engine diverged\nheap:     %s\ncalendar: %s", i, a, c)
		}
	}
}

// TestCalendarSteadyStateZeroAllocs extends the zero-alloc guarantee to the
// calendar queue: with a warmed engine, allocation count per run is a small
// constant independent of traffic, so bucket storage, migration, and the
// occupancy bitmap all reuse their backing arrays.
func TestCalendarSteadyStateZeroAllocs(t *testing.T) {
	measure := func(n int) (allocs float64, messages int) {
		g := graph.Complete(n)
		s, err := NewSetup(g, nil, Model{Knowledge: KT0, Bandwidth: Local}, 1, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		eng := &AsyncEngine{}
		cfg := Config{
			Graph:     g,
			Model:     Model{Knowledge: KT0, Bandwidth: Local},
			Adversary: Adversary{Schedule: WakeSet{Nodes: []int{0}}},
			Seed:      1,
			Setup:     s,
			Queue:     QueueCalendar,
		}
		run := func() *Result {
			res, err := eng.Run(cfg, floodAlg{})
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		messages = run().Messages // also warms the engine scratch
		return testing.AllocsPerRun(5, func() { run() }), messages
	}
	smallAllocs, smallMsgs := measure(12)
	bigAllocs, bigMsgs := measure(40)
	if bigMsgs < 8*smallMsgs {
		t.Fatalf("workloads not separated: %d vs %d messages", smallMsgs, bigMsgs)
	}
	if bigAllocs != smallAllocs {
		t.Errorf("allocation count scales with traffic: %.0f allocs at %d msgs, %.0f allocs at %d msgs (want equal)",
			smallAllocs, smallMsgs, bigAllocs, bigMsgs)
	}
	if bigAllocs > 40 {
		t.Errorf("per-run constant allocation count too high: %.0f", bigAllocs)
	}
}

// TestCalendarEngineTieHeavy crosses the queues under the delay patterns
// the calendar finds hardest: exact unit delays (every delivery ties at
// integer times) and a staggered far-future wake schedule that exercises
// overflow migration mid-run.
func TestCalendarEngineTieHeavy(t *testing.T) {
	graphs := []*graph.Graph{
		graph.Complete(16),
		graph.BinaryTree(127),
		graph.Torus(6, 6),
	}
	schedules := []WakeScheduler{
		WakeSet{Nodes: []int{0}},
		StaggeredWake{Sizes: []int{1, 1, 1}, Gap: 700},
		RandomWake{Count: 4, Window: 2000, Seed: 3},
	}
	for gi, g := range graphs {
		for si, sched := range schedules {
			for _, delays := range []Delayer{UnitDelay{}, RandomDelay{Seed: 7}} {
				cfg := Config{
					Graph:         g,
					Model:         Model{Knowledge: KT0, Bandwidth: Local},
					Adversary:     Adversary{Schedule: sched, Delays: delays},
					Seed:          int64(gi*10 + si),
					RecordDigests: true,
				}
				heapRes, err := RunAsync(cfg, floodAlg{})
				if err != nil {
					t.Fatalf("graph %d sched %d heap: %v", gi, si, err)
				}
				cfg.Queue = QueueCalendar
				calRes, err := RunAsync(cfg, floodAlg{})
				if err != nil {
					t.Fatalf("graph %d sched %d calendar: %v", gi, si, err)
				}
				a, b := marshalResult(t, heapRes), marshalResult(t, calRes)
				if !bytes.Equal(a, b) {
					t.Fatalf("graph %d sched %d delays %T: calendar diverged\nheap:     %s\ncalendar: %s", gi, si, delays, a, b)
				}
			}
		}
	}
}
