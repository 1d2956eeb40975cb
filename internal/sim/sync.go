package sim

import (
	"fmt"
	"math"

	"riseandshine/internal/graph"
)

// DefaultMaxRounds caps synchronous executions unless overridden.
const DefaultMaxRounds = 1_000_000

// SyncConfig describes one execution of the synchronous engine. Message
// delays are fixed at one round, so only the wake schedule of the
// adversary applies; wake times are truncated to round numbers.
type SyncConfig struct {
	Graph      *graph.Graph
	Ports      *graph.PortMap
	Model      Model
	Schedule   WakeScheduler
	Seed       int64
	Advice     [][]byte
	AdviceBits []int
	// Setup, when non-nil, supplies a prebuilt harness Setup (same contract
	// as Config.Setup on the asynchronous engine): it must match Graph,
	// Ports, Model, and Advice, and is reseeded to Seed for the run.
	Setup *Setup
	// MaxRounds overrides DefaultMaxRounds when positive.
	MaxRounds int
	// TrackPorts enables Result.PortsUsed accounting.
	TrackPorts bool
	// StrictCongest makes the run fail on CONGEST violations.
	StrictCongest bool
	// Observer, when non-nil, receives the engine's event stream with
	// round numbers as times; stack several with StackObservers.
	Observer Observer
	// Tracer, when non-nil, receives setup/run/finish execution spans on
	// track 0 (same contract as Config.Tracer on the asynchronous engine).
	Tracer ExecTracer
}

// RunSync executes alg in lock-step rounds until the network is quiescent:
// no in-flight messages, no pending adversarial wake-ups, and every awake
// machine reporting quiescence (machines that do not implement Quiescer
// are treated as quiescent). It runs on a fresh engine; use an explicit
// AsyncEngine to reuse scratch state across runs.
func RunSync(cfg SyncConfig, alg SyncAlgorithm) (*Result, error) {
	return new(AsyncEngine).RunSync(cfg, alg)
}

// syncPrograms adapts a SyncAlgorithm to the Algorithm interface, so the
// engine core's wake and deliver serve synchronous rounds unchanged. Each
// machine is boxed as a syncProgram whose OnMessage does nothing: the round
// loop hands a node its messages in one OnRound call instead. The boxes
// live in an engine-owned array with room for every node, handed out in
// wake order, so boxing allocates nothing.
type syncPrograms struct {
	alg   SyncAlgorithm
	boxes []syncProgram
}

type syncProgram struct{ SyncProgram }

func (syncProgram) OnMessage(Context, Delivery) {}

func (a *syncPrograms) Name() string { return a.alg.Name() }

func (a *syncPrograms) NewMachine(info NodeInfo) Program {
	// A node wakes at most once per run, so the append never outgrows the
	// n slots RunSync reserves and earlier boxes never move.
	a.boxes = append(a.boxes, syncProgram{a.alg.NewMachine(info)})
	return &a.boxes[len(a.boxes)-1]
}

// RunSync executes alg in lock-step rounds on the engine, resetting — not
// reallocating — the scratch left by any previous run, synchronous or not.
//
// Round r is simulated time r on the engine core, with unit delays: every
// send in round r enters the event queue at r+1. Adversarial wakes enter
// up front at ⌊At⌋, keyed by (round, node), so a round's wakes pop in
// ascending node order and before all of its messages, which are pushed
// later and carry larger sequence numbers. Each round pops every event due:
// it dispatches the wakes, buckets the deliveries by receiver with a
// counting sort and delivers them, waking sleeping receivers in ascending
// order. It then calls OnRound for every awake node in ascending order,
// each with its messages in send order as one contiguous inbox.
func (e *AsyncEngine) RunSync(cfg SyncConfig, alg SyncAlgorithm) (*Result, error) {
	tr := cfg.Tracer
	t0 := execNow(tr)
	s, wakeups, err := runInputs{
		config: "SyncConfig", scheduleField: "Schedule", alg: alg,
		graph: cfg.Graph, ports: cfg.Ports, model: cfg.Model, schedule: cfg.Schedule,
		seed: cfg.Seed, advice: cfg.Advice, adviceBits: cfg.AdviceBits, setup: cfg.Setup,
	}.resolve()
	if err != nil {
		return nil, err
	}
	n := s.Graph.N()
	e.sync.alg = alg
	e.sync.boxes = growClear(e.sync.boxes, n)[:0]
	e.offs = growClear(e.offs, n+1)
	c := e.begin(tr, &e.sync, s, UnitDelay{}, cfg.Seed, cfg.TrackPorts, cfg.Observer)

	// A wake's sequence number is its node, so the heap orders wakes by
	// (round, node); messages number on from n. A node scheduled twice in
	// one round gives two equal events, and the second wake is a no-op.
	for _, w := range wakeups {
		c.queue.push(event{at: Time(math.Floor(float64(w.At))), seq: int64(w.Node), node: int32(w.Node), slot: wakeSlot})
	}
	c.seq = int64(n)

	maxRounds := cfg.MaxRounds
	if maxRounds <= 0 {
		maxRounds = DefaultMaxRounds
	}
	res := c.acct.Result()
	t1 := setupSpan(tr, t0)

	first := int(c.queue.peek().at)
	lastActive := first
	for round := first; ; round++ {
		if round-first > maxRounds {
			return nil, fmt.Errorf("sim: round limit %d exceeded (algorithm %q may not terminate)", maxRounds, alg.Name())
		}
		active := e.syncRound(round)
		if c.err != nil {
			return nil, c.err
		}
		res.Events++
		if active {
			lastActive = round
		}
		// Quiescence: nothing queued and no machine with plans of its own.
		if c.queue.len() == 0 && e.syncQuiescent() {
			break
		}
	}

	clear(e.sync.boxes) // release the machines: a reused engine may run other work next
	res.Rounds = lastActive - first
	return finishRun(tr, t1, c.acct, Time(lastActive), c.obs, cfg.StrictCongest)
}

// syncRound runs one synchronous round and reports whether it was active:
// whether it woke a node, delivered a message or sent one. It stops at the
// first error, which it leaves in the core.
//
//wakeup:noalloc
func (e *AsyncEngine) syncRound(round int) bool {
	c := &e.core
	r := c.run
	c.round = round
	c.now = Time(round)
	seq0 := c.seq
	active := false

	// 1. Adversarial wakes, then this round's deliveries bucketed by
	// receiver. Everything sent from here on is due next round.
	due := e.due[:0]
	for c.queue.len() > 0 && c.queue.peek().at <= c.now {
		ev := c.queue.pop()
		if ev.slot >= 0 {
			//lint:noalloc-ok grows to the high-water per-round delivery count, then reuses the array
			due = append(due, ev)
		} else if !r.awake[ev.node] {
			c.wake(int(ev.node), true)
			active = true
		}
	}
	if cap(e.byNode) < len(due) {
		//lint:noalloc-ok grows to the high-water per-round delivery count, then reuses the array
		e.byNode = make([]event, cap(due))
	}
	byNode := e.byNode[:len(due)]
	// Counting sort: offs[v+1] counts v's deliveries, the prefix sums make
	// offs[v] the start of v's bucket, and the scatter advances it to the
	// end. Scattering in pop order keeps each bucket in send order.
	offs := e.offs
	for _, ev := range due {
		offs[ev.node+1]++
	}
	for v := 1; v < len(offs); v++ {
		offs[v] += offs[v-1]
	}
	for _, ev := range due {
		byNode[offs[ev.node]] = ev
		offs[ev.node]++
	}
	clear(offs)
	inbox := e.inbox[:0]
	for _, ev := range byNode {
		d := c.take(ev.slot)
		//lint:noalloc-ok grows to the high-water per-round delivery count, then reuses the array
		inbox = append(inbox, d)
		c.deliver(int(ev.node), d)
	}
	e.due, e.inbox = due, inbox
	if c.err != nil {
		return false
	}

	// 2. The computing step of every awake node, each with its messages as
	// one contiguous inbox.
	next := 0
	for v := range r.awake {
		lo := next
		for next < len(byNode) && int(byNode[next].node) == v {
			next++
		}
		if !r.awake[v] {
			continue
		}
		var in []Delivery
		if next > lo {
			in = inbox[lo:next:next]
		}
		//lint:noalloc-ok handler allocations are the algorithm's budget, pinned by the steady-state zero-alloc tests
		r.machines[v].(*syncProgram).OnRound(&r.ctxs[v], in)
		if c.err != nil {
			return false
		}
	}
	clear(inbox) // release this round's payloads
	return active || len(due) > 0 || c.seq != seq0
}

// syncQuiescent reports whether every awake machine of a synchronous run
// is quiescent.
func (e *AsyncEngine) syncQuiescent() bool {
	for i := range e.sync.boxes {
		if q, ok := e.sync.boxes[i].SyncProgram.(Quiescer); ok && !q.Quiescent() {
			return false
		}
	}
	return true
}
