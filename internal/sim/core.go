package sim

import (
	"fmt"
	"math/rand"

	"riseandshine/internal/graph"
)

// This file is the engine core shared by the sequential AsyncEngine, its
// synchronous rounds (RunSync) and the ShardedEngine: one event loop over a
// contiguous node range. The sequential engine is a single core spanning
// [0, n); the sharded engine runs one core per partition and reconciles
// them at window barriers (see sharded.go and DESIGN.md "Sharded engine").
//
// The split keeps every per-message code path — wake, deliver, send, the
// FIFO clamp, CONGEST accounting — in exactly one place, so the engines
// cannot drift: byte-identical Results are a structural property,
// pinned end to end by the differential tests.

// runShared is the per-run state shared by every core of one engine:
// the immutable run configuration plus the scratch arrays that cores
// access on disjoint index ranges (nodes for awake/machines/rands/ctxs,
// CSR edge slots for fifoLast/edgeSeq). Disjointness is what makes the
// sharded engine race-free without any locking on the hot path.
type runShared struct {
	alg    Algorithm
	s      *Setup
	delays Delayer
	seed   int64

	// Reusable scratch: reset, not reallocated (see DESIGN.md "Event
	// core"). Per-directed-edge state is indexed CSR-style through
	// Setup.EdgeStart: the out-edge of node v addressed by port p lives at
	// flat index EdgeStart[v]+p-1. A core only touches the slots of its
	// own node range.
	awake    []bool
	seeded   []bool // node's generator reseeded this run (first Rand call)
	machines []Program
	ctxs     []coreCtx
	fifoLast []Time  // last scheduled delivery time (zero value never clamps: delivery times are > 0)
	edgeSeq  []int32 // messages sent so far on the edge

	// Per-node randomness as flat SoA state: rngs[v] is node v's 16-byte
	// PCG generator and rands[v] the *rand.Rand wrapper bound to &rngs[v].
	// Both arrays are pointer-free into the heap graph (the wrapper's
	// source interface points back into rngs, which the two-slices-grow-
	// together invariant keeps stable), so a million-node table is 64 B per
	// node of cache-local state instead of 10⁶ separately boxed ~5 KiB
	// lagged-Fibonacci tables. State is seeded lazily: a node's generator
	// holds garbage until its first Rand() call of the run reseeds it
	// (ReseedNode, O(1); seeded[v] records it), so per-run RNG cost is
	// proportional to the nodes that actually draw — nothing for
	// algorithms, such as flood, that never do.
	rngs  []PCG
	rands []rand.Rand

	// part is the node partition in sharded runs; nil in the sequential
	// engine, whose send path then pushes straight into the core's queue.
	part *Partition
}

// begin is the shared start step of every run on every engine, called
// once the run's inputs are resolved: it declares the run's execution-trace
// tracks, binds the inputs, and sizes and clears the shared scratch for the
// topology, reusing backing arrays whenever they are large enough. The RNG
// tables are deliberately kept across runs: a node's first Rand() call
// reseeds its generator to the run's stream, which produces exactly the
// bits a fresh NodeRand would (see ReseedNode), so only growth ever
// reallocates them; clearing seeded is what makes the next run reseed.
// On growth the wrapper table is rebound element by element — rands[v]
// must wrap &rngs[v] of the *new* backing array — which is the one O(n)
// RNG cost left anywhere (64 B of writes per node; the old per-node
// lagged-Fibonacci sources cost ~5 KiB and O(607) seeding work each).
func (r *runShared) begin(tr ExecTracer, tracks int, alg Algorithm, s *Setup, delays Delayer, seed int64, part *Partition) {
	if tr != nil {
		tr.ExecBegin(tracks)
	}
	r.alg = alg
	r.s = s
	r.delays = delays
	r.seed = seed
	r.part = part
	n := s.Graph.N()
	r.awake = growClear(r.awake, n)
	r.seeded = growClear(r.seeded, n)
	r.machines = growClear(r.machines, n)
	r.ctxs = growClear(r.ctxs, n)
	r.fifoLast = growClear(r.fifoLast, int(s.EdgeStart[n]))
	r.edgeSeq = growClear(r.edgeSeq, int(s.EdgeStart[n]))
	if len(r.rngs) < n {
		r.rngs = make([]PCG, n)
		r.rands = make([]rand.Rand, n)
		for v := range r.rands {
			r.rands[v] = *rand.New(&r.rngs[v])
		}
	}
}

// execNow reads the tracer's clock, or returns 0 without a tracer: the
// start of a run's setup span.
func execNow(tr ExecTracer) int64 {
	if tr == nil {
		return 0
	}
	return tr.ExecNow()
}

// setupSpan records the setup span [t0, now) on track 0 and returns its
// end, the start of the run span.
func setupSpan(tr ExecTracer, t0 int64) int64 {
	if tr == nil {
		return 0
	}
	t1 := tr.ExecNow()
	tr.ExecRecord(ExecSpan{Track: 0, Kind: ExecSetup, Start: t0, End: t1})
	return t1
}

// finishRun is the shared finish step of every run: it records the run
// span [t1, now) with the Result's event count, closes the accounting at
// the end time, hands the Result to the observer, enforces StrictCongest,
// and records the finish span.
func finishRun(tr ExecTracer, t1 int64, acct *Accounting, end Time, obs Observer, strict bool) (*Result, error) {
	res := acct.Result()
	var t2 int64
	if tr != nil {
		t2 = tr.ExecNow()
		tr.ExecRecord(ExecSpan{Track: 0, Kind: ExecRun, Events: int64(res.Events), Start: t1, End: t2})
	}
	acct.Finish(end)
	if obs != nil {
		if err := obs.OnFinish(res); err != nil {
			return res, fmt.Errorf("sim: %w", err)
		}
	}
	if strict {
		if err := acct.CongestError(); err != nil {
			return res, err
		}
	}
	if tr != nil {
		tr.ExecRecord(ExecSpan{Track: 0, Kind: ExecFinish, Start: t2, End: tr.ExecNow()})
	}
	return res, nil
}

// Observer record kinds for the sharded engine's record/replay channel.
const (
	recWake = iota + 1
	recDeliver
	recSend
)

// obsRecord is one deferred observer call. Cores in a sharded run cannot
// call the user's Observer directly — calls would interleave across
// goroutines — so each core appends records tagged with the key (at, vseq)
// of the event being processed, and the coordinator replays the merged
// streams in key order at every window barrier, reproducing the sequential
// engine's exact call sequence (see sharded.go).
type obsRecord struct {
	kAt   Time
	kVseq int64
	kind  uint8
	adv   bool
	node  int      // woken/receiving node, or the sender for recSend
	port  int      // sender-side port for recSend
	d     Delivery // recDeliver payload; recSend stores the Message in d.Msg
}

// stagedSend is one message staged in a core's outbox during a window. The
// key (pAt, pVseq) identifies the sending (parent) event; the barrier merge
// orders children by parent key — stable within a core — which reproduces
// the sequential engine's global push order exactly, so the vseq numbers
// assigned at the barrier equal the seq numbers the sequential engine would
// have used (see sharded.go).
type stagedSend struct {
	heldEvent
	pAt   Time
	pVseq int64
	dest  uint8 // destination shard (Partition.EdgeShard)
}

// heldEvent is an event together with its payload, by value: the form in
// which a delivery crosses between cores. A core's slab is never shared
// with another goroutine, so staged sends and inboxes carry the Delivery
// itself, and the receiving core takes a slot in its own slab when it
// pushes the event (see runWindow). Wakes carry a zero Delivery.
type heldEvent struct {
	ev event
	d  Delivery
}

// engineCore is one event loop over a contiguous node range, whose
// contexts begin binds to the core. The sequential engine owns a single core with staging off; the sharded
// engine owns one per partition with staging on, in which case push never
// runs — every send is staged and events enter the queue only through the
// inbox at window starts, already carrying their barrier-assigned vseq.
type engineCore struct {
	run *runShared

	queue eventHeap

	// Payload slab: the Delivery of every pending delivery event, addressed
	// by event.slot. It is written once at send (hold) and read and freed
	// once at dispatch (take); freed slots go on a LIFO free list, so the
	// slab grows to the high-water pending population and the next send
	// reuses the slot — still in cache — that the last dispatch freed.
	slab []Delivery
	free []int32

	acct *Accounting
	obs  Observer // direct observer; nil in sharded cores (recOn instead)

	now   Time
	round int   // Context.Round: the round number on a synchronous run, AsyncRound otherwise
	seq   int64 // sequential push counter; unused when staging
	err   error

	// Sharded-mode state. curAt/curVseq are the key of the event being
	// processed — the tag for staged children and observer records.
	staging bool
	recOn   bool
	curAt   Time
	curVseq int64
	staged  []stagedSend
	rec     []obsRecord
	events  int  // events processed by this core this run
	lastAt  Time // time of the last processed event
	nextAt  Time // after a window: time of the first event ≥ windowEnd
}

// begin resets the core for a run over the node range [lo, hi) of run and
// binds those nodes' contexts to it: the per-core half of the start step.
// Contexts are rebound every run, since the core that owns a node can
// change between runs of a sharded engine. A staging core (sharded runs)
// stages every send and records observer calls when obs is non-nil; a
// non-staging core pushes sends into its own queue and calls obs directly.
// capacity pre-sizes the event queue and payload slab.
func (c *engineCore) begin(run *runShared, lo, hi int, acct *Accounting, obs Observer, staging bool, capacity int) {
	c.run = run
	for v := lo; v < hi; v++ {
		run.ctxs[v] = coreCtx{c: c, node: v}
	}
	c.acct = acct
	c.obs, c.recOn = obs, false
	if staging {
		c.obs, c.recOn = nil, obs != nil
	}
	c.staging = staging
	c.now, c.round, c.seq, c.err = 0, AsyncRound, 0, nil
	c.curAt, c.curVseq = 0, 0
	c.events, c.lastAt, c.nextAt = 0, 0, infTime
	truncateStaged(c)
	truncateRec(c)
	c.queue.reset(capacity)
	c.resetSlab(capacity)
}

// coreCtx is the Context handed to machine handlers; it is bound to one
// node of one core. The engine keeps a per-node table of these and hands
// out pointers, so the Context-interface conversion never allocates on the
// per-message path.
type coreCtx struct {
	c    *engineCore
	node int
}

var _ Context = (*coreCtx)(nil)

//wakeup:noalloc
func (c *coreCtx) Info() NodeInfo { return c.c.run.s.Infos[c.node] }

//wakeup:noalloc
func (c *coreCtx) Now() Time { return c.c.now }

//wakeup:noalloc
func (c *coreCtx) Round() int { return c.c.round }

// Rand returns the node's private generator, reseeding it to the run's
// stream on the node's first call of the run. Every draw goes through
// here, so the stream is exactly NodeRand(seed, v) whenever it is first
// read; nodes that never draw never pay for the reseed.
//
//wakeup:noalloc
func (c *coreCtx) Rand() *rand.Rand {
	r := c.c.run
	if !r.seeded[c.node] {
		r.seeded[c.node] = true
		ReseedNode(&r.rands[c.node], r.seed, c.node)
	}
	return &r.rands[c.node]
}

//wakeup:noalloc
func (c *coreCtx) AdversarialWake() bool { return c.c.acct.AdversaryWoken(c.node) }

//wakeup:noalloc
func (c *coreCtx) Send(port int, m Message) {
	c.c.send(c.node, port, m)
}

//wakeup:noalloc
func (c *coreCtx) SendToID(id graph.NodeID, m Message) {
	c.c.sendToID(c.node, id, m)
}

//wakeup:noalloc
func (c *coreCtx) Broadcast(m Message) {
	start := c.c.run.s.EdgeStart
	deg := int(start[c.node+1] - start[c.node])
	for p := 1; p <= deg; p++ {
		c.c.send(c.node, p, m)
	}
}

//wakeup:noalloc
func (c *engineCore) push(ev event) {
	ev.seq = c.seq
	c.seq++
	c.queue.push(ev)
}

// hold stores d in the payload slab and returns its slot.
//
//wakeup:noalloc
func (c *engineCore) hold(d Delivery) int32 {
	if k := len(c.free) - 1; k >= 0 {
		s := c.free[k]
		c.free = c.free[:k]
		c.slab[s] = d
		return s
	}
	//lint:noalloc-ok grows to the high-water pending-delivery count, then reuses the array (resetSlab keeps capacity)
	c.slab = append(c.slab, d)
	return int32(len(c.slab) - 1)
}

// take returns the Delivery in slot s and frees the slot, releasing its
// Msg reference so a reused slab does not pin payloads.
//
//wakeup:noalloc
func (c *engineCore) take(s int32) Delivery {
	d := c.slab[s]
	c.slab[s] = Delivery{}
	//lint:noalloc-ok the free list never holds more slots than the slab, so it grows to the slab's high-water mark, then reuses the array
	c.free = append(c.free, s)
	return d
}

// resetSlab empties the payload slab and its free list, keeping capacity
// and growing it toward the queue's capacity hint, so a fresh engine does
// not climb to its pending population one append growth step at a time.
// Slots still live when a run aborted hold payloads, so they are cleared.
func (c *engineCore) resetSlab(capacity int) {
	if cap(c.slab) < capacity {
		c.slab = make([]Delivery, 0, capacity)
		c.free = make([]int32, 0, capacity)
		return
	}
	clear(c.slab)
	c.slab = c.slab[:0]
	c.free = c.free[:0]
}

// dispatch runs one popped event: a wake (negative slot) or the delivery
// whose payload sits in the event's slab slot.
//
//wakeup:noalloc
func (c *engineCore) dispatch(ev event) {
	if ev.slot < 0 {
		c.wake(int(ev.node), true)
		return
	}
	c.deliver(int(ev.node), c.take(ev.slot))
}

// record appends one deferred observer call tagged with the current event
// key (sharded runs only; see obsRecord).
//
//wakeup:noalloc
func (c *engineCore) record(kind uint8, node, port int, adv bool, d Delivery) {
	//lint:noalloc-ok grows to the window's high-water record count, then reuses the array (the barrier truncates, keeping capacity)
	c.rec = append(c.rec, obsRecord{
		kAt: c.curAt, kVseq: c.curVseq,
		kind: kind, adv: adv, node: node, port: port, d: d,
	})
}

// stage appends one outgoing message to the core's outbox instead of the
// event queue; the window barrier merges outboxes across cores, assigns
// vseq numbers, and routes each event to its destination shard's inbox.
//
//wakeup:noalloc
func (c *engineCore) stage(ev event, d Delivery, dest uint8) {
	//lint:noalloc-ok grows to the window's high-water outbox size, then reuses the array (the barrier truncates, keeping capacity)
	c.staged = append(c.staged, stagedSend{heldEvent: heldEvent{ev: ev, d: d}, pAt: c.curAt, pVseq: c.curVseq, dest: dest})
}

//wakeup:noalloc
func (c *engineCore) wake(v int, adversarial bool) {
	r := c.run
	if r.awake[v] {
		return
	}
	r.awake[v] = true
	c.acct.Wake(v, c.now, adversarial)
	if c.obs != nil {
		//lint:noalloc-ok observers are opt-in diagnostics on their own allocation budget; the nil guard keeps the default path clean
		c.obs.OnWake(c.now, v, adversarial)
	} else if c.recOn {
		c.record(recWake, v, 0, adversarial, Delivery{})
	}
	//lint:noalloc-ok one machine per node per run, charged to the algorithm's budget
	r.machines[v] = r.alg.NewMachine(r.s.Infos[v])
	//lint:noalloc-ok handler allocations are the algorithm's budget, pinned by the steady-state zero-alloc tests
	r.machines[v].OnWake(&r.ctxs[v])
}

//wakeup:noalloc
func (c *engineCore) deliver(v int, d Delivery) {
	r := c.run
	if !r.awake[v] {
		c.wake(v, false)
		if c.err != nil {
			return
		}
	}
	c.acct.Deliver(v, d.Port)
	if c.obs != nil {
		//lint:noalloc-ok observers are opt-in diagnostics on their own allocation budget; the nil guard keeps the default path clean
		c.obs.OnDeliver(c.now, v, d)
	} else if c.recOn {
		c.record(recDeliver, v, 0, false, d)
	}
	//lint:noalloc-ok handler allocations are the algorithm's budget, pinned by the steady-state zero-alloc tests
	r.machines[v].OnMessage(&r.ctxs[v], d)
}

//wakeup:noalloc
func (c *engineCore) send(from, port int, m Message) {
	if c.err != nil {
		return
	}
	r := c.run
	if !r.awake[from] {
		//lint:noalloc-ok error formatting aborts the run; never on the steady-state path
		c.err = fmt.Errorf("sim: sleeping node %d attempted to send", from)
		return
	}
	s := r.s
	ei := s.EdgeStart[from] + int32(port) - 1
	if port < 1 || ei >= s.EdgeStart[from+1] {
		// Same contract (and message) as graph.PortMap.Neighbor.
		//lint:noalloc-ok panic formatting on the programming-error path only
		panic(fmt.Sprintf("graph: node %d has no port %d (degree %d)", from, port, s.EdgeStart[from+1]-s.EdgeStart[from]))
	}
	to := int(s.EdgeTo[ei])
	if err := c.acct.Send(from, port, m.Bits()); err != nil {
		c.err = err
		return
	}
	if c.obs != nil {
		//lint:noalloc-ok observers are opt-in diagnostics on their own allocation budget; the nil guard keeps the default path clean
		c.obs.OnSend(c.now, from, port, m)
	} else if c.recOn {
		c.record(recSend, from, port, false, Delivery{Msg: m})
	}

	k := int(r.edgeSeq[ei])
	r.edgeSeq[ei]++
	delay := r.delays.Delay(from, to, k, c.now)
	if delay <= 0 || delay > 1 {
		//lint:noalloc-ok error formatting aborts the run; never on the steady-state path
		c.err = fmt.Errorf("sim: delayer returned %v outside (0,1]", delay)
		return
	}
	at := c.now + Time(delay)
	if last := r.fifoLast[ei]; at < last {
		at = last // enforce per-edge FIFO delivery
	}
	r.fifoLast[ei] = at

	d := Delivery{
		Msg:        m,
		Port:       int(s.RevPort[ei]),
		SenderPort: port,
		From:       s.SenderIDs[from],
	}
	if c.staging {
		// Any slot ≥ 0 marks a delivery; the receiving core assigns the
		// real one when it pushes the inbox (runWindow).
		c.stage(event{at: at, node: int32(to), slot: 0}, d, r.part.EdgeShard[ei])
	} else {
		c.push(event{at: at, node: int32(to), slot: c.hold(d)})
	}
}

//wakeup:noalloc
func (c *engineCore) sendToID(from int, id graph.NodeID, m Message) {
	r := c.run
	if r.s.Model.Knowledge != KT1 {
		//lint:noalloc-ok error formatting aborts the run; never on the steady-state path
		c.err = fmt.Errorf("sim: SendToID requires KT1 (model is %v)", r.s.Model.Knowledge)
		return
	}
	g := r.s.Graph
	to := g.IndexOf(id)
	if to == -1 || !g.HasEdge(from, to) {
		//lint:noalloc-ok error formatting aborts the run; never on the steady-state path
		c.err = fmt.Errorf("sim: node ID %d has no neighbor with ID %d", g.ID(from), id)
		return
	}
	c.send(from, r.s.Ports.PortTo(from, to), m)
}

// runWindow is the sharded per-core loop for one window: push the inbox
// (events already carry their barrier-assigned vseq; each delivery takes a
// slot in this core's own slab here, so no slab is ever shared between
// goroutines), then drain every event strictly before windowEnd, staging
// all children. The lookahead
// invariant — every child's delivery time is at least one window width
// after its parent — guarantees nothing pushed during the window is
// processed in it, so the drain is bounded by the pending population.
// budget caps the core's total events as a runaway guard; the coordinator
// converts budget exhaustion into the engine's event-limit error.
//
//wakeup:noalloc
func (c *engineCore) runWindow(inbox []heldEvent, windowEnd Time, budget int) {
	for i := range inbox {
		ev := inbox[i].ev
		if ev.slot >= 0 {
			ev.slot = c.hold(inbox[i].d)
		}
		c.queue.push(ev)
	}
	c.nextAt = infTime
	for c.queue.len() > 0 {
		top := c.queue.peek()
		if top.at >= windowEnd {
			c.nextAt = top.at
			return
		}
		ev := c.queue.pop()
		c.now = ev.at
		c.curAt = ev.at
		c.curVseq = ev.seq
		c.events++
		c.lastAt = ev.at
		c.dispatch(ev)
		if c.err != nil || c.events >= budget {
			c.nextAt = c.now
			return
		}
	}
}
