package sim

import (
	"io"

	"riseandshine/internal/graph"
)

// DefaultMaxEvents caps the number of engine events processed in one run
// unless overridden, guarding against non-terminating algorithms.
const DefaultMaxEvents = 20_000_000

// Config describes one execution of the asynchronous engine.
type Config struct {
	// Graph is the network topology (required).
	Graph *graph.Graph
	// Ports is the KT0 port mapping; nil selects the identity mapping.
	Ports *graph.PortMap
	// Model selects knowledge and bandwidth assumptions.
	Model Model
	// Adversary supplies the wake schedule (required) and delays
	// (UnitDelay when nil).
	Adversary Adversary
	// Seed drives all node-private randomness.
	Seed int64
	// Advice and AdviceBits carry the oracle's output; both nil when the
	// scheme uses no advice. AdviceBits[v] is the exact bit length charged
	// to node v.
	Advice     [][]byte
	AdviceBits []int
	// Setup, when non-nil, supplies a prebuilt harness Setup so sweeps can
	// amortize the per-topology work (NodeInfo tables, CSR edge metadata)
	// across runs. It must have been built from the same Graph, Ports,
	// Model, and Advice as this Config; the run seed is taken from Seed
	// (the Setup is reseeded via WithSeed), so one cached Setup serves an
	// entire seed matrix.
	Setup *Setup
	// MaxEvents overrides DefaultMaxEvents when positive.
	MaxEvents int
	// Shards is the partition count for ShardedEngine.Run: the graph is
	// split into that many contiguous node ranges, each driven by its own
	// event loop, synchronized at lookahead-quantized windows with results
	// byte-identical to the sequential engine at every count. Values ≤ 1
	// select the sequential path; AsyncEngine ignores the field entirely.
	Shards int
	// TrackPorts enables per-node distinct-port accounting (Result.PortsUsed).
	TrackPorts bool
	// RecordDigests installs a DigestObserver: per-node transcript digests
	// land in Result.TranscriptDigests. Shorthand for stacking
	// NewDigestObserver(false) onto Observer.
	RecordDigests bool
	// StrictCongest makes the run fail if any message exceeds the CONGEST
	// bit limit; otherwise violations are only counted.
	StrictCongest bool
	// MemReport publishes the run's peak scratch footprint by subsystem
	// into Result.Mem. Off by default so Results stay comparable across
	// fresh and reused engines and across shard counts.
	MemReport bool
	// Trace installs a TraceObserver writing one CSV line per engine event
	// (wake or delivery) to the writer; see the tracer documentation in
	// trace.go. Shorthand for stacking NewTraceObserver(w) onto Observer.
	Trace io.Writer
	// Observer, when non-nil, receives the engine's event stream; stack
	// several with StackObservers. The hot path stays allocation-free when
	// no observer is installed.
	Observer Observer
	// Tracer, when non-nil, receives execution spans (setup/run/finish for
	// the sequential engines; per-window busy/barrier/merge/replay spans
	// for the sharded engine). Timestamps come from the tracer's injected
	// clock and never enter the Result, so a traced run stays
	// byte-identical to an untraced one. Nil costs one pointer comparison
	// per phase — never per event.
	Tracer ExecTracer
}

// event is one pending engine event: a wake or a delivery at node, ordered
// by the (at, seq) key. It is a pointer-free 24-byte record — the
// Delivery it carries lives in the owning core's payload slab, addressed
// by slot — so the queue moves small flat values the garbage collector
// never scans (see DESIGN.md "Event core"; TestEventSlimPointerFree pins
// the layout).
type event struct {
	at   Time
	seq  int64
	node int32
	slot int32 // payload slab index; wakeSlot marks a wake
}

// wakeSlot is the slot of a wake event, which carries no payload. Any
// negative slot means a wake.
const wakeSlot int32 = -1

// AsyncEngine is a reusable instance of the asynchronous engine. The zero
// value is ready to use: Run allocates the scratch state — event queue,
// awake/machine/RNG tables, per-edge FIFO clamp and sequence arrays — on
// first use and thereafter resets it in place rather than reallocating, so
// repeated runs (a seed sweep over a fixed topology) allocate nothing per
// delivered message in steady state. Combined with Config.Setup the
// per-run cost drops to the Result being assembled.
//
// An AsyncEngine is a single engineCore spanning the whole node range; the
// sharded engine runs many cores over a partition (see ShardedEngine).
// RunSync drives the same core in lock-step rounds, so one engine serves
// synchronous and asynchronous runs alike.
//
// An AsyncEngine is not safe for concurrent use and must not be copied
// after its first Run (per-node contexts hold a pointer to its core); give
// each sweep worker its own.
type AsyncEngine struct {
	run  runShared
	core engineCore

	// RunSync's scratch: the SyncProgram adapter with its machine boxes,
	// the current round's delivery events in pop order and bucketed by
	// receiver, the n+1 bucket offsets of the counting sort (zero between
	// rounds), and the round's inbox.
	sync   syncPrograms
	due    []event
	byNode []event
	offs   []int32
	inbox  []Delivery
}

// RunAsync executes alg on the configured network until the event queue is
// exhausted and returns the collected metrics. It runs on a fresh engine;
// use an explicit AsyncEngine to reuse scratch state across runs.
func RunAsync(cfg Config, alg Algorithm) (*Result, error) {
	return new(AsyncEngine).Run(cfg, alg)
}

// setupForRun validates the config surface shared by the sequential and
// sharded engines and resolves the run's Setup, delayer, and wake schedule.
func setupForRun(cfg Config, alg Algorithm) (*Setup, Delayer, []Wakeup, error) {
	s, wakeups, err := runInputs{
		config: "Config", scheduleField: "Adversary.Schedule", alg: alg,
		graph: cfg.Graph, ports: cfg.Ports, model: cfg.Model, schedule: cfg.Adversary.Schedule,
		seed: cfg.Seed, advice: cfg.Advice, adviceBits: cfg.AdviceBits, setup: cfg.Setup,
	}.resolve()
	if err != nil {
		return nil, nil, nil, err
	}
	delays := cfg.Adversary.Delays
	if delays == nil {
		delays = UnitDelay{}
	}
	return s, delays, wakeups, nil
}

// queueCapacity is the event-queue pre-size hint: enough for the schedule
// plus a generous in-flight message buffer, capped so dense graphs don't
// over-allocate (the queue still grows on demand).
func queueCapacity(n, m int) int {
	capacity := n + 2*m
	if capacity > 1<<16 {
		capacity = 1 << 16
	}
	return capacity
}

// maxEventsFor resolves the run's event budget.
func maxEventsFor(cfg Config) int {
	if cfg.MaxEvents > 0 {
		return cfg.MaxEvents
	}
	return DefaultMaxEvents
}

// begin starts a run on the engine's single core spanning every node: the
// start step Run and RunSync share.
func (e *AsyncEngine) begin(tr ExecTracer, alg Algorithm, s *Setup, delays Delayer, seed int64, trackPorts bool, obs Observer) *engineCore {
	n := s.Graph.N()
	e.run.begin(tr, 1, alg, s, delays, seed, nil)
	e.core.begin(&e.run, 0, n, NewAccounting(s, alg.Name(), trackPorts), obs, false, queueCapacity(n, s.Graph.M()))
	return &e.core
}

// Run executes one configuration on the engine, resetting — not
// reallocating — the scratch state left by any previous run.
func (e *AsyncEngine) Run(cfg Config, alg Algorithm) (*Result, error) {
	tr := cfg.Tracer
	t0 := execNow(tr)
	s, delays, wakeups, err := setupForRun(cfg, alg)
	if err != nil {
		return nil, err
	}
	c := e.begin(tr, alg, s, delays, cfg.Seed, cfg.TrackPorts, cfg.observer())

	// Wake events enter through push, which maintains the heap invariant on
	// its own — there is no separate "heapify" step. (The container/heap
	// predecessor called heap.Init here redundantly for the same reason;
	// TestWakePushesKeepHeapOrdered pins the invariant.)
	for _, w := range wakeups {
		c.push(event{at: w.At, node: int32(w.Node), slot: wakeSlot})
	}

	maxEvents := maxEventsFor(cfg)
	res := c.acct.Result()
	t1 := setupSpan(tr, t0)
	for c.queue.len() > 0 {
		if res.Events >= maxEvents {
			return nil, eventLimitErr(maxEvents, alg)
		}
		ev := c.queue.pop()
		c.now = ev.at
		res.Events++
		c.dispatch(ev)
		if c.err != nil {
			return nil, c.err
		}
	}
	if cfg.MemReport {
		res.Mem = e.memReport()
	}
	return finishRun(tr, t1, c.acct, c.now, c.obs, cfg.StrictCongest)
}

// growClear returns s with length n and every element zeroed, reusing the
// backing array when capacity allows — the reset-not-reallocate primitive
// behind the engine scratch.
//
//wakeup:noalloc
func growClear[E any](s []E, n int) []E {
	if cap(s) < n {
		//lint:noalloc-ok grows to the high-water mark once, then every later reset reuses the array
		return make([]E, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// observer assembles the run's observer stack from the Trace and
// RecordDigests shorthands plus the explicit Observer slot.
func (cfg Config) observer() Observer {
	var trace, digest Observer
	if cfg.Trace != nil {
		trace = NewTraceObserver(cfg.Trace)
	}
	if cfg.RecordDigests {
		digest = NewDigestObserver(false)
	}
	return StackObservers(trace, digest, cfg.Observer)
}
