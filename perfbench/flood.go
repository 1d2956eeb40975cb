package main

import (
	"fmt"
	"runtime"
	"time"

	"riseandshine"
	"riseandshine/internal/exectrace"
	"riseandshine/internal/experiment"
	"riseandshine/internal/graph"
	"riseandshine/internal/sim"
)

// floodWorkload is one of the two 10⁶-node flood workloads: the cell CI's
// sweep runs (`-graph binary:%d -sizes 1000000 -seeds 1`), one node woken,
// random ports, either on the sequential engine with the default heap
// queue or on the sharded engine.
type floodWorkload struct {
	name   string
	delays string // ParseDelays spec
	shards int    // > 1 selects the sharded engine
}

var (
	floodSeq = floodWorkload{name: "flood-1m", delays: "random"}
	// random:0.25 is CI's sharded delay spec: its positive lookahead is what
	// lets the sharded engine open windows instead of falling back.
	floodP2 = floodWorkload{name: "flood-1m-p2", delays: "random:0.25", shards: 2}
)

const (
	// floodSetups is how many set-ups setup_s is the median of.
	floodSetups = 5
	// minFloodRuns is the fewest timed runs a median is taken over, however
	// short --seconds is.
	minFloodRuns = 3
)

// referenceDigests pins combined transcript digests (CombineDigests over
// the one run's per-node digests, as `sweep -digest` prints them) by
// workload, size and seed. The 10⁶-node flood-1m entry is the digest the
// repository publishes for this cell; the others pin this benchmark's own
// cells so a changed execution shows as a failed check.
var referenceDigests = map[string]string{
	"flood-1m/1000000/1":    "364c7dcc28c5bc83",
	"flood-1m/4096/1":       "0bd014e814d53a79",
	"flood-1m-p2/1000000/1": "3fa4bf7b8dc3ca02",
	"flood-1m-p2/4096/1":    "adea33cf016e8e49",
}

// floodInputs is a prepared flood cell.
type floodInputs struct {
	g     *graph.Graph
	ports *graph.PortMap
	prep  *riseandshine.Prepared
}

// config is the per-run configuration of the cell at run seed seed.
func (in *floodInputs) config(w floodWorkload, seed int64) (riseandshine.RunConfig, error) {
	sched, err := experiment.ParseSchedule("single", seed)
	if err != nil {
		return riseandshine.RunConfig{}, err
	}
	delays, err := experiment.ParseDelays(w.delays, seed)
	if err != nil {
		return riseandshine.RunConfig{}, err
	}
	return riseandshine.RunConfig{
		Graph:     in.g,
		Algorithm: "flood",
		Ports:     in.ports,
		Seed:      seed,
		Schedule:  sched,
		Delays:    delays,
		Shards:    w.shards,
	}, nil
}

// setupFlood builds the graph, draws the random ports and prepares the
// cell. With a tracer, each call is a span, and sim.NewSetup — which
// Prepare runs internally — is also timed on its own.
func setupFlood(spec string, seed int64, tr *tracer) (*floodInputs, error) {
	id := tr.begin("setup", 0, 0)
	defer tr.end(id)
	in := &floodInputs{}
	var err error
	tr.do("graph.build", 0, id, func() { in.g, err = experiment.ParseGraph(spec, seed) })
	if err != nil {
		return nil, err
	}
	tr.do("graph.ports", 0, id, func() { in.ports = riseandshine.RandomPorts(in.g, seed) })
	cfg := riseandshine.RunConfig{Graph: in.g, Algorithm: "flood", Ports: in.ports, Seed: seed}
	if tr != nil {
		info, lerr := riseandshine.Lookup(cfg.Algorithm)
		if lerr != nil {
			return nil, lerr
		}
		tr.do("sim.new_setup", 0, id, func() { _, err = sim.NewSetup(in.g, in.ports, info.Model, seed, nil, nil) })
		if err != nil {
			return nil, err
		}
	}
	tr.do("riseandshine.prepare", 0, id, func() { in.prep, err = riseandshine.Prepare(cfg) })
	if err != nil {
		return nil, err
	}
	return in, nil
}

// checkFlood checks a flood result: everyone woke, and on a tree every edge
// carries exactly one message each way, so 2m messages and 2m deliveries
// plus the one adversarial wake.
func checkFlood(rep *report, what string, res *sim.Result, g *graph.Graph) {
	m := g.M()
	rep.check(res.AllAwake, "%s: only %d/%d nodes woke", what, res.AwakeCount, res.N)
	rep.check(res.Messages == 2*m, "%s: %d messages, want 2m = %d", what, res.Messages, 2*m)
	rep.check(res.Events == 2*m+1, "%s: %d events, want 2m+1 = %d", what, res.Events, 2*m+1)
}

func combinedDigest(res *sim.Result) string {
	return fmt.Sprintf("%016x", riseandshine.CombineDigests([]uint64{riseandshine.CombineDigests(res.TranscriptDigests)}))
}

// digestPass is the untimed check of the execution itself: the run's
// combined digest must equal the pinned one where a pin exists, and on the
// sharded workload it must equal the sequential engine's on the same
// inputs. The sequential reference runs first, on an engine of its own that
// is collected before the workload's engine is warmed, so the process's
// memory high-water mark is the larger of the two runs', not their sum.
func digestPass(o options, w floodWorkload, rep *report, in *floodInputs, cfg riseandshine.RunConfig) error {
	cfg.RecordDigests = true
	var seqDigest string
	if w.shards > 1 {
		seq := cfg
		seq.Shards, seq.Sharded, seq.Engine = 0, nil, nil
		sres, err := in.prep.Run(seq)
		if err != nil {
			return err
		}
		checkFlood(rep, w.name+" sequential reference run", sres, in.g)
		seqDigest = combinedDigest(sres)
		runtime.GC()
	}
	res, err := in.prep.Run(cfg)
	if err != nil {
		return err
	}
	checkFlood(rep, w.name+" digest run", res, in.g)
	got := combinedDigest(res)
	fmt.Fprintf(rep.log, "digest %s n=%d seed=%d %s\n", w.name, o.nodes, o.seed, got)
	if want := referenceDigests[fmt.Sprintf("%s/%d/%d", w.name, o.nodes, o.seed)]; want != "" {
		rep.check(got == want, "%s: combined digest %s, pinned %s", w.name, got, want)
	}
	if w.shards > 1 {
		rep.check(got == seqDigest, "%s: sharded digest %s, sequential engine %s", w.name, got, seqDigest)
	}
	return nil
}

func runFlood(o options, w floodWorkload, rep *report) error {
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	seed := sim.RunSeed(o.seed, 0)
	spec := fmt.Sprintf("binary:%d", o.nodes)

	// Set-up, repeated from a collected heap so one set-up's garbage does
	// not land on the next one's time.
	var in *floodInputs
	var setupS []float64
	for i := 0; i < floodSetups; i++ {
		in = nil
		runtime.GC()
		start := time.Now()
		var err error
		if in, err = setupFlood(spec, seed, tr); err != nil {
			return err
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}
	cfg, err := in.config(w, seed)
	if err != nil {
		return err
	}
	if w.shards > 1 {
		cfg.Sharded = &riseandshine.ShardedEngine{}
	} else {
		cfg.Engine = &riseandshine.Engine{}
	}
	digestID := tr.begin("check.digest", 0, 0)
	if err := digestPass(o, w, rep, in, cfg); err != nil {
		return err
	}
	tr.end(digestID)
	runtime.GC()

	if !o.trace {
		t, err := timeFloodRuns(w, rep, in, cfg, o.seconds, nil)
		if err != nil {
			return err
		}
		rep.setSamples("setup_s", setupS)
		rep.setSamples("events_per_s", t.eventsPerS)
		rep.setSamples("matrix_s", t.runS)
		rep.set("alloc_mib_per_run", median(t.allocBytes)/(1<<20))
		rep.set("peak_rss_mib", peakRSSMiB())
		return nil
	}

	// Traced run: the same timed loop with a span around every
	// Prepared.Run and the flight recorder merged in, then an untraced
	// loop of the same length as the overhead baseline.
	traced, err := timeFloodRuns(w, rep, in, cfg, o.seconds/2, tr)
	if err != nil {
		return err
	}
	tracedTo := tr.clock()
	base, err := timeFloodRuns(w, rep, in, cfg, o.seconds/2, nil)
	if err != nil {
		return err
	}

	for _, name := range []string{"graph.build", "graph.ports", "sim.new_setup", "riseandshine.prepare"} {
		rep.set(name+"_s", median(tr.durations(name)))
	}
	rep.set("sim.run_s", median(tr.durations("sim.run")))
	last := traced.last
	rep.set("sim.events", float64(last.Events))
	rep.set("sim.messages", float64(last.Messages))
	rep.set("sim.message_bits", float64(last.MessageBits))
	rep.set("graph.nodes", float64(in.g.N()))
	rep.set("graph.edges", float64(in.g.M()))
	setMem(rep, last.Mem)
	setStall(rep, traced.stalls)
	rep.setRuntime(base.rt, len(base.runS))
	return finishTrace(o, rep, tr, tracedTo, median(base.eventsPerS)/median(traced.eventsPerS))
}

// floodTimes are the samples of one timed loop.
type floodTimes struct {
	runS, eventsPerS, allocBytes []float64
	rt                           runtimeSample // summed over the runs
	stalls                       []exectrace.StallReport
	last                         *sim.Result // traced loops only: untimed loops keep no result alive
}

// timeFloodRuns repeats the warm-engine run for at least seconds (and at
// least minFloodRuns times), checking every result. Each run starts from a
// collected heap, so the process's peak RSS does not depend on how many
// runs fit in the time budget. With a tracer each run is a sim.run span
// carrying the engine's flight recorder and memory report. A run that
// returns an error ends the loop.
func timeFloodRuns(w floodWorkload, rep *report, in *floodInputs, cfg riseandshine.RunConfig, seconds float64, tr *tracer) (floodTimes, error) {
	var t floodTimes
	cfg.MemReport = tr != nil
	start := time.Now()
	for len(t.runS) < minFloodRuns || time.Since(start).Seconds() < seconds {
		var rec *exectrace.Recorder
		if tr != nil {
			rec = exectrace.New(tr.clock)
			cfg.ExecTrace = rec
		}
		runtime.GC()
		before := readRuntime()
		id := tr.begin("sim.run", 0, 0)
		t0 := time.Now()
		res, err := in.prep.Run(cfg)
		wall := time.Since(t0).Seconds()
		tr.end(id)
		rt := readRuntime().delta(before)
		if err != nil {
			return t, fmt.Errorf("run %d: %w", len(t.runS), err)
		}
		checkFlood(rep, fmt.Sprintf("%s run %d", w.name, len(t.runS)), res, in.g)
		t.runS = append(t.runS, wall)
		t.eventsPerS = append(t.eventsPerS, float64(res.Events)/wall)
		t.allocBytes = append(t.allocBytes, rt.allocBytes)
		t.rt = t.rt.plus(rt)
		if rec != nil {
			t.last = res
			t.stalls = append(t.stalls, rec.Stall())
			if err := tr.mergeExec(rec, id, 0); err != nil {
				return t, err
			}
		}
	}
	return t, nil
}

// setMem reports the engine's scratch footprint by subsystem.
func setMem(rep *report, m *sim.MemReport) {
	if m == nil {
		m = &sim.MemReport{}
	}
	rep.set("sim.mem.queue_bytes", float64(m.QueueBytes))
	rep.set("sim.mem.fifo_bytes", float64(m.FIFOBytes))
	rep.set("sim.mem.rng_bytes", float64(m.RNGBytes))
	rep.set("sim.mem.csr_bytes", float64(m.CSRBytes))
	rep.set("sim.mem.node_bytes", float64(m.NodeBytes))
	rep.set("sim.mem.outbox_bytes", float64(m.OutboxBytes))
	rep.set("sim.mem.total_bytes", float64(m.TotalBytes))
}

// setStall reports the flight recorder's lifecycle and shard figures as
// medians over the traced runs.
func setStall(rep *report, stalls []exectrace.StallReport) {
	var setup, loop, finish, busyMax, busyMean, barrier, merge, replay, windows, imbalance, perWindow []float64
	for _, s := range stalls {
		t0 := s.Tracks[0]
		setup = append(setup, float64(t0.SetupNS)/1e9)
		loop = append(loop, float64(t0.RunNS)/1e9)
		finish = append(finish, float64(t0.FinishNS)/1e9)
		merge = append(merge, float64(t0.MergeNS)/1e9)
		replay = append(replay, float64(t0.ReplayNS)/1e9)
		windows = append(windows, float64(s.Windows))
		imbalance = append(imbalance, s.Imbalance)
		var sum, hi, bar float64
		shards := s.Tracks[1:]
		for _, ts := range shards {
			b := float64(ts.BusyNS) / 1e9
			sum += b
			hi = max(hi, b)
			bar += float64(ts.BarrierNS) / 1e9
		}
		if n := float64(len(shards)); n > 0 {
			busyMean = append(busyMean, sum/n)
			barrier = append(barrier, bar/n)
		}
		busyMax = append(busyMax, hi)
		if s.EventsPerWindow.Count > 0 {
			perWindow = append(perWindow, s.EventsPerWindow.Quantile(0.5))
		}
	}
	rep.set("sim.engine_setup_s", median(setup))
	rep.set("sim.event_loop_s", median(loop))
	rep.set("sim.finish_s", median(finish))
	rep.set("sim.shard.busy_s.max", median(busyMax))
	rep.set("sim.shard.busy_s.mean", median(busyMean))
	rep.set("sim.shard.barrier_s", median(barrier))
	rep.set("sim.shard.merge_s", median(merge))
	rep.set("sim.shard.replay_s", median(replay))
	rep.set("sim.shard.windows", median(windows))
	rep.set("sim.shard.imbalance", median(imbalance))
	rep.set("sim.shard.events_per_window_p50", median(perWindow))
}
