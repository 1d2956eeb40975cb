package main

import (
	_ "embed"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"time"

	"riseandshine"
	"riseandshine/internal/advice"
	"riseandshine/internal/core"
	"riseandshine/internal/exectrace"
	"riseandshine/internal/experiment"
	"riseandshine/internal/graph"
	"riseandshine/internal/sim"
	"riseandshine/internal/stats"
)

// table1Pin and table1QuickPin are cmd/table1's output at the default
// seed, at full and -quick sizes. A test keeps them equal to what the CLI
// prints now.
var (
	//go:embed testdata/table1-seed1.txt
	table1Pin string
	//go:embed testdata/table1-quick-seed1.txt
	table1QuickPin string
)

const (
	// table1Seeds is cmd/table1's default seeds per configuration.
	table1Seeds = 3
	// table1Setups is how many set-ups setup_s is the median of.
	table1Setups = 3
)

// table1Row is one row of Table 1, as cmd/table1 defines it, plus the key
// its per-row metrics carry and the oracle and algorithm it runs, so the
// traced run can call each layer itself.
//
// table1Rows, renderRow and runnerMatrix are a copy of cmd/table1's rows
// and driver loop, so matrix_s times this copy, not the CLI's binary. When
// cmd/table1 changes, they must change with it: TestTable1MatchesCLI fails
// when the CLI's -quick output no longer equals this copy's.
type table1Row struct {
	key       string
	name      string // registry algorithm
	paper     string
	graph     string // graph family spec with %d for n
	schedule  string
	delays    string
	k         int
	timeModel stats.Model
	msgModel  stats.Model
	advModel  stats.Model
	dense     bool // the dense size ladder
	oracle    func(n int) advice.Oracle
	async     func() sim.Algorithm
	sync      func() sim.SyncAlgorithm
}

var table1Rows = []table1Row{
	{
		key: "dfs-rank", name: "dfs-rank", paper: "Theorem 3",
		graph: "connected:%d:0.01", schedule: "staggered:1,2,4,8:64", delays: "random",
		timeModel: stats.NLogN, msgModel: stats.NLogN, advModel: stats.Const,
		async: func() sim.Algorithm { return core.DFSRank{} },
	},
	{
		key: "fast-wakeup", name: "fast-wakeup", paper: "Theorem 4",
		graph: "connected:%d:0.2", schedule: "all", delays: "unit",
		timeModel: stats.Const, msgModel: stats.N32SqrtLg, advModel: stats.Const,
		dense: true,
		sync:  func() sim.SyncAlgorithm { return core.FastWakeUp{} },
	},
	{
		key: "fip06", name: "fip06", paper: "[FIP06], Cor. 1",
		graph: "connected:%d:0.01", schedule: "single", delays: "random",
		timeModel: stats.Model{Name: "D", F: nil}, msgModel: stats.Linear, advModel: stats.Linear,
		oracle: func(int) advice.Oracle { return core.FIP06Oracle{} },
		async:  func() sim.Algorithm { return core.FIP06{} },
	},
	{
		key: "threshold", name: "threshold", paper: "Theorem 5(A)",
		graph: "connected:%d:0.01", schedule: "single", delays: "random",
		timeModel: stats.Model{Name: "D", F: nil}, msgModel: stats.N32, advModel: stats.SqrtNLogN,
		oracle: func(int) advice.Oracle { return core.ThresholdOracle{} },
		async:  func() sim.Algorithm { return core.Threshold{} },
	},
	{
		key: "cen", name: "cen", paper: "Theorem 5(B)",
		graph: "connected:%d:0.01", schedule: "single", delays: "random",
		timeModel: stats.Model{Name: "D·log n", F: nil}, msgModel: stats.Linear, advModel: stats.LogN,
		oracle: func(int) advice.Oracle { return core.CENOracle{} },
		async:  func() sim.Algorithm { return core.CEN{} },
	},
	{
		key: "spanner-k2", name: "spanner", paper: "Theorem 6 (k=2)", k: 2,
		graph: "connected:%d:0.05", schedule: "random:4", delays: "random",
		timeModel: stats.Model{Name: "k·ρ·log n", F: nil}, msgModel: stats.PowerLog(1.5, 0), advModel: stats.PowerLog(0.5, 2),
		dense:  true,
		oracle: func(int) advice.Oracle { return core.SpannerOracle{K: 2} },
		async:  func() sim.Algorithm { return core.SpannerScheme{} },
	},
	{
		key: "spanner-logn", name: "spanner", paper: "Corollary 2 (k=log n)", k: 0,
		graph: "connected:%d:0.05", schedule: "random:4", delays: "random",
		timeModel: stats.Model{Name: "ρ·log² n", F: nil}, msgModel: stats.NLog2N, advModel: stats.Log2N,
		oracle: func(n int) advice.Oracle { return core.SpannerOracle{K: core.Corollary2K(n)} },
		async:  func() sim.Algorithm { return core.SpannerScheme{} },
	},
	{
		key: "flood", name: "flood", paper: "baseline",
		graph: "connected:%d:0.01", schedule: "single", delays: "random",
		timeModel: stats.Model{Name: "ρ_awk", F: nil}, msgModel: stats.Model{Name: "m", F: nil}, advModel: stats.Const,
		async: func() sim.Algorithm { return core.Flood{} },
	},
}

func (r table1Row) sizes(quick bool) []int {
	switch {
	case quick && r.dense:
		return []int{64, 128, 256}
	case quick:
		return []int{128, 256, 512}
	case r.dense:
		return []int{128, 256, 512}
	}
	return []int{256, 512, 1024, 2048}
}

// specs is the row's (size × seed) matrix in cmd/table1's order.
func (r table1Row) specs(quick bool) []experiment.RunSpec {
	var specs []experiment.RunSpec
	for _, n := range r.sizes(quick) {
		for s := 0; s < table1Seeds; s++ {
			specs = append(specs, experiment.RunSpec{
				Graph:       fmt.Sprintf(r.graph, n),
				Algorithm:   r.name,
				K:           r.k,
				Schedule:    r.schedule,
				Delays:      r.delays,
				RandomPorts: true,
			})
		}
	}
	return specs
}

// table1Cell is one completed cell of the matrix.
type table1Cell struct {
	seed int64
	g    *graph.Graph
	res  *sim.Result
}

// matrix is one complete Table 1: the rendered text and every cell.
type matrix struct {
	text   string
	cells  [][]table1Cell // per row, in matrix order
	events int
	wallS  float64
}

// renderRow appends the row's table and growth fits, exactly as cmd/table1
// prints them, computing the per-cell D and ρ_awk columns on the calling
// goroutine as the CLI does. Every cell must have woken every node.
func renderRow(b *strings.Builder, rep *report, tr *tracer, parent int, row table1Row, sizes []int, cells []table1Cell) {
	fmt.Fprintf(b, "== %s — algorithm %q on %s (schedule %s, delays %s) ==\n",
		row.paper, row.name, row.graph, row.schedule, row.delays)
	tbl := &experiment.Table{Header: []string{
		"n", "m", "rho", "D", "time", "msgs", "advice-max(b)", "advice-avg(b)",
	}}
	var msgPts, timePts, advPts []stats.Point
	for i, n := range sizes {
		var msgs, span, advMax, advAvg, ms, rhos, diams float64
		for s := 0; s < table1Seeds; s++ {
			c := cells[i*table1Seeds+s]
			res := c.res
			rep.check(res.AllAwake, "table1 %s n=%d seed=%d: only %d/%d nodes woke", row.key, n, c.seed, res.AwakeCount, res.N)
			msgs += float64(res.Messages)
			span += float64(res.Span)
			advMax = math.Max(advMax, float64(res.AdviceMaxBits))
			advAvg += res.AdviceAvgBits()
			ms += float64(res.M)
			var diam int
			var derr error
			tr.do("graph.diameter", 0, parent, func() { diam, derr = c.g.Diameter() })
			if derr == nil {
				diams += float64(diam)
			}
			var rho int
			tr.do("graph.awake_distance", 0, parent, func() { rho = c.g.AwakeDistance(res.AwakeSet()) })
			rhos += float64(rho)
		}
		f := float64(table1Seeds)
		tbl.Add(n, int(ms/f), rhos/f, int(diams/f), span/f, int(msgs/f), int(advMax), advAvg/f)
		msgPts = append(msgPts, stats.Point{N: float64(n), Y: msgs / f})
		timePts = append(timePts, stats.Point{N: float64(n), Y: span / f})
		if advMax > 0 {
			advPts = append(advPts, stats.Point{N: float64(n), Y: advMax})
		}
	}
	b.WriteString(tbl.String())
	slope, _ := stats.LogLogFit(msgPts)
	fmt.Fprintf(b, "messages: paper %s; measured log-log slope %.2f", row.msgModel.Name, slope)
	if row.msgModel.F != nil {
		_, spread := stats.Constancy(msgPts, row.msgModel)
		fmt.Fprintf(b, " (ratio spread vs model: %.2f)", spread)
	}
	b.WriteString("\n")
	tslope, _ := stats.LogLogFit(timePts)
	fmt.Fprintf(b, "time:     paper %s; measured log-log slope %.2f\n", row.timeModel.Name, tslope)
	if len(advPts) > 0 {
		aslope, _ := stats.LogLogFit(advPts)
		fmt.Fprintf(b, "advice:   paper %s; measured log-log slope %.2f\n", row.advModel.Name, aslope)
	}
	b.WriteString("\n")
}

// runnerStats are the experiment.Runner figures of one matrix.
type runnerStats struct {
	cellS, runnerS float64
}

// runnerMatrix produces Table 1 the way cmd/table1 does: each row's cells
// through experiment.Runner, then the D/ρ_awk columns and fits. Like the
// CLI it drops each row's cells once rendered, unless keepCells asks for
// them in the result.
func runnerMatrix(o options, rep *report, keepCells bool) (*matrix, runnerStats, error) {
	var rs runnerStats
	m := &matrix{}
	var b strings.Builder
	start := time.Now()
	runner := experiment.Runner{Workers: o.workers, MasterSeed: o.seed, Now: time.Now}
	for _, row := range table1Rows {
		t0 := time.Now()
		results, err := runner.Run(row.specs(o.quick))
		if err != nil {
			return nil, rs, fmt.Errorf("%s: %w", row.paper, err)
		}
		rs.runnerS += time.Since(t0).Seconds()
		cells := make([]table1Cell, len(results))
		for i, rr := range results {
			cells[i] = table1Cell{seed: rr.Seed, g: rr.Graph, res: rr.Res}
			rs.cellS += rr.Duration.Seconds()
			m.events += rr.Res.Events
		}
		renderRow(&b, rep, nil, 0, row, row.sizes(o.quick), cells)
		if keepCells {
			m.cells = append(m.cells, cells)
		}
	}
	m.wallS = time.Since(start).Seconds()
	m.text = b.String()
	return m, rs, nil
}

// tracedMatrix produces the same Table 1 with every layer called directly
// — experiment.ParseGraph, riseandshine.RandomPorts, the row's oracle
// Advise, sim.NewSetup and the engine's Run, which together are what
// experiment.Runner and riseandshine.Prepare do per cell — each inside a
// span, on the same pool of workers. The engines' flight recorders are
// merged under each run's span.
func tracedMatrix(o options, rep *report, tr *tracer) (*matrix, error) {
	m := &matrix{}
	var b strings.Builder
	start := time.Now()
	for _, row := range table1Rows {
		specs := row.specs(o.quick)
		cells := make([]table1Cell, len(specs))
		errs := make([]error, len(specs))
		poolID := tr.begin("experiment.runner", 0, 0)
		workers := min(o.workers, len(specs))
		next := make(chan int)
		var wg sync.WaitGroup
		for w := 1; w <= workers; w++ {
			tr.nameThread(w, fmt.Sprintf("worker %d", w))
			wg.Add(1)
			go func(tid int) {
				defer wg.Done()
				eng := &sim.AsyncEngine{}
				for i := range next {
					cells[i], errs[i] = tracedCell(row, specs[i], sim.RunSeed(o.seed, i), eng, tr, tid, poolID)
				}
			}(w)
		}
		for i := range specs {
			next <- i
		}
		close(next)
		wg.Wait()
		tr.end(poolID)
		for i, err := range errs {
			if err != nil {
				return nil, fmt.Errorf("%s: cell %d: %w", row.paper, i, err)
			}
			m.events += cells[i].res.Events
		}
		renderID := tr.begin("table1.render", 0, 0)
		renderRow(&b, rep, tr, renderID, row, row.sizes(o.quick), cells)
		tr.end(renderID)
		m.cells = append(m.cells, cells)
	}
	m.wallS = time.Since(start).Seconds()
	m.text = b.String()
	return m, nil
}

// tracedCell runs one cell layer by layer on thread tid.
func tracedCell(row table1Row, spec experiment.RunSpec, seed int64, eng *sim.AsyncEngine, tr *tracer, tid, parent int) (table1Cell, error) {
	id := tr.begin("experiment.cell", tid, parent)
	defer tr.end(id)
	var g *graph.Graph
	var err error
	tr.do("graph.build", tid, id, func() { g, err = experiment.ParseGraph(spec.Graph, seed) })
	if err != nil {
		return table1Cell{}, err
	}
	sched, err := experiment.ParseSchedule(spec.Schedule, seed)
	if err != nil {
		return table1Cell{}, err
	}
	delays, err := experiment.ParseDelays(spec.Delays, seed)
	if err != nil {
		return table1Cell{}, err
	}
	var ports *graph.PortMap
	tr.do("graph.ports", tid, id, func() { ports = riseandshine.RandomPorts(g, seed) })
	info, err := riseandshine.Lookup(row.name)
	if err != nil {
		return table1Cell{}, err
	}

	// What riseandshine.Prepare does: the oracle's advice, then the Setup.
	prepID := tr.begin("riseandshine.prepare", tid, id)
	var adv [][]byte
	var bits []int
	if row.oracle != nil {
		tr.do("advice.advise."+row.key, tid, prepID, func() { adv, bits, err = row.oracle(g.N()).Advise(g, ports) })
		if err != nil {
			return table1Cell{}, err
		}
	}
	var setup *sim.Setup
	tr.do("sim.new_setup", tid, prepID, func() { setup, err = sim.NewSetup(g, ports, info.Model, seed, adv, bits) })
	tr.end(prepID)
	if err != nil {
		return table1Cell{}, err
	}

	rec := exectrace.New(tr.clock)
	runID := tr.begin("core.run."+row.key, tid, id)
	var res *sim.Result
	if row.sync != nil {
		res, err = sim.RunSync(sim.SyncConfig{
			Graph: g, Ports: ports, Model: info.Model, Schedule: sched, Seed: seed,
			Advice: adv, AdviceBits: bits, Setup: setup, Tracer: rec,
		}, row.sync())
	} else {
		res, err = eng.Run(sim.Config{
			Graph: g, Ports: ports, Model: info.Model,
			Adversary: sim.Adversary{Schedule: sched, Delays: delays},
			Seed:      seed, Advice: adv, AdviceBits: bits, Setup: setup, Tracer: rec,
		}, row.async())
	}
	tr.end(runID)
	if err != nil {
		return table1Cell{}, err
	}
	if err := tr.mergeExec(rec, runID, tid); err != nil {
		return table1Cell{}, err
	}
	return table1Cell{seed: seed, g: g, res: res}, nil
}

// pinnedTable returns the reference rendering for this invocation, or ""
// where none is pinned.
func pinnedTable(o options) string {
	switch {
	case o.seed != 1:
		return ""
	case o.quick:
		return table1QuickPin
	}
	return table1Pin
}

// setupTable1 generates every cell's graph and ports once, as the matrix
// will: the inputs' set-up cost. The matrix itself regenerates them inside
// each cell, as cmd/table1 does.
func setupTable1(o options) error {
	for _, row := range table1Rows {
		for i, spec := range row.specs(o.quick) {
			seed := sim.RunSeed(o.seed, i)
			g, err := experiment.ParseGraph(spec.Graph, seed)
			if err != nil {
				return err
			}
			riseandshine.RandomPorts(g, seed)
		}
	}
	return nil
}

func runTable1(o options, rep *report) error {
	want := pinnedTable(o)
	checkText := func(got, ref, what string) {
		rep.check(got == ref, "table1: %s: %s", what, firstDiff(got, ref))
	}

	if o.trace {
		// Untraced baseline matrix through experiment.Runner, then the
		// traced layer-by-layer matrix, which must reproduce it cell for
		// cell.
		before := readRuntime()
		base, rs, err := runnerMatrix(o, rep, true)
		if err != nil {
			return err
		}
		rep.setRuntime(readRuntime().delta(before), 1)
		if want != "" {
			checkText(base.text, want, "rendered table differs from the pinned copy")
		}
		tr := newTracer()
		traced, err := tracedMatrix(o, rep, tr)
		if err != nil {
			return err
		}
		tracedTo := tr.clock()
		checkText(traced.text, base.text, "layer-by-layer table differs from experiment.Runner's")
		var nodes, edges, maxBits, totalBits, msgs, bits float64
		for r, cells := range traced.cells {
			for i, c := range cells {
				bc := base.cells[r][i]
				rep.check(reflect.DeepEqual(c.res, bc.res), "table1 %s cell %d: layer-by-layer result differs from experiment.Runner's", table1Rows[r].key, i)
				nodes += float64(c.g.N())
				edges += float64(c.g.M())
				maxBits = math.Max(maxBits, float64(c.res.AdviceMaxBits))
				totalBits += float64(c.res.AdviceTotalBits)
				msgs += float64(c.res.Messages)
				bits += float64(c.res.MessageBits)
			}
		}
		for _, name := range []string{"graph.build", "graph.ports", "graph.diameter", "graph.awake_distance", "sim.new_setup", "riseandshine.prepare", "sim.engine_setup", "sim.event_loop", "sim.finish"} {
			rep.set(name+"_s", tr.total(name))
		}
		var runS float64
		for _, row := range table1Rows {
			t := tr.total("core.run." + row.key)
			rep.set("core.run_s."+row.key, t)
			runS += t
			if row.oracle != nil {
				rep.set("advice.advise_s."+row.key, tr.total("advice.advise."+row.key))
			}
		}
		rep.set("sim.run_s", runS)
		rep.set("sim.events", float64(traced.events))
		rep.set("sim.messages", msgs)
		rep.set("sim.message_bits", bits)
		rep.set("graph.nodes", nodes)
		rep.set("graph.edges", edges)
		rep.set("advice.max_bits", maxBits)
		rep.set("advice.total_bits", totalBits)
		rep.set("experiment.cell_s", rs.cellS)
		rep.set("experiment.pool_utilization", rs.cellS/(float64(o.workers)*rs.runnerS))
		return finishTrace(o, rep, tr, tracedTo, traced.wallS/base.wallS)
	}

	var setupS []float64
	for i := 0; i < table1Setups; i++ {
		runtime.GC()
		start := time.Now()
		if err := setupTable1(o); err != nil {
			return err
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}

	// Whole matrices for at least --seconds; every one must render the
	// pinned table where a pin exists, and the first matrix's otherwise.
	var wallS, eps, allocs []float64
	start := time.Now()
	for len(wallS) == 0 || time.Since(start).Seconds() < o.seconds {
		runtime.GC()
		before := readRuntime()
		m, _, err := runnerMatrix(o, rep, false)
		if err != nil {
			return err
		}
		allocs = append(allocs, readRuntime().delta(before).allocBytes)
		if want == "" {
			want = m.text
		} else {
			checkText(m.text, want, fmt.Sprintf("matrix %d differs from the reference rendering", len(wallS)))
		}
		wallS = append(wallS, m.wallS)
		eps = append(eps, float64(m.events)/m.wallS)
	}
	rep.setSamples("setup_s", setupS)
	rep.setSamples("matrix_s", wallS)
	rep.setSamples("events_per_s", eps)
	rep.set("alloc_mib_per_run", median(allocs)/(1<<20))
	rep.set("peak_rss_mib", peakRSSMiB())
	return nil
}

// firstDiff shows the first line where two renderings differ.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			return fmt.Sprintf("line %d: got %q, want %q", i+1, gl, wl)
		}
	}
	return "(identical lines)"
}
