package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
)

// metricDef is one entry of the metric catalogue. BENCHMARK.json at the
// repository root lists the same names, units and directions, and a test
// keeps the two in step. README.md says what each metric measures on each
// workload and which end-to-end metric each layer metric should move.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a user of the library sees, printed by every
// untraced run. The check outcome (fail_ratio = failed / attempted) is
// carried by the result line's attempted and failed counts.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "events_per_s", unit: "1/s", better: "higher"},
	{name: "matrix_s", unit: "s", better: "lower"},
	{name: "peak_rss_mib", unit: "MiB", better: "lower"},
	{name: "alloc_mib_per_run", unit: "MiB", better: "lower"},
}

// perLayer are the metrics of the traced run. Times of table1 are sums
// over the matrix's calls; times of the floods are medians over the
// set-ups or the traced runs. A layer that does no work on a workload
// reports 0.
var perLayer = []metricDef{
	{name: "graph.build_s", unit: "s", better: "lower"},
	{name: "graph.ports_s", unit: "s", better: "lower"},
	{name: "graph.diameter_s", unit: "s", better: "lower"},
	{name: "graph.awake_distance_s", unit: "s", better: "lower"},
	{name: "graph.nodes", unit: "count", better: "lower"},
	{name: "graph.edges", unit: "count", better: "lower"},

	{name: "advice.advise_s.fip06", unit: "s", better: "lower"},
	{name: "advice.advise_s.threshold", unit: "s", better: "lower"},
	{name: "advice.advise_s.cen", unit: "s", better: "lower"},
	{name: "advice.advise_s.spanner-k2", unit: "s", better: "lower"},
	{name: "advice.advise_s.spanner-logn", unit: "s", better: "lower"},
	{name: "advice.max_bits", unit: "count", better: "lower"},
	{name: "advice.total_bits", unit: "count", better: "lower"},

	{name: "sim.new_setup_s", unit: "s", better: "lower"},
	{name: "riseandshine.prepare_s", unit: "s", better: "lower"},

	{name: "sim.run_s", unit: "s", better: "lower"},
	{name: "sim.events", unit: "count", better: "lower"},
	{name: "sim.messages", unit: "count", better: "lower"},
	{name: "sim.message_bits", unit: "count", better: "lower"},
	{name: "sim.engine_setup_s", unit: "s", better: "lower"},
	{name: "sim.event_loop_s", unit: "s", better: "lower"},
	{name: "sim.finish_s", unit: "s", better: "lower"},
	{name: "sim.mem.queue_bytes", unit: "B", better: "lower"},
	{name: "sim.mem.fifo_bytes", unit: "B", better: "lower"},
	{name: "sim.mem.rng_bytes", unit: "B", better: "lower"},
	{name: "sim.mem.csr_bytes", unit: "B", better: "lower"},
	{name: "sim.mem.node_bytes", unit: "B", better: "lower"},
	{name: "sim.mem.outbox_bytes", unit: "B", better: "lower"},
	{name: "sim.mem.total_bytes", unit: "B", better: "lower"},

	{name: "sim.shard.busy_s.max", unit: "s", better: "lower"},
	{name: "sim.shard.busy_s.mean", unit: "s", better: "lower"},
	{name: "sim.shard.barrier_s", unit: "s", better: "lower"},
	{name: "sim.shard.merge_s", unit: "s", better: "lower"},
	{name: "sim.shard.replay_s", unit: "s", better: "lower"},
	{name: "sim.shard.windows", unit: "count", better: "lower"},
	{name: "sim.shard.imbalance", unit: "ratio", better: "lower"},
	{name: "sim.shard.events_per_window_p50", unit: "count", better: "higher"},

	{name: "core.run_s.dfs-rank", unit: "s", better: "lower"},
	{name: "core.run_s.fast-wakeup", unit: "s", better: "lower"},
	{name: "core.run_s.fip06", unit: "s", better: "lower"},
	{name: "core.run_s.threshold", unit: "s", better: "lower"},
	{name: "core.run_s.cen", unit: "s", better: "lower"},
	{name: "core.run_s.spanner-k2", unit: "s", better: "lower"},
	{name: "core.run_s.spanner-logn", unit: "s", better: "lower"},
	{name: "core.run_s.flood", unit: "s", better: "lower"},

	{name: "experiment.cell_s", unit: "s", better: "lower"},
	{name: "experiment.pool_utilization", unit: "ratio", better: "higher"},

	{name: "go.gc_cpu_s", unit: "s", better: "lower"},
	{name: "go.gc_cycles", unit: "count", better: "lower"},
	{name: "go.alloc_bytes", unit: "B", better: "lower"},
	{name: "go.allocs", unit: "count", better: "lower"},

	{name: "trace.uncovered_s", unit: "s", better: "lower"},
	{name: "trace.overhead_ratio", unit: "ratio", better: "lower"},
}

// runtimeSample is a reading of the Go runtime counters the go.* metrics
// are deltas of.
type runtimeSample struct {
	gcCPU              float64
	gcCycles           float64
	allocBytes, allocs float64
}

var runtimeNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
}

func readRuntime() runtimeSample {
	samples := make([]metrics.Sample, len(runtimeNames))
	for i, name := range runtimeNames {
		samples[i].Name = name
	}
	metrics.Read(samples)
	v := make([]float64, len(samples))
	for i, s := range samples {
		switch s.Value.Kind() {
		case metrics.KindFloat64:
			v[i] = s.Value.Float64()
		case metrics.KindUint64:
			v[i] = float64(s.Value.Uint64())
		}
	}
	return runtimeSample{gcCPU: v[0], gcCycles: v[1], allocBytes: v[2], allocs: v[3]}
}

// delta is the change from an earlier reading to a.
func (a runtimeSample) delta(earlier runtimeSample) runtimeSample {
	return runtimeSample{
		gcCPU:      a.gcCPU - earlier.gcCPU,
		gcCycles:   a.gcCycles - earlier.gcCycles,
		allocBytes: a.allocBytes - earlier.allocBytes,
		allocs:     a.allocs - earlier.allocs,
	}
}

func (a runtimeSample) plus(b runtimeSample) runtimeSample {
	return runtimeSample{a.gcCPU + b.gcCPU, a.gcCycles + b.gcCycles, a.allocBytes + b.allocBytes, a.allocs + b.allocs}
}

// setRuntime reports the go.* metrics as the per-unit average of total, the
// summed deltas over units timed runs (or matrices).
func (r *report) setRuntime(total runtimeSample, units int) {
	u := float64(units)
	r.set("go.gc_cpu_s", total.gcCPU/u)
	r.set("go.gc_cycles", total.gcCycles/u)
	r.set("go.alloc_bytes", total.allocBytes/u)
	r.set("go.allocs", total.allocs/u)
}

// peakRSSMiB is the process's resident-memory high-water mark.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// provenance identifies the code and machine a result came from.
type provenance struct {
	Revision   string  `json:"vcs.revision"`
	Modified   string  `json:"vcs.modified,omitempty"`
	GoVersion  string  `json:"go_version"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"num_cpu"`
	CPUModel   string  `json:"cpu_model"`
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
}

func readProvenance(o options) provenance {
	p := provenance{
		Revision:   "unknown",
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
		Workload:   o.workload,
		Seed:       o.seed,
		Seconds:    o.seconds,
		Trace:      o.trace,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				p.Revision = s.Value
			case "vcs.modified":
				p.Modified = s.Value
			}
		}
	}
	return p
}

// cpuModel reads the first "model name" of /proc/cpuinfo; "unknown" where
// there is none.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func minMax(xs []float64) (lo, hi float64) {
	for i, x := range xs {
		if i == 0 || x < lo {
			lo = x
		}
		if i == 0 || x > hi {
			hi = x
		}
	}
	return lo, hi
}
