// Command perfbench is the repository benchmark. It runs three workloads
// in-process through the library's public entry points — a 10⁶-node flood
// on the sequential engine, the same flood on the 2-shard engine, and the
// full Table 1 reproduction — checks every output, and prints the
// end-to-end metrics by name with their units. With --trace 1 it instead
// makes a separate traced run that times each layer from outside, around
// its public entry point, and prints the per-layer metrics.
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload flood-1m --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit status is 0 only when
// every check passed. README.md documents the workloads, the metrics and
// which end-to-end metric each layer metric should move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	o, err := parseFlags(os.Args[1:], os.Stderr)
	if errors.Is(err, flag.ErrHelp) {
		os.Exit(0)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	os.Exit(run(o, os.Stdout, os.Stderr))
}

const (
	// floodNodes is the flood workloads' graph size: binary:floodNodes.
	floodNodes = 1_000_000
	// table1Workers is the size of table1's worker pool.
	table1Workers = 2
)

// options is one invocation's settings. The command line sets the first
// five; nodes, quick and workers are the constants above, which the
// benchmark's own tests shrink to toy sizes.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string // directory for the traced run's files

	nodes   int  // flood graph size: binary:<nodes>
	quick   bool // table1 at cmd/table1's -quick sizes
	workers int  // table1 worker pool size
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(options, *report) error{
	"flood-1m":    func(o options, r *report) error { return runFlood(o, floodSeq, r) },
	"flood-1m-p2": func(o options, r *report) error { return runFlood(o, floodP2, r) },
	"table1":      runTable1,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// run executes one benchmark invocation and returns the exit status: 0 when
// every check passed, 1 when a check failed or a workload errored.
func run(o options, stdout, stderr io.Writer) int {
	rep := newReport(o, stdout)
	fmt.Fprintf(stdout, "# perfbench workload=%s seed=%d seconds=%g trace=%v\n", o.workload, o.seed, o.seconds, o.trace)
	prov, err := json.Marshal(rep.provenance)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "provenance %s\n", prov)

	if err := workloads[o.workload](o, rep); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	out, err := rep.result(defs, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	for _, f := range rep.failures {
		fmt.Fprintln(stderr, "perfbench: check failed:", f)
	}
	fmt.Fprintln(stdout, string(out))
	if rep.failed > 0 {
		return 1
	}
	return 0
}

// parseFlags reads the command line; a bad one is an error, on which the
// benchmark exits with status 2 and prints no result.
func parseFlags(args []string, stderr io.Writer) (options, error) {
	o := options{nodes: floodNodes, workers: table1Workers}
	var trace int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&o.seed, "seed", 1, "workload seed; 1 reproduces the published digests and the pinned table")
	fs.Float64Var(&o.seconds, "seconds", 20, "how long the timed loop measures")
	fs.IntVar(&trace, "trace", 0, "1 makes the separate traced run and prints per-layer metrics")
	fs.StringVar(&o.out, "out", "", "directory for the traced run's files (default .bench_build/perfbench-trace/<workload>-seed<seed>)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if _, ok := workloads[o.workload]; !ok {
		return o, fmt.Errorf("unknown workload %q (have %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	switch trace {
	case 0, 1:
		o.trace = trace == 1
	default:
		return o, fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	if !(o.seconds > 0) {
		return o, fmt.Errorf("--seconds must be positive, got %g", o.seconds)
	}
	if o.out == "" {
		o.out = filepath.Join(".bench_build", "perfbench-trace", fmt.Sprintf("%s-seed%d", o.workload, o.seed))
	}
	return o, nil
}

// report accumulates one invocation's checks and metric values.
type report struct {
	provenance provenance
	log        io.Writer // human-readable progress lines, before the result line
	attempted  int
	failed     int
	failures   []string
	values     map[string]float64
	notes      map[string]string // per-metric sample summaries for the human-readable lines
}

func newReport(o options, log io.Writer) *report {
	return &report{
		provenance: readProvenance(o),
		log:        log,
		values:     make(map[string]float64),
		notes:      make(map[string]string),
	}
}

// check counts one output check; a false ok is recorded as a failure with
// the formatted reason. It returns ok.
func (r *report) check(ok bool, format string, args ...any) bool {
	r.attempted++
	if !ok {
		r.failed++
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
	return ok
}

func (r *report) set(name string, v float64) { r.values[name] = v }

// setSamples records the median of samples as the metric's value, keeping
// the sample count and range for the human-readable line.
func (r *report) setSamples(name string, samples []float64) {
	r.values[name] = median(samples)
	lo, hi := minMax(samples)
	r.notes[name] = fmt.Sprintf("median of %d, min %.6g, max %.6g", len(samples), lo, hi)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// result prints one line per metric and the fail ratio to w, and returns
// the final JSON line. Every metric in defs must have been set.
func (r *report) result(defs []metricDef, w io.Writer) ([]byte, error) {
	res := result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		line := fmt.Sprintf("%-36s %.6g %s", d.name, v, d.unit)
		if n := r.notes[d.name]; n != "" {
			line += " (" + n + ")"
		}
		fmt.Fprintln(w, line)
	}
	if r.attempted == 0 {
		return nil, errors.New("no output check was attempted")
	}
	fmt.Fprintf(w, "%-36s %d/%d = %.6g\n", "fail_ratio", r.failed, r.attempted, float64(r.failed)/float64(r.attempted))
	return json.Marshal(res)
}
