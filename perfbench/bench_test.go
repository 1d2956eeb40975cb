package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// invoke runs the benchmark in-process and returns its exit status, its
// standard output and its parsed result line (nil when there is none).
func invoke(t *testing.T, o options) (int, string, map[string]json.RawMessage) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(o, &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		res = nil
	}
	if t.Failed() || code != 0 {
		t.Logf("stderr:\n%s", stderr.String())
	}
	return code, stdout.String(), res
}

// toy shrinks a workload to test size: binary:4096 floods, and Table 1 at
// cmd/table1's -quick sizes with the default 2 workers.
func toy(t *testing.T, workload string) options {
	o := options{workload: workload, seed: 1, seconds: 0.05, out: t.TempDir(), nodes: 4096, workers: table1Workers}
	if workload == "table1" {
		o.quick, o.seconds = true, 0.01
	}
	return o
}

func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	for _, w := range workloadNames() {
		for _, trace := range []string{"0", "1"} {
			t.Run(w+"/trace="+trace, func(t *testing.T) {
				o := toy(t, w)
				o.trace = trace == "1"
				code, _, res := invoke(t, o)
				if code != 0 {
					t.Fatalf("exit status %d, want 0", code)
				}
				if len(res) != 4 {
					t.Fatalf("result line has keys %v, want correct, attempted, failed, metrics", keys(res))
				}
				var correct bool
				var attempted, failed int
				var metrics map[string]struct {
					Value *float64 `json:"value"`
					Unit  string   `json:"unit"`
				}
				for k, v := range map[string]any{"correct": &correct, "attempted": &attempted, "failed": &failed, "metrics": &metrics} {
					if err := json.Unmarshal(res[k], v); err != nil {
						t.Fatalf("result %s: %v", k, err)
					}
				}
				if !correct || failed != 0 || attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d, want a clean pass", correct, attempted, failed)
				}
				defs := endToEnd
				if trace == "1" {
					defs = perLayer
				}
				if len(metrics) != len(defs) {
					t.Errorf("%d metrics, want %d", len(metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := metrics[d.name]
					if !ok || m.Value == nil {
						t.Errorf("metric %s missing", d.name)
						continue
					}
					if m.Unit != d.unit {
						t.Errorf("metric %s has unit %q, want %q", d.name, m.Unit, d.unit)
					}
					if trace == "0" && !(*m.Value > 0) {
						t.Errorf("end-to-end metric %s = %v, want > 0", d.name, *m.Value)
					}
				}
				if trace == "1" {
					checkTraceFiles(t, o.out)
				}
			})
		}
	}
}

// checkTraceFiles checks that the traced run wrote a Chrome trace with
// spans and a self-time table.
func checkTraceFiles(t *testing.T, dir string) {
	t.Helper()
	var trace struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	readJSON(t, filepath.Join(dir, "trace.json"), &trace)
	begins := 0
	open := map[int][]string{} // per thread: names of the open spans
	last := map[int]float64{}
	for i, ev := range trace.TraceEvents {
		switch ev.Ph {
		case "M":
			if begins > 0 {
				t.Fatalf("trace.json event %d: metadata after spans", i)
			}
			continue
		case "B":
			begins++
			open[ev.Tid] = append(open[ev.Tid], ev.Name)
		case "E":
			stack := open[ev.Tid]
			if len(stack) == 0 || stack[len(stack)-1] != ev.Name {
				t.Fatalf("trace.json event %d: end of %q does not close the innermost open span %v", i, ev.Name, stack)
			}
			open[ev.Tid] = stack[:len(stack)-1]
		}
		if ev.Ts < last[ev.Tid] {
			t.Fatalf("trace.json event %d: time goes back on thread %d", i, ev.Tid)
		}
		last[ev.Tid] = ev.Ts
	}
	if begins == 0 {
		t.Errorf("trace.json has no spans")
	}
	var sum traceSummary
	readJSON(t, filepath.Join(dir, "layers.json"), &sum)
	if len(sum.Layers) == 0 || sum.WallS <= 0 {
		t.Errorf("layers.json: %d layers over %gs, want a self-time table", len(sum.Layers), sum.WallS)
	}
}

func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}

func TestSelfTimeSubtractsSameThreadChildren(t *testing.T) {
	tr := &tracer{spans: []span{
		{id: 1, name: "a", tid: 0, start: 0, end: 10},
		{id: 2, parent: 1, name: "b", tid: 0, start: 1, end: 4},
		{id: 3, parent: 1, name: "c", tid: 0, start: 3, end: 6},
		{id: 4, parent: 1, name: "shard", tid: 1, start: 2, end: 8},
	}}
	self := tr.selfTimes()
	if want := []int64{5, 3, 3, 6}; !reflect.DeepEqual(self, want) {
		t.Errorf("self times %v, want %v: a loses the union [1,6] of b and c, not the other thread's span", self, want)
	}
	if got := tr.uncovered(0, 12); got != 2e-9 {
		t.Errorf("uncovered %g s, want 2e-9 (after the only top-level span)", got)
	}
}

// A corrupted reference value must be counted as a failed check and turn
// the exit status non-zero, on both kinds of reference.
func TestCorruptedReferenceFails(t *testing.T) {
	corruptDigest := func(key string) func() func() {
		return func() func() {
			saved := referenceDigests[key]
			referenceDigests[key] = "0000000000000000"
			return func() { referenceDigests[key] = saved }
		}
	}
	cases := map[string]struct {
		workload string
		corrupt  func() (restore func())
	}{
		"flood digest":         {"flood-1m", corruptDigest("flood-1m/4096/1")},
		"sharded flood digest": {"flood-1m-p2", corruptDigest("flood-1m-p2/4096/1")},
		"table1 rendering": {"table1", func() func() {
			saved := table1QuickPin
			table1QuickPin = strings.Replace(saved, "Theorem 3", "Theorem 4", 1)
			return func() { table1QuickPin = saved }
		}},
	}
	for name, c := range cases {
		t.Run(name, func(t *testing.T) {
			defer c.corrupt()()
			code, _, res := invoke(t, toy(t, c.workload))
			if code == 0 {
				t.Errorf("exit status 0, want non-zero")
			}
			var failed int
			if err := json.Unmarshal(res["failed"], &failed); err != nil || failed < 1 {
				t.Errorf("failed = %s, want at least 1", res["failed"])
			}
			if string(res["correct"]) != "false" {
				t.Errorf("correct = %s, want false", res["correct"])
			}
		})
	}
}

// The rendered table must equal the pinned copy at any worker count.
func TestTable1MatchesPinnedAtEveryWorkerCount(t *testing.T) {
	for _, workers := range []int{1, 3} {
		o := toy(t, "table1")
		o.workers = workers
		if code, _, _ := invoke(t, o); code != 0 {
			t.Errorf("%d workers: exit status %d, want 0", workers, code)
		}
	}
}

// The benchmark times its own copy of cmd/table1's rows and driver loop.
// The CLI's -quick output must equal both the pinned copy and this copy's
// rendering, so a change to the CLI that the copy does not follow fails
// here rather than leaving matrix_s timing code the CLI no longer runs.
func TestTable1MatchesCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("runs cmd/table1 -quick")
	}
	cmd := exec.Command("go", "run", "riseandshine/cmd/table1", "-quick", "-workers", "2")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	cli, err := cmd.Output()
	if err != nil {
		t.Fatalf("go run riseandshine/cmd/table1: %v\n%s", err, stderr.Bytes())
	}
	if got := string(cli); got != table1QuickPin {
		t.Errorf("cmd/table1 -quick differs from testdata/table1-quick-seed1.txt: %s", firstDiff(got, table1QuickPin))
	}
	o := toy(t, "table1")
	m, _, err := runnerMatrix(o, newReport(o, &bytes.Buffer{}), false)
	if err != nil {
		t.Fatal(err)
	}
	if got := string(cli); got != m.text {
		t.Errorf("cmd/table1 -quick differs from the benchmark's rendering: %s", firstDiff(got, m.text))
	}
}

// A bad command line is an error, on which main exits 2 before printing
// anything.
func TestBadCommandLineIsAnError(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "no-such-workload"},
		{"--workload", "flood-1m", "--trace", "2"},
		{"--workload", "flood-1m", "--seconds", "0"},
		{"--workload", "flood-1m", "--nodes", "4096"},
	} {
		if _, err := parseFlags(args, &bytes.Buffer{}); err == nil {
			t.Errorf("%q: parsed without error", args)
		}
	}
	o, err := parseFlags([]string{"--workload", "table1", "--seed", "7"}, &bytes.Buffer{})
	if err != nil {
		t.Fatal(err)
	}
	if o.nodes != floodNodes || o.quick || o.workers != table1Workers || o.seed != 7 || o.trace || o.seconds != 20 {
		t.Errorf("parsed %+v, want the full-size defaults", o)
	}
}

// BENCHMARK.json at the repository root must list exactly the catalogue's
// metrics, in order, with the same units and directions.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	type entry struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	var doc struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []entry `json:"end_to_end"`
		PerLayer []entry `json:"per_layer"`
	}
	readJSON(t, filepath.Join("..", "BENCHMARK.json"), &doc)
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("workloads %s, want %s", got, want)
	}
	compare := func(kind string, got []entry, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics, catalogue has %d", kind, len(got), len(want))
		}
		for i := 0; i < len(got) && i < len(want); i++ {
			if w := (entry{want[i].name, want[i].unit, want[i].better}); got[i] != w {
				t.Errorf("%s[%d] = %+v, catalogue has %+v", kind, i, got[i], w)
			}
		}
	}
	compare("end_to_end", doc.EndToEnd, endToEnd)
	compare("per_layer", doc.PerLayer, perLayer)
}

func keys(m map[string]json.RawMessage) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}
