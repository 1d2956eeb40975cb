package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"riseandshine/internal/exectrace"
	"riseandshine/internal/sim"
)

// span is one timed call into a layer: a benchmark span around a public
// entry point, or an engine span merged from the flight recorder. Times are
// nanoseconds since the tracer's epoch; parent 0 marks a top-level span.
type span struct {
	id, parent int
	name, cat  string
	tid        int
	start, end int64
}

// tracer keeps the traced run's spans in memory until the run ends. A nil
// *tracer records nothing, so untraced code paths call it unconditionally.
// Spans may be opened from several goroutines; each goroutine records on
// its own tid.
type tracer struct {
	epoch   time.Time
	mu      sync.Mutex
	spans   []span
	threads map[int]string
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), threads: map[int]string{0: "main"}}
}

// clock is the tracer's time base; the engines' flight recorders are built
// on the same clock so their spans line up with the benchmark's.
func (t *tracer) clock() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name string, tid, parent int) int {
	if t == nil {
		return 0
	}
	now := t.clock()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{id: len(t.spans) + 1, parent: parent, name: name, cat: "bench", tid: tid, start: now, end: -1})
	return len(t.spans)
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := t.clock()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].end = now
}

// do runs f inside a span.
func (t *tracer) do(name string, tid, parent int, f func()) {
	id := t.begin(name, tid, parent)
	f()
	t.end(id)
}

func (t *tracer) nameThread(tid int, name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.threads[tid] = name
}

// durations returns the durations, in seconds, of every closed span with
// the given name, in the order they were opened.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.name == name && s.end >= s.start {
			out = append(out, float64(s.end-s.start)/1e9)
		}
	}
	return out
}

func (t *tracer) total(name string) float64 {
	var sum float64
	for _, d := range t.durations(name) {
		sum += d
	}
	return sum
}

// engineSpanName maps the flight recorder's span kinds to layer names:
// track 0 is the engine (or the sharded coordinator), tracks ≥ 1 the shards.
func engineSpanName(kind string, track int) string {
	if track > 0 {
		return "sim.shard." + kind
	}
	switch kind {
	case "setup":
		return "sim.engine_setup"
	case "run":
		return "sim.event_loop"
	case "finish":
		return "sim.finish"
	case "barrier":
		return "sim.coordinator.wait"
	}
	return "sim.shard." + kind // merge, replay
}

// shardTid is the trace thread of shard i of an engine run started on tid.
func shardTid(tid, shard int) int { return 100*(tid+1) + shard }

// mergeExec folds the flight recorder of one engine run into the trace.
// parent is the benchmark span around the run, on thread tid. The
// recorder's spans are read back from its Chrome export, the only span
// export it has; an anchor span at the parent's start fixes the export's
// time base, which is the earliest recorded instant.
func (t *tracer) mergeExec(rec *exectrace.Recorder, parent, tid int) error {
	t.mu.Lock()
	p := t.spans[parent-1]
	t.mu.Unlock()
	rec.ExecRecord(execAnchor(p.start, p.end))
	var buf bytes.Buffer
	if err := rec.WriteChromeTrace(&buf); err != nil {
		return err
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Tid  int     `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		return fmt.Errorf("reading flight recorder trace: %w", err)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	open := map[int][]int{} // per track: indices of open spans
	engineRun := parent     // track-0 "run" span: parent of the per-window spans
	for _, ev := range doc.TraceEvents {
		if ev.Name == "cell" || (ev.Ph != "B" && ev.Ph != "E") {
			continue // the anchor, metadata, window instants
		}
		at := p.start + int64(math.Round(ev.Ts*1e3))
		if ev.Ph == "E" {
			stack := open[ev.Tid]
			if len(stack) == 0 {
				return fmt.Errorf("flight recorder trace: unmatched end of %q on track %d", ev.Name, ev.Tid)
			}
			t.spans[stack[len(stack)-1]].end = at
			open[ev.Tid] = stack[:len(stack)-1]
			continue
		}
		s := span{id: len(t.spans) + 1, name: engineSpanName(ev.Name, ev.Tid), cat: "engine", start: at, end: -1}
		switch {
		case ev.Tid > 0:
			s.tid, s.parent = shardTid(tid, ev.Tid-1), engineRun
			t.threads[s.tid] = fmt.Sprintf("%s / shard %d", t.threads[tid], ev.Tid-1)
		case len(open[0]) > 0:
			s.tid, s.parent = tid, t.spans[open[0][len(open[0])-1]].id
		default:
			s.tid, s.parent = tid, parent
		}
		if ev.Tid == 0 && ev.Name == "run" {
			engineRun = s.id
		}
		open[ev.Tid] = append(open[ev.Tid], len(t.spans))
		t.spans = append(t.spans, s)
	}
	return nil
}

// execAnchor is the recorder span that pins the start of its Chrome export
// to the benchmark span around the run.
func execAnchor(start, end int64) sim.ExecSpan {
	return sim.ExecSpan{Track: 0, Kind: sim.ExecCell, Start: start, End: end}
}

// selfTimes computes each span's self time: its duration minus the part
// of its interval covered by child spans on the same thread. Children on
// other threads (a sharded run's shards) run concurrently with their
// parent and are not subtracted.
func (t *tracer) selfTimes() []int64 {
	kids := make(map[int][]span)
	for _, s := range t.spans {
		if s.parent != 0 && t.spans[s.parent-1].tid == s.tid {
			kids[s.parent] = append(kids[s.parent], s)
		}
	}
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		self[i] = (s.end - s.start) - covered(kids[s.id], s.start, s.end)
	}
	return self
}

// covered is the length of the union of the spans' intervals clipped to
// [lo, hi].
func covered(spans []span, lo, hi int64) int64 {
	sort.Slice(spans, func(i, j int) bool { return spans[i].start < spans[j].start })
	var total int64
	cur := lo
	for _, s := range spans {
		a, b := max(s.start, cur), min(s.end, hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// uncovered is the part of [from, to] that no top-level span covers.
func (t *tracer) uncovered(from, to int64) float64 {
	var top []span
	for _, s := range t.spans {
		if s.parent == 0 {
			top = append(top, s)
		}
	}
	return float64((to-from)-covered(top, from, to)) / 1e9
}

// layerRow is one line of the self-time table, keyed by the metric name
// the span's layer reports under.
type layerRow struct {
	Layer  string  `json:"layer"`
	Spans  int     `json:"spans"`
	TotalS float64 `json:"total_s"`
	SelfS  float64 `json:"self_s"`
}

// layerTable aggregates spans by name into the self-time table, largest
// self time first.
func (t *tracer) layerTable() []layerRow {
	self := t.selfTimes()
	byName := map[string]*layerRow{}
	var rows []*layerRow
	for i, s := range t.spans {
		r := byName[s.name]
		if r == nil {
			r = &layerRow{Layer: s.name + "_s"}
			byName[s.name] = r
			rows = append(rows, r)
		}
		r.Spans++
		r.TotalS += float64(s.end-s.start) / 1e9
		r.SelfS += float64(self[i]) / 1e9
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].SelfS > rows[j].SelfS })
	out := make([]layerRow, len(rows))
	for i, r := range rows {
		out[i] = *r
	}
	return out
}

// chromeEvent is one trace event in the shape internal/exectrace emits.
type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat,omitempty"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"`
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// writeChrome writes every span as Chrome trace-event JSON (B/E pairs, one
// thread per tid, thread-name metadata first), loadable in Perfetto.
func (t *tracer) writeChrome(w io.Writer, process string) error {
	depth := make([]int, len(t.spans))
	for i, s := range t.spans {
		if s.parent != 0 && t.spans[s.parent-1].tid == s.tid {
			depth[i] = depth[s.parent-1] + 1 // parents precede children
		}
	}
	type ev struct {
		chromeEvent
		depth int
	}
	evs := make([]ev, 0, 2*len(t.spans))
	for i, s := range t.spans {
		end := max(s.end, s.start+1) // a zero-length span would close before it opens
		evs = append(evs,
			ev{chromeEvent{Name: s.name, Cat: s.cat, Ph: "B", Ts: float64(s.start) / 1e3, Tid: s.tid}, depth[i]},
			ev{chromeEvent{Name: s.name, Cat: s.cat, Ph: "E", Ts: float64(end) / 1e3, Tid: s.tid}, depth[i]})
	}
	// At one instant on one thread: ends before begins, inner ends first,
	// outer begins first.
	sort.SliceStable(evs, func(i, j int) bool {
		a, b := evs[i], evs[j]
		if a.Ts != b.Ts {
			return a.Ts < b.Ts
		}
		if a.Tid != b.Tid {
			return a.Tid < b.Tid
		}
		if a.Ph != b.Ph {
			return a.Ph == "E"
		}
		if a.Ph == "E" {
			return a.depth > b.depth
		}
		return a.depth < b.depth
	})
	out := struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
		TimeUnit    string        `json:"displayTimeUnit"`
	}{TimeUnit: "ms"}
	out.TraceEvents = append(out.TraceEvents, chromeEvent{Name: "process_name", Ph: "M", Args: map[string]string{"name": process}})
	tids := make([]int, 0, len(t.threads))
	for tid := range t.threads {
		tids = append(tids, tid)
	}
	sort.Ints(tids)
	for _, tid := range tids {
		out.TraceEvents = append(out.TraceEvents, chromeEvent{Name: "thread_name", Ph: "M", Tid: tid, Args: map[string]string{"name": t.threads[tid]}})
	}
	for _, e := range evs {
		out.TraceEvents = append(out.TraceEvents, e.chromeEvent)
	}
	return json.NewEncoder(w).Encode(out)
}

// traceSummary is the traced run's side file: provenance, the self-time
// table, the uncovered wall time and the tracing overhead.
type traceSummary struct {
	Provenance    provenance `json:"provenance"`
	WallS         float64    `json:"traced_wall_s"`
	UncoveredS    float64    `json:"uncovered_s"`
	OverheadRatio float64    `json:"overhead_ratio"`
	Layers        []layerRow `json:"layers"`
}

// finishTrace reports the uncovered time and overhead of the traced part,
// from the tracer's epoch to the clock reading to, and reports 0 for every
// layer the workload did not exercise. It prints the self-time table and
// writes trace.json and layers.json to the output directory.
func finishTrace(o options, rep *report, tr *tracer, to int64, overhead float64) error {
	stdout := rep.log
	sum := traceSummary{
		Provenance:    rep.provenance,
		WallS:         float64(to) / 1e9,
		UncoveredS:    tr.uncovered(0, to),
		OverheadRatio: overhead,
		Layers:        tr.layerTable(),
	}
	rep.set("trace.uncovered_s", sum.UncoveredS)
	rep.set("trace.overhead_ratio", overhead)
	for _, d := range perLayer {
		if _, ok := rep.values[d.name]; !ok {
			rep.set(d.name, 0) // a layer this workload does not exercise
		}
	}
	fmt.Fprintf(stdout, "self time by layer (traced wall %.3fs, uncovered %.3fs):\n", sum.WallS, sum.UncoveredS)
	for _, r := range sum.Layers {
		fmt.Fprintf(stdout, "  %-36s self %9.4fs  total %9.4fs  spans %d\n", r.Layer, r.SelfS, r.TotalS, r.Spans)
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	if err := writeFile(filepath.Join(o.out, "trace.json"), func(w io.Writer) error {
		return tr.writeChrome(w, "perfbench "+o.workload)
	}); err != nil {
		return err
	}
	if err := writeFile(filepath.Join(o.out, "layers.json"), func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(sum)
	}); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "trace written to %s (trace.json, layers.json)\n", o.out)
	return nil
}

func writeFile(path string, write func(io.Writer) error) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	return write(f)
}
