// Package experiment contains shared plumbing for the command-line tools
// and the benchmark harness: graph/schedule specification parsing, seeded
// multi-run aggregation, and plain-text table rendering.
package experiment

import (
	"encoding/csv"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"riseandshine/internal/graph"
	"riseandshine/internal/sim"
)

// ParseGraph builds a graph from a compact spec string:
//
//	path:N | cycle:N | star:N | complete:N | bipartite:A:B | grid:RxC |
//	torus:RxC | hypercube:D | lollipop:K:TAIL | tree:N | binary:N |
//	gnp:N:P | connected:N:P | caterpillar:SPINE:LEGS | wheel:N |
//	kary:N:K | debruijn:D | regular:N:D | ba:N:M | file:PATH
//
// Random families take the given seed. Out-of-range specs are errors, never
// generator panics: counts must be non-negative, probabilities lie in
// [0, 1], each family's own minimum holds (cycle:N needs N ≥ 3, torus
// sides ≥ 3, …), and the node count and an upper bound on the (expected)
// directed edge count must fit the int32 index space every graph is stored
// in.
func ParseGraph(spec string, seed int64) (*graph.Graph, error) {
	parts := strings.Split(spec, ":")
	kind := parts[0]
	args := parts[1:]
	bad := func(format string, a ...any) error {
		return fmt.Errorf("experiment: graph spec %q: %s", spec, fmt.Sprintf(format, a...))
	}
	// count parses the i-th argument as a non-negative integer.
	count := func(i int) (int, error) {
		if i >= len(args) {
			return 0, bad("missing argument %d", i+1)
		}
		v, err := strconv.Atoi(args[i])
		if err != nil {
			return 0, err
		}
		if v < 0 {
			return 0, bad("argument %d must be >= 0, got %d", i+1, v)
		}
		return v, nil
	}
	// pair parses the two counts of spec kinds taking two arguments.
	pair := func() (int, int, error) {
		a, err := count(0)
		if err != nil {
			return 0, 0, err
		}
		b, err := count(1)
		return a, b, err
	}
	prob := func(i int) (float64, error) {
		if i >= len(args) {
			return 0, bad("missing argument %d", i+1)
		}
		p, err := strconv.ParseFloat(args[i], 64)
		if err != nil {
			return 0, err
		}
		if !(p >= 0 && p <= 1) {
			return 0, bad("probability %v outside [0, 1]", p)
		}
		return p, nil
	}
	dims := func(i int) (int, int, error) {
		if i >= len(args) {
			return 0, 0, bad("missing RxC argument")
		}
		rc := strings.SplitN(args[i], "x", 2)
		if len(rc) != 2 {
			return 0, 0, bad("want RxC, got %q", args[i])
		}
		r, err := strconv.Atoi(rc[0])
		if err != nil {
			return 0, 0, err
		}
		c, err := strconv.Atoi(rc[1])
		if err != nil {
			return 0, 0, err
		}
		if r < 0 || c < 0 {
			return 0, 0, bad("dimensions must be >= 0, got %dx%d", r, c)
		}
		return r, c, nil
	}
	atLeast := func(what string, v, min int) error {
		if v < min {
			return bad("%s must be >= %d, got %d", what, min, v)
		}
		return nil
	}
	// fits checks a size estimate against the int32 index space: float64
	// arithmetic, so the estimate itself cannot overflow.
	fits := func(nodes, directed float64) error {
		if nodes > math.MaxInt32 {
			return bad("%.3g nodes exceed the int32 index space", nodes)
		}
		if directed > math.MaxInt32 {
			return bad("%.3g directed edges exceed the int32 index space", directed)
		}
		return nil
	}
	f := func(v int) float64 { return float64(v) }

	rng := rand.New(rand.NewSource(seed))
	switch kind {
	case "file":
		if len(args) == 0 {
			return nil, bad("missing path")
		}
		// Re-join in case the path itself contains colons.
		path := strings.Join(args, ":")
		file, err := os.Open(path)
		if err != nil {
			return nil, fmt.Errorf("experiment: %w", err)
		}
		defer file.Close()
		return graph.ReadEdgeList(file)
	case "path", "star", "tree", "binary":
		n, err := count(0)
		if err == nil {
			err = fits(f(n), 2*f(n))
		}
		if err != nil {
			return nil, err
		}
		switch kind {
		case "path":
			return graph.Path(n), nil
		case "star":
			return graph.Star(n), nil
		case "tree":
			return graph.RandomTree(n, rng), nil
		}
		return graph.BinaryTree(n), nil
	case "cycle":
		n, err := count(0)
		if err == nil {
			err = atLeast("N", n, 3)
		}
		if err == nil {
			err = fits(f(n), 2*f(n))
		}
		if err != nil {
			return nil, err
		}
		return graph.Cycle(n), nil
	case "wheel":
		n, err := count(0)
		if err == nil {
			err = atLeast("N", n, 4)
		}
		if err == nil {
			err = fits(f(n), 4*f(n))
		}
		if err != nil {
			return nil, err
		}
		return graph.Wheel(n), nil
	case "complete":
		n, err := count(0)
		if err == nil {
			err = fits(f(n), f(n)*f(n-1))
		}
		if err != nil {
			return nil, err
		}
		return graph.Complete(n), nil
	case "bipartite":
		a, b, err := pair()
		if err == nil {
			err = fits(f(a)+f(b), 2*f(a)*f(b))
		}
		if err != nil {
			return nil, err
		}
		return graph.CompleteBipartite(a, b), nil
	case "grid", "torus":
		r, c, err := dims(0)
		if err == nil && kind == "torus" {
			if r < 3 || c < 3 {
				err = bad("torus sides must be >= 3, got %dx%d", r, c)
			}
		}
		if err == nil {
			err = fits(f(r)*f(c), 4*f(r)*f(c))
		}
		if err != nil {
			return nil, err
		}
		if kind == "torus" {
			return graph.Torus(r, c), nil
		}
		return graph.Grid(r, c), nil
	case "hypercube", "debruijn":
		d, err := count(0)
		if err == nil {
			// 2^d nodes of degree d (hypercube) or at most 4 (de Bruijn).
			deg := f(d)
			if kind == "debruijn" {
				deg = 4
			}
			err = fits(math.Ldexp(1, d), deg*math.Ldexp(1, d))
		}
		if err != nil {
			return nil, err
		}
		if kind == "hypercube" {
			return graph.Hypercube(d), nil
		}
		return graph.DeBruijn(d), nil
	case "lollipop":
		k, tail, err := pair()
		if err == nil {
			err = atLeast("K", k, 1)
		}
		if err == nil {
			err = fits(f(k)+f(tail), f(k)*f(k-1)+2*f(tail))
		}
		if err != nil {
			return nil, err
		}
		return graph.Lollipop(k, tail), nil
	case "caterpillar":
		spine, legs, err := pair()
		if err == nil {
			err = fits(f(spine)*(1+f(legs)), 2*f(spine)*(1+f(legs)))
		}
		if err != nil {
			return nil, err
		}
		return graph.Caterpillar(spine, legs), nil
	case "kary":
		n, k, err := pair()
		if err == nil {
			err = atLeast("K", k, 1)
		}
		if err == nil {
			err = fits(f(n), 2*f(n))
		}
		if err != nil {
			return nil, err
		}
		return graph.KAryTree(n, k), nil
	case "regular":
		n, d, err := pair()
		if err == nil && d >= n {
			err = bad("degree D must be < N, got D=%d N=%d", d, n)
		}
		if err == nil && n%2 == 1 && d%2 == 1 {
			err = bad("N·D must be even, got N=%d D=%d", n, d)
		}
		if err == nil {
			err = fits(f(n), f(n)*f(d))
		}
		if err != nil {
			return nil, err
		}
		return graph.RandomRegular(n, d, rng), nil
	case "ba":
		n, m, err := pair()
		if err == nil && (m < 1 || m >= n) {
			err = bad("M must satisfy 1 <= M < N, got M=%d N=%d", m, n)
		}
		if err == nil {
			err = fits(f(n), 2*f(n)*f(m))
		}
		if err != nil {
			return nil, err
		}
		return graph.PreferentialAttachment(n, m, rng), nil
	case "gnp", "connected":
		n, err := count(0)
		if err != nil {
			return nil, err
		}
		p, err := prob(1)
		if err == nil {
			// Expected edges; a connected graph adds its spanning tree.
			err = fits(f(n), p*f(n)*f(n-1)+2*f(n))
		}
		if err != nil {
			return nil, err
		}
		if kind == "gnp" {
			return graph.RandomGNP(n, p, rng), nil
		}
		return graph.RandomConnected(n, p, rng), nil
	default:
		return nil, fmt.Errorf("experiment: unknown graph kind %q", kind)
	}
}

// ParseSchedule builds a wake schedule from a spec string:
//
//	single | single:V | all | dominating | random:K | random:K:WINDOW |
//	staggered:S1,S2,...:GAP
func ParseSchedule(spec string, seed int64) (sim.WakeScheduler, error) {
	parts := strings.Split(spec, ":")
	switch parts[0] {
	case "single":
		v := 0
		if len(parts) > 1 {
			var err error
			if v, err = strconv.Atoi(parts[1]); err != nil {
				return nil, err
			}
		}
		return sim.WakeSingle(v), nil
	case "all":
		return sim.WakeAll{}, nil
	case "dominating":
		return sim.DominatingWake{}, nil
	case "random":
		k := 1
		window := 0.0
		var err error
		if len(parts) > 1 {
			if k, err = strconv.Atoi(parts[1]); err != nil {
				return nil, err
			}
		}
		if len(parts) > 2 {
			if window, err = parseSpan(spec, "window", parts[2]); err != nil {
				return nil, err
			}
		}
		return sim.RandomWake{Count: k, Window: sim.Time(window), Seed: seed}, nil
	case "staggered":
		if len(parts) < 3 {
			return nil, fmt.Errorf("experiment: staggered spec wants staggered:S1,S2,..:GAP")
		}
		var sizes []int
		for _, s := range strings.Split(parts[1], ",") {
			v, err := strconv.Atoi(s)
			if err != nil {
				return nil, err
			}
			sizes = append(sizes, v)
		}
		gap, err := parseSpan(spec, "gap", parts[2])
		if err != nil {
			return nil, err
		}
		return sim.StaggeredWake{Sizes: sizes, Gap: sim.Time(gap), Seed: seed}, nil
	default:
		return nil, fmt.Errorf("experiment: unknown schedule %q", parts[0])
	}
}

// parseSpan parses the time span of a wake schedule (a random window or a
// staggered gap): a finite number ≥ 0.
func parseSpan(spec, what, s string) (float64, error) {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, err
	}
	if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
		return 0, fmt.Errorf("experiment: schedule %q: %s must be a finite number >= 0", spec, what)
	}
	return v, nil
}

// ParseDelays builds a delay adversary from "unit", "random", or
// "random:MIN" (delays in (MIN, 1], MIN in [0, 1)).
func ParseDelays(spec string, seed int64) (sim.Delayer, error) {
	switch {
	case spec == "" || spec == "unit":
		return sim.UnitDelay{}, nil
	case spec == "random":
		return sim.RandomDelay{Seed: seed}, nil
	case strings.HasPrefix(spec, "random:"):
		min, err := strconv.ParseFloat(spec[len("random:"):], 64)
		if err != nil {
			return nil, fmt.Errorf("experiment: delay spec %q: %w", spec, err)
		}
		if math.IsNaN(min) || min < 0 || min >= 1 {
			return nil, fmt.Errorf("experiment: delay spec %q: MIN must be in [0, 1)", spec)
		}
		return sim.RandomDelay{Seed: seed, Min: min}, nil
	default:
		return nil, fmt.Errorf("experiment: unknown delay strategy %q", spec)
	}
}

// Table renders rows as a fixed-width plain-text table.
type Table struct {
	Header []string
	Rows   [][]string
}

// Add appends one row; values are formatted with %v.
func (t *Table) Add(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = strconv.FormatFloat(v, 'g', 4, 64)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// WriteCSV writes the table as a CSV file, creating parent directories as
// needed. Cells containing commas or quotes are quoted. The error from
// closing the file is reported: a full disk surfaces as a failure instead
// of a silently truncated CSV.
func (t *Table) WriteCSV(path string) (err error) {
	if dir := filepath.Dir(path); dir != "." && dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("experiment: %w", err)
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("experiment: %w", err)
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("experiment: %w", cerr)
		}
	}()
	w := csv.NewWriter(f)
	if err := w.Write(t.Header); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := w.Write(row); err != nil {
			return err
		}
	}
	w.Flush()
	return w.Error()
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			for pad := len(cell); pad < widths[i]; pad++ {
				b.WriteByte(' ')
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}
