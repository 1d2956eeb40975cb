package experiment

import (
	"os"
	"strings"
	"testing"

	"riseandshine/internal/sim"
)

func TestParseGraphSpecs(t *testing.T) {
	cases := []struct {
		spec string
		n, m int
	}{
		{"path:5", 5, 4},
		{"cycle:6", 6, 6},
		{"star:4", 4, 3},
		{"complete:5", 5, 10},
		{"bipartite:2:3", 5, 6},
		{"grid:3x4", 12, 17},
		{"torus:3x3", 9, 18},
		{"hypercube:3", 8, 12},
		{"lollipop:4:2", 6, 8},
		{"binary:7", 7, 6},
		{"caterpillar:3:2", 9, 8},
		{"tree:20", 20, 19},
		{"wheel:6", 6, 10},
		{"kary:13:3", 13, 12},
		{"regular:10:4", 10, 20},
	}
	for _, tc := range cases {
		g, err := ParseGraph(tc.spec, 1)
		if err != nil {
			t.Fatalf("%s: %v", tc.spec, err)
		}
		if g.N() != tc.n || g.M() != tc.m {
			t.Errorf("%s: n=%d m=%d, want n=%d m=%d", tc.spec, g.N(), g.M(), tc.n, tc.m)
		}
	}
}

func TestParseGraphRandomFamilies(t *testing.T) {
	g, err := ParseGraph("connected:50:0.05", 3)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 50 || !g.Connected() {
		t.Error("connected family malformed")
	}
	gnp, err := ParseGraph("gnp:40:0.2", 3)
	if err != nil {
		t.Fatal(err)
	}
	if gnp.N() != 40 {
		t.Error("gnp family malformed")
	}
	db, err := ParseGraph("debruijn:4", 1)
	if err != nil {
		t.Fatal(err)
	}
	if db.N() != 16 || !db.Connected() {
		t.Error("debruijn family malformed")
	}
	// Same seed reproduces the same graph.
	g2, err := ParseGraph("connected:50:0.05", 3)
	if err != nil {
		t.Fatal(err)
	}
	if g.M() != g2.M() {
		t.Error("graph parsing not seed-deterministic")
	}
}

func TestParseGraphErrors(t *testing.T) {
	for _, spec := range []string{
		"nosuch:4", "path", "grid:4", "grid:4y4", "bipartite:3",
		"gnp:10", "path:x", "connected:10:y",
	} {
		if _, err := ParseGraph(spec, 1); err == nil {
			t.Errorf("spec %q should fail", spec)
		}
	}
}

// TestParseGraphOutOfRange pins the input contract: an out-of-range spec is
// an error naming the problem, returned at once. Each of these used to
// panic inside a generator, or (gnp with p > 1) to run unbounded.
func TestParseGraphOutOfRange(t *testing.T) {
	for _, tc := range []struct{ spec, want string }{
		{"torus:0x5", "torus sides must be >= 3"},
		{"gnp:-5:0.1", "argument 1 must be >= 0"},
		{"hypercube:40", "nodes exceed the int32 index space"},
		{"grid:100000x100000", "nodes exceed the int32 index space"},
		{"complete:200000", "directed edges exceed the int32 index space"},
		{"gnp:100000:2", "probability 2 outside [0, 1]"},
		{"gnp:100:-0.5", "probability -0.5 outside [0, 1]"},
		{"gnp:100:NaN", "probability NaN outside [0, 1]"},
		{"connected:100:1.5", "probability 1.5 outside [0, 1]"},
		{"gnp:100000:1", "directed edges exceed the int32 index space"},
		{"grid:-3x4", "dimensions must be >= 0"},
		{"cycle:2", "N must be >= 3"},
		{"wheel:3", "N must be >= 4"},
		{"lollipop:0:4", "K must be >= 1"},
		{"kary:10:0", "K must be >= 1"},
		{"regular:5:3", "N·D must be even"},
		{"regular:4:4", "degree D must be < N"},
		{"ba:5:5", "1 <= M < N"},
		{"debruijn:40", "nodes exceed the int32 index space"},
		{"hypercube:27", "directed edges exceed the int32 index space"},
		{"path:-1", "argument 1 must be >= 0"},
	} {
		t.Run(tc.spec, func(t *testing.T) {
			g, err := ParseGraph(tc.spec, 1)
			if err == nil {
				t.Fatalf("ParseGraph(%q) built a %d-node graph, want an error", tc.spec, g.N())
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("ParseGraph(%q) error %q, want it to mention %q", tc.spec, err, tc.want)
			}
		})
	}
}

// TestParseGraphLimitsAdmitBoundary checks the limits are not off by one:
// specs exactly at a family's minimum, or at p = 0 and p = 1, still parse.
func TestParseGraphLimitsAdmitBoundary(t *testing.T) {
	for _, spec := range []string{"hypercube:10", "torus:3x3", "cycle:3", "wheel:4", "gnp:30:0", "gnp:30:1", "lollipop:1:3"} {
		if _, err := ParseGraph(spec, 1); err != nil {
			t.Errorf("ParseGraph(%q): %v", spec, err)
		}
	}
}

func TestParseGraphFromFile(t *testing.T) {
	path := t.TempDir() + "/g.txt"
	if err := os.WriteFile(path, []byte("n 3\n0 1\n1 2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	g, err := ParseGraph("file:"+path, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 3 || g.M() != 2 {
		t.Errorf("file graph: n=%d m=%d", g.N(), g.M())
	}
	if _, err := ParseGraph("file:/does/not/exist", 1); err == nil {
		t.Error("expected error for missing file")
	}
	if _, err := ParseGraph("file", 1); err == nil {
		t.Error("expected error for missing path")
	}
}

func TestWriteCSV(t *testing.T) {
	tbl := &Table{Header: []string{"a", "b"}}
	tbl.Add(1, "x,y")
	path := t.TempDir() + "/out/table.csv"
	if err := tbl.WriteCSV(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := "a,b\n1,\"x,y\"\n"
	if string(data) != want {
		t.Errorf("csv = %q, want %q", data, want)
	}
}

func TestParseScheduleSpecs(t *testing.T) {
	g, _ := ParseGraph("path:10", 1)
	cases := map[string]int{
		"single":             1,
		"single:3":           1,
		"all":                10,
		"random:4":           4,
		"random:3:2.5":       3,
		"staggered:1,2,3:10": 6,
	}
	for spec, want := range cases {
		s, err := ParseSchedule(spec, 1)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		if got := len(s.Wakeups(g)); got != want {
			t.Errorf("%s: %d wakeups, want %d", spec, got, want)
		}
	}
	dom, err := ParseSchedule("dominating", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(dom.Wakeups(g)) == 0 {
		t.Error("dominating schedule empty")
	}
}

func TestParseScheduleErrors(t *testing.T) {
	for _, spec := range []string{
		"bogus", "single:x", "random:y", "staggered:1,2", "staggered:a:3",
		"staggered:1,1:NaN", "staggered:1,1:Inf", "staggered:1,1:-Inf", "staggered:1,1:-1",
		"random:4:NaN", "random:4:+Inf", "random:4:-0.5", "random:4:1e400",
	} {
		if _, err := ParseSchedule(spec, 1); err == nil {
			t.Errorf("spec %q should fail", spec)
		}
	}
}

func TestParseDelays(t *testing.T) {
	if d, err := ParseDelays("", 1); err != nil || d == nil {
		t.Error("empty delay spec should default to unit")
	}
	if _, err := ParseDelays("unit", 1); err != nil {
		t.Error("unit delays should parse")
	}
	d, err := ParseDelays("random", 1)
	if err != nil {
		t.Fatal(err)
	}
	if v := d.Delay(0, 1, 0, 0); v <= 0 || v > 1 {
		t.Errorf("random delay %v outside range", v)
	}
	if _, err := ParseDelays("bogus", 1); err == nil {
		t.Error("bogus delay spec should fail")
	}
}

func TestParseDelaysMin(t *testing.T) {
	d, err := ParseDelays("random:0.5", 1)
	if err != nil {
		t.Fatal(err)
	}
	rd, ok := d.(sim.RandomDelay)
	if !ok || rd.Min != 0.5 {
		t.Fatalf("random:0.5 parsed to %#v", d)
	}
	for k := 0; k < 50; k++ {
		if v := d.Delay(0, 1, k, 0); v <= 0.5 || v > 1 {
			t.Fatalf("delay %v outside (0.5, 1]", v)
		}
	}
	for _, spec := range []string{"random:", "random:x", "random:-0.1", "random:1", "random:1.5", "random:NaN"} {
		if _, err := ParseDelays(spec, 1); err == nil {
			t.Errorf("spec %q should fail", spec)
		}
	}
}

func TestSingleScheduleTargetsNode(t *testing.T) {
	g, _ := ParseGraph("path:10", 1)
	s, err := ParseSchedule("single:7", 1)
	if err != nil {
		t.Fatal(err)
	}
	w := s.Wakeups(g)
	if len(w) != 1 || w[0].Node != 7 {
		t.Errorf("wakeups = %v", w)
	}
}

func TestStaggeredScheduleTiming(t *testing.T) {
	g, _ := ParseGraph("complete:20", 1)
	s, err := ParseSchedule("staggered:2,2:5", 3)
	if err != nil {
		t.Fatal(err)
	}
	w := s.Wakeups(g)
	if w[0].At != 0 || w[2].At != sim.Time(5) {
		t.Errorf("staggered times wrong: %v", w)
	}
}

func TestTableRendering(t *testing.T) {
	tbl := &Table{Header: []string{"name", "value"}}
	tbl.Add("alpha", 3)
	tbl.Add("beta-long-name", 1.25)
	out := tbl.String()
	if !strings.Contains(out, "alpha") || !strings.Contains(out, "beta-long-name") {
		t.Errorf("table output missing rows:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 { // header + separator + 2 rows
		t.Errorf("table has %d lines:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[1], "----") {
		t.Errorf("separator missing:\n%s", out)
	}
	if !strings.Contains(out, "1.25") {
		t.Errorf("float formatting broken:\n%s", out)
	}
}
