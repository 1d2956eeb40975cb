package core_test

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"riseandshine/internal/advice"
	"riseandshine/internal/core"
	"riseandshine/internal/graph"
	"riseandshine/internal/sim"
)

func TestSpannerSchemeWakesEveryone(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, k := range []int{1, 2, 3, 0} { // 0 handled by caller below
		kk := k
		if kk == 0 {
			kk = core.Corollary2K(200)
		}
		for trial := 0; trial < 4; trial++ {
			g := graph.RandomConnected(200, 0.06, rng)
			pm := graph.RandomPorts(g, rng)
			res := runScheme(t, g, pm, core.SpannerOracle{K: kk}, core.SpannerScheme{},
				sim.RandomWake{Count: 3, Seed: int64(trial)}, sim.RandomDelay{Seed: int64(trial)})
			if !res.AllAwake {
				t.Fatalf("k=%d trial=%d: only %d/%d awake", kk, trial, res.AwakeCount, res.N)
			}
		}
	}
}

// TestSpannerSchemeMessagesTrackSpannerSize: each spanner edge carries
// O(1) messages (wake + next-pair + relay), so messages ≤ 4·|E_S| + n.
func TestSpannerSchemeMessagesTrackSpannerSize(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := graph.RandomConnected(300, 0.15, rng)
	for _, k := range []int{2, 3} {
		s, err := graph.GreedySpanner(g, k)
		if err != nil {
			t.Fatal(err)
		}
		pm := graph.RandomPorts(g, rng)
		res := runScheme(t, g, pm, core.SpannerOracle{K: k}, core.SpannerScheme{},
			sim.WakeSingle(0), sim.RandomDelay{Seed: 5})
		if !res.AllAwake {
			t.Fatalf("k=%d: not all awake", k)
		}
		bound := 4*s.M() + g.N()
		if res.Messages > bound {
			t.Errorf("k=%d: %d messages exceed 4|E_S|+n = %d (|E_S|=%d)", k, res.Messages, bound, s.M())
		}
	}
}

// TestSpannerSchemeTimeStretchLog: wake span is O(k·ρ_awk·log n) — each
// spanner hop costs at most the in-list dissemination depth.
func TestSpannerSchemeTimeStretchLog(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := graph.RandomConnected(250, 0.05, rng)
	for _, k := range []int{2, 3} {
		pm := graph.RandomPorts(g, rng)
		res := runScheme(t, g, pm, core.SpannerOracle{K: k}, core.SpannerScheme{},
			sim.WakeSingle(0), sim.UnitDelay{})
		rho := g.AwakeDistance([]int{0})
		n := float64(g.N())
		bound := float64((2*k-1)*rho+3) * (2*math.Log2(n) + 4)
		if float64(res.WakeSpan) > bound {
			t.Errorf("k=%d: wake span %v exceeds O(k·ρ·log n) ≈ %.0f (ρ=%d)", k, res.WakeSpan, bound, rho)
		}
	}
}

// TestSpannerAdviceDegeneracyBound: max advice is governed by the spanner
// degeneracy: O(n^{1/k}·log n) bits.
func TestSpannerAdviceDegeneracyBound(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := graph.RandomConnected(400, 0.1, rng)
	for _, k := range []int{2, 3} {
		pm := graph.RandomPorts(g, rng)
		_, bits, err := (core.SpannerOracle{K: k}).Advise(g, pm)
		if err != nil {
			t.Fatal(err)
		}
		st := advice.Measure(bits)
		n := float64(g.N())
		w := math.Log2(n) + 2
		// out-ports + entries: ≤ 2·degeneracy fields of ~3w bits each,
		// degeneracy ≤ 2·n^{1/k} by the girth argument.
		bound := (2*math.Pow(n, 1/float64(k)) + 4) * 4 * w
		if float64(st.MaxBits) > bound {
			t.Errorf("k=%d: max advice %d bits exceeds Õ(n^{1/k}) ≈ %.0f", k, st.MaxBits, bound)
		}
	}
}

// TestCorollary2Instantiation: k = ⌈log2 n⌉ gives polylog advice and
// near-linear messages.
func TestCorollary2Instantiation(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := graph.RandomConnected(512, 0.08, rng)
	k := core.Corollary2K(g.N())
	if k != 9 {
		t.Fatalf("Corollary2K(512) = %d, want 9", k)
	}
	pm := graph.RandomPorts(g, rng)
	res := runScheme(t, g, pm, core.SpannerOracle{K: k}, core.SpannerScheme{},
		sim.RandomWake{Count: 4, Seed: 6}, sim.RandomDelay{Seed: 6})
	if !res.AllAwake {
		t.Fatal("not all awake")
	}
	n := float64(g.N())
	l := math.Log2(n)
	if float64(res.AdviceMaxBits) > 24*l*l {
		t.Errorf("max advice %d bits exceeds O(log² n) ≈ %.0f", res.AdviceMaxBits, 24*l*l)
	}
	if float64(res.Messages) > 8*n*l*l {
		t.Errorf("%d messages exceed O(n log² n)", res.Messages)
	}
}

func TestCorollary2KValues(t *testing.T) {
	cases := map[int]int{2: 1, 4: 2, 16: 4, 17: 5, 1024: 10}
	for n, want := range cases {
		if got := core.Corollary2K(n); got != want {
			t.Errorf("Corollary2K(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestSpannerOracleErrors(t *testing.T) {
	g := graph.Path(4)
	pm := graph.IdentityPorts(g)
	if _, _, err := (core.SpannerOracle{K: 0}).Advise(g, pm); err == nil {
		t.Error("expected error for k=0")
	}
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1)
	dg := b.MustBuild()
	if _, _, err := (core.SpannerOracle{K: 2}).Advise(dg, graph.IdentityPorts(dg)); err == nil {
		t.Error("expected error for disconnected graph")
	}
}

// TestSpannerSchemeOnTree: the spanner of a tree is the tree; the scheme
// degenerates to tree dissemination and must still work from any source.
func TestSpannerSchemeOnTree(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := graph.RandomTree(120, rng)
	pm := graph.RandomPorts(g, rng)
	for _, src := range []int{0, 60, 119} {
		res := runScheme(t, g, pm, core.SpannerOracle{K: 3}, core.SpannerScheme{},
			sim.WakeSingle(src), sim.RandomDelay{Seed: int64(src)})
		if !res.AllAwake {
			t.Fatalf("source %d: not all awake", src)
		}
	}
}

// TestSpannerSchemeDenseGraphSavings: on a dense graph the scheme's
// message count is far below flooding.
func TestSpannerSchemeDenseGraphSavings(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	g := graph.RandomConnected(300, 0.4, rng)
	pm := graph.RandomPorts(g, rng)
	res := runScheme(t, g, pm, core.SpannerOracle{K: core.Corollary2K(g.N())}, core.SpannerScheme{},
		sim.WakeSingle(0), sim.UnitDelay{})
	if !res.AllAwake {
		t.Fatal("not all awake")
	}
	if res.Messages*4 > 2*g.M() {
		t.Errorf("spanner scheme used %d messages vs flooding %d: savings below 4×", res.Messages, 2*g.M())
	}
}

// TestSpannerAdviceDigest pins SpannerOracle's advice bit for bit: an
// FNV-64a hash over every node's advice length and bytes, on two fixed
// graphs and port maps at k = 2 and at the Corollary 2 parameter.
func TestSpannerAdviceDigest(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		seed int64
		want map[int]uint64 // k -> digest
	}{
		{"connected:300:0.1", graph.RandomConnected(300, 0.1, rand.New(rand.NewSource(31))), 32,
			map[int]uint64{2: 0x4f5c655f4ef7345d, 9: 0x8f39bc5c83d570f1}},
		{"grid:20x25", graph.Grid(20, 25), 33,
			map[int]uint64{2: 0x37671a8888bb25c6, 9: 0xd88f745a13b1be10}},
	}
	for _, c := range cases {
		pm := graph.RandomPorts(c.g, rand.New(rand.NewSource(c.seed)))
		for _, k := range []int{2, core.Corollary2K(c.g.N())} {
			bits, lengths, err := (core.SpannerOracle{K: k}).Advise(c.g, pm)
			if err != nil {
				t.Fatal(err)
			}
			h := fnv.New64a()
			var buf [8]byte
			for v := range bits {
				binary.LittleEndian.PutUint64(buf[:], uint64(lengths[v]))
				h.Write(buf[:])
				h.Write(bits[v])
			}
			if got := h.Sum64(); got != c.want[k] {
				t.Errorf("%s k=%d: advice digest %#x, want %#x", c.name, k, got, c.want[k])
			}
		}
	}
}
