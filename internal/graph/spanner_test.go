package graph

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestGreedySpannerStretch(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, k := range []int{1, 2, 3} {
		for trial := 0; trial < 5; trial++ {
			g := RandomConnected(80, 0.15, rng)
			s, err := GreedySpanner(g, k)
			if err != nil {
				t.Fatal(err)
			}
			if err := VerifyStretch(g, s, 2*k-1); err != nil {
				t.Errorf("k=%d trial=%d: %v", k, trial, err)
			}
			if !s.Connected() {
				t.Errorf("k=%d trial=%d: spanner disconnected", k, trial)
			}
		}
	}
}

func TestGreedySpannerK1IsWholeGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	g := RandomConnected(50, 0.2, rng)
	s, err := GreedySpanner(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	if s.M() != g.M() {
		t.Errorf("1-spanner dropped edges: %d vs %d", s.M(), g.M())
	}
}

func TestGreedySpannerEdgeBound(t *testing.T) {
	// Girth argument: a (2k−1)-spanner built greedily has girth > 2k and
	// hence at most n^{1+1/k} + n edges.
	rng := rand.New(rand.NewSource(13))
	for _, k := range []int{2, 3, 4} {
		g := RandomConnected(200, 0.3, rng)
		s, err := GreedySpanner(g, k)
		if err != nil {
			t.Fatal(err)
		}
		n := float64(g.N())
		bound := math.Pow(n, 1+1.0/float64(k)) + n
		if float64(s.M()) > bound {
			t.Errorf("k=%d: spanner has %d edges, girth bound is %.0f", k, s.M(), bound)
		}
		if girth := s.Girth(); girth != -1 && girth <= 2*k {
			t.Errorf("k=%d: spanner girth %d, want > %d", k, girth, 2*k)
		}
	}
}

func TestGreedySpannerOnTreeIsIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	g := RandomTree(60, rng)
	s, err := GreedySpanner(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	if s.M() != g.M() {
		t.Error("spanner of a tree must keep every edge")
	}
}

func TestGreedySpannerRejectsBadK(t *testing.T) {
	if _, err := GreedySpanner(Path(3), 0); err == nil {
		t.Error("expected error for k=0")
	}
}

func TestVerifyStretchDetectsViolation(t *testing.T) {
	g := Cycle(10)
	// Spanner missing one edge: remaining distance between its endpoints
	// is 9 > 3.
	edges := g.Edges()[:9]
	s, err := g.Subgraph(edges)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyStretch(g, s, 3); err == nil {
		t.Error("expected stretch violation")
	}
	if err := VerifyStretch(g, s, 9); err != nil {
		t.Errorf("stretch 9 should pass: %v", err)
	}
}

// TestVerifyStretchReportsFirstViolation: with several edges stretched,
// the error names the first one in Edges() order.
func TestVerifyStretchReportsFirstViolation(t *testing.T) {
	g := Grid(4, 4)
	// Dropping {5,6} stretches it to 3; dropping {9,13} as well as {13,14}
	// stretches {9,13} to 3 and {13,14} to 5.
	var edges [][2]int
	for _, e := range g.Edges() {
		if e != [2]int{5, 6} && e != [2]int{9, 13} && e != [2]int{13, 14} {
			edges = append(edges, e)
		}
	}
	s, err := g.Subgraph(edges)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		t    int
		want string
	}{
		{1, "graph: edge {5,6} stretched beyond 1 in spanner"},
		{2, "graph: edge {5,6} stretched beyond 2 in spanner"},
		{3, "graph: edge {13,14} stretched beyond 3 in spanner"},
		{4, "graph: edge {13,14} stretched beyond 4 in spanner"},
		{0, "graph: edge {0,1} stretched beyond 0 in spanner"},
	} {
		err := VerifyStretch(g, s, c.t)
		if err == nil || err.Error() != c.want {
			t.Errorf("t=%d: VerifyStretch = %v, want %q", c.t, err, c.want)
		}
	}
	if err := VerifyStretch(g, s, 5); err != nil {
		t.Errorf("t=5: %v", err)
	}
	if err := VerifyStretch(g, Path(3), 5); err == nil || err.Error() != "graph: node count mismatch 16 vs 3" {
		t.Errorf("node count mismatch: VerifyStretch = %v", err)
	}
}

// TestVerifyStretchAllocs: VerifyStretch allocates its BFS scratch once
// per call, so the allocation count does not grow with the edge count.
func TestVerifyStretchAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	allocs := func(g *Graph) float64 {
		s, err := GreedySpanner(g, 2)
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(3, func() {
			if err := VerifyStretch(g, s, 3); err != nil {
				t.Fatal(err)
			}
		})
	}
	sparse := RandomConnected(300, 0.01, rng)
	dense := RandomConnected(300, 0.3, rng)
	a, b := allocs(sparse), allocs(dense)
	if a != b {
		t.Errorf("VerifyStretch allocations grow with m: %.0f at m=%d, %.0f at m=%d (want equal)", a, sparse.M(), b, dense.M())
	}
	if b > 5 {
		t.Errorf("VerifyStretch allocates %.0f times per call, want the BFS scratch only", b)
	}
}

func TestDegeneracyKnownValues(t *testing.T) {
	cases := []struct {
		name string
		g    *Graph
		want int
	}{
		{"tree", BinaryTree(31), 1},
		{"cycle", Cycle(9), 2},
		{"complete", Complete(7), 6},
		{"grid", Grid(5, 5), 2},
		{"star", Star(12), 1},
	}
	for _, tc := range cases {
		order, d := DegeneracyOrder(tc.g)
		if d != tc.want {
			t.Errorf("%s: degeneracy = %d, want %d", tc.name, d, tc.want)
		}
		if len(order) != tc.g.N() {
			t.Errorf("%s: order has %d entries", tc.name, len(order))
		}
		seen := make(map[int]bool)
		for _, v := range order {
			if seen[v] {
				t.Fatalf("%s: node %d repeated in order", tc.name, v)
			}
			seen[v] = true
		}
	}
}

// TestOrientationOutDegreeProperty: orienting along a degeneracy order
// bounds out-degree by the degeneracy, for arbitrary random graphs.
func TestOrientationOutDegreeProperty(t *testing.T) {
	f := func(nRaw uint8, seed int64) bool {
		n := int(nRaw)%60 + 2
		g := RandomConnected(n, 0.15, rand.New(rand.NewSource(seed)))
		order, d := DegeneracyOrder(g)
		out := OrientByOrder(g, order)
		total := 0
		for v := range out {
			if len(out[v]) > d {
				return false
			}
			total += len(out[v])
		}
		return total == g.M() // every edge oriented exactly once
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// refGreedySpanner is the greedy spanner computed the direct way: one
// bounded BFS over the partial spanner per edge of g, keeping the edge iff
// the BFS does not reach its other endpoint within 2k−1 hops.
// GreedySpanner must return exactly its edge list.
func refGreedySpanner(g *Graph, k int) (*Graph, error) {
	if k < 1 {
		return nil, fmt.Errorf("graph: spanner parameter k must be >= 1, got %d", k)
	}
	stretch := 2*k - 1
	n := g.N()
	adj := make([][]int32, n) // spanner adjacency under construction
	var kept [][2]int

	// Bounded-depth BFS over the partial spanner: is dist(u,v) <= stretch?
	dist := make([]int, n)
	for i := range dist {
		dist[i] = -1
	}
	var touched []int32
	within := func(u, v int) bool {
		found := false
		dist[u] = 0
		touched = append(touched[:0], int32(u))
		queue := touched
		for head := 0; head < len(queue) && !found; head++ {
			x := queue[head]
			if dist[x] >= stretch {
				break
			}
			for _, y := range adj[x] {
				if dist[y] != -1 {
					continue
				}
				if int(y) == v {
					found = true
					break
				}
				dist[y] = dist[x] + 1
				queue = append(queue, y)
			}
		}
		for _, x := range queue {
			dist[x] = -1
		}
		touched = queue[:0]
		return found
	}

	for _, e := range g.Edges() {
		u, v := e[0], e[1]
		if !within(u, v) {
			adj[u] = append(adj[u], int32(v))
			adj[v] = append(adj[v], int32(u))
			kept = append(kept, e)
		}
	}
	return g.Subgraph(kept)
}

// log2Ceil is ⌈log₂ n⌉, at least 1: the Corollary 2 stretch parameter.
func log2Ceil(n int) int {
	return max(1, bits.Len(uint(max(n, 1)-1)))
}

// checkGreedySpanner fails t unless GreedySpanner(g, k) keeps exactly the
// edges of refGreedySpanner(g, k) and has stretch at most 2k−1.
func checkGreedySpanner(t *testing.T, name string, g *Graph, k int) {
	t.Helper()
	want, err := refGreedySpanner(g, k)
	if err != nil {
		t.Fatal(err)
	}
	got, err := GreedySpanner(g, k)
	if err != nil {
		t.Fatalf("%s k=%d: %v", name, k, err)
	}
	if !slices.Equal(got.Edges(), want.Edges()) {
		t.Fatalf("%s (n=%d m=%d) k=%d: spanner edges differ from the reference (%d vs %d edges)",
			name, g.N(), g.M(), k, got.M(), want.M())
	}
	if err := VerifyStretch(g, got, 2*k-1); err != nil {
		t.Fatalf("%s k=%d: %v", name, k, err)
	}
}

// spannerCases is the differential corpus: random connected graphs at the
// Table 1 densities, disconnected G(n,p), trees, cycles, grids and
// complete graphs.
func spannerCases() []struct {
	name string
	g    *Graph
} {
	type tc = struct {
		name string
		g    *Graph
	}
	var cases []tc
	add := func(name string, g *Graph) { cases = append(cases, tc{name, g}) }
	rng := rand.New(rand.NewSource(21))
	for _, c := range []struct {
		n int
		p float64
	}{{128, 0.3}, {256, 0.05}, {512, 0.01}, {512, 0.1}, {1024, 0.002}, {1024, 0.02}} {
		add(fmt.Sprintf("connected:%d:%g", c.n, c.p), RandomConnected(c.n, c.p, rng))
	}
	add("gnp:300:0.005", RandomGNP(300, 0.005, rng))
	add("gnp:200:0.05", RandomGNP(200, 0.05, rng))
	add("tree:300", RandomTree(300, rng))
	add("binary:255", BinaryTree(255))
	for _, n := range []int{3, 4, 5, 10, 64} {
		add(fmt.Sprintf("cycle:%d", n), Cycle(n))
	}
	add("grid:12x17", Grid(12, 17))
	add("torus:9x11", Torus(9, 11))
	for _, n := range []int{1, 2, 3, 8, 40} {
		add(fmt.Sprintf("complete:%d", n), Complete(n))
	}
	add("empty", NewBuilder(0).MustBuild())
	return cases
}

func TestGreedySpannerMatchesReference(t *testing.T) {
	for _, c := range spannerCases() {
		for _, k := range []int{1, 2, 3, log2Ceil(c.g.N())} {
			checkGreedySpanner(t, c.name, c.g, k)
		}
	}
}

// FuzzGreedySpanner draws a graph on at most fuzzMaxN nodes — G(n,p) or,
// when connected is set, a random tree plus G(n,p) — and a stretch
// parameter k ∈ [1, 12], and checks GreedySpanner against the reference.
func FuzzGreedySpanner(f *testing.F) {
	f.Add(uint8(120), uint8(40), uint8(2), int64(1), true)
	f.Add(uint8(200), uint8(4), uint8(8), int64(2), false)
	f.Add(uint8(64), uint8(255), uint8(3), int64(3), true)
	f.Add(uint8(17), uint8(90), uint8(1), int64(4), false)
	f.Fuzz(func(t *testing.T, nRaw, pRaw, kRaw uint8, seed int64, connected bool) {
		n := int(nRaw) % (fuzzMaxN + 1)
		p := float64(pRaw) / 255
		k := int(kRaw)%12 + 1
		rng := rand.New(rand.NewSource(seed))
		var g *Graph
		if connected && n > 0 {
			g = RandomConnected(n, p, rng)
		} else {
			g = RandomGNP(n, p, rng)
		}
		checkGreedySpanner(t, "fuzz", g, k)
	})
}

// spannerSink keeps the benchmarked GreedySpanner calls live.
var spannerSink *Graph

// BenchmarkGreedySpanner covers the Table 1 spanner shapes: the dense
// 2048-node graph at the Corollary 2 parameter k = 11 and at k = 2, and
// the sparse benchmark graph at k = 11.
func BenchmarkGreedySpanner(b *testing.B) {
	cases := []struct {
		name  string
		build func() *Graph
		k     int
	}{
		{"connected:2048:0.05/k=11", func() *Graph { return RandomConnected(2048, 0.05, rand.New(rand.NewSource(7))) }, 11},
		{"connected:2048:0.05/k=2", func() *Graph { return RandomConnected(2048, 0.05, rand.New(rand.NewSource(7))) }, 2},
		{"connected:2000:0.002/k=11", func() *Graph { return benchGraph(b) }, 11},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			g := c.build()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s, err := GreedySpanner(g, c.k)
				if err != nil {
					b.Fatal(err)
				}
				spannerSink = s
			}
		})
	}
}
