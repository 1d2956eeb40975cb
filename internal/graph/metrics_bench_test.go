package graph

import (
	"math/rand"
	"testing"
)

// TestDiameterAllocs pins the scratch-reuse property of the BFS core: a
// Diameter call allocates one scratch (a small constant number of
// allocations) regardless of graph size, instead of a queue and distance
// slice per root as the old per-call BFS did.
func TestDiameterAllocs(t *testing.T) {
	small := Torus(6, 6)
	big := Torus(20, 20)
	allocs := func(g *Graph) float64 {
		return testing.AllocsPerRun(3, func() { g.Diameter() })
	}
	a, b := allocs(small), allocs(big)
	if a != b {
		t.Errorf("Diameter allocations scale with n: %.0f at n=%d, %.0f at n=%d (want equal)", a, small.N(), b, big.N())
	}
	if b > 4 {
		t.Errorf("Diameter allocates %.0f times per call, want the shared scratch only", b)
	}
}

func benchGraph(b *testing.B) *Graph {
	b.Helper()
	return RandomConnected(2000, 0.002, rand.New(rand.NewSource(7)))
}

// diameterSink keeps the benchmarked Diameter calls live.
var diameterSink int

// BenchmarkDiameter covers the sparse random benchmark graph, the Table 1
// random shapes, and deep graphs where the fringe of the central BFS is
// wide (grid, torus) or the search is long (binary tree).
func BenchmarkDiameter(b *testing.B) {
	cases := []struct {
		name  string
		build func() *Graph
	}{
		{"connected:2000:0.002", func() *Graph { return benchGraph(b) }},
		{"connected:2048:0.01", func() *Graph { return RandomConnected(2048, 0.01, rand.New(rand.NewSource(7))) }},
		{"connected:512:0.2", func() *Graph { return RandomConnected(512, 0.2, rand.New(rand.NewSource(7))) }},
		{"binary:100000", func() *Graph { return BinaryTree(100000) }},
		{"grid:100x400", func() *Graph { return Grid(100, 400) }},
		{"torus:150x150", func() *Graph { return Torus(150, 150) }},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			g := c.build()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				diameterSink, _ = g.Diameter()
			}
		})
	}
}

// BenchmarkComponents sorts one 40 000-node component, the case where an
// insertion sort of the BFS order is quadratic.
func BenchmarkComponents(b *testing.B) {
	g := RandomConnected(40000, 1e-4, rand.New(rand.NewSource(7)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Components()
	}
}

func BenchmarkEccentricity(b *testing.B) {
	g := benchGraph(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Eccentricity(0)
	}
}

func BenchmarkBuildComplete(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Complete(512)
	}
}

func BenchmarkBuildTorusImplicit(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Torus(64, 64)
	}
}
