package graph

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

// refDiameter is the definition of the diameter, computed the slow way:
// the maximum of the scalar Eccentricity over every node, or
// ErrDisconnected when some eccentricity is undefined.
func refDiameter(g *Graph) (int, error) {
	diam := 0
	for v := 0; v < g.N(); v++ {
		ecc := g.Eccentricity(v)
		if ecc == -1 {
			return 0, ErrDisconnected
		}
		diam = max(diam, ecc)
	}
	return diam, nil
}

// checkDiameter fails t unless Diameter agrees with refDiameter, error
// included.
func checkDiameter(t *testing.T, name string, g *Graph) {
	t.Helper()
	want, wantErr := refDiameter(g)
	got, err := g.Diameter()
	if !errors.Is(err, wantErr) {
		t.Fatalf("%s: Diameter error = %v, want %v", name, err, wantErr)
	}
	if got != want {
		t.Fatalf("%s (n=%d m=%d): Diameter = %d, max eccentricity = %d", name, g.N(), g.M(), got, want)
	}
}

// withIsolated returns g plus one isolated node at the top index.
func withIsolated(g *Graph) *Graph {
	b := NewBuilder(g.N() + 1)
	for _, e := range g.Edges() {
		b.AddEdge(e[0], e[1])
	}
	return b.MustBuild()
}

// starBesidePath returns a star on nodes 0..k-1 (the max-degree node, in
// the larger component) next to a separate path on the next tail nodes.
func starBesidePath(k, tail int) *Graph {
	b := NewBuilder(k + tail)
	for v := 1; v < k; v++ {
		b.AddEdge(0, v)
	}
	for v := k; v+1 < k+tail; v++ {
		b.AddEdge(v, v+1)
	}
	return b.MustBuild()
}

// diameterCases is the differential corpus: the classic families at the
// 64-node lane boundaries, deep and vertex-transitive graphs, the Table 1
// random shapes, and disconnected graphs that must yield ErrDisconnected.
func diameterCases() []struct {
	name string
	g    *Graph
} {
	type tc = struct {
		name string
		g    *Graph
	}
	var cases []tc
	add := func(name string, g *Graph) { cases = append(cases, tc{name, g}) }
	add("empty", NewBuilder(0).MustBuild())
	for _, n := range []int{1, 2, 63, 64, 65, 127, 128, 129} {
		add(fmt.Sprintf("complete:%d", n), Complete(n))
		add(fmt.Sprintf("path:%d", n), Path(n))
		add(fmt.Sprintf("star:%d", n), Star(n))
		if n >= 3 {
			add(fmt.Sprintf("cycle:%d", n), Cycle(n))
		}
	}
	add("star:200", Star(200))
	add("lollipop:20+40", Lollipop(20, 40))
	add("lollipop:70+5", Lollipop(70, 5))
	add("hypercube:7", Hypercube(7))
	add("binary:200", BinaryTree(200))
	add("binary:1023", BinaryTree(1023))
	add("torus:9x9", Torus(9, 9))
	add("torus:10x10", Torus(10, 10))
	add("torus:9x12", Torus(9, 12))
	add("grid:9x17", Grid(9, 17))
	rng := rand.New(rand.NewSource(1))
	add("connected:2048:0.01", RandomConnected(2048, 0.01, rng))
	add("connected:512:0.05", RandomConnected(512, 0.05, rng))
	add("connected:512:0.2", RandomConnected(512, 0.2, rng))
	add("path:64+isolated", withIsolated(Path(64)))
	add("complete:5+isolated", withIsolated(Complete(5)))
	add("star:100|path:10", starBesidePath(100, 10))
	add("star:3|path:70", starBesidePath(3, 70))
	return cases
}

func TestDiameterMatchesEccentricities(t *testing.T) {
	for _, c := range diameterCases() {
		checkDiameter(t, c.name, c.g)
	}
}

// fuzzMaxN bounds the node count of a fuzzed graph.
const fuzzMaxN = 200

// decodeFuzzGraph reads data as a graph: the first byte is the node count
// (mod fuzzMaxN+1), then each byte pair is an edge {u mod n, v mod n}.
// Self-loops and repeated edges are skipped, so every input decodes.
func decodeFuzzGraph(data []byte) *Graph {
	if len(data) == 0 {
		return NewBuilder(0).MustBuild()
	}
	n := int(data[0]) % (fuzzMaxN + 1)
	b := NewBuilder(n)
	if n == 0 {
		return b.MustBuild()
	}
	seen := make(map[[2]int]bool)
	for i := 1; i+1 < len(data); i += 2 {
		u, v := int(data[i])%n, int(data[i+1])%n
		if u > v {
			u, v = v, u
		}
		if u == v || seen[[2]int{u, v}] {
			continue
		}
		seen[[2]int{u, v}] = true
		b.AddEdge(u, v)
	}
	return b.MustBuild()
}

// encodeFuzzGraph is the inverse of decodeFuzzGraph for n ≤ fuzzMaxN.
func encodeFuzzGraph(g *Graph) []byte {
	data := []byte{byte(g.N())}
	for _, e := range g.Edges() {
		data = append(data, byte(e[0]), byte(e[1]))
	}
	return data
}

func FuzzDiameter(f *testing.F) {
	for _, c := range diameterCases() {
		if c.g.N() <= fuzzMaxN {
			f.Add(encodeFuzzGraph(c.g))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDiameter(t, "fuzz", decodeFuzzGraph(data))
	})
}
