package graph

import "fmt"

// GreedySpanner builds a multiplicative (2k−1)-spanner of g using the
// classic greedy algorithm of Althöfer, Das, Dobkin, Joseph and Soares:
// scan the edges in a fixed order and keep edge {u,v} iff the current
// spanner distance between u and v exceeds 2k−1. The result has at most
// n^{1+1/k} + n edges (girth argument) and stretch at most 2k−1.
//
// Theorem 6 of the paper encodes the incident edges of such a spanner as
// advice; this is the substrate for core.SpannerScheme.
//
// The scan order is Edges(): grouped by the lower endpoint u. One BFS
// from u over the partial spanner, bounded at depth 2k−1, decides all of
// u's edges. A rejected edge leaves the spanner, and so the BFS, as it
// is. A kept edge {u,w} can only shorten paths that leave u through it,
// so it is folded in by relaxing the distances outward from w at 1,
// following only nodes whose distance strictly improves (DESIGN.md §5,
// "Greedy spanner").
func GreedySpanner(g *Graph, k int) (*Graph, error) {
	if k < 1 {
		return nil, fmt.Errorf("graph: spanner parameter k must be >= 1, got %d", k)
	}
	n := g.N()
	adj := make([][]int32, n) // spanner adjacency under construction
	var kept [][2]int
	b := newBoundedBFS(n, 2*min(k, n)-1)
	for u := 0; u < n; u++ {
		sourced := false
		for _, w := range g.Neighbors(u) {
			if int(w) <= u {
				continue
			}
			if !sourced {
				b.from(adj, u)
				sourced = true
			}
			if b.within(w) {
				continue
			}
			adj[u] = append(adj[u], w)
			adj[w] = append(adj[w], int32(u))
			kept = append(kept, [2]int{u, int(w)})
			b.relax(adj, w)
		}
	}
	return g.Subgraph(kept)
}

// VerifyStretch checks that the spanner s (a subgraph of g on the same node
// set) has multiplicative stretch at most t: for every edge {u,v} of g,
// dist_s(u,v) ≤ t. For connected g this implies dist_s(u,v) ≤ t·dist_g(u,v)
// for all pairs. A violation names the first such edge in Edges() order.
// It runs one BFS over s per node, bounded at depth t.
func VerifyStretch(g, s *Graph, t int) error {
	if g.N() != s.N() {
		return fmt.Errorf("graph: node count mismatch %d vs %d", g.N(), s.N())
	}
	n := s.N()
	adj := make([][]int32, n)
	for v := range adj {
		adj[v] = s.Neighbors(v)
	}
	b := newBoundedBFS(n, t)
	for u := 0; u < n; u++ {
		sourced := false
		for _, w := range g.Neighbors(u) {
			if int(w) <= u {
				continue
			}
			if !sourced {
				b.from(adj, u)
				sourced = true
			}
			if !b.within(w) {
				return fmt.Errorf("graph: edge {%d,%d} stretched beyond %d in spanner", u, w, t)
			}
		}
	}
	return nil
}

// boundedBFS holds the distances from one source, cut off at a depth
// bound, and the scratch to reset them in time proportional to the nodes
// reached.
type boundedBFS struct {
	bound   int32
	dist    []int32 // -1 = beyond the bound
	touched []int32 // every node with dist != -1
	queue   []int32
}

// newBoundedBFS returns the scratch for searches on n nodes to depth
// bound, clamped to [0, n]: no shortest path is longer than n−1 hops.
func newBoundedBFS(n, bound int) *boundedBFS {
	b := &boundedBFS{
		bound:   int32(max(0, min(bound, n))),
		dist:    make([]int32, n),
		touched: make([]int32, 0, n),
		queue:   make([]int32, 0, n),
	}
	for i := range b.dist {
		b.dist[i] = -1
	}
	return b
}

// within reports whether v is within the bound of the source.
func (b *boundedBFS) within(v int32) bool { return b.dist[v] != -1 }

// from clears the previous search and runs a BFS from src over adj.
func (b *boundedBFS) from(adj [][]int32, src int) {
	for _, x := range b.touched {
		b.dist[x] = -1
	}
	b.dist[src] = 0
	b.touched = append(b.touched[:0], int32(src))
	for head := 0; head < len(b.touched); head++ {
		x := b.touched[head]
		d := b.dist[x] + 1
		if d > b.bound {
			break
		}
		for _, y := range adj[x] {
			if b.dist[y] == -1 {
				b.dist[y] = d
				b.touched = append(b.touched, y)
			}
		}
	}
}

// relax updates the distances after the edge {src, w}, with w beyond the
// bound, was added to adj: w moves to distance 1, and the improvement
// spreads breadth-first from w through nodes whose distance drops.
func (b *boundedBFS) relax(adj [][]int32, w int32) {
	b.dist[w] = 1
	b.touched = append(b.touched, w)
	b.queue = append(b.queue[:0], w)
	for head := 0; head < len(b.queue); head++ {
		x := b.queue[head]
		d := b.dist[x] + 1
		if d > b.bound {
			break
		}
		for _, y := range adj[x] {
			switch dy := b.dist[y]; {
			case dy == -1:
				b.touched = append(b.touched, y)
			case dy <= d:
				continue
			}
			b.dist[y] = d
			b.queue = append(b.queue, y)
		}
	}
}
