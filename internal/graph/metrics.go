package graph

import "slices"

// bfsScratch is the reusable state of one breadth-first search: an int32
// distance table and a queue, both recycled between runs, so a metric that
// runs several searches (Diameter's sweeps) resets one pair of arrays in
// place instead of allocating per source.
type bfsScratch struct {
	dist  []int32
	queue []int32
}

func newBFSScratch(n int) *bfsScratch {
	return &bfsScratch{dist: make([]int32, n), queue: make([]int32, 0, n)}
}

// run executes a BFS from the source set and returns the maximum finite
// distance together with the number of reached nodes. Sources listed twice
// count once. The scratch's dist table holds the distances (-1 means
// unreachable) until the next run.
func (s *bfsScratch) run(g *Graph, sources ...int) (max int32, reached int) {
	for i := range s.dist {
		s.dist[i] = -1
	}
	q := s.queue[:0]
	for _, src := range sources {
		if s.dist[src] == -1 {
			s.dist[src] = 0
			q = append(q, int32(src))
		}
	}
	for head := 0; head < len(q); head++ {
		v := q[head]
		dv := s.dist[v]
		if dv > max {
			max = dv
		}
		for _, w := range g.Neighbors(int(v)) {
			if s.dist[w] == -1 {
				s.dist[w] = dv + 1
				q = append(q, w)
			}
		}
	}
	s.queue = q
	return max, len(q)
}

// BFSFrom returns the hop distances from the source set. Unreachable nodes
// get distance -1. The source set may be empty, in which case all distances
// are -1.
func (g *Graph) BFSFrom(sources []int) []int {
	s := newBFSScratch(g.N())
	s.run(g, sources...)
	dist := make([]int, g.N())
	for i, d := range s.dist {
		dist[i] = int(d)
	}
	return dist
}

// BFSTree computes a breadth-first spanning tree rooted at root. It returns
// parent[v] (the BFS parent index, -1 for the root and unreachable nodes)
// and dist[v] (hop distance, -1 if unreachable). Ties between candidate
// parents break toward the smaller node index, making the tree
// deterministic for a given graph.
func (g *Graph) BFSTree(root int) (parent, dist []int) {
	n := g.N()
	parent = make([]int, n)
	dist = make([]int, n)
	for i := range parent {
		parent[i] = -1
		dist[i] = -1
	}
	dist[root] = 0
	queue := make([]int, 0, n)
	queue = append(queue, root)
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		for _, w := range g.Neighbors(v) {
			if dist[w] == -1 {
				dist[w] = dist[v] + 1
				parent[w] = v
				queue = append(queue, int(w))
			}
		}
	}
	return parent, dist
}

// Eccentricity returns the maximum hop distance from v to any node, or -1
// if some node is unreachable from v.
func (g *Graph) Eccentricity(v int) int {
	s := newBFSScratch(g.N())
	max, reached := s.run(g, v)
	if reached != g.N() {
		return -1
	}
	return int(max)
}

// farthest returns the smallest-index node at distance d in the last run.
func (s *bfsScratch) farthest(d int32) int {
	for v, dv := range s.dist {
		if dv == d {
			return v
		}
	}
	return -1
}

// Diameter returns the exact diameter, or ErrDisconnected for a
// disconnected graph. It runs iFUB (Crescenzi, Grossi, Habib, Lanzi and
// Marino, TCS 2013). A double sweep picks a central node u: BFS from the
// maximum-degree node r reaches a farthest node a, BFS from a reaches a
// farthest node b, and u is the midpoint of a shortest a–b path (every tie
// goes to the smallest index). Let lb be the largest eccentricity found so
// far. Once every level deeper than i (distance from u) has been
// processed, a pair with an endpoint deeper than i is within lb hops, and
// a pair within levels ≤ i is within 2i hops through u. So the levels are
// processed from the deepest inwards, each by the bit-parallel msBFS, until
// lb ≥ 2i. The worst case stays O(n·m) (a torus processes about half of its
// nodes), but those searches then run 64 at a time.
//
// Two slabs hold all scratch, so the allocation count does not depend on
// n (pinned by TestDiameterAllocs).
func (g *Graph) Diameter() (int, error) {
	n := g.N()
	if n == 0 {
		return 0, nil
	}
	ints := make([]int32, 4*n)
	s := bfsScratch{dist: ints[:n], queue: ints[n : n : 2*n]}
	r := 0
	for v := 1; v < n; v++ {
		if g.Degree(v) > g.Degree(r) {
			r = v
		}
	}
	lb, reached := s.run(g, r)
	if reached != n {
		return 0, ErrDisconnected
	}
	a := s.farthest(lb)
	d, _ := s.run(g, a)
	u := s.farthest(d)
	for s.dist[u] > d/2 {
		for _, w := range g.Neighbors(u) {
			if s.dist[w] == s.dist[u]-1 {
				u = int(w)
				break
			}
		}
	}
	e, _ := s.run(g, u)
	lb = max(lb, d, e)
	// s.queue lists the nodes in BFS order from u, so level i is the
	// contiguous run of queue entries at distance i.
	var ms msBFS
	hi := n
	for i := e; lb < 2*i; i-- {
		lo := hi
		for lo > 0 && s.dist[s.queue[lo-1]] == i {
			lo--
		}
		if ms.seen == nil {
			ms = newMSBFS(n, ints[2*n:])
		}
		for k := lo; k < hi; k += 64 {
			lb = max(lb, ms.run(g, s.queue[k:min(k+64, hi)]))
		}
		hi = lo
	}
	return int(lb), nil
}

// msBFS is a bit-parallel multi-source BFS (Then et al., "The More the
// Merrier", VLDB 2015). Bit k of a node's words belongs to source k, so one
// sweep over the edges advances up to 64 searches at once, and searches
// that reach a node in the same round share that node's edge scan.
type msBFS struct {
	seen, cur, next []uint64 // lanes that reached, reached last round, reach this round
	front, spare    []int32  // nodes with a nonzero cur word; the next round's list
}

// newMSBFS allocates the lane slab and takes the two frontier lists from
// ints, which must hold 2n entries.
func newMSBFS(n int, ints []int32) msBFS {
	lanes := make([]uint64, 3*n)
	return msBFS{
		seen: lanes[:n], cur: lanes[n : 2*n], next: lanes[2*n:],
		front: ints[:0:n], spare: ints[n : n : 2*n],
	}
}

// run searches from up to 64 distinct sources and returns the largest of
// their eccentricities: the number of rounds that reach a new node. The
// graph must be connected. A round is top-down over the frontier list
// while the frontier is narrow. Once the frontier's edges exceed a quarter
// of the edges at nodes some lane has not reached, it is cheaper to go
// bottom-up: each such node ORs its neighbors' words and stops at the
// first neighbor that completes it.
func (b *msBFS) run(g *Graph, sources []int32) int32 {
	off, nbr := g.off, g.nbr
	seen, cur, next := b.seen, b.cur, b.next
	front, spare := b.front[:0], b.spare
	clear(seen)
	full := uint64(1)<<len(sources) - 1 // all ones for 64 sources
	// edges counts the frontier's edge ends, open those of the nodes some
	// lane has not reached yet.
	edges, open := 0, 2*g.M()
	for k, v := range sources {
		seen[v], cur[v] = 1<<k, 1<<k
		front = append(front, v)
		edges += int(off[v+1] - off[v])
	}
	for rounds := int32(0); ; rounds++ {
		reached := spare[:0]
		if edges > open/4 {
			for w, s := range seen {
				missing := full &^ s
				if missing == 0 {
					continue
				}
				var got uint64
				for _, v := range nbr[off[w]:off[w+1]] {
					if got |= cur[v]; got&missing == missing {
						break
					}
				}
				if got &= missing; got != 0 {
					next[w] = got
					reached = append(reached, int32(w))
				}
			}
		} else {
			for _, v := range front {
				bits := cur[v]
				for _, w := range nbr[off[v]:off[v+1]] {
					if d := bits &^ seen[w]; d != 0 {
						if next[w] == 0 {
							reached = append(reached, w)
						}
						next[w] |= d
					}
				}
			}
		}
		for _, v := range front {
			cur[v] = 0
		}
		if len(reached) == 0 {
			return rounds
		}
		edges = 0
		for _, w := range reached {
			deg := int(off[w+1] - off[w])
			edges += deg
			if seen[w] |= next[w]; seen[w] == full {
				open -= deg
			}
		}
		cur, next = next, cur
		front, spare = reached, front
	}
}

// AwakeDistance returns ρ_awk(G, awake) = max_u dist(awake, u), the paper's
// fine-grained time measure (§1.2). It returns -1 if awake is empty or some
// node is unreachable from the awake set.
func (g *Graph) AwakeDistance(awake []int) int {
	if len(awake) == 0 {
		return -1
	}
	s := newBFSScratch(g.N())
	max, reached := s.run(g, awake...)
	if reached != g.N() {
		return -1
	}
	return int(max)
}

// Components returns the connected components as slices of node indices,
// each sorted ascending, ordered by their smallest member.
func (g *Graph) Components() [][]int {
	seen := make([]bool, g.N())
	var comps [][]int
	for s := 0; s < g.N(); s++ {
		if seen[s] {
			continue
		}
		comp := []int{s}
		seen[s] = true
		for head := 0; head < len(comp); head++ {
			v := comp[head]
			for _, w := range g.Neighbors(v) {
				if !seen[w] {
					seen[w] = true
					comp = append(comp, int(w))
				}
			}
		}
		comps = append(comps, comp)
	}
	for _, c := range comps {
		slices.Sort(c)
	}
	return comps
}

// Connected reports whether the graph is connected (true for n ≤ 1).
func (g *Graph) Connected() bool {
	if g.N() <= 1 {
		return true
	}
	s := newBFSScratch(g.N())
	_, reached := s.run(g, 0)
	return reached == g.N()
}

// Girth returns the length of a shortest cycle, or -1 if the graph is
// acyclic. It runs a BFS from every node and detects the first cross/back
// edge, giving the exact girth in O(n·m) time.
func (g *Graph) Girth() int {
	best := -1
	n := g.N()
	dist := make([]int, n)
	par := make([]int32, n)
	queue := make([]int32, 0, n)
	for s := 0; s < n; s++ {
		for i := range dist {
			dist[i] = -1
		}
		queue = queue[:0]
		dist[s] = 0
		par[s] = -1
		queue = append(queue, int32(s))
		for head := 0; head < len(queue); head++ {
			v := queue[head]
			if best != -1 && dist[v] >= (best+1)/2 {
				break // no shorter cycle through s can be found deeper
			}
			for _, w := range g.Neighbors(int(v)) {
				if dist[w] == -1 {
					dist[w] = dist[v] + 1
					par[w] = v
					queue = append(queue, w)
				} else if w != par[v] {
					// Cycle through s of length dist[v]+dist[w]+1.
					if c := dist[v] + dist[w] + 1; best == -1 || c < best {
						best = c
					}
				}
			}
		}
	}
	return best
}

// DegreeHistogram returns counts[d] = number of nodes with degree d.
func (g *Graph) DegreeHistogram() []int {
	counts := make([]int, g.MaxDegree()+1)
	for v := 0; v < g.N(); v++ {
		counts[g.Degree(v)]++
	}
	return counts
}
