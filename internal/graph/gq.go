package graph

import (
	"fmt"
	"slices"
)

// SymplecticGQIncidence returns the point–line incidence graph of the
// symplectic generalized quadrangle W(3, q) for a prime q: points are all
// points of PG(3, q), lines are the totally isotropic lines of the
// symplectic form ⟨x, y⟩ = x₁y₂ − x₂y₁ + x₃y₄ − x₄y₃. The graph is
// bipartite and (q+1)-regular on both sides with N = (q²+1)(q+1) points
// and equally many lines, and has girth 8 — one step beyond the girth-6
// projective-plane incidence graphs, realizing the 𝒢_k core for k = 3
// (Theorem 2 needs girth ≥ k+5). Points occupy indices 0..N-1, lines
// N..2N-1.
func SymplecticGQIncidence(q int) *Graph {
	if q < 2 || !isPrime(q) {
		panic(fmt.Sprintf("graph: symplectic GQ needs a prime order, got %d", q))
	}
	pts := projectivePoints4(q)
	// Keep only canonical representatives; index them.
	index := make(map[[4]int]int, len(pts))
	for i, p := range pts {
		index[p] = i
	}

	form := func(x, y [4]int) int {
		v := x[0]*y[1] - x[1]*y[0] + x[2]*y[3] - x[3]*y[2]
		v %= q
		if v < 0 {
			v += q
		}
		return v
	}

	// Enumerate totally isotropic lines: for each pair (p, r) with
	// ⟨p, r⟩ = 0, the projective line {p + t·r} ∪ {r} is totally isotropic
	// (the form restricted to the span vanishes identically by
	// bilinearity). Deduplicate lines by their canonical point set.
	// Two smallest point indices identify a line (two points span a
	// unique projective line).
	type lineKey = [2]int
	lines := make(map[lineKey][]int)
	for i, p := range pts {
		for j := i + 1; j < len(pts); j++ {
			r := pts[j]
			if form(p, r) != 0 {
				continue
			}
			members := linePoints(q, p, r, index)
			key := lineKey{members[0], members[1]}
			if _, seen := lines[key]; !seen {
				lines[key] = members
			}
		}
	}

	n := len(pts)
	b := NewBuilder(n + len(lines))
	// Deterministic line ordering by key.
	keys := make([]lineKey, 0, len(lines))
	for k := range lines {
		keys = append(keys, k)
	}
	sortLineKeys(keys)
	for li, k := range keys {
		for _, pi := range lines[k] {
			b.AddEdge(pi, n+li)
		}
	}
	return b.MustBuild()
}

// projectivePoints4 enumerates canonical representatives of the points of
// PG(3, q): vectors whose first nonzero coordinate is 1.
func projectivePoints4(q int) [][4]int {
	var reps [][4]int
	reps = append(reps, [4]int{0, 0, 0, 1})
	for w := 0; w < q; w++ {
		reps = append(reps, [4]int{0, 0, 1, w})
	}
	for z := 0; z < q; z++ {
		for w := 0; w < q; w++ {
			reps = append(reps, [4]int{0, 1, z, w})
		}
	}
	for y := 0; y < q; y++ {
		for z := 0; z < q; z++ {
			for w := 0; w < q; w++ {
				reps = append(reps, [4]int{1, y, z, w})
			}
		}
	}
	return reps
}

// linePoints returns the sorted point indices of the projective line
// through p and r.
func linePoints(q int, p, r [4]int, index map[[4]int]int) []int {
	members := make([]int, 0, q+1)
	members = append(members, index[canon4(q, r)])
	for t := 0; t < q; t++ {
		var v [4]int
		for c := 0; c < 4; c++ {
			v[c] = (p[c] + t*r[c]) % q
		}
		members = append(members, index[canon4(q, v)])
	}
	slices.Sort(members)
	return members
}

// canon4 normalizes a nonzero vector of F_q^4 to its canonical projective
// representative (first nonzero coordinate 1).
func canon4(q int, v [4]int) [4]int {
	lead := -1
	for c := 0; c < 4; c++ {
		v[c] %= q
		if v[c] < 0 {
			v[c] += q
		}
		if lead == -1 && v[c] != 0 {
			lead = c
		}
	}
	if lead == -1 {
		panic("graph: zero vector has no projective representative")
	}
	inv := modInverse(v[lead], q)
	for c := 0; c < 4; c++ {
		v[c] = v[c] * inv % q
	}
	return v
}

// modInverse returns a^{-1} mod q for prime q via Fermat's little theorem.
func modInverse(a, q int) int {
	result := 1
	base := a % q
	exp := q - 2
	for exp > 0 {
		if exp&1 == 1 {
			result = result * base % q
		}
		base = base * base % q
		exp >>= 1
	}
	return result
}

func sortLineKeys(keys [][2]int) {
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0; j-- {
			a, b := keys[j], keys[j-1]
			if a[0] > b[0] || (a[0] == b[0] && a[1] >= b[1]) {
				break
			}
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
}
