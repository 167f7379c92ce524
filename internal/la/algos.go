package la

import (
	"pushpull/internal/core"
	"pushpull/internal/graph"
)

// PageRank runs L power iterations in the LA formulation: r ← f·A(r/d) +
// (1−f)/n, using CSR SpMV when pulling and CSC SpMV when pushing (§7.1:
// "for SpMV, CSR (pulling) works extremely well"). Both produce the same
// ranks as the direct implementations in internal/algo/pr.
func PageRank(g *graph.CSR, L int, f float64, dir core.Direction, threads int) []float64 {
	n := g.N()
	r := make([]float64, n)
	if n == 0 {
		return r
	}
	if L <= 0 {
		L = 20
	}
	if f == 0 {
		f = 0.85
	}
	s := Arithmetic()
	for i := range r {
		r[i] = 1 / float64(n)
	}
	scaled := make([]float64, n)
	next := make([]float64, n)
	base := (1 - f) / float64(n)
	for l := 0; l < L; l++ {
		for v := graph.V(0); v < g.NumV; v++ {
			if d := g.Degree(v); d > 0 {
				scaled[v] = r[v] / float64(d)
			} else {
				scaled[v] = 0
			}
		}
		if dir == core.Pull {
			CSRMatVec(s, g, scaled, next, threads)
		} else {
			Fill(next, s.Zero)
			CSCMatVec(s, g, scaled, next, threads)
		}
		for i := range next {
			next[i] = base + f*next[i]
		}
		r, next = next, r
	}
	return r
}

// BFSLevels computes BFS levels in the LA formulation over the boolean
// semiring: the frontier is a vector x, the next frontier is A ⊗ x masked
// by unvisited vertices. Pushing uses SpMSpV (the sparse frontier skips
// all zero columns); pulling uses a dense CSR SpMV per level — exactly the
// §7.1 correspondence to top-down and bottom-up BFS.
func BFSLevels(g *graph.CSR, root graph.V, dir core.Direction, threads int) []int32 {
	n := g.N()
	levels := make([]int32, n)
	for i := range levels {
		levels[i] = -1
	}
	if n == 0 {
		return levels
	}
	s := BoolOrAnd()
	levels[root] = 0
	y := make([]float64, n)

	if dir == core.Push {
		x := &SparseVec{Idx: []graph.V{root}, Val: []float64{1}}
		for depth := int32(1); x.Len() > 0; depth++ {
			Fill(y, s.Zero)
			reached := SpMSpVPush(s, g, x, y, threads)
			nxt := &SparseVec{}
			for _, u := range reached {
				if levels[u] < 0 {
					levels[u] = depth
					nxt.Idx = append(nxt.Idx, u)
					nxt.Val = append(nxt.Val, 1)
				}
			}
			x = nxt
		}
		return levels
	}
	// Pull: dense SpMV per level; the mask is the level array.
	x := make([]float64, n)
	x[root] = 1
	for depth := int32(1); ; depth++ {
		CSRMatVec(s, g, x, y, threads)
		Fill(x, s.Zero)
		advanced := false
		for v := 0; v < n; v++ {
			if y[v] != s.Zero && levels[v] < 0 {
				levels[v] = depth
				x[v] = 1
				advanced = true
			}
		}
		if !advanced {
			return levels
		}
	}
}

// SSSPBellmanFord iterates d ← d ⊕ (A ⊗ d) over the tropical semiring
// until fixpoint — the algebraic shortest-path computation. dir selects
// the CSR (pull) or CSC (push) product. The result matches Δ-stepping and
// Dijkstra.
func SSSPBellmanFord(g *graph.CSR, source graph.V, dir core.Direction, threads int) []float64 {
	n := g.N()
	s := MinPlus()
	d := make([]float64, n)
	for i := range d {
		d[i] = s.Zero
	}
	if n == 0 {
		return d
	}
	d[source] = 0
	y := make([]float64, n)
	for iter := 0; iter < n; iter++ {
		if dir == core.Pull {
			CSRMatVec(s, g, d, y, threads)
		} else {
			Fill(y, s.Zero)
			CSCMatVec(s, g, d, y, threads)
		}
		changed := false
		for i := range y {
			if nd := s.Add(d[i], y[i]); nd != d[i] {
				d[i] = nd
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return d
}
