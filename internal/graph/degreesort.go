package graph

import "sort"

// DegreeSorted is a CSR relabeled so that vertex ids are assigned in
// descending degree order: the heaviest row becomes vertex 0. High-degree
// (hub) vertices end up contiguous at the front of every state array, so
// the reads a skewed graph's gather repeats most land in a dense prefix
// instead of a scattered set — the layout "A New Frontier for Pull-Based
// Graph Processing" relies on.
//
// Perm maps new ids to old (Perm[new] = old) and Inv maps old to new
// (Inv[old] = new); they are inverse bijections. Kernels run on G and the
// caller un-permutes results at the boundary, so payloads match unsorted
// runs.
type DegreeSorted struct {
	G    *CSR
	Perm []V // Perm[new] = old
	Inv  []V // Inv[old] = new
}

// DegreePerm computes the degree-descending relabeling of g. Ties break by
// ascending original id so the permutation is deterministic.
func DegreePerm(g *CSR) (perm, inv []V) {
	n := g.N()
	perm = make([]V, n)
	for i := range perm {
		perm[i] = V(i)
	}
	sort.Slice(perm, func(i, j int) bool {
		di, dj := g.Degree(perm[i]), g.Degree(perm[j])
		if di != dj {
			return di > dj
		}
		return perm[i] < perm[j]
	})
	inv = make([]V, n)
	for newID, old := range perm {
		inv[old] = V(newID)
	}
	return perm, inv
}

// PermuteCSR relabels g under the given bijection: vertex old becomes
// inv[old], and row new reproduces old = perm[new]'s adjacency with every
// endpoint remapped. Rows are re-sorted ascending (weights carried along)
// so the result satisfies the CSR invariants, including HasEdge's binary
// search.
func PermuteCSR(g *CSR, perm, inv []V) *CSR {
	n := g.NumV
	out := &CSR{NumV: n, Offsets: make([]int64, n+1), Adj: make([]V, g.M())}
	if g.Weights != nil {
		out.Weights = make([]float32, g.M())
	}
	for newV := V(0); newV < n; newV++ {
		out.Offsets[newV+1] = out.Offsets[newV] + g.Degree(perm[newV])
	}
	for newV := V(0); newV < n; newV++ {
		old := perm[newV]
		row := out.Adj[out.Offsets[newV]:out.Offsets[newV+1]]
		for i, w := range g.Neighbors(old) {
			row[i] = inv[w]
		}
		if g.Weights == nil {
			sort.Slice(row, func(i, j int) bool { return row[i] < row[j] })
			continue
		}
		wrow := out.Weights[out.Offsets[newV]:out.Offsets[newV+1]]
		copy(wrow, g.NeighborWeights(old))
		sort.Sort(&arcRow{adj: row, wts: wrow})
	}
	return out
}

// SortByDegree builds the degree-sorted view of g.
func SortByDegree(g *CSR) *DegreeSorted {
	perm, inv := DegreePerm(g)
	return &DegreeSorted{G: PermuteCSR(g, perm, inv), Perm: perm, Inv: inv}
}

// arcRow co-sorts one adjacency row with its parallel weights.
type arcRow struct {
	adj []V
	wts []float32
}

func (r *arcRow) Len() int           { return len(r.adj) }
func (r *arcRow) Less(i, j int) bool { return r.adj[i] < r.adj[j] }
func (r *arcRow) Swap(i, j int) {
	r.adj[i], r.adj[j] = r.adj[j], r.adj[i]
	r.wts[i], r.wts[j] = r.wts[j], r.wts[i]
}
