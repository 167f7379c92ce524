package graph

import "slices"

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
// ascending original id so the permutation is deterministic. It is a
// counting sort: one pass counts each degree, a walk from the largest
// degree down turns the counts into first slots, and a pass in increasing
// id places every vertex in its degree's next slot.
func DegreePerm(g *CSR) (perm, inv []V) {
	n := g.N()
	maxDeg := int64(0)
	for v := V(0); v < g.NumV; v++ {
		maxDeg = max(maxDeg, g.Degree(v))
	}
	slot := make([]int, maxDeg+1)
	for v := V(0); v < g.NumV; v++ {
		slot[g.Degree(v)]++
	}
	for d, first := maxDeg, 0; d >= 0; d-- {
		slot[d], first = first, first+slot[d]
	}
	perm = make([]V, n)
	for v := V(0); v < g.NumV; v++ {
		d := g.Degree(v)
		perm[slot[d]] = v
		slot[d]++
	}
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
// search. A weighted row sorts (endpoint, position) keys, so arcs to one
// endpoint keep their order.
func PermuteCSR(g *CSR, perm, inv []V) *CSR {
	n := g.NumV
	out := &CSR{NumV: n, Offsets: make([]int64, n+1), Adj: make([]V, g.M())}
	if g.Weights != nil {
		out.Weights = make([]float32, g.M())
	}
	for newV := V(0); newV < n; newV++ {
		out.Offsets[newV+1] = out.Offsets[newV] + g.Degree(perm[newV])
	}
	var key []uint64 // grown to the longest weighted row
	for newV := V(0); newV < n; newV++ {
		old := perm[newV]
		row := out.Adj[out.Offsets[newV]:out.Offsets[newV+1]]
		if g.Weights == nil {
			for i, u := range g.Neighbors(old) {
				row[i] = inv[u]
			}
			slices.Sort(row)
			continue
		}
		key = key[:0]
		for i, u := range g.Neighbors(old) {
			key = append(key, uint64(inv[u])<<32|uint64(i))
		}
		slices.Sort(key)
		ws := g.NeighborWeights(old)
		wrow := out.Weights[out.Offsets[newV]:out.Offsets[newV+1]]
		for i, k := range key {
			row[i], wrow[i] = V(k>>32), ws[uint32(k)]
		}
	}
	return out
}

// SortByDegree builds the degree-sorted view of g.
func SortByDegree(g *CSR) *DegreeSorted {
	perm, inv := DegreePerm(g)
	return &DegreeSorted{G: PermuteCSR(g, perm, inv), Perm: perm, Inv: inv}
}
