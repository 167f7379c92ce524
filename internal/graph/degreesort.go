package graph

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
	slot := make([]int, g.MaxDegree()+1)
	for v := V(0); v < g.NumV; v++ {
		slot[g.Degree(v)]++
	}
	for d, first := len(slot)-1, 0; d >= 0; d-- {
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

// SortByDegree builds the degree-sorted view of g with two scatters. The
// first places Inv[v], with its arc's weight, in row Inv[u] for every arc
// v→u: the relabelled transpose. The second transposes that back, which
// lists every row in ascending order with the arcs to one endpoint in
// g's order, so the view is exact for every CSR and no row is sorted.
// Beside the view it holds one scatter's cursors at a time and the
// relabelled transpose, 8(n+1) + 4m bytes (8m when weighted).
func SortByDegree(g *CSR) *DegreeSorted { return sortByDegree(g, g.workersFor(g.N())) }

// sortByDegree is SortByDegree on t scatter workers.
func sortByDegree(g *CSR, t int) *DegreeSorted {
	perm, inv := DegreePerm(g)
	tr := &CSR{NumV: g.NumV, Adj: make([]V, g.M())}
	if g.Weights != nil {
		tr.Weights = make([]float32, g.M())
	}
	tr.Offsets, _ = scatter(g.N(), rowBounds(g, t), func(lo, hi int, cnt []int64) bool {
		for _, u := range g.Adj[g.Offsets[lo]:g.Offsets[hi]] {
			cnt[inv[u]]++
		}
		return true
	}, func(lo, hi int, cur []int64) {
		for v := V(lo); v < V(hi); v++ {
			ws := g.NeighborWeights(v)
			for i, u := range g.Neighbors(v) {
				x := inv[u]
				c := cur[x]
				tr.Adj[c] = inv[v]
				if ws != nil {
					tr.Weights[c] = ws[i]
				}
				cur[x] = c + 1
			}
		}
	})
	return &DegreeSorted{G: tr.transpose(t), Perm: perm, Inv: inv}
}
