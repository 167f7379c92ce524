package graph

import (
	"fmt"
	"math"
)

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

// SortByDegree builds the degree-sorted view of g under DegreePerm's
// relabelling perm, inv, which the view holds, with two scatters. The
// first is relabel's renumbered transpose, weights and all. The second
// transposes that back, which lists every row in ascending order with the
// arcs to one endpoint in g's order, so the view is exact for every CSR
// and no row is sorted. Beside the view it holds one scatter's cursors at
// a time and the relabelled transpose, 8(n+1) + 4m bytes (8m when
// weighted).
func SortByDegree(g *CSR, perm, inv []V) *DegreeSorted {
	return sortByDegree(g, perm, inv, g.workersFor(g.N()))
}

// sortByDegree is SortByDegree on t scatter workers.
func sortByDegree(g *CSR, perm, inv []V, t int) *DegreeSorted {
	return &DegreeSorted{G: relabel(g, inv, true, true, t).transpose(t), Perm: perm, Inv: inv}
}

// DegreePull is the pull view of a graph renumbered by descending degree
// (DegreePerm): the in-edge rows a pull kernel gathers along, with every
// vertex under its new id. The source paper's §4 charges pull one random
// read per edge, of the sender's contribution; the renumbering packs the
// senders a skewed graph's gather reads most into a dense prefix of the
// contribution vector.
//
// With Inv the relabelling's old-to-new map, row Inv[u] of In lists
// Inv[v] for each arc v→u of a directed graph, in
// g's row order, so by increasing old id v: the order the rows of g's
// Transpose list them in. An undirected graph's rows are its in-edge
// rows already, and row Inv[u] lists Inv[v] for each v of g's row u, in
// that row's order. Either way a gather over row Inv[u] adds the same
// contributions in the same order as a gather over the plain view's row
// u, so the ranks are the same bit for bit. In has no weights.
//
// OutDeg[Inv[v]] is v's out-degree in a directed view, which a pull
// kernel divides v's rank by; an undirected view leaves it nil, since
// its row lengths are the out-degrees.
//
// The view holds no permutation: the caller keeps the relabelling it was
// built under, and un-permutes through that relabelling's Perm. The view
// holds 4m + 8(n+1) bytes of In's arcs and offsets, plus 4n for OutDeg
// when directed; while it builds, one scatter's cursors besides, 8n per
// worker.
type DegreePull struct {
	In     *CSR
	OutDeg []uint32
}

// PullFits reports whether PullByDegree can build g's degree-ordered pull
// view: a directed g of 2^32 or more arcs has out-degrees 32 bits may not
// hold.
func PullFits(g *CSR, directed bool) bool {
	return !directed || g.M() <= math.MaxUint32
}

// PullByDegree builds g's degree-ordered pull view under the relabelling
// inv (Inv[old] = new) from DegreePerm with one scatter, and checks it
// once, since pull kernels read it without bounds checks. It fails where
// PullFits does not hold.
func PullByDegree(g *CSR, directed bool, inv []V) (*DegreePull, error) {
	return pullByDegree(g, directed, inv, g.workersFor(g.N()))
}

// pullByDegree is PullByDegree on t scatter workers.
func pullByDegree(g *CSR, directed bool, inv []V, t int) (*DegreePull, error) {
	if !PullFits(g, directed) {
		return nil, fmt.Errorf("graph: degree-ordered pull view: %d arcs, out-degrees need more than 32 bits", g.M())
	}
	dp := &DegreePull{In: relabel(g, inv, directed, false, t)}
	if directed {
		dp.OutDeg = make([]uint32, g.N())
		for v, x := range inv {
			dp.OutDeg[x] = uint32(g.Degree(V(v)))
		}
	}
	if err := dp.In.Check(); err != nil {
		return nil, fmt.Errorf("graph: degree-ordered pull view: %w", err)
	}
	return dp, nil
}

// relabel lays g's arcs out under the renumbering inv (inv[old] = new)
// with one scatter of g's rows on t workers, each row receiving its arcs
// in g's row order. Across, arc v→u lands in row inv[u] as inv[v] (the
// renumbered transpose), with its weight when weighted is set and g has
// weights. Otherwise it lands in row inv[v] as inv[u], unweighted (the
// renumbered graph).
func relabel(g *CSR, inv []V, across, weighted bool, t int) *CSR {
	r := &CSR{NumV: g.NumV, Adj: make([]V, g.M())}
	ws := g.Weights
	if !weighted || !across {
		ws = nil
	}
	if ws != nil {
		r.Weights = make([]float32, g.M())
	}
	r.Offsets, _ = scatter(g.N(), rowBounds(g, t), func(lo, hi int, cnt []int64) bool {
		if !across {
			for v := lo; v < hi; v++ {
				cnt[inv[v]] += g.Offsets[v+1] - g.Offsets[v]
			}
			return true
		}
		for _, u := range g.Adj[g.Offsets[lo]:g.Offsets[hi]] {
			cnt[inv[u]]++
		}
		return true
	}, func(lo, hi int, cur []int64) {
		for v := V(lo); v < V(hi); v++ {
			a, b := g.Offsets[v], g.Offsets[v+1]
			if !across {
				c := cur[inv[v]]
				for i, u := range g.Adj[a:b] {
					r.Adj[c+int64(i)] = inv[u]
				}
				cur[inv[v]] = c + b - a
				continue
			}
			x := inv[v]
			for i, u := range g.Adj[a:b] {
				y := inv[u]
				c := cur[y]
				r.Adj[c] = x
				if ws != nil {
					r.Weights[c] = ws[a+int64(i)]
				}
				cur[y] = c + 1
			}
		}
	})
	return r
}
