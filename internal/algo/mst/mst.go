// Package mst implements push- and pull-based Borůvka minimum spanning
// tree computation (paper §3.7 and Algorithm 7), plus the sequential
// Kruskal and Prim baselines it is verified against.
//
// Each Borůvka iteration runs three phases, timed separately because
// Figure 4 reports them separately:
//
//   - Find-Minimum (FM): every supervertex determines the cheapest edge
//     leaving it. The pull variant lets each supervertex scan its own
//     edges and write only its own slot; the push variant lets each
//     supervertex override the tentative minima of its *neighbor*
//     supervertices — cross-thread writes that must be resolved with a
//     lock per crossing arc, taken whether or not the candidate improves
//     the slot (the O(n²) conflicts of §4.7).
//   - Build-Merge-Tree (BMT): hook edges are turned into a forest by
//     breaking two-cycles and pointer-jumping to roots.
//   - Merge (M): every non-root adds its minimum edge to the tree, one
//     parallel pass relabels every vertex with its root, and a counting
//     sort on the new labels rebuilds the member CSR that FM scans.
//
// Weight ties are broken by edge endpoints, making the MST unique and the
// two directions byte-identical.
package mst

import (
	"sort"
	"time"

	"pushpull/internal/atomicx"
	"pushpull/internal/core"
	"pushpull/internal/graph"
	"pushpull/internal/sched"
)

// Options configures a Borůvka run.
type Options struct {
	core.Options
}

// Result carries the tree and the per-phase timings of Figure 4.
type Result struct {
	Edges       []graph.Edge
	TotalWeight float64
	Iterations  int
	PhaseFM     []time.Duration
	PhaseBMT    []time.Duration
	PhaseM      []time.Duration
	Stats       core.RunStats
}

// minEdge is one supervertex's tentative minimum outgoing edge.
type minEdge struct {
	w      float32
	inside graph.V // endpoint inside the supervertex
	other  graph.V // endpoint outside
	target int32   // new_flag: the supervertex on the other side
	valid  bool
}

// better reports whether candidate (w, a, b) beats the current slot, with
// deterministic endpoint tie-breaking.
func (m *minEdge) better(w float32, a, b graph.V) bool {
	if !m.valid {
		return true
	}
	if w != m.w {
		return w < m.w
	}
	ca, cb := canon(a, b)
	ma, mb := canon(m.inside, m.other)
	if ca != ma {
		return ca < ma
	}
	return cb < mb
}

func canon(a, b graph.V) (graph.V, graph.V) {
	if a > b {
		return b, a
	}
	return a, b
}

// Boruvka computes the MST (or forest, for disconnected graphs) with the
// given update direction. avail lists the supervertex ids in increasing
// order, svFlag labels each vertex with its supervertex, and the member
// CSR members[start[i]:start[i+1]] holds avail[i]'s vertices, so a round
// allocates nothing but the tree edges and timings it appends.
func Boruvka(g *graph.CSR, opt Options, dir core.Direction) *Result {
	n := g.N()
	res := &Result{}
	res.Stats.Direction = dir
	if n == 0 {
		return res
	}
	t := sched.Clamp(opt.Threads, n)

	svFlag := make([]int32, n)
	members := make([]graph.V, n)
	avail := make([]int32, n)
	start := make([]int32, n+1)
	for i := 0; i < n; i++ {
		svFlag[i] = int32(i)
		members[i] = graph.V(i)
		avail[i] = int32(i)
		start[i+1] = int32(i + 1)
	}
	minE := make([]minEdge, n)
	locks := make([]atomicx.SpinLock, n)
	parent := make([]int32, n)
	pos := make([]int32, n) // a root's index in the next round's avail

	// Phase bodies are hoisted out of the round loop so the steady state
	// does not allocate closures; avail and start are captured by
	// reference, so each round's reassignment stays visible.
	fmPull := func(w, lo, hi int) {
		for i := lo; i < hi; i++ {
			f := avail[i]
			best := &minE[f]
			for _, v := range members[start[i]:start[i+1]] {
				ws := g.NeighborWeights(v)
				for j, u := range g.Neighbors(v) {
					if svFlag[u] == f {
						continue
					}
					wt := float32(1)
					if ws != nil {
						wt = ws[j]
					}
					if best.better(wt, v, u) {
						*best = minEdge{w: wt, inside: v, other: u, target: svFlag[u], valid: true}
					}
				}
			}
		}
	}
	fmPush := func(w, lo, hi int) {
		for i := lo; i < hi; i++ {
			f := avail[i]
			for _, v := range members[start[i]:start[i+1]] {
				ws := g.NeighborWeights(v)
				for j, u := range g.Neighbors(v) {
					tgt := svFlag[u]
					if tgt == f {
						continue
					}
					wt := float32(1)
					if ws != nil {
						wt = ws[j]
					}
					// Cross-supervertex write: serialize on the
					// target's lock (the push conflicts of §4.7).
					locks[tgt].Lock()
					slot := &minE[tgt]
					if slot.better(wt, u, v) {
						*slot = minEdge{w: wt, inside: u, other: v, target: f, valid: true}
					}
					locks[tgt].Unlock()
				}
			}
		}
	}
	relabel := func(w, lo, hi int) {
		for v := lo; v < hi; v++ {
			svFlag[v] = parent[svFlag[v]]
		}
	}

	for len(avail) > 1 {
		if opt.Canceled() {
			res.Stats.Canceled = true
			break
		}
		iterStart := time.Now()

		// ---- Phase FM: find minimum outgoing edges ----
		fmStart := time.Now()
		for _, f := range avail {
			minE[f] = minEdge{}
		}
		if dir == core.Pull {
			// Each supervertex scans its own edges, writes its own slot.
			sched.ParallelFor(len(avail), t, sched.Dynamic, 8, fmPull)
		} else {
			// Push: scanning supervertex f overrides its neighbors' slots
			// (from g's perspective the inside endpoint is u).
			sched.ParallelFor(len(avail), t, sched.Dynamic, 8, fmPush)
		}
		res.PhaseFM = append(res.PhaseFM, time.Since(fmStart))

		anyValid := false
		for _, f := range avail {
			if minE[f].valid {
				anyValid = true
				break
			}
		}
		if !anyValid {
			res.PhaseBMT = append(res.PhaseBMT, 0)
			res.PhaseM = append(res.PhaseM, 0)
			res.Iterations++
			res.Stats.Record(time.Since(iterStart))
			break
		}

		// ---- Phase BMT: hook, break 2-cycles, pointer-jump to roots ----
		bmtStart := time.Now()
		for _, f := range avail {
			if minE[f].valid {
				parent[f] = minE[f].target
			} else {
				parent[f] = f
			}
		}
		for _, f := range avail {
			if p := parent[f]; parent[p] == f && f < p {
				parent[f] = f // the smaller id of a 2-cycle becomes the root
			}
		}
		for _, f := range avail {
			for parent[f] != parent[parent[f]] {
				parent[f] = parent[parent[f]]
			}
		}
		res.PhaseBMT = append(res.PhaseBMT, time.Since(bmtStart))

		// ---- Phase M: contract components into their roots ----
		// Filtering avail in place keeps the roots in increasing id.
		mStart := time.Now()
		roots := avail[:0]
		for _, f := range avail {
			if parent[f] == f {
				pos[f] = int32(len(roots))
				roots = append(roots, f)
				continue
			}
			// Every non-root contributes its minimum edge to the MST.
			e := minE[f]
			a, b := canon(e.inside, e.other)
			res.Edges = append(res.Edges, graph.Edge{U: a, V: b, Weight: e.w})
			res.TotalWeight += float64(e.w)
		}
		avail = roots
		sched.ParallelFor(n, t, sched.Static, 0, relabel)
		// Counting sort on the new labels: count into start[k+1], sum the
		// prefixes, place at cursor start[k], shift the cursors back one.
		start = start[:len(avail)+1]
		clear(start)
		for _, r := range svFlag {
			start[pos[r]+1]++
		}
		for k := 1; k < len(start); k++ {
			start[k] += start[k-1]
		}
		for v, r := range svFlag {
			k := pos[r]
			members[start[k]] = graph.V(v)
			start[k]++
		}
		copy(start[1:], start)
		start[0] = 0
		res.PhaseM = append(res.PhaseM, time.Since(mStart))

		res.Iterations++
		el := time.Since(iterStart)
		res.Stats.Record(el)
		opt.Tick(res.Iterations-1, el)
	}
	sortEdges(res.Edges)
	return res
}

// Kruskal computes the reference MST with sorted edges and union-find.
func Kruskal(g *graph.CSR) *Result {
	res := &Result{Iterations: 1}
	var edges []graph.Edge
	for v := graph.V(0); v < g.NumV; v++ {
		ws := g.NeighborWeights(v)
		for j, u := range g.Neighbors(v) {
			if u < v {
				continue
			}
			wt := float32(1)
			if ws != nil {
				wt = ws[j]
			}
			edges = append(edges, graph.Edge{U: v, V: u, Weight: wt})
		}
	}
	sort.Slice(edges, func(i, j int) bool {
		a, b := edges[i], edges[j]
		if a.Weight != b.Weight {
			return a.Weight < b.Weight
		}
		if a.U != b.U {
			return a.U < b.U
		}
		return a.V < b.V
	})
	uf := newUnionFind(g.N())
	for _, e := range edges {
		if uf.union(e.U, e.V) {
			res.Edges = append(res.Edges, e)
			res.TotalWeight += float64(e.Weight)
		}
	}
	sortEdges(res.Edges)
	return res
}

// Prim computes the reference MST with a lazy heap from vertex 0 (restarted
// per component so disconnected graphs produce the full forest).
func Prim(g *graph.CSR) *Result {
	res := &Result{Iterations: 1}
	n := g.N()
	inTree := make([]bool, n)
	type item struct {
		w    float32
		u, v graph.V // u in tree, v candidate
	}
	var h []item
	less := func(a, b item) bool {
		if a.w != b.w {
			return a.w < b.w
		}
		ca, cb := canon(a.u, a.v)
		da, db := canon(b.u, b.v)
		if ca != da {
			return ca < da
		}
		return cb < db
	}
	push := func(it item) {
		h = append(h, it)
		for i := len(h) - 1; i > 0; {
			p := (i - 1) / 2
			if less(h[i], h[p]) {
				h[i], h[p] = h[p], h[i]
				i = p
			} else {
				break
			}
		}
	}
	pop := func() item {
		top := h[0]
		h[0] = h[len(h)-1]
		h = h[:len(h)-1]
		for i := 0; ; {
			l, r := 2*i+1, 2*i+2
			m := i
			if l < len(h) && less(h[l], h[m]) {
				m = l
			}
			if r < len(h) && less(h[r], h[m]) {
				m = r
			}
			if m == i {
				break
			}
			h[i], h[m] = h[m], h[i]
			i = m
		}
		return top
	}
	addVertex := func(v graph.V) {
		inTree[v] = true
		ws := g.NeighborWeights(v)
		for j, u := range g.Neighbors(v) {
			if !inTree[u] {
				wt := float32(1)
				if ws != nil {
					wt = ws[j]
				}
				push(item{w: wt, u: v, v: u})
			}
		}
	}
	for start := graph.V(0); start < g.NumV; start++ {
		if inTree[start] {
			continue
		}
		addVertex(start)
		for len(h) > 0 {
			it := pop()
			if inTree[it.v] {
				continue
			}
			a, b := canon(it.u, it.v)
			res.Edges = append(res.Edges, graph.Edge{U: a, V: b, Weight: it.w})
			res.TotalWeight += float64(it.w)
			addVertex(it.v)
		}
	}
	sortEdges(res.Edges)
	return res
}

// sortEdges orders edges canonically so results compare byte-for-byte.
func sortEdges(es []graph.Edge) {
	sort.Slice(es, func(i, j int) bool {
		if es[i].U != es[j].U {
			return es[i].U < es[j].U
		}
		return es[i].V < es[j].V
	})
}

// unionFind is a path-halving union-by-size structure.
type unionFind struct {
	parent []int32
	size   []int32
}

func newUnionFind(n int) *unionFind {
	uf := &unionFind{parent: make([]int32, n), size: make([]int32, n)}
	for i := range uf.parent {
		uf.parent[i] = int32(i)
		uf.size[i] = 1
	}
	return uf
}

func (uf *unionFind) find(x graph.V) int32 {
	r := int32(x)
	for uf.parent[r] != r {
		uf.parent[r] = uf.parent[uf.parent[r]]
		r = uf.parent[r]
	}
	return r
}

func (uf *unionFind) union(a, b graph.V) bool {
	ra, rb := uf.find(a), uf.find(b)
	if ra == rb {
		return false
	}
	if uf.size[ra] < uf.size[rb] {
		ra, rb = rb, ra
	}
	uf.parent[rb] = ra
	uf.size[ra] += uf.size[rb]
	return true
}

// SameTree reports whether two results select the same edge set.
func SameTree(a, b *Result) bool {
	if len(a.Edges) != len(b.Edges) {
		return false
	}
	for i := range a.Edges {
		if a.Edges[i].U != b.Edges[i].U || a.Edges[i].V != b.Edges[i].V {
			return false
		}
	}
	return true
}
