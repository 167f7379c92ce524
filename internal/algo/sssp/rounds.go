package sssp

import (
	"math"
	"math/bits"
	"sync/atomic"

	"pushpull/internal/atomicx"
	"pushpull/internal/frontier"
	"pushpull/internal/graph"
	"pushpull/internal/sched"
)

// denseShare bounds the scatter: a round whose active sources own at least
// 1/denseShare of the edge slots skips it and sweeps every row, because
// marking that many out-edges costs about what testing the rows it would
// rule out costs. Rounds that large are a handful of a run's thirty-odd
// on a skewed graph and none on a road grid, so the value is not
// sensitive: cmd/benchstack's lib-pull p50 was flat for 4, 16 and 64
// (CHANGES.md).
const denseShare = 16

// chunkWords is how many bitmap words (64 vertices each) a worker takes
// at a time. Workers draw chunks instead of owning one contiguous block
// because rows differ in cost by orders of magnitude and sit together — a
// generator's or a degree sort's hubs share the low ids — so an even
// split by vertex count leaves one worker with most of the edges.
const chunkWords = 8

// lightGrain is how many rows a worker takes at a time while building the
// light view, drawn in chunks for the reason chunkWords gives.
const lightGrain = 512

// rounds is the state of a Δ-stepping run and the scratch its rounds
// reuse: the bucket lists and 4 + t bitmaps of n/8 bytes. Both directions
// start a round from cur, the bucket's members at an epoch's first round
// and afterwards the vertices the previous round lowered into the bucket,
// and both file what they lower past the bucket by the same bucket bounds,
// so they agree on the bucket a distance is in.
//
// A push round relaxes cur's out-edges with an atomic minimum each. A pull
// round turns cur into a source-side frontier (active) and that into a
// destination-side one (rows: the vertices with an active neighbor), then
// relaxes only those rows. Pull work is handed out in whole bitmap words,
// never in vertex ranges that could split one, so every word has one
// writer per phase, no phase needs a read-modify-write atomic, and one
// worker per round is the only writer of a vertex's distance.
//
// Pull rounds split the arcs as Meyer and Sanders do, into light (w < Δ)
// and heavy (w ≥ Δ) ones. An epoch's first pull round reads whole rows.
// A later one reads only the light view, g's light arcs, because its
// sources were lowered into the bucket during the epoch: a heavy arc out
// of one reaches lo + Δ or more, past the bucket. Those sources join the
// epoch's members, and once the bucket empties one sweep relaxes their
// heavy arcs. The view and a fifth bitmap, members, are built at the
// run's first later pull round, so a run without one never pays for them;
// at the heuristic Δ the view comes from the graph's shared View, built
// once for all its runs.
//
// The graph must store every edge in both directions, as everywhere in
// this package: a row is found through its neighbor's adjacency.
type rounds struct {
	g     *graph.CSR
	dist  []uint64 // float64 bits: atomic loads; minima when pushed, owner-only stores when pulled
	delta float64
	t     int
	b     int     // current bucket
	lo    float64 // bucket b is lo ≤ d < hi; rows at or below lo are settled
	hi    float64
	floor float64 // relax skips rows at or below it: lo, and lo + Δ in a sweep

	budget     float64 // bucketBudget(g)
	overBudget bool    // a distance fell in a bucket past the budget; the run stops

	buckets [][]graph.V      // per bucket, every vertex lowered into it, once per lowering
	spare   [][]graph.V      // drained lists, reused by the next new bucket
	cur     []graph.V        // sources of this round
	inRound *frontier.Bitmap // dedup of cur while it is built; empty between rounds
	lowered [][]graph.V      // per worker: what its push relaxations lowered
	opening bool             // the next round is its epoch's first

	active      *frontier.Bitmap   // cur as a bitmap, and activeEdges its out-edge
	activeEdges int64              // work, while activeCur is set: after activate
	activeCur   bool               // or a pull round, until the next push or take
	next        *frontier.Bitmap   // lowered into bucket b by this round
	later       *frontier.Bitmap   // lowered into a later bucket by this round
	rows        *frontier.Bitmap   // destinations of this round
	marks       []*frontier.Bitmap // per-worker row marks, merged into rows
	sparse      frontier.Sparse    // what active and later are read out into

	view        *graph.CSR       // the rows relax reads: g, or light in a later pull round
	light       *graph.CSR       // g's light arcs, g itself when none is heavy; nil until needed
	shared      *View            // where light comes from, when the run's Δ is the view's
	members     *frontier.Bitmap // sources of the epoch's light pull rounds
	memberEdges int64            // their out-edges; 0 when the epoch owes no sweep

	nextEdges []int64 // per worker: out-edges of what it put into next
	pullArcs  []int64 // per worker: arcs its pull relaxations read

	// The round bodies as func values, bound once: evaluating r.push in
	// the round loop would allocate a closure per round.
	pushFn, scatterFn, mergeFn, relaxFn func(w, from, to int)
}

// newRounds sets up a run from source: every distance +Inf but the
// source's 0, which bucket 0 holds alone.
func newRounds(g *graph.CSR, source graph.V, delta float64, t int) *rounds {
	n := g.N()
	r := &rounds{
		g: g, dist: make([]uint64, n), delta: delta, t: t,
		budget:    bucketBudget(g),
		buckets:   [][]graph.V{{source}},
		inRound:   frontier.NewBitmap(n),
		lowered:   make([][]graph.V, t),
		active:    frontier.NewBitmap(n),
		next:      frontier.NewBitmap(n),
		later:     frontier.NewBitmap(n),
		rows:      frontier.NewBitmap(n),
		marks:     make([]*frontier.Bitmap, t),
		view:      g,
		nextEdges: make([]int64, t),
		pullArcs:  make([]int64, t),
	}
	for w := range r.marks {
		r.marks[w] = frontier.NewBitmap(n)
	}
	inf := math.Float64bits(math.Inf(1))
	for i := range r.dist {
		r.dist[i] = inf //pushpull:allow atomicmix single-threaded init before any round runs
	}
	atomicx.StoreFloat64(&r.dist[source], 0)
	r.pushFn, r.scatterFn, r.mergeFn, r.relaxFn = r.push, r.scatter, r.merge, r.relax
	r.setBucket(0)
	return r
}

// distances copies the distances out.
func (r *rounds) distances(dst []float64) {
	for i := range dst {
		dst[i] = atomicx.LoadFloat64(&r.dist[i])
	}
}

// bucketOf returns the b with b·Δ ≤ d < (b+1)·Δ as those products round,
// so that it agrees with every lo/hi comparison the rounds make; a bare
// int(d/Δ) can sit one off at a boundary. d must be finite. Past the
// bucket budget it sets overBudget and returns false instead.
func (r *rounds) bucketOf(d float64) (int, bool) {
	q := d / r.delta
	if q >= r.budget {
		r.overBudget = true
		return 0, false
	}
	b := int(q)
	if d < float64(b)*r.delta {
		b--
	} else if d >= float64(b+1)*r.delta {
		b++
	}
	return b, true
}

func (r *rounds) setBucket(b int) {
	r.b = b
	r.lo, r.hi = float64(b)*r.delta, float64(b+1)*r.delta
	r.floor = r.lo
}

// take starts bucket b: the round list cur becomes the bucket's list with
// only the entries still in the bucket, once each, in vertex-id order, so
// a push round reads the rows in storage order. A list holds a vertex once
// per lowering into the bucket, including lowerings overtaken by one into
// an earlier bucket. take returns false when no entry is left, so the
// bucket is not counted as an epoch. The previous round list's storage
// goes to spare, for the next new bucket.
func (r *rounds) take(b int) bool {
	list := r.buckets[b]
	if len(list) == 0 {
		return false
	}
	r.buckets[b] = nil
	r.setBucket(b)
	keep := list[:0]
	for _, v := range list {
		if atomicx.LoadFloat64(&r.dist[v]) >= r.lo && !r.inRound.Get(v) {
			r.inRound.SetSeq(v)
			keep = append(keep, v)
		}
	}
	r.inRound.Drain(keep)
	r.spare = append(r.spare, r.cur[:0])
	r.cur, r.activeCur, r.opening = keep, false, true
	return len(keep) > 0
}

// enqueue files v under the later bucket its distance is in; past the
// bucket budget it files nothing, and the run stops after the round.
func (r *rounds) enqueue(v graph.V) {
	nb, ok := r.bucketOf(atomicx.LoadFloat64(&r.dist[v]))
	if !ok {
		return
	}
	for len(r.buckets) <= nb {
		r.buckets = append(r.buckets, nil)
	}
	if r.buckets[nb] == nil && len(r.spare) > 0 {
		r.buckets[nb] = r.spare[len(r.spare)-1]
		r.spare = r.spare[:len(r.spare)-1]
	}
	r.buckets[nb] = append(r.buckets[nb], v)
}

// push relaxes the out-edges of cur[from:to] with atomic minima, and
// collects what it lowered in worker w's buffer.
func (r *rounds) push(w, from, to int) {
	for _, v := range r.cur[from:to] {
		dv := atomicx.LoadFloat64(&r.dist[v])
		ws := r.g.NeighborWeights(v)
		for j, u := range r.g.Neighbors(v) {
			we := 1.0
			if ws != nil {
				we = float64(ws[j])
			}
			if lowered, _ := atomicx.MinFloat64(&r.dist[u], dv+we); lowered {
				r.lowered[w] = append(r.lowered[w], u)
			}
		}
	}
}

// pushRound relaxes cur's out-edges, then merges the workers' buffers in
// worker order on each vertex's final distance (a later relaxation may
// have lowered it further): what is in the bucket becomes the next cur,
// once each, in vertex-id order, in the list's own storage, and the rest
// is filed under its later bucket. Nothing lands below bucket b, whose
// members are the only sources.
func (r *rounds) pushRound() {
	sched.ParallelFor(len(r.cur), r.t, sched.Static, 0, r.pushFn)
	r.cur, r.activeCur, r.opening = r.cur[:0], false, false
	for w, buf := range r.lowered {
		for _, v := range buf {
			if atomicx.LoadFloat64(&r.dist[v]) >= r.hi {
				r.enqueue(v)
			} else if !r.inRound.Get(v) {
				r.inRound.SetSeq(v)
				r.cur = append(r.cur, v)
			}
		}
		r.lowered[w] = buf[:0]
	}
	r.inRound.Drain(r.cur)
}

// activate makes cur the active set, unless the last round pulled and
// left it there, and returns its out-edge work.
func (r *rounds) activate() int64 {
	if !r.activeCur {
		r.active.Clear()
		r.activeEdges = 0
		for _, v := range r.cur {
			r.active.SetSeq(v)
			r.activeEdges += r.g.Degree(v)
		}
		r.activeCur = true
	}
	return r.activeEdges
}

func (r *rounds) dense(activeEdges int64) bool {
	return activeEdges*denseShare >= r.g.M()
}

// markRows fills rows for a round whose active sources have activeEdges
// out-edges: every row when that is a large share of the graph (dense),
// otherwise exactly the neighbors of the active sources. Settled
// neighbors are marked too: relax drops them on the distance read it
// makes anyway, in row order, where a test here would be one random read
// per out-edge (and measured no faster).
func (r *rounds) markRows(activeEdges int64) (dense bool) {
	if r.dense(activeEdges) {
		r.rows.Fill()
		return true
	}
	nw := len(r.rows.Words())
	sched.ParallelFor(nw, r.t, sched.Dynamic, chunkWords, r.scatterFn)
	sched.ParallelFor(nw, r.t, sched.Static, 0, r.mergeFn)
	return false
}

// scatter marks, in worker w's private bitmap, the neighbors of the active
// sources in words [from, to).
func (r *rounds) scatter(w, from, to int) {
	mine := r.marks[w]
	active := r.active.Words()
	for wi := from; wi < to; wi++ {
		for word := active[wi]; word != 0; word &= word - 1 {
			u := graph.V(wi<<6 + bits.TrailingZeros64(word))
			for _, v := range r.g.Neighbors(u) {
				mine.SetSeq(v)
			}
		}
	}
}

func (r *rounds) merge(_, from, to int) { r.rows.MergeWords(r.marks, from, to) }

// rowEdges is what relaxing the marked rows will read: the in-edges of
// every unsettled one. Against the active sources' out-edges — what a
// push round would relax — it is the cost comparison behind a direction
// switch.
func (r *rounds) rowEdges() int64 {
	var edges int64
	for wi, word := range r.rows.Words() {
		for ; word != 0; word &= word - 1 {
			v := graph.V(wi<<6 + bits.TrailingZeros64(word))
			if atomicx.LoadFloat64(&r.dist[v]) > r.lo {
				edges += r.g.Degree(v)
			}
		}
	}
	return edges
}

// relax is the package's one pull relaxation: every marked row of view in
// words [from, to) whose distance is above floor takes the minimum over
// its active neighbors, testing the active bit (n/8 bytes in all,
// cache-resident) before touching the neighbor's distance.
func (r *rounds) relax(w, from, to int) {
	offsets, adj, weights, dist := r.view.Offsets, r.view.Adj, r.view.Weights, r.dist
	degrees, floor := r.g.Offsets, r.floor
	rows, active, next := r.rows.Words(), r.active.Words(), r.next.Words()
	var edges, arcs int64
	for wi := from; wi < to; wi++ {
		for word := rows[wi]; word != 0; word &= word - 1 {
			v := graph.V(wi<<6 + bits.TrailingZeros64(word))
			dv := atomicx.LoadFloat64(&dist[v])
			if dv <= floor {
				continue // settled, or out of a heavy arc's reach
			}
			first, last := offsets[v], offsets[v+1]
			arcs += last - first
			best := dv
			for j := first; j < last; j++ {
				u := adj[j]
				if atomic.LoadUint64(&active[u>>6])&(1<<(uint(u)&63)) == 0 {
					continue
				}
				we := 1.0
				if weights != nil {
					we = float64(weights[j])
				}
				if nd := atomicx.LoadFloat64(&dist[u]) + we; nd < best {
					best = nd
				}
			}
			if best >= dv {
				continue
			}
			// Owner-only write: a store, not a CAS.
			atomicx.StoreFloat64(&dist[v], best)
			bit := uint64(1) << (uint(v) & 63)
			if best < r.hi {
				next[wi] |= bit
				edges += degrees[v+1] - degrees[v]
				// v is a source from here on, not only from the next round:
				// rows relaxed later in this round already see it, as every
				// row saw every bucket member in the rescanning kernel's
				// first round. This worker is the word's only writer, so
				// the update is a load and a store, and the readers above
				// load atomically.
				atomic.StoreUint64(&active[wi], active[wi]|bit)
			} else {
				r.later.SetSeq(v)
			}
		}
	}
	r.nextEdges[w] += edges
	r.pullArcs[w] += arcs
}

// pullRound relaxes the marked rows: whole rows in the epoch's first
// round, light rows after it, whose sources join the members.
func (r *rounds) pullRound() {
	r.view = r.g
	if !r.opening {
		if r.view = r.lightView(); r.view != r.g {
			r.join()
		}
	}
	r.opening = false
	r.relaxRows()
}

// relaxRows relaxes the marked rows of view, then files what it lowered.
func (r *rounds) relaxRows() {
	sched.ParallelFor(len(r.rows.Words()), r.t, sched.Dynamic, chunkWords, r.relaxFn)
	r.file()
}

// file follows a pull round's relaxation. What it lowered into the bucket
// becomes the active set and the next round's cur, and its out-edge work
// activeEdges; what it lowered past the bucket is filed under its later
// bucket.
func (r *rounds) file() {
	r.activeEdges = 0
	for _, e := range r.nextEdges {
		r.activeEdges += e
	}
	clear(r.nextEdges)
	r.active, r.next = r.next, r.active
	r.next.Clear()
	r.activeCur = true
	r.active.ToSparse(&r.sparse)
	r.cur = append(r.cur[:0], r.sparse.Vertices()...)
	r.later.ToSparse(&r.sparse)
	r.later.Clear()
	for _, v := range r.sparse.Vertices() {
		r.enqueue(v)
	}
}

// lightView returns the light view, taking it from the shared View or
// building it, and the members bitmap when some arc is heavy, at the
// run's first call.
func (r *rounds) lightView() *graph.CSR {
	if r.light == nil {
		if r.shared != nil {
			r.light = r.shared.lightView(r.t)
		} else {
			r.light = lightArcs(r.g, r.delta, r.t)
		}
		if r.light != r.g {
			r.members = frontier.NewBitmap(r.g.N())
		}
	}
	return r.light
}

// join adds cur, the sources of a light pull round, to the members.
func (r *rounds) join() {
	for _, v := range r.cur {
		if !r.members.Get(v) {
			r.members.SetSeq(v)
			r.memberEdges += r.g.Degree(v)
		}
	}
}

// sweep follows the round that emptied the bucket of an epoch with light
// pull rounds: one pull pass over whole rows, the members the active set,
// relaxes the heavy arcs those rounds skipped. It skips rows at or below
// lo + Δ, the least a heavy arc out of a member reaches, which is hi up to
// rounding. What it lowers past the bucket is filed. Where rounding puts
// lo + Δ below hi, what it lowers into the bucket becomes cur and re-opens
// the epoch.
func (r *rounds) sweep() {
	r.active, r.members = r.members, r.active
	r.markRows(r.memberEdges)
	r.view, r.floor = r.g, r.lo+r.delta
	r.relaxRows()
	r.floor = r.lo
	r.members.Clear()
	r.memberEdges = 0
}

// lightArcs returns the CSR of g's light arcs, those lighter than delta,
// each row in g's order, or g itself when no arc is heavy. It makes two
// passes over the rows with t workers: the first counts each row's light
// arcs into the offsets and, after a prefix sum, the second copies them,
// so every array is allocated once at its final size.
func lightArcs(g *graph.CSR, delta float64, t int) *graph.CSR {
	n := g.N()
	if g.Weights == nil {
		if 1 < delta {
			return g
		}
		return &graph.CSR{NumV: g.NumV, Offsets: make([]int64, n+1)}
	}
	offsets := make([]int64, n+1)
	sched.ParallelFor(n, t, sched.Dynamic, lightGrain, func(_, from, to int) {
		for v := from; v < to; v++ {
			var c int64
			for _, w := range g.Weights[g.Offsets[v]:g.Offsets[v+1]] {
				if float64(w) < delta {
					c++
				}
			}
			offsets[v+1] = c
		}
	})
	for v := 0; v < n; v++ {
		offsets[v+1] += offsets[v]
	}
	m := offsets[n]
	if m == g.M() {
		return g
	}
	light := &graph.CSR{NumV: g.NumV, Offsets: offsets, Adj: make([]graph.V, m), Weights: make([]float32, m)}
	sched.ParallelFor(n, t, sched.Dynamic, lightGrain, func(_, from, to int) {
		for v := from; v < to; v++ {
			at := offsets[v]
			for j := g.Offsets[v]; j < g.Offsets[v+1]; j++ {
				if w := g.Weights[j]; float64(w) < delta {
					light.Adj[at], light.Weights[at] = g.Adj[j], w
					at++
				}
			}
		}
	})
	return light
}
