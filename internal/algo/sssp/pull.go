package sssp

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"

	"pushpull/internal/atomicx"
	"pushpull/internal/core"
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
// (CHANGES.md, PR 20).
const denseShare = 16

// chunkWords is how many bitmap words (64 vertices each) a worker takes
// at a time. Workers draw chunks instead of owning one contiguous block
// because rows differ in cost by orders of magnitude and sit together — a
// generator's or a degree sort's hubs share the low ids — so an even
// split by vertex count leaves one worker with most of the edges.
const chunkWords = 8

// pullRounds is the state of a frontier-aware pull relaxation and the
// scratch its rounds reuse: 2 + t bitmaps of n/8 bytes. A round turns the
// source-side frontier (active: the bucket's members at an epoch's first
// round, afterwards the vertices the previous round lowered into the
// bucket) into a destination-side one (rows: the vertices with an active
// neighbor), then relaxes only those rows. Work is handed out in whole
// bitmap words, never in vertex ranges that could split one, so every
// word has one writer per phase, no phase needs a read-modify-write
// atomic, and one worker per round is the only writer of a vertex's
// distance.
//
// The graph must store every edge in both directions, as everywhere in
// this package: a row is found through its neighbor's adjacency.
type pullRounds struct {
	g     *graph.CSR
	dist  []uint64 // float64 bits: atomic loads, owner-only stores
	delta float64
	t     int
	b     int     // current bucket
	lo    float64 // bucket b is lo ≤ d < hi; rows at or below lo are settled
	hi    float64

	budget     float64 // bucketBudget(g)
	overBudget bool    // a distance fell in a bucket past the budget; the run stops

	active *frontier.Bitmap   // sources of this round
	next   *frontier.Bitmap   // lowered into bucket b by this round
	later  *frontier.Bitmap   // lowered into a later bucket; nil unless the caller routes them
	rows   *frontier.Bitmap   // destinations of this round
	marks  []*frontier.Bitmap // per-worker row marks, merged into rows

	nextEdges []int64 // per worker: out-edges of what it put into next

	// The phase bodies as func values, bound once: evaluating p.relax in
	// the round loop would allocate a closure per round.
	scatterFn, mergeFn, relaxFn func(w, from, to int)
}

// newPullRounds sets up a run from source: every distance +Inf but the
// source's 0, the current bucket 0, nothing active yet.
func newPullRounds(g *graph.CSR, source graph.V, delta float64, t int) *pullRounds {
	n := g.N()
	p := &pullRounds{
		g: g, dist: make([]uint64, n), delta: delta, t: t,
		budget:    bucketBudget(g),
		active:    frontier.NewBitmap(n),
		next:      frontier.NewBitmap(n),
		rows:      frontier.NewBitmap(n),
		marks:     make([]*frontier.Bitmap, t),
		nextEdges: make([]int64, t),
	}
	for w := range p.marks {
		p.marks[w] = frontier.NewBitmap(n)
	}
	inf := math.Float64bits(math.Inf(1))
	for i := range p.dist {
		p.dist[i] = inf //pushpull:allow atomicmix single-threaded init before any round runs
	}
	atomicx.StoreFloat64(&p.dist[source], 0)
	p.scatterFn, p.mergeFn, p.relaxFn = p.scatter, p.merge, p.relax
	p.setBucket(0)
	return p
}

// distances copies the distances out.
func (p *pullRounds) distances(dst []float64) {
	for i := range dst {
		dst[i] = atomicx.LoadFloat64(&p.dist[i])
	}
}

// bucketOf returns the b with b·Δ ≤ d < (b+1)·Δ as those products round,
// so that it agrees with every lo/hi comparison the rounds make; a bare
// int(d/Δ) can sit one off at a boundary. d must be finite. Past the
// bucket budget it sets overBudget and returns false instead.
func (p *pullRounds) bucketOf(d float64) (int, bool) {
	q := d / p.delta
	if q >= p.budget {
		p.overBudget = true
		return 0, false
	}
	b := int(q)
	if d < float64(b)*p.delta {
		b--
	} else if d >= float64(b+1)*p.delta {
		b++
	}
	return b, true
}

func (p *pullRounds) setBucket(b int) {
	p.b = b
	p.lo, p.hi = float64(b)*p.delta, float64(b+1)*p.delta
}

func (p *pullRounds) dense(activeEdges int64) bool {
	return activeEdges*denseShare >= p.g.M()
}

// markRows fills rows for a round whose active sources have activeEdges
// out-edges: every row when that is a large share of the graph (dense),
// otherwise exactly the neighbors of the active sources. Settled
// neighbors are marked too: relax drops them on the distance read it
// makes anyway, in row order, where a test here would be one random read
// per out-edge (and measured no faster).
func (p *pullRounds) markRows(activeEdges int64) (dense bool) {
	if p.dense(activeEdges) {
		p.rows.Fill()
		return true
	}
	nw := len(p.rows.Words())
	sched.ParallelFor(nw, p.t, sched.Dynamic, chunkWords, p.scatterFn)
	sched.ParallelFor(nw, p.t, sched.Static, 0, p.mergeFn)
	return false
}

// scatter marks, in worker w's private bitmap, the neighbors of the active
// sources in words [from, to).
func (p *pullRounds) scatter(w, from, to int) {
	mine := p.marks[w]
	active := p.active.Words()
	for wi := from; wi < to; wi++ {
		for word := active[wi]; word != 0; word &= word - 1 {
			u := graph.V(wi<<6 + bits.TrailingZeros64(word))
			for _, v := range p.g.Neighbors(u) {
				mine.SetSeq(v)
			}
		}
	}
}

func (p *pullRounds) merge(_, from, to int) { p.rows.MergeWords(p.marks, from, to) }

// rowEdges is what relaxing the marked rows will read: the in-edges of
// every unsettled one. Against the active sources' out-edges — what a
// push round would relax — it is the cost comparison behind a direction
// switch.
func (p *pullRounds) rowEdges() int64 {
	var edges int64
	for wi, word := range p.rows.Words() {
		for ; word != 0; word &= word - 1 {
			v := graph.V(wi<<6 + bits.TrailingZeros64(word))
			if atomicx.LoadFloat64(&p.dist[v]) > p.lo {
				edges += p.g.Degree(v)
			}
		}
	}
	return edges
}

// relax is the package's one pull relaxation: every unsettled marked row
// in words [from, to) takes the minimum over its active neighbors, testing
// the active bit (n/8 bytes in all, cache-resident) before touching the
// neighbor's distance.
func (p *pullRounds) relax(w, from, to int) {
	offsets, adj, weights, dist := p.g.Offsets, p.g.Adj, p.g.Weights, p.dist
	rows, active, next := p.rows.Words(), p.active.Words(), p.next.Words()
	var edges int64
	for wi := from; wi < to; wi++ {
		for word := rows[wi]; word != 0; word &= word - 1 {
			v := graph.V(wi<<6 + bits.TrailingZeros64(word))
			dv := atomicx.LoadFloat64(&dist[v])
			if dv <= p.lo {
				continue // settled for this epoch
			}
			first, last := offsets[v], offsets[v+1]
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
			switch {
			case best < p.hi:
				next[wi] |= bit
				edges += last - first
				// v is a source from here on, not only from the next round:
				// rows relaxed later in this round already see it, as every
				// row saw every bucket member in the rescanning kernel's
				// first round. This worker is the word's only writer, so
				// the update is a load and a store, and the readers above
				// load atomically.
				atomic.StoreUint64(&active[wi], active[wi]|bit)
			case p.later != nil:
				p.later.SetSeq(v)
			}
		}
	}
	p.nextEdges[w] += edges
}

// relaxRows relaxes the marked rows, then makes what was lowered into the
// bucket the next round's active set and returns its out-edge work; 0
// means nothing was, which ends the epoch (a lowered vertex has the
// neighbor that lowered it, so its degree is never 0).
func (p *pullRounds) relaxRows() int64 {
	sched.ParallelFor(len(p.rows.Words()), p.t, sched.Dynamic, chunkWords, p.relaxFn)
	return p.endRound()
}

// endRound is relaxRows after the relaxation itself.
func (p *pullRounds) endRound() int64 {
	var edges int64
	for _, e := range p.nextEdges {
		edges += e
	}
	clear(p.nextEdges)
	p.active, p.next = p.next, p.active
	p.next.Clear()
	return edges
}

// advance moves to the lowest non-empty bucket above the current one and
// makes its members the active set, in one pass over the distances. It
// returns the members' out-edge work, and false when no reached vertex is
// left above the bucket or that bucket is past the budget (overBudget).
func (p *pullRounds) advance() (int64, bool) {
	n := p.g.N()
	words := p.active.Words()
	// Distances are non-negative, so their bit patterns order like the
	// values (+Inf above every finite one), and "at or above the current
	// bucket's end but below the candidate's" is one unsigned comparison
	// that nearly always fails: no branch depends on which side a vertex
	// is out on.
	done := math.Float64bits(p.hi)
	lowest, lo, span := -1, math.Inf(1), math.Float64bits(math.Inf(1))-done
	stale := 0 // words before this one hold members of a bucket that lost to a lower one
	var edges int64
	for wi := range words {
		var word uint64
		for v, end := wi<<6, min(wi<<6+64, n); v < end; v++ {
			x := atomic.LoadUint64(&p.dist[v])
			if x-done >= span {
				continue // in a finished bucket, or above the lowest seen so far (unreached included)
			}
			if d := math.Float64frombits(x); d < lo {
				nb, ok := p.bucketOf(d)
				if !ok {
					return 0, false
				}
				if nb <= p.b {
					continue // Δ is below the spacing of distances this large
				}
				lowest, lo = nb, float64(nb)*p.delta
				span = math.Float64bits(float64(nb+1)*p.delta) - done
				stale, word, edges = wi, 0, 0
			}
			word |= 1 << uint(v&63)
			edges += p.g.Degree(graph.V(v))
		}
		words[wi] = word
	}
	if lowest < 0 {
		return 0, false
	}
	clear(words[:stale])
	p.setBucket(lowest)
	return edges, true
}

// Pull runs pull-based Δ-stepping over a destination-row frontier: each
// round relaxes only the unsettled vertices that have a neighbor in the
// round's active set (pullRounds). Distances live in a bit array accessed
// with plain atomic loads/stores — memory fences only, not the
// read-modify-write atomics pushing needs — so cross-partition reads of a
// neighbor's in-flight distance are well-defined while one worker per
// round is the sole writer of a vertex, the pull invariant of §3.8.
func Pull(g *graph.CSR, opt Options) *Result {
	n := g.N()
	res := &Result{Dist: make([]float64, n)}
	res.Stats.Direction = core.Pull
	if n == 0 {
		return res
	}
	res.Stats.Reserve(64)
	p := newPullRounds(g, opt.Source, resolveDelta(g, opt.Delta), sched.Clamp(opt.Threads, n))
	p.active.SetSeq(opt.Source) // bucket 0 holds the source alone
	activeEdges := g.Degree(opt.Source)
	for more := true; more; {
		res.Epochs++
		for {
			if opt.Canceled() {
				res.Stats.Canceled = true
				break
			}
			start := time.Now()
			res.Inner++
			p.markRows(activeEdges)
			activeEdges = p.relaxRows()
			el := time.Since(start)
			res.Stats.Record(el)
			opt.Tick(res.Inner-1, el)
			if activeEdges == 0 {
				break
			}
		}
		if res.Stats.Canceled {
			break
		}
		activeEdges, more = p.advance()
	}
	res.OverBudget = p.overBudget
	p.distances(res.Dist)
	return res
}
