// Package pr implements push- and pull-based PageRank (paper §3.1 and
// Algorithm 1) plus the Partition-Awareness acceleration of §5 (Algorithm
// 8).
//
// In the push variant, the thread owning v adds f·pr[v]/d(v) to new_pr[u]
// for every neighbor u — a write conflict on every edge whose target
// another thread owns, resolved with an atomic CAS loop because CPUs have
// no float atomics (§4.1 charges these as O(Lm) synchronization events).
// In the pull variant, the thread owning v gathers pr[u]/d(u) from every
// neighbor and accumulates privately — no synchronization, a random read
// per edge instead of a random write, which is the cache-miss trade-off
// Table 1 reports.
//
// The fast Push pushes into private state instead of shared state: each
// worker scatters every update of the rows it was dealt into its own
// n-entry accumulator with a plain add. There is no atomic, and no
// per-edge test of who owns the target. A fold then starts each slot from
// the teleport term, adds the accumulators in worker order, and writes
// the result over the rank vector in place. It walks the adjacency once
// per iteration and needs no second copy of it. The price is memory and a
// fold: a run holds t accumulators besides the rank vector, (t+1)·n·8
// bytes (6 MiB at n = 2^18, t = 2), and folds O(t·n) per iteration. At
// one thread the only accumulator swaps with the rank vector instead.
// The ranks are bit-identical run to run at every thread count and
// GOMAXPROCS, and at one thread they are Sequential's bits. The profiled twins
// keep the paper's two bills apart: PushProfiled counts Algorithm 1's (an
// atomic per arc), PushPAProfiled counts Algorithm 8's over the §5
// local/remote split (an atomic per remote arc, plus the split's extra
// offset reads).
//
// Rank mass is specified, not normalized: a vertex with no out-edge sends
// nothing and its rank is not redistributed (see Sum).
//
// The paper prices that gather at two random reads per edge (pr[u] and
// d(u)). Every pull kernel here computes the quotient once where it
// originates instead (sender-side combining, after Yan et al.): a scale
// pass writes contrib[u] = pr[u]/d(u) (0 when d(u) = 0) for every vertex,
// then the gather adds contrib[u] per edge. Each term is the same quotient
// added in the same order, so the ranks are bit-identical to the
// two-read gather's. The bill per iteration, as the profiled twins count
// it (m = adjacency slots), two-read gather → contribution vector:
//
//	reads                 n + 3m → 3n + 2m
//	random reads per edge      2 → 1
//	writes                     n → 2n
//	divides                    m → n
//	atomics                    0 → 0
//
// Pull's gather, and PullBlocked's, deal rows (blocks) to their workers
// in chunks from a shared cursor (sched.Dynamic), not one contiguous
// range each: a power-law graph's hubs sit together, and on the suite's
// rmat graphs the static split hands worker 0 of two 75 % of the arcs.
// Each row has one writer and adds its terms in row order whichever
// worker takes it, so the ranks are the same bits at every thread count
// and under every dealing. The scale pass touches each vertex once, so
// its work is already even, and it keeps the static split, as does Push's
// fold. Push's scatter cannot deal from a cursor: which accumulator sums
// which rows fixes the bits. It deals fixed chunks instead, once per run
// (dealRows): ordered by arc count and handed out boustrophedon, they
// give every worker the same number of rows ±1 chunk and the same number
// of arcs to within the heaviest chunk, and the deal depends on the graph
// and t alone, so the ranks have one set of bits per thread count.
//
// Every kernel takes the pair of adjacency views the two directions walk
// (§4.8): pushing iterates out-edges, pulling iterates in-edges, and a
// contribution always scales by the *out*-degree (§7.3). An undirected
// graph is the In == Out case of the same kernels, not a second set.
//
// Push's scatter, Pull's gather and PullBlocked's gather read rows and
// index n-vectors by arc id without bounds checks (graph.Row, SumAt and
// AddAt): graph.Check has made each of those checks once, up front. That
// is safe only for a graph that passed graph.Check — pushpull.Run checks
// every graph it hands these kernels, once per graph, and PullBlocked's
// block file checks its own ids — and only while the graph does not
// change afterwards. Push and Pull panic on a view that never passed
// Check. The *Profiled twins keep Go's checks.
package pr

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"time"

	"pushpull/internal/core"
	"pushpull/internal/graph"
	"pushpull/internal/sched"
)

// DefaultDamping is the damp factor f used when none is set explicitly.
const DefaultDamping = 0.85

// DefaultIterations is the power-iteration count L used when none is set.
const DefaultIterations = 20

// Options configures a PageRank run.
type Options struct {
	core.Options
	// Iterations is the power-iteration count L (default 20).
	Iterations int
	// Damping is the damp factor f. A zero value left by struct literal
	// means "use DefaultDamping"; to request a genuine zero-damping run
	// (pure teleport distribution), call SetDamping(0) instead of
	// assigning the field.
	Damping float64
	// dampingSet distinguishes an explicit SetDamping(0) from the zero
	// value of the struct, so zero damping is expressible.
	dampingSet bool
}

// SetDamping pins the damp factor explicitly, including zero; defaults()
// will not rewrite a value set through here.
func (o *Options) SetDamping(f float64) {
	o.Damping = f
	o.dampingSet = true
}

func (o *Options) defaults() {
	if o.Iterations <= 0 {
		o.Iterations = DefaultIterations
	}
	if !o.dampingSet && o.Damping == 0 {
		o.Damping = DefaultDamping
	}
}

// Views is the pair of adjacency views a run walks: row v of Out holds the
// out-neighbors of v, row v of In its in-neighbors (the transpose). An
// undirected graph is Views{g, g}. Push-only and sequential runs never read
// In and may leave it nil.
//
// Pull reads Out only for the out-degrees it divides by. OutDeg, when
// set, holds those degrees instead, as a pull view that carries them
// (graph.DegreePull) supplies them: then Pull reads no Out, and Out may be
// nil.
type Views struct {
	Out, In *graph.CSR
	OutDeg  []uint32
}

// Sequential computes the reference ranks with a single thread — rank
// flows along edge direction, split over each vertex's out-degree; push
// and pull variants are cross-validated against it.
func Sequential(vw Views, opt Options) []float64 {
	opt.defaults()
	g := vw.Out
	n := g.N()
	pr := make([]float64, n)
	next := make([]float64, n)
	if n == 0 {
		return pr
	}
	initRank := 1 / float64(n)
	for i := range pr {
		pr[i] = initRank
	}
	base := (1 - opt.Damping) / float64(n)
	for l := 0; l < opt.Iterations; l++ {
		for i := range next {
			next[i] = base
		}
		for v := graph.V(0); v < g.NumV; v++ {
			d := g.Degree(v)
			if d == 0 {
				continue
			}
			c := opt.Damping * pr[v] / float64(d)
			for _, u := range g.Neighbors(v) {
				next[u] += c
			}
		}
		pr, next = next, pr
	}
	return pr
}

// Push runs the push-based variant as a scatter into private state plus
// an ordered fold. At t ≥ 2 the scatter gives each worker the row chunks
// Push's deal (dealRows) assigns it, fixed before the first round: the
// worker adds every update of its chunks' rows, chunk by chunk in
// increasing index, into its own accumulator, whichever row the target
// is. After the phase boundary the fold, over the static split, starts
// each slot from the teleport term, adds the t accumulators in worker
// order, zeroing them as it reads them, and writes the sum over pr. Both
// passes store only into memory one worker owns, so there is no atomic
// and no per-edge ownership test. The deal is a function of the graph and
// t, and the worker that scatters a chunk is the one the deal names, so
// every slot sums the same terms in the same order in every run: the
// ranks are bit-identical run to run and at any GOMAXPROCS, with one set
// of bits per thread count. At one thread the only accumulator starts
// each round from the teleport term and swaps with pr instead of
// folding, and the adds happen in Sequential's order.
func Push(vw Views, opt Options) ([]float64, core.RunStats) {
	opt.defaults()
	g := vw.Out
	n := g.N()
	stats := core.RunStats{Direction: core.Push}
	pr := make([]float64, n)
	if n == 0 {
		return pr, stats
	}
	mustBeChecked("Push", g, n)
	stats.Reserve(opt.Iterations)
	t := sched.Clamp(opt.Threads, n)
	initRank := 1 / float64(n)
	for i := range pr {
		pr[i] = initRank
	}
	base := (1 - opt.Damping) / float64(n)
	priv := make([][]float64, t)
	for w := range priv {
		priv[w] = make([]float64, n)
	}
	var d deal
	if t > 1 {
		d = dealRows(g, t)
	}
	// Phase bodies are hoisted out of the round loop: a func literal in
	// the loop would allocate its capture record every iteration, and the
	// steady state must not allocate. The scatter runs once per worker,
	// over the chunks the deal gave it.
	scatter := func(w, _, _ int) {
		mine := priv[w]
		for _, c := range d.chunks[d.off[w]:d.off[w+1]] {
			lo := int(c) * d.grain
			scatterRows(g, mine, pr, opt.Damping, lo, min(lo+d.grain, n))
		}
	}
	fold := func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			s := base
			for _, p := range priv {
				s += p[i]
				p[i] = 0
			}
			pr[i] = s
		}
	}
	for l := 0; l < opt.Iterations; l++ {
		if opt.Canceled() {
			stats.Canceled = true
			break
		}
		start := time.Now()
		if t == 1 {
			mine := priv[0]
			for i := range mine {
				mine[i] = base
			}
			scatterRows(g, mine, pr, opt.Damping, 0, n)
			pr, priv[0] = mine, pr
		} else {
			sched.ParallelFor(t, t, sched.Static, 0, scatter)
			sched.ParallelFor(n, t, sched.Static, 0, fold)
		}
		el := time.Since(start)
		stats.Record(el)
		opt.Tick(l, el)
	}
	return pr, stats
}

// scatterRows adds f·pr[v]/d(v) into acc[u] for every arc v→u of the rows
// [lo, hi), row by row in increasing v and each row in its own order.
func scatterRows(g *graph.CSR, acc, pr []float64, f float64, lo, hi int) {
	for vi := lo; vi < hi; vi++ {
		row := g.Row(graph.V(vi))
		if len(row) == 0 {
			continue
		}
		graph.AddAt(acc, row, f*pr[vi]/float64(len(row)))
	}
}

// dealGrain is the most rows one chunk of Push's deal holds.
const dealGrain = 1024

// deal is Push's assignment of row chunks to its t workers: chunk c holds
// the rows [c·grain, min((c+1)·grain, n)), and worker w scatters chunks
// chunks[off[w]:off[w+1]], in increasing index.
type deal struct {
	grain  int
	chunks []int32
	off    []int
}

// dealRows deals g's rows to t ≥ 2 workers. The chunks are dealGrain
// rows, or n/(2t) when that is fewer, so a graph of n ≥ 2t rows has at
// least 2t chunks and every worker gets one. Ordered by arc count,
// heaviest first and ties by index, the chunks go out boustrophedon:
// workers 0…t−1, then t−1…0, and so on. So every worker holds the same
// number of chunks ±1, and the workers' arc counts differ by at most the
// heaviest chunk's. No timing enters, so the deal — and with it which
// accumulator sums which terms — is a function of the graph and t alone.
//
// Pull's gather deals its rows from a shared cursor instead, which
// balances as well but lets timing pick a row's worker. That is harmless
// where each row has one writer and adds its terms in row order, as in
// the gather; here the worker fixes the accumulator a term lands in, and
// so the rank's bits.
func dealRows(g *graph.CSR, t int) deal {
	n := g.N()
	grain := min(dealGrain, max(1, n/(2*t)))
	nc := (n + grain - 1) / grain
	arcs := make([]int64, nc)
	order := make([]int32, nc)
	for c := range order {
		lo := c * grain
		arcs[c] = g.Offsets[min(lo+grain, n)] - g.Offsets[lo]
		order[c] = int32(c)
	}
	slices.SortFunc(order, func(a, b int32) int {
		if c := cmp.Compare(arcs[b], arcs[a]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	owner := make([]int, nc)
	d := deal{grain: grain, chunks: order, off: make([]int, t+1)}
	for k, c := range order {
		w := k % t
		if k/t%2 == 1 {
			w = t - 1 - w
		}
		owner[c] = w
		d.off[w+1]++
	}
	for w := 0; w < t; w++ {
		d.off[w+1] += d.off[w]
	}
	next := slices.Clone(d.off[:t])
	for c, w := range owner {
		d.chunks[next[w]] = int32(c)
		next[w]++
	}
	return d
}

// Pull runs the pull-based variant: each vertex gathers f·pr[u]/d(u) along
// its in-edges with no synchronization at all (per-vertex cost bounded by
// d̂in, §4.8) — a scale pass computes every vertex's contribution once, from
// its out-degree (Out's row length, or OutDeg), and the gather reads one
// per edge. The gather deals rows in chunks of gatherGrain, so a run of
// hubs is shared out instead of landing on one worker; each row is still
// summed by one worker in row order, so the ranks do not depend on the
// dealing.
func Pull(vw Views, opt Options) ([]float64, core.RunStats) {
	opt.defaults()
	out, in, outDeg := vw.Out, vw.In, vw.OutDeg
	n := in.N()
	stats := core.RunStats{Direction: core.Pull}
	pr := make([]float64, n)
	if n == 0 {
		return pr, stats
	}
	mustBeChecked("Pull", in, n)
	if outDeg == nil && out.N() != n || outDeg != nil && len(outDeg) != n {
		panic(fmt.Sprintf("pr: Pull handed out-degrees of another graph than its %d-vertex pull view", n))
	}
	stats.Reserve(opt.Iterations)
	t := sched.Clamp(opt.Threads, n)
	initRank := 1 / float64(n)
	for i := range pr {
		pr[i] = initRank
	}
	next := make([]float64, n)
	contrib := make([]float64, n)
	base := (1 - opt.Damping) / float64(n)
	// Hoisted phase bodies; they capture pr and next by reference, so the
	// per-round swap below stays visible without re-allocating a closure
	// each iteration.
	scale := func(w, lo, hi int) {
		if outDeg != nil {
			for vi := lo; vi < hi; vi++ {
				contrib[vi] = contribution(pr[vi], int64(outDeg[vi]))
			}
			return
		}
		for vi := lo; vi < hi; vi++ {
			contrib[vi] = contribution(pr[vi], out.Degree(graph.V(vi)))
		}
	}
	gather := func(w, lo, hi int) {
		for vi := lo; vi < hi; vi++ {
			next[vi] = base + opt.Damping*graph.SumAt(contrib, in.Row(graph.V(vi)))
		}
	}
	for l := 0; l < opt.Iterations; l++ {
		if opt.Canceled() {
			stats.Canceled = true
			break
		}
		start := time.Now()
		sched.ParallelFor(n, t, sched.Static, 0, scale)
		sched.ParallelFor(n, t, sched.Dynamic, gatherGrain, gather)
		pr, next = next, pr
		el := time.Since(start)
		stats.Record(el)
		opt.Tick(l, el)
	}
	return pr, stats
}

// gatherGrain is how many rows a pull worker takes from the shared cursor
// at a time. On rmat at n = 2^18 and two workers, grains from 256 to 4096
// rows timed alike, and all about 20 % below the static split.
const gatherGrain = 1024

// mustBeChecked panics unless g passed graph.Check and has n vertices:
// Push and Pull read g's rows, and index n-vectors by its arc ids,
// without bounds checks. Run checks every graph before it dispatches, so
// only an internal caller that skips Run can fail here.
func mustBeChecked(kernel string, g *graph.CSR, n int) {
	if !g.Checked() {
		panic("pr: " + kernel + " handed a graph that never passed graph.Check")
	}
	if g.N() != n {
		panic(fmt.Sprintf("pr: %s handed a %d-vertex view of a %d-vertex graph", kernel, g.N(), n))
	}
}

// contribution is what a vertex of rank r and degree d offers each
// neighbor: r/d, or 0 from a vertex with no edge to send it along. Every
// pull kernel's scale pass goes through here, so the quotient the gathers
// add is one expression tree-wide.
func contribution(r float64, d int64) float64 {
	if d == 0 {
		return 0
	}
	return r / float64(d)
}

// MaxDiff returns the maximum absolute element difference between two rank
// vectors — the cross-validation metric.
func MaxDiff(a, b []float64) float64 {
	max := 0.0
	for i := range a {
		d := math.Abs(a[i] - b[i])
		if d > max {
			max = d
		}
	}
	return max
}

// Sum returns the total rank mass. It is 1 only when every vertex has an
// out-edge. By specification, a vertex with none (isolated when
// undirected, dangling when directed) sends nothing and its rank is not
// redistributed: an isolated vertex keeps only its teleport share, and a
// dangling one keeps that plus what it receives. Each iteration's mass is
// therefore S' = (1−f) + f·(S − rank held by vertices without
// out-edges), from S = 1 — every kernel, sequential or parallel, in
// either direction, follows this recurrence.
func Sum(a []float64) float64 {
	s := 0.0
	for _, v := range a {
		s += v
	}
	return s
}
