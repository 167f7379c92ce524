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
// The fast Push is Algorithm 8 without the split: each loop chunk owns
// its slice of the next-rank vector, updates to owned targets are plain
// stores, a phase boundary follows, and only the cross-chunk updates are
// atomics — none at one thread. Ownership is tested per edge instead of
// being laid out ahead of time, so push needs no second copy of the
// adjacency. The profiled twins keep the paper's two bills apart:
// PushProfiled counts Algorithm 1's (an atomic per arc), PushPAProfiled
// counts Algorithm 8's over the §5 local/remote split (an atomic per
// remote arc, plus the split's extra offset reads).
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
// Every kernel takes the pair of adjacency views the two directions walk
// (§4.8): pushing iterates out-edges, pulling iterates in-edges, and a
// contribution always scales by the *out*-degree (§7.3). An undirected
// graph is the In == Out case of the same kernels, not a second set.
package pr

import (
	"math"
	"time"

	"pushpull/internal/atomicx"
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
type Views struct {
	Out, In *graph.CSR
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

// Push runs the push-based variant as Partition-Awareness (Algorithm 8)
// over the plain out-view: each loop chunk [lo, hi) owns next[lo:hi).
// Phase 1 resets the owned slots to the teleport term and adds every
// update whose target the chunk owns with a plain read-modify-write; after
// the phase boundary, phase 2 adds the remaining updates with atomic float
// adds. Both phases get the same chunk boundaries (the same n, threads,
// schedule and grain), so ownership holds under either schedule. At one
// thread the only chunk is [0, n): phase 2 is skipped, no atomic is
// issued, and the adds happen in Sequential's order.
func Push(vw Views, opt Options) ([]float64, core.RunStats) {
	opt.defaults()
	g := vw.Out
	n := g.N()
	stats := core.RunStats{Direction: core.Push}
	pr := make([]float64, n)
	if n == 0 {
		return pr, stats
	}
	stats.Reserve(opt.Iterations)
	t := sched.Clamp(opt.Threads, n)
	initRank := 1 / float64(n)
	for i := range pr {
		pr[i] = initRank
	}
	nextBits := make([]uint64, n)
	base := (1 - opt.Damping) / float64(n)
	baseBits := math.Float64bits(base)
	// Phase bodies are hoisted out of the round loop: a func literal in
	// the loop would allocate its capture record every iteration, and the
	// steady state must not allocate. Ownership is one unsigned compare
	// per edge, u − lo < hi − lo, which holds whatever order a row's
	// neighbors are stored in.
	local := func(w, lo, hi int) {
		for i := lo; i < hi; i++ {
			nextBits[i] = baseBits
		}
		span := uint(hi - lo)
		for vi := lo; vi < hi; vi++ {
			v := graph.V(vi)
			d := g.Degree(v)
			if d == 0 {
				continue
			}
			c := opt.Damping * pr[v] / float64(d)
			for _, u := range g.Neighbors(v) {
				if uint(int(u)-lo) < span {
					nextBits[u] = math.Float64bits(math.Float64frombits(nextBits[u]) + c)
				}
			}
		}
	}
	remote := func(w, lo, hi int) {
		span := uint(hi - lo)
		for vi := lo; vi < hi; vi++ {
			v := graph.V(vi)
			d := g.Degree(v)
			if d == 0 {
				continue
			}
			c := opt.Damping * pr[v] / float64(d)
			for _, u := range g.Neighbors(v) {
				if uint(int(u)-lo) >= span {
					atomicx.AddFloat64(&nextBits[u], c)
				}
			}
		}
	}
	commit := func(w, lo, hi int) {
		for i := lo; i < hi; i++ {
			pr[i] = math.Float64frombits(nextBits[i])
		}
	}
	for l := 0; l < opt.Iterations; l++ {
		if opt.Canceled() {
			stats.Canceled = true
			break
		}
		start := time.Now()
		sched.ParallelFor(n, t, opt.Schedule, 0, local)
		if t > 1 {
			sched.ParallelFor(n, t, opt.Schedule, 0, remote)
		}
		sched.ParallelFor(n, t, opt.Schedule, 0, commit)
		el := time.Since(start)
		stats.Record(el)
		opt.Tick(l, el)
	}
	return pr, stats
}

// Pull runs the pull-based variant: each vertex gathers f·pr[u]/d(u) along
// its in-edges with no synchronization at all (per-vertex cost bounded by
// d̂in, §4.8) — a scale pass computes every vertex's contribution once, from
// its out-degree, and the gather reads one per edge.
func Pull(vw Views, opt Options) ([]float64, core.RunStats) {
	opt.defaults()
	out, in := vw.Out, vw.In
	n := out.N()
	stats := core.RunStats{Direction: core.Pull}
	pr := make([]float64, n)
	if n == 0 {
		return pr, stats
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
		for vi := lo; vi < hi; vi++ {
			contrib[vi] = contribution(pr[vi], out.Degree(graph.V(vi)))
		}
	}
	gather := func(w, lo, hi int) {
		for vi := lo; vi < hi; vi++ {
			sum := 0.0
			for _, u := range in.Neighbors(graph.V(vi)) {
				sum += contrib[u]
			}
			next[vi] = base + opt.Damping*sum
		}
	}
	for l := 0; l < opt.Iterations; l++ {
		if opt.Canceled() {
			stats.Canceled = true
			break
		}
		start := time.Now()
		sched.ParallelFor(n, t, opt.Schedule, 0, scale)
		sched.ParallelFor(n, t, opt.Schedule, 0, gather)
		pr, next = next, pr
		el := time.Since(start)
		stats.Record(el)
		opt.Tick(l, el)
	}
	return pr, stats
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
