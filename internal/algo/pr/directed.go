package pr

import (
	"math"
	"time"

	"pushpull/internal/atomicx"
	"pushpull/internal/core"
	"pushpull/internal/graph"
	"pushpull/internal/sched"
)

// Directed-graph PageRank, reproducing the paper's §4.8 observation:
// "Pushing entails iterating over all outgoing edges of a subset of the
// vertices, while pulling entails iterating over all incoming edges of all
// (or most) of the vertices" — so the cost bounds depend on d̂out for
// pushing and d̂in for pulling instead of d̂.
//
// The input is a directed CSR (out-edges); pulling needs the transpose
// (in-edges), which DirectedGraph precomputes once so repeated runs do not
// pay for it.

// DirectedGraph bundles a directed graph with its transpose, the pair of
// views the two update directions iterate.
type DirectedGraph struct {
	Out *graph.CSR // row v = out-neighbors of v
	In  *graph.CSR // row v = in-neighbors of v (the transpose)
}

// NewDirected builds the two views from a directed CSR.
func NewDirected(out *graph.CSR) *DirectedGraph {
	return &DirectedGraph{Out: out, In: out.Transpose()}
}

// SequentialDirected computes reference directed ranks: rank flows along
// edge direction, distributed over each vertex's out-degree.
func SequentialDirected(dg *DirectedGraph, opt Options) []float64 {
	opt.defaults()
	n := dg.Out.N()
	pr := make([]float64, n)
	next := make([]float64, n)
	if n == 0 {
		return pr
	}
	for i := range pr {
		pr[i] = 1 / float64(n)
	}
	base := (1 - opt.Damping) / float64(n)
	for l := 0; l < opt.Iterations; l++ {
		for i := range next {
			next[i] = base
		}
		for v := graph.V(0); v < dg.Out.NumV; v++ {
			d := dg.Out.Degree(v)
			if d == 0 {
				continue
			}
			c := opt.Damping * pr[v] / float64(d)
			for _, u := range dg.Out.Neighbors(v) {
				next[u] += c
			}
		}
		pr, next = next, pr
	}
	return pr
}

// PushDirected scatters rank along out-edges with atomic adds: the §4.8
// push direction, whose per-vertex cost is bounded by d̂out.
func PushDirected(dg *DirectedGraph, opt Options) ([]float64, core.RunStats) {
	opt.defaults()
	n := dg.Out.N()
	stats := core.RunStats{Direction: core.Push}
	pr := make([]float64, n)
	if n == 0 {
		return pr, stats
	}
	stats.Reserve(opt.Iterations)
	t := sched.Clamp(opt.Threads, n)
	for i := range pr {
		pr[i] = 1 / float64(n)
	}
	nextBits := make([]uint64, n)
	base := (1 - opt.Damping) / float64(n)
	baseBits := math.Float64bits(base)
	// Phase bodies hoisted out of the round loop: the steady state must
	// not allocate, and a literal in the loop allocates its captures.
	clearNext := func(w, lo, hi int) {
		for i := lo; i < hi; i++ {
			nextBits[i] = baseBits
		}
	}
	scatter := func(w, lo, hi int) {
		for vi := lo; vi < hi; vi++ {
			v := graph.V(vi)
			d := dg.Out.Degree(v)
			if d == 0 {
				continue
			}
			c := opt.Damping * pr[v] / float64(d)
			for _, u := range dg.Out.Neighbors(v) {
				atomicx.AddFloat64(&nextBits[u], c)
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
		sched.ParallelFor(n, t, opt.Schedule, 0, clearNext)
		sched.ParallelFor(n, t, opt.Schedule, 0, scatter)
		sched.ParallelFor(n, t, opt.Schedule, 0, commit)
		el := time.Since(start)
		stats.Record(el)
		opt.Tick(l, el)
	}
	return pr, stats
}

// PullDirected gathers rank along in-edges with no synchronization: the
// §4.8 pull direction, whose per-vertex cost is bounded by d̂in. A
// contribution scales by the *out*-degree of the in-neighbor (§7.3); the
// scale pass reads it once per vertex, not once per arc.
func PullDirected(dg *DirectedGraph, opt Options) ([]float64, core.RunStats) {
	opt.defaults()
	n := dg.Out.N()
	stats := core.RunStats{Direction: core.Pull}
	pr := make([]float64, n)
	if n == 0 {
		return pr, stats
	}
	stats.Reserve(opt.Iterations)
	t := sched.Clamp(opt.Threads, n)
	for i := range pr {
		pr[i] = 1 / float64(n)
	}
	next := make([]float64, n)
	contrib := make([]float64, n)
	base := (1 - opt.Damping) / float64(n)
	// Hoisted phase bodies; pr and next are captured by reference, so the
	// per-round swap stays visible.
	scale := func(w, lo, hi int) {
		for vi := lo; vi < hi; vi++ {
			contrib[vi] = contribution(pr[vi], dg.Out.Degree(graph.V(vi)))
		}
	}
	gather := func(w, lo, hi int) {
		for vi := lo; vi < hi; vi++ {
			sum := 0.0
			for _, u := range dg.In.Neighbors(graph.V(vi)) {
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
