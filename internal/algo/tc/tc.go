// Package tc implements push- and pull-based triangle counting (paper §3.2
// and Algorithm 2, the parallel NodeIterator scheme of Schank [49]).
//
// Thread t[v] enumerates ordered neighbor pairs (w1, w2) of v and tests
// adj(w1, w2). On a hit, the push variant increments tc[w1] — a write into
// another thread's vertex, resolved with a fetch-and-add — while the pull
// variant increments tc[v], which t[v] owns, with a plain add. Final counts
// are halved (each triangle is seen twice per member vertex). The fast
// variants intersect sorted adjacency lists (same hit set as the literal
// pair loop, without the binary-search factor); the profiled variants
// follow Algorithm 2's loops literally so the counter stream matches the
// paper's accounting.
package tc

import (
	"sync/atomic"
	"time"

	"pushpull/internal/core"
	"pushpull/internal/graph"
	"pushpull/internal/sched"
)

// Options configures a triangle-counting run.
type Options struct {
	core.Options
}

// Sequential counts triangles per vertex with a single thread (reference).
func Sequential(g *graph.CSR) []int64 {
	tc := make([]int64, g.N())
	for v := graph.V(0); v < g.NumV; v++ {
		adj := g.Neighbors(v)
		for _, w1 := range adj {
			tc[v] += int64(intersectCount(adj, g.Neighbors(w1)))
		}
	}
	for i := range tc {
		tc[i] /= 2
	}
	return tc
}

// intersectCount returns |a ∩ b| for sorted slices.
func intersectCount(a, b []graph.V) int {
	i, j, c := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			c++
			i++
			j++
		}
	}
	return c
}

// Push counts triangles with the push variant: the hits (v, w1, ·) of one
// pair are combined at the sender into a single fetch-and-add on tc[w1].
// Algorithm 2 issues one per hit, the O(m·d̂) atomics of §4.2, and
// PushProfiled bills it that way; counts are integers, so the sum is the
// same at every thread count and schedule.
func Push(g *graph.CSR, opt Options) ([]int64, core.RunStats) {
	n := g.N()
	stats := core.RunStats{Direction: core.Push}
	tc := make([]int64, n)
	if n == 0 {
		return tc, stats
	}
	start := time.Now()
	t := sched.Clamp(opt.Threads, n)
	// Dynamic schedule: power-law degree skew makes static blocks lopsided.
	var skipped atomic.Bool
	sched.ParallelFor(n, t, sched.Dynamic, 64, func(w, lo, hi int) {
		if opt.Canceled() {
			skipped.Store(true) // skip remaining chunks; counts stay partial
			return
		}
		for vi := lo; vi < hi; vi++ {
			v := graph.V(vi)
			adj := g.Neighbors(v)
			for _, w1 := range adj {
				if hits := intersectCount(adj, g.Neighbors(w1)); hits > 0 {
					atomic.AddInt64(&tc[w1], int64(hits))
				}
			}
		}
	})
	stats.Canceled = skipped.Load()
	stats.Record(time.Since(start))
	finalize(tc, t)
	return tc, stats
}

// Pull counts triangles with the pull variant: hits accumulate into tc[v],
// owned by the executing thread — no atomics at all (§4.9).
func Pull(g *graph.CSR, opt Options) ([]int64, core.RunStats) {
	n := g.N()
	stats := core.RunStats{Direction: core.Pull}
	tc := make([]int64, n)
	if n == 0 {
		return tc, stats
	}
	start := time.Now()
	t := sched.Clamp(opt.Threads, n)
	var skipped atomic.Bool
	sched.ParallelFor(n, t, sched.Dynamic, 64, func(w, lo, hi int) {
		if opt.Canceled() {
			skipped.Store(true) // skip remaining chunks; counts stay partial
			return
		}
		for vi := lo; vi < hi; vi++ {
			v := graph.V(vi)
			adj := g.Neighbors(v)
			local := int64(0)
			for _, w1 := range adj {
				local += int64(intersectCount(adj, g.Neighbors(w1)))
			}
			tc[v] = local // only t[v] writes tc[v]
		}
	})
	stats.Canceled = skipped.Load()
	stats.Record(time.Since(start))
	finalize(tc, t)
	return tc, stats
}

// finalize halves all counts in parallel (Algorithm 2, line 9).
func finalize(tc []int64, t int) {
	sched.ParallelFor(len(tc), t, sched.Static, 0, func(w, lo, hi int) {
		for i := lo; i < hi; i++ {
			tc[i] /= 2
		}
	})
}

// Total returns the number of distinct triangles: Σ tc(v) / 3.
func Total(tc []int64) int64 {
	var s int64
	for _, c := range tc {
		s += c
	}
	return s / 3
}

// Equal reports whether two count vectors match exactly.
func Equal(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
