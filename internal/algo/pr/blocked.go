package pr

import (
	"time"

	"pushpull/internal/core"
	"pushpull/internal/graph"
	"pushpull/internal/sched"
)

// Block-sequential pull PageRank over an out-of-core BlockCSR, after
// HybridGraph's BPull: workers walk destination blocks in storage order,
// so the edge traffic the in-memory kernel pays as random DRAM reads
// becomes sequential segment reads the OS can prefetch — page faults
// arrive in file order. Only the O(n) vertex state (ranks, degrees,
// offsets) is resident; the O(m) adjacency streams through per-worker
// cursors. Like the in-memory kernels it scales once per vertex and
// gathers one contribution per edge, rows in storage order, so the ranks
// equal Pull/PullDirected bit for bit.

// PullBlocked runs pull PageRank over a block-format graph. The gather's
// parallelism is over blocks: a static schedule hands each worker a
// contiguous block range, keeping every worker's I/O sequential within its
// span. The scale pass touches resident state only and splits by vertex.
func PullBlocked(bg *graph.BlockCSR, opt Options) ([]float64, core.RunStats, error) {
	opt.defaults()
	n := bg.N()
	stats := core.RunStats{Direction: core.Pull}
	pr := make([]float64, n)
	if n == 0 {
		return pr, stats, nil
	}
	stats.Reserve(opt.Iterations)
	numBlocks := bg.NumBlocks()
	t := sched.Clamp(opt.Threads, numBlocks)
	tv := sched.Clamp(opt.Threads, n)
	initRank := 1 / float64(n)
	for i := range pr {
		pr[i] = initRank
	}
	next := make([]float64, n)
	contrib := make([]float64, n)
	base := (1 - opt.Damping) / float64(n)
	// Per-worker cursors and error slots, hoisted with the phase bodies so
	// the steady state allocates nothing (the cursor's fallback buffer
	// grows to the largest segment once, then is reused every round).
	curs := make([]graph.BlockCursor, t)
	errs := make([]error, t)
	scale := func(w, lo, hi int) {
		for vi := lo; vi < hi; vi++ {
			contrib[vi] = contribution(pr[vi], bg.ContribDegree(graph.V(vi)))
		}
	}
	gather := func(w, lo, hi int) {
		cur := &curs[w]
		for bi := lo; bi < hi; bi++ {
			if errs[w] != nil {
				return
			}
			if err := bg.Load(bi, cur); err != nil {
				errs[w] = err
				return
			}
			blo, bhi := bg.BlockRange(bi)
			for v := blo; v < bhi; v++ {
				// Load has checked every arc id of the block below n.
				next[v] = base + opt.Damping*graph.SumAt(contrib, cur.Row(v))
			}
		}
	}
	for l := 0; l < opt.Iterations; l++ {
		if opt.Canceled() {
			stats.Canceled = true
			break
		}
		start := time.Now()
		sched.ParallelFor(n, tv, sched.Static, 0, scale)
		sched.ParallelFor(numBlocks, t, sched.Static, 0, gather)
		for _, err := range errs {
			if err != nil {
				return nil, stats, err
			}
		}
		pr, next = next, pr
		el := time.Since(start)
		stats.Record(el)
		opt.Tick(l, el)
	}
	return pr, stats, nil
}
