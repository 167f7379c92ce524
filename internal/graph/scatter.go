package graph

import (
	"runtime"
	"sort"

	"pushpull/internal/sched"
)

// scatter is the counting sort under every CSR build here: it lays the
// arcs of a run of items (the rows of a CSR, the edges of a list) out
// row by row, and returns the n+1 row offsets. Builder.Build, Transpose,
// BuildPA, SortByDegree's two passes and PullByDegree lay their arrays out
// with it, and so does any new view that moves arcs between rows.
//
// Worker w owns the contiguous items [bounds[w], bounds[w+1]). It counts
// its items' arcs into a private array, count(lo, hi, cnt) adding one to
// cnt[r] per arc of row r and returning false to stop. One pass over
// (row, worker) then turns every count into that worker's first slot in
// the row, after the lower workers' slots, and the worker places its
// items with place(lo, hi, cur), writing each arc of row r at cur[r] and
// advancing it. No slot is written by two workers, so nothing is atomic
// (the source paper's pull rule, §4), and an item's arcs land after
// every earlier item's in their row: the layout is the sequential one,
// bit for bit, at any worker count.
//
// ok is false when a count returned false: then nothing was placed.
//
// Beside the offsets, t workers hold t·n·8 bytes of cursors; the
// sequential build held n·8, what one worker holds. scatterWorkers keeps
// t·n within the arcs' count. One worker runs on the calling goroutine.
func scatter(n int, bounds []int, count func(lo, hi int, cnt []int64) bool, place func(lo, hi int, cur []int64)) (offsets []int64, ok bool) {
	t := len(bounds) - 1
	offsets = make([]int64, n+1)
	curs := make([][]int64, t)
	fine := make([]bool, t)
	sched.ParallelFor(t, t, sched.Static, 1, func(w, _, _ int) {
		curs[w] = make([]int64, n)
		fine[w] = count(bounds[w], bounds[w+1], curs[w])
	})
	for _, f := range fine {
		if !f {
			return nil, false
		}
	}
	var at int64
	for r := 0; r < n; r++ {
		offsets[r] = at
		for _, cur := range curs {
			cur[r], at = at, at+cur[r]
		}
	}
	offsets[n] = at
	sched.ParallelFor(t, t, sched.Static, 1, func(w, _, _ int) {
		place(bounds[w], bounds[w+1], curs[w])
	})
	return offsets, true
}

// scatterGrain is the fewest arcs worth a scatter worker of their own.
const scatterGrain = 1 << 14

// scatterWorkers is how many workers scatter arcs into n rows:
// GOMAXPROCS, as the edge-list reader uses, but no more than one per
// scatterGrain arcs, and no more than arcs/(n+1), so that the workers'
// cursors never outnumber the arcs. A few arcs under a header of a huge
// n get one worker, and the sequential build's bill.
func scatterWorkers(n, arcs int) int {
	return max(1, min(runtime.GOMAXPROCS(0), arcs/scatterGrain, arcs/(n+1)))
}

// workersFor is how many workers scatter g's arcs into the given number
// of rows: scatterWorkers' count when g passes Check, else one, so that a
// fault a malformed graph trips panics on the calling goroutine, where the
// caller can recover, and not in a worker.
func (g *CSR) workersFor(rows int) int {
	if g.Checked() || g.check() == nil {
		return scatterWorkers(rows, int(g.M()))
	}
	return 1
}

// evenBounds splits items into t contiguous ranges of near-equal size.
func evenBounds(items, t int) []int {
	bounds := make([]int, t+1)
	for w := range bounds {
		bounds[w] = w * items / t
	}
	return bounds
}

// rowBounds splits g's rows into t contiguous ranges holding near-equal
// numbers of arcs.
func rowBounds(g *CSR, t int) []int {
	n, m := g.N(), g.M()
	bounds := make([]int, t+1)
	for w := 1; w < t; w++ {
		goal := int64(w) * m / int64(t)
		bounds[w] = sort.Search(n, func(v int) bool { return g.Offsets[v] >= goal })
	}
	bounds[t] = n
	return bounds
}
