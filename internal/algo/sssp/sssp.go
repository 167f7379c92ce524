// Package sssp implements push- and pull-based Δ-Stepping single-source
// shortest paths (paper §3.4 and Algorithm 4, after Meyer & Sanders [42]).
//
// Vertices are grouped into buckets of width Δ by tentative distance and
// buckets are processed in order; within an epoch the current bucket is
// relaxed repeatedly until it stops changing. In the push variant a bucket
// vertex relaxes its out-edges — concurrent distance lowering on shared
// vertices, an atomic min (CAS loop) per improvement. In the pull variant
// a vertex relaxes itself privately against its neighbors in the bucket —
// no write conflicts. §4.4 prices that at O((L/Δ)·m·l_Δ) reads because
// its pull rescans every unsettled vertex in every inner iteration; here
// an inner iteration first scatters the vertices that can still lower
// anything (the bucket's members, then whatever the previous iteration
// lowered into it) into a bitmap of destination rows, and reads only those
// rows, so the l_Δ rescans of an epoch shrink to the rows its frontier
// touches (pullRounds).
package sssp

import (
	"container/heap"
	"math"
	"time"

	"pushpull/internal/atomicx"
	"pushpull/internal/core"
	"pushpull/internal/frontier"
	"pushpull/internal/graph"
	"pushpull/internal/sched"
)

// Options configures a Δ-stepping run.
type Options struct {
	core.Options
	// Source is the source vertex.
	Source graph.V
	// Delta is the bucket width Δ; 0 picks max-weight/d̄, the standard
	// heuristic.
	Delta float64
}

// Result carries the distances and run metadata.
type Result struct {
	Dist   []float64
	Epochs int // buckets processed
	Inner  int // total inner (relaxation) iterations across epochs
	Stats  core.RunStats
}

// resolveDelta applies the Δ heuristic.
func resolveDelta(g *graph.CSR, delta float64) float64 {
	if delta > 0 {
		return delta
	}
	var maxW float32 = 1
	for _, w := range g.Weights {
		if w > maxW {
			maxW = w
		}
	}
	d := g.AvgDegree()
	if d < 1 {
		d = 1
	}
	return float64(maxW) / d
}

// Dijkstra computes reference distances with a binary heap.
func Dijkstra(g *graph.CSR, source graph.V) []float64 {
	n := g.N()
	dist := make([]float64, n)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	if n == 0 {
		return dist
	}
	dist[source] = 0
	pq := &vheap{items: []vdist{{source, 0}}}
	for pq.Len() > 0 {
		it := heap.Pop(pq).(vdist)
		if it.d > dist[it.v] {
			continue
		}
		ws := g.NeighborWeights(it.v)
		for i, u := range g.Neighbors(it.v) {
			w := 1.0
			if ws != nil {
				w = float64(ws[i])
			}
			if nd := it.d + w; nd < dist[u] {
				dist[u] = nd
				heap.Push(pq, vdist{u, nd})
			}
		}
	}
	return dist
}

type vdist struct {
	v graph.V
	d float64
}

type vheap struct{ items []vdist }

func (h *vheap) Len() int           { return len(h.items) }
func (h *vheap) Less(i, j int) bool { return h.items[i].d < h.items[j].d }
func (h *vheap) Swap(i, j int)      { h.items[i], h.items[j] = h.items[j], h.items[i] }
func (h *vheap) Push(x interface{}) { h.items = append(h.items, x.(vdist)) }
func (h *vheap) Pop() interface{} {
	old := h.items
	n := len(old)
	it := old[n-1]
	h.items = old[:n-1]
	return it
}

// Push runs push-based Δ-stepping: bucket vertices relax their edges
// outward with atomic distance minimization.
func Push(g *graph.CSR, opt Options) *Result {
	n := g.N()
	res := &Result{Dist: make([]float64, n)}
	res.Stats.Direction = core.Push
	for i := range res.Dist {
		res.Dist[i] = math.Inf(1)
	}
	if n == 0 {
		return res
	}
	delta := resolveDelta(g, opt.Delta)
	t := sched.Clamp(opt.Threads, n)

	distBits := make([]uint64, n)
	inf := math.Float64bits(math.Inf(1))
	for i := range distBits {
		distBits[i] = inf
	}
	atomicx.StoreFloat64(&distBits[opt.Source], 0)

	bucketOf := func(d float64) int { return int(d / delta) }
	buckets := [][]graph.V{{opt.Source}}
	inRound := frontier.NewBitmap(n) // dedup within one merged round
	type insert struct {
		b int
		v graph.V
	}
	perThread := make([][]insert, t)

	ensure := func(b int) {
		for len(buckets) <= b {
			buckets = append(buckets, nil)
		}
	}

	// The relax body is hoisted out of the epoch loops so the steady state
	// does not allocate a closure per round; b and cur are captured by
	// reference, so each round's reassignment stays visible.
	var b int
	var cur []graph.V
	relax := func(w, lo, hi int) {
		for i := lo; i < hi; i++ {
			v := cur[i]
			dv := atomicx.LoadFloat64(&distBits[v])
			if bucketOf(dv) != b {
				continue // stale entry: v moved to an earlier bucket
			}
			ws := g.NeighborWeights(v)
			for j, u := range g.Neighbors(v) {
				we := 1.0
				if ws != nil {
					we = float64(ws[j])
				}
				nd := dv + we
				if lowered, _ := atomicx.MinFloat64(&distBits[u], nd); lowered {
					perThread[w] = append(perThread[w], insert{bucketOf(nd), u})
				}
			}
		}
	}

	for b = 0; b < len(buckets); b++ {
		cur = buckets[b]
		buckets[b] = nil
		if len(cur) == 0 {
			continue
		}
		res.Epochs++
		for itr := 0; len(cur) > 0; itr++ {
			if opt.Canceled() {
				res.Stats.Canceled = true
				break
			}
			start := time.Now()
			res.Inner++
			sched.ParallelFor(len(cur), t, sched.Static, 0, relax)
			// Deterministic merge of the per-thread insertion buffers — the
			// k-filter step. Re-inserts into bucket b continue the epoch.
			inRound.Clear()
			cur = cur[:0:0]
			for w := 0; w < t; w++ {
				for _, in := range perThread[w] {
					// Re-derive the bucket from the final distance: a later
					// relaxation may have lowered it further.
					nb := bucketOf(atomicx.LoadFloat64(&distBits[in.v]))
					if nb < b {
						continue // already settled into an earlier bucket
					}
					if nb == b {
						if inRound.Set(in.v) {
							cur = append(cur, in.v)
						}
						continue
					}
					ensure(nb)
					buckets[nb] = append(buckets[nb], in.v)
				}
				perThread[w] = perThread[w][:0]
			}
			el := time.Since(start)
			res.Stats.Record(el)
			opt.Tick(res.Inner-1, el)
		}
		if res.Stats.Canceled {
			break
		}
	}
	for i := range res.Dist {
		res.Dist[i] = atomicx.LoadFloat64(&distBits[i])
	}
	return res
}

// MaxDiff returns the largest absolute distance difference, treating a pair
// of infinities as equal.
func MaxDiff(a, b []float64) float64 {
	max := 0.0
	for i := range a {
		if math.IsInf(a[i], 1) && math.IsInf(b[i], 1) {
			continue
		}
		if d := math.Abs(a[i] - b[i]); d > max {
			max = d
		}
	}
	return max
}
