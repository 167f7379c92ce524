// Package bc implements push- and pull-based Brandes betweenness
// centrality (paper §3.5 and Algorithm 5), reusing the generalized BFS
// engine of internal/algo/bfs for both phases exactly as the paper
// constructs them:
//
//   - Phase 1 traverses from each source with the ⇐pred operator, counting
//     shortest-path multiplicities σ. Pushing needs an integer
//     fetch-and-add per conflicting update; pulling accumulates privately.
//   - Phase 2 walks the shortest-path DAG G′ backwards from its leaves
//     with the ⇐part operator, accumulating dependencies δ. Ready counters
//     hold each vertex's successor count so it activates only after all
//     successors contributed. Pushing now conflicts on *floats* — the case
//     the paper singles out (§4.5): atomics do not apply, so each update
//     costs a lock (we use the equivalent CAS retry loop).
//
// The per-phase wall times reported by Run are the series of Figure 5
// (first BFS, second BFS, total).
package bc

import (
	"math"
	"sync/atomic"
	"time"

	"pushpull/internal/algo/bfs"
	"pushpull/internal/atomicx"
	"pushpull/internal/core"
	"pushpull/internal/graph"
)

// Options configures a BC run.
type Options struct {
	core.Options
	// Sources lists the source vertices; nil means all vertices (exact BC).
	Sources []graph.V
	// Mode forces push or pull for both phases.
	Mode bfs.Mode
}

// Result carries centrality scores and per-phase timings.
type Result struct {
	BC     []float64
	Phase1 time.Duration // forward traversals (multiplicity counting)
	Phase2 time.Duration // backward accumulation
	Stats  core.RunStats
}

// phase1Ops implements ⇐pred: σ(w) ⇐ σ(w) + σ(v), plus level recording.
type phase1Ops struct {
	sigma []int64
	level []int32
}

func (o *phase1Ops) PushCombine(w, v graph.V) {
	atomic.AddInt64(&o.sigma[w], atomic.LoadInt64(&o.sigma[v])) // FAA on ints (§4.5)
	// All combining parents share one level; the first CAS wins.
	atomic.CompareAndSwapInt32(&o.level[w], -1, atomic.LoadInt32(&o.level[v])+1)
}

func (o *phase1Ops) PullCombine(v, w graph.V) {
	o.sigma[v] += o.sigma[w] //pushpull:allow atomicmix pull rounds write v from its owner only; atomics are the push rounds' (§4.5 phase separation)
	if o.level[v] == -1 {    //pushpull:allow atomicmix pull rounds write v from its owner only; atomics are the push rounds' (§4.5 phase separation)
		o.level[v] = o.level[w] + 1 //pushpull:allow atomicmix pull rounds write v from its owner only; atomics are the push rounds' (§4.5 phase separation)
	}
}

// phase2Ops implements ⇐part: δ(v) ⇐ δ(v) + σ(v)/σ(w)·(1+δ(w)).
type phase2Ops struct {
	sigma []int64
	delta []uint64 // float64 bits
}

func (o *phase2Ops) contribution(v, w graph.V) float64 {
	return float64(o.sigma[v]) / float64(o.sigma[w]) * (1 + atomicx.LoadFloat64(&o.delta[w]))
}

func (o *phase2Ops) PushCombine(v, w graph.V) {
	// w (frontier) pushes into its predecessor v: conflicting float adds,
	// the lock-requiring case of §4.5.
	atomicx.AddFloat64(&o.delta[v], o.contribution(v, w))
}

func (o *phase2Ops) PullCombine(v, w graph.V) {
	// v pulls from its successor w: v is owned by the caller, plain write.
	atomicx.StoreFloat64(&o.delta[v], atomicx.LoadFloat64(&o.delta[v])+o.contribution(v, w))
}

// Run computes betweenness centrality over the given sources.
func Run(g *graph.CSR, opt Options) *Result {
	n := g.N()
	res := &Result{BC: make([]float64, n)}
	if n == 0 {
		return res
	}
	sources := opt.Sources
	if sources == nil {
		sources = make([]graph.V, n)
		for i := range sources {
			sources[i] = graph.V(i)
		}
	}
	if opt.Mode == bfs.Auto {
		// BC phases are direction-forced experiments in the paper; Auto
		// defaults to push for a defined baseline.
		opt.Mode = bfs.ForcePush
	}

	sigma := make([]int64, n)
	level := make([]int32, n)
	delta := make([]uint64, n)
	ready := make([]int32, n)

	for _, s := range sources {
		if opt.Canceled() {
			res.Stats.Canceled = true
			break
		}
		// ----- Phase 1: forward BFS with ⇐pred -----
		t0 := time.Now()
		for i := 0; i < n; i++ {
			sigma[i] = 0
			level[i] = -1
			ready[i] = 1
		}
		sigma[s] = 1
		level[s] = 0
		ready[s] = 0
		ops1 := &phase1Ops{sigma: sigma, level: level}
		cfg1 := &bfs.Config{Options: opt.Options, Ready: ready, Mode: opt.Mode}
		bfs.Run(g, cfg1, ops1)
		res.Phase1 += time.Since(t0)

		// ----- Phase 2: backward accumulation with ⇐part over G′ -----
		t1 := time.Now()
		isSucc := func(w, v graph.V) bool {
			// Edge w→v in G′: v is a predecessor of w in the BFS DAG.
			return level[v] >= 0 && level[w] == level[v]+1
		}
		for i := 0; i < n; i++ {
			delta[i] = 0
			if level[i] < 0 {
				ready[i] = math.MaxInt32 / 2 // unreached: never activates
				continue
			}
			succs := int32(0)
			for _, u := range g.Neighbors(graph.V(i)) {
				if isSucc(u, graph.V(i)) {
					succs++
				}
			}
			ready[i] = succs // leaves (0 successors) seed the frontier
		}
		ops2 := &phase2Ops{sigma: sigma, delta: delta}
		cfg2 := &bfs.Config{Options: opt.Options, Ready: ready, Mode: opt.Mode,
			Filter: func(from, to graph.V) bool { return isSucc(from, to) }}
		bfs.Run(g, cfg2, ops2)
		res.Phase2 += time.Since(t1)

		for v := 0; v < n; v++ {
			if graph.V(v) != s && level[v] >= 0 {
				res.BC[v] += atomicx.LoadFloat64(&delta[v])
			}
		}
	}
	res.Stats.Record(res.Phase1 + res.Phase2)
	return res
}

// Sequential computes reference BC scores with the textbook Brandes
// algorithm (stack + predecessor lists).
func Sequential(g *graph.CSR, sources []graph.V) []float64 {
	n := g.N()
	bcv := make([]float64, n)
	if n == 0 {
		return bcv
	}
	if sources == nil {
		sources = make([]graph.V, n)
		for i := range sources {
			sources[i] = graph.V(i)
		}
	}
	sigma := make([]float64, n)
	dist := make([]int32, n)
	delta := make([]float64, n)
	preds := make([][]graph.V, n)
	stack := make([]graph.V, 0, n)
	queue := make([]graph.V, 0, n)

	for _, s := range sources {
		for i := 0; i < n; i++ {
			sigma[i] = 0
			dist[i] = -1
			delta[i] = 0
			preds[i] = preds[i][:0]
		}
		sigma[s] = 1
		dist[s] = 0
		stack = stack[:0]
		queue = append(queue[:0], s)
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			stack = append(stack, v)
			for _, w := range g.Neighbors(v) {
				if dist[w] < 0 {
					dist[w] = dist[v] + 1
					queue = append(queue, w)
				}
				if dist[w] == dist[v]+1 {
					sigma[w] += sigma[v]
					preds[w] = append(preds[w], v)
				}
			}
		}
		for i := len(stack) - 1; i >= 0; i-- {
			w := stack[i]
			for _, v := range preds[w] {
				delta[v] += sigma[v] / sigma[w] * (1 + delta[w])
			}
			if w != s {
				bcv[w] += delta[w]
			}
		}
	}
	return bcv
}
