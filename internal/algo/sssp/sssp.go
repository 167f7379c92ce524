// Package sssp implements Δ-Stepping single-source shortest paths (paper
// §3.4 and Algorithm 4, after Meyer & Sanders [42]) as one kernel whose
// rounds push or pull.
//
// Vertices are grouped into buckets of width Δ by tentative distance and
// buckets are processed in order; within an epoch the current bucket is
// relaxed repeatedly until it stops changing. In a push round a bucket
// vertex relaxes its out-edges — concurrent distance lowering on shared
// vertices, an atomic min (CAS loop) per improvement. In a pull round a
// vertex relaxes itself privately against its neighbors in the bucket —
// no write conflicts. §4.4 prices pulling at O((L/Δ)·m·l_Δ) reads because
// its pull rescans every unsettled vertex in every inner iteration; here
// a pull round first scatters the vertices that can still lower anything
// (the bucket's members, then whatever the previous round lowered into
// it) into a bitmap of destination rows, and reads only those rows, so the
// l_Δ rescans of an epoch shrink to the rows its frontier touches
// (rounds). After an epoch's first round those rows are read for their
// light arcs (w < Δ) only, and one sweep per epoch relaxes the heavy ones
// (Meyer & Sanders' split), so the §4.4 price becomes the light rows the
// frontier touches plus one heavy sweep. Forced push and forced pull are
// modes of the kernel, beside the per-round switching of §7.2 (Mode).
//
// The light view is a property of the graph and Δ, not of a run: at the
// heuristic Δ the light view is the workload's. A View holds that Δ and
// builds the light view once, at the first run that reads it, for every
// run on the same graph; a run without one (an explicit Δ) builds its own.
package sssp

import (
	"container/heap"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"pushpull/internal/core"
	"pushpull/internal/frontier"
	"pushpull/internal/graph"
	"pushpull/internal/sched"
)

// Mode selects the direction policy of a run.
type Mode int

const (
	// Auto switches per round: the traversal push↔pull switching the
	// paper credits with the highest performance (§7.2, after Beamer [4]
	// and Chakaravarthy [17]).
	Auto Mode = iota
	// ForcePush pushes every round.
	ForcePush
	// ForcePull pulls every round.
	ForcePull
)

// Options configures a Δ-stepping run.
type Options struct {
	core.Options
	// Source is the source vertex.
	Source graph.V
	// Delta is the bucket width Δ; 0 picks max-weight/d̄, the standard
	// heuristic.
	Delta float64
	// Mode picks forced push, forced pull, or per-round switching.
	Mode Mode
	// View, when set, is NewView of the run's graph: a run with Delta 0
	// takes Δ and the light view from it instead of deriving its own. A
	// run with an explicit Delta ignores it.
	View *View
}

// delta is the run's Δ: the one asked for, else the view's heuristic,
// else the heuristic computed from g. It also returns the view when the
// run's Δ is the view's, so the light view may come from it.
func (o *Options) delta(g *graph.CSR) (float64, *View) {
	switch {
	case o.Delta > 0:
		return o.Delta, nil
	case o.View != nil:
		return o.View.delta, o.View
	}
	return heuristicDelta(g), nil
}

// View is the Δ-stepping state the runs on one graph share at the
// heuristic Δ: Δ itself, and the light view of that Δ, built by the first
// run that reads it. A View is safe for concurrent runs.
type View struct {
	g      *graph.CSR
	delta  float64
	once   sync.Once
	light  *graph.CSR
	builds atomic.Int32
}

// NewView computes g's heuristic Δ; the light view waits for a run.
func NewView(g *graph.CSR) *View { return &View{g: g, delta: heuristicDelta(g)} }

// Builds returns how many times the light view was built: 0 until a run
// reads it, 1 after.
func (v *View) Builds() int { return int(v.builds.Load()) }

// lightView returns the light view, building it with t workers at the
// first call; concurrent first callers wait for that one build.
func (v *View) lightView(t int) *graph.CSR {
	v.once.Do(func() {
		v.light = lightArcs(v.g, v.delta, t)
		v.builds.Add(1)
	})
	return v.light
}

// Result carries the distances and run metadata.
type Result struct {
	Dist   []float64
	Epochs int              // non-empty buckets processed
	Inner  int              // total inner (relaxation) iterations across epochs
	Dirs   []core.Direction // the direction of every inner iteration
	Stats  core.RunStats
	// OverBudget is set when the run stopped because a distance fell in a
	// bucket at or past bucketBudget: Δ is too small for the distances,
	// and Dist is partial.
	OverBudget bool
	// PullArcs is how many arcs the run's pull relaxations read: the
	// length of every row they relaxed, a light row counting its light
	// arcs only.
	PullArcs int64
}

// bucketBudget is how many buckets a run may index: n + M. A bucket index
// is ⌊d/Δ⌋, and every tentative distance is the length of a simple path,
// at most (n−1)·maxW. At the heuristic Δ = maxW/AvgDegree, and AvgDegree
// = M/2n, so every index stays below (n−1)·M/2n < M/2; when AvgDegree < 1
// the heuristic is maxW and every index stays below n. So every Δ of at
// least half the heuristic stays under the budget. A smaller Δ could grow
// the bucket list out to ⌊d/Δ⌋, or overflow int in the conversion, so each
// site compares d/Δ in float against the budget before converting, and the
// run stops with OverBudget instead.
func bucketBudget(g *graph.CSR) float64 { return float64(g.N()) + float64(g.M()) }

// heuristicDelta is the standard Δ, max-weight/d̄: one pass over the
// weights.
func heuristicDelta(g *graph.CSR) float64 {
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

// Run is Δ-stepping with each round relaxed by pushing or by pulling, as
// opt.Mode says. Auto pushes while that is the cheaper side of the
// direction-optimizing trade-off of §4.4, and pulls once the edges a pull
// round would read are few enough against the edges the bucket would push
// along. Push rounds lower distances with atomic minima. Pull rounds read
// them with plain atomic loads and store only the rows their worker owns —
// memory fences only, not the read-modify-write atomics pushing needs — so
// cross-partition reads of a neighbor's in-flight distance are well-defined
// while one worker per round is the sole writer of a vertex, the pull
// invariant of §3.8. A pull round after an epoch's first reads only light
// arcs, and one pull sweep per epoch relaxes the heavy arcs, so what pull
// pays for §4.4's rescans is light rows plus one heavy sweep. Every mode
// returns Dijkstra's distances in the same epochs.
func Run(g *graph.CSR, opt Options) *Result {
	n := g.N()
	res := &Result{Dist: make([]float64, n)}
	if opt.Mode == ForcePull {
		res.Stats.Direction = core.Pull
	}
	if n == 0 {
		return res
	}
	res.Stats.Reserve(64)
	res.Dirs = make([]core.Direction, 0, 64)
	delta, shared := opt.delta(g)
	r := newRounds(g, opt.Source, delta, sched.Clamp(opt.Threads, n))
	r.shared = shared
	h := frontier.DefaultSwitch()
	for b := 0; b < len(r.buckets) && !res.Stats.Canceled && !r.overBudget; b++ {
		if !r.take(b) {
			continue
		}
		res.Epochs++
		for len(r.cur) > 0 && !r.overBudget {
			if opt.Canceled() {
				res.Stats.Canceled = true
				break
			}
			start := time.Now()
			res.Inner++
			pull := opt.Mode == ForcePull
			if pull {
				r.markRows(r.activate())
			} else if opt.Mode == Auto && int64(len(r.cur))*h.Beta >= int64(n) {
				// Direction decision, on what each side would touch: a push
				// round relaxes the bucket's out-edges with an atomic minimum
				// each; a pull round reads the in-edges of the unsettled rows
				// those out-edges lead to (every row's, at most all m, when
				// the bucket is large enough to skip marking them), without
				// atomics. Below n/β vertices the bucket is pushed unasked: a
				// pull round's fixed cost — n/64 words per phase and worker,
				// two more fork-joins — is already more than pushing it.
				// rowEdges counts whole rows even where the round will read
				// only their light arcs: the inputs are deliberately those
				// of the whole-row rounds, so the direction traces stay the
				// same.
				activeEdges := r.activate()
				rowEdges := g.M()
				if dense := r.markRows(activeEdges); !dense {
					rowEdges = r.rowEdges()
				}
				pull = h.UsePull(activeEdges, rowEdges, len(r.cur), n)
			}
			if pull {
				res.Dirs = append(res.Dirs, core.Pull)
				r.pullRound()
			} else {
				res.Dirs = append(res.Dirs, core.Push)
				r.pushRound()
			}
			if len(r.cur) == 0 && r.memberEdges > 0 && !r.overBudget {
				// The bucket emptied and its light pull rounds owe the
				// heavy arcs' sweep, timed with this round. A canceled run
				// stops without it: its distances stay upper bounds.
				if opt.Canceled() {
					res.Stats.Canceled = true
				} else {
					r.sweep()
				}
			}
			el := time.Since(start)
			res.Stats.Record(el)
			opt.Tick(res.Inner-1, el)
		}
	}
	res.OverBudget = r.overBudget
	for _, a := range r.pullArcs {
		res.PullArcs += a
	}
	r.distances(res.Dist)
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
