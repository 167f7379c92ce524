// Package bfs implements the paper's generalized breadth-first search
// (Algorithm 3): vertices carry *ready counters* and enter the frontier
// once the counter reaches zero, and a caller-supplied accumulation
// operator ⇐ merges values along traversed edges. Standard BFS is the
// special case ready ≡ 1 with a "claim parent" operator; both phases of
// Brandes betweenness centrality reuse the same engine with the ⇐pred and
// ⇐part operators (Algorithm 5).
//
// The push variant (top-down) lets frontier vertices update their
// neighbors — requiring O(m) atomics to resolve the write conflicts — and
// pays a k-filter (frontier merge) per round. The pull variant (bottom-up
// [4, 55]) lets every not-yet-ready vertex scan for frontier neighbors —
// no write conflicts, but O(D·m) reads in the worst case (§4.3). Auto mode
// is the direction-optimizing switch of Beamer et al. [4].
//
// The fast plain-BFS push round (Config.EarlyOut, set by TraverseFrom) is
// one claiming pass: each frontier arc loads the target's ready counter,
// and only a target still unready pays the atomic decrement; the decrement
// that reaches zero claims the vertex and sets its parent. Visited targets
// cost a load and no read-modify-write. Every round deals its loop to the
// workers in chunks from a shared cursor (rows when pulling, frontier
// vertices when pushing), so a run of hubs is shared out instead of
// landing on one worker. A round's claims become the next frontier in
// vertex-id order, not in claim or dealing order, so the next round reads
// rows in storage order, and at one thread every vertex's parent is its
// least-id frontier neighbour, the one a pull round finds first. A pull
// round's parents are that at every thread count: each row has one
// writer, which scans it in row order. The profiled twin still bills
// Algorithm 3 as the paper states it, in two sub-steps: a claim CAS per
// frontier arc into an unready target, then a counter decrement per
// frontier arc, O(m) atomics per traversal.
package bfs

import (
	"sync/atomic"
	"time"

	"pushpull/internal/core"
	"pushpull/internal/frontier"
	"pushpull/internal/graph"
	"pushpull/internal/sched"
)

// pullGrain and pushGrain are how many rows (pull) and frontier vertices
// (push) a worker takes from a round's shared cursor at a time.
const pullGrain, pushGrain = 256, 64

// Ops is the accumulation operator ⇐ of Algorithm 3.
type Ops interface {
	// PushCombine applies R[w] ⇐ R[v] where v is in the frontier. It may
	// be called concurrently for the same w by different threads, so
	// implementations must synchronize — this is exactly the conflict the
	// paper charges to pushing.
	PushCombine(w, v graph.V)
	// PullCombine applies R[v] ⇐ R[w] where w is in the frontier and the
	// executing thread owns v; no synchronization is needed.
	PullCombine(v, w graph.V)
}

// EdgeFilter restricts traversal to a sub-DAG: an edge from → to is
// traversed only if the filter returns true. A nil filter admits all edges
// (plain BFS). Betweenness centrality uses filters to walk the
// shortest-path DAG G′ (Algorithm 5, line 11).
type EdgeFilter func(from, to graph.V) bool

// Mode selects the traversal direction policy.
type Mode int

const (
	// Auto switches per round with the direction-optimizing heuristic.
	Auto Mode = iota
	// ForcePush always explores top-down.
	ForcePush
	// ForcePull always explores bottom-up.
	ForcePull
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case Auto:
		return "auto"
	case ForcePush:
		return "push"
	case ForcePull:
		return "pull"
	default:
		return "unknown"
	}
}

// Config configures one generalized-BFS run.
type Config struct {
	core.Options
	// Ready holds the per-vertex ready counters (consumed destructively).
	// Vertices whose counter is initially 0 form the first frontier.
	Ready []int32
	// Mode picks push, pull, or direction-optimizing traversal.
	Mode Mode
	// Filter optionally restricts edges (nil = all edges).
	Filter EdgeFilter
	// EarlyOut declares that the first combine decides a vertex: a pull
	// round stops scanning a vertex's neighbors once its ready counter
	// reaches zero, and a push round combines only along the arc whose
	// decrement claims the vertex, in one pass. Safe only when later
	// combines cannot change the result (plain BFS claims one parent);
	// generalized runs like betweenness centrality need every combine and
	// must leave this off.
	EarlyOut bool
}

// Run executes the generalized BFS, returning the number of rounds and
// timing stats. Per-round times are recorded in the stats; the direction
// chosen for each round is appended to the returned directions slice.
func Run(g *graph.CSR, cfg *Config, ops Ops) (rounds int, dirs []core.Direction, stats core.RunStats) {
	n := g.N()
	if n == 0 || len(cfg.Ready) != n {
		return 0, nil, stats
	}
	t := sched.Clamp(cfg.Threads, n)

	cur := frontier.NewSparse(64)
	for v := graph.V(0); v < g.NumV; v++ {
		if cfg.Ready[v] == 0 { //pushpull:allow atomicmix single-threaded seed scan before any round runs
			cur.Add(v)
		}
	}
	perThread := frontier.NewPerThread(t)
	inF := frontier.NewBitmap(n)
	claimed := frontier.NewBitmap(n) // a round's claims, read out in id order
	dirs = make([]core.Direction, 0, 64)
	stats.Reserve(64)
	unexplored := g.M()

	// Round bodies are hoisted out of the loop (capturing curVerts through
	// a variable reassigned each round): a func literal inside the loop
	// would allocate its capture record every round, and steady-state
	// rounds must not allocate.
	var curVerts []graph.V
	// Push sub-step 1: R[w] ⇐ R[v] for all frontier edges with ready[w] >
	// 0. Combines and ready-notifications run in two sub-steps (the
	// lockstep separation the PRAM formulation implies), so a
	// late-combining thread can never observe an already-notified neighbor.
	combineBody := func(w, lo, hi int) {
		for i := lo; i < hi; i++ {
			v := curVerts[i]
			for _, u := range g.Neighbors(v) {
				if cfg.Filter != nil && !cfg.Filter(v, u) {
					continue
				}
				if atomic.LoadInt32(&cfg.Ready[u]) > 0 {
					ops.PushCombine(u, v)
				}
			}
		}
	}
	// Push sub-step 2: decrement ready counters; exactly the decrement
	// that reaches zero enqueues the vertex (the k-filter of §4.3). Only
	// decrements ever touch a counter, so one already at or below zero can
	// never reach zero again: it costs a load, not a read-modify-write.
	notifyBody := func(w, lo, hi int) {
		for i := lo; i < hi; i++ {
			v := curVerts[i]
			for _, u := range g.Neighbors(v) {
				if cfg.Filter != nil && !cfg.Filter(v, u) {
					continue
				}
				if atomic.LoadInt32(&cfg.Ready[u]) > 0 && atomic.AddInt32(&cfg.Ready[u], -1) == 0 {
					perThread.Add(w, u)
				}
			}
		}
	}
	// EarlyOut push round, one pass: the decrement that reaches zero is
	// the claim, and only the claiming arc combines. No combine can land
	// after the vertex is enqueued, so the two sub-steps' separation is
	// not needed, and a visited target costs one load.
	claimBody := func(w, lo, hi int) {
		for i := lo; i < hi; i++ {
			v := curVerts[i]
			for _, u := range g.Neighbors(v) {
				if cfg.Filter != nil && !cfg.Filter(v, u) {
					continue
				}
				if atomic.LoadInt32(&cfg.Ready[u]) > 0 && atomic.AddInt32(&cfg.Ready[u], -1) == 0 {
					ops.PushCombine(u, v)
					perThread.Add(w, u)
				}
			}
		}
	}
	// Pull round: every vertex with a positive ready counter scans its
	// neighbors for frontier members; all state it modifies is its own
	// (t = t[v]), so no atomics are used anywhere. EarlyOut stops the scan
	// once the counter hits 0.
	pullBody := func(w, lo, hi int) {
		for vi := lo; vi < hi; vi++ {
			v := graph.V(vi)
			if cfg.Ready[v] <= 0 { //pushpull:allow atomicmix pull rounds: only v's owner touches v's counter; push rounds' atomics never run concurrently with this
				continue
			}
			for _, u := range g.Neighbors(v) {
				// The G′ edge direction is u → v: u pushes in the push
				// formulation, so pulling asks filter(u, v).
				if cfg.Filter != nil && !cfg.Filter(u, v) {
					continue
				}
				if !inF.Get(u) {
					continue
				}
				ops.PullCombine(v, u)
				cfg.Ready[v]--         //pushpull:allow atomicmix pull rounds: only v's owner touches v's counter
				if cfg.Ready[v] == 0 { //pushpull:allow atomicmix pull rounds: only v's owner touches v's counter
					perThread.Add(w, v)
					if cfg.EarlyOut {
						break
					}
				}
			}
		}
	}

	for cur.Len() > 0 {
		if cfg.Canceled() {
			stats.Canceled = true
			break
		}
		start := time.Now()
		usePull := false
		switch cfg.Mode {
		case ForcePull:
			usePull = true
		case ForcePush:
			usePull = false
		default:
			// EdgeWork scans the frontier, so compute it once and only
			// when the heuristic actually needs it.
			ew := cur.EdgeWork(g)
			usePull = frontier.UsePull(ew, unexplored, cur.Len(), n)
			unexplored -= ew
		}
		curVerts = cur.Vertices()

		if usePull {
			inF.Clear()
			inF.FromSparse(cur)
			sched.ParallelFor(n, t, sched.Dynamic, pullGrain, pullBody)
			dirs = append(dirs, core.Pull)
		} else if cfg.EarlyOut {
			sched.ParallelFor(len(curVerts), t, sched.Dynamic, pushGrain, claimBody)
			dirs = append(dirs, core.Push)
		} else {
			sched.ParallelFor(len(curVerts), t, sched.Dynamic, pushGrain, combineBody)
			sched.ParallelFor(len(curVerts), t, sched.Dynamic, pushGrain, notifyBody)
			dirs = append(dirs, core.Push)
		}
		perThread.Merge(cur)
		// Claims arrive in race order, and a pull round's chunks in
		// dealing order; the next round reads the rows in storage order.
		cur.Sort(claimed)
		rounds++
		el := time.Since(start)
		stats.Record(el)
		cfg.Tick(rounds-1, el)
	}
	return rounds, dirs, stats
}

// Tree is the result of a plain BFS traversal: a parent pointer and level
// per vertex (−1 when unreached).
type Tree struct {
	Parent []graph.V
	Level  []int32
}

// treeOps implements the standard-BFS accumulation: claim a parent once.
type treeOps struct {
	parent []int32 // atomic access; -1 = unclaimed
	level  []int32
}

func (o *treeOps) PushCombine(w, v graph.V) {
	if atomic.CompareAndSwapInt32(&o.parent[w], -1, int32(v)) {
		atomic.StoreInt32(&o.level[w], atomic.LoadInt32(&o.level[v])+1)
	}
}

func (o *treeOps) PullCombine(v, w graph.V) {
	if o.parent[v] == -1 { //pushpull:allow atomicmix pull rounds write v from its owner only; atomics are the push rounds' (§3.8 invariant)
		o.parent[v] = int32(w)      //pushpull:allow atomicmix pull rounds write v from its owner only
		o.level[v] = o.level[w] + 1 //pushpull:allow atomicmix pull rounds write v from its owner only
	}
}

// TraverseFrom runs a plain BFS from root in the given mode, returning the
// tree, the per-round direction trace, and timing stats. Plain BFS claims
// exactly one parent per vertex, so pull rounds early-out the moment the
// claim lands.
func TraverseFrom(g *graph.CSR, root graph.V, mode Mode, opt core.Options) (*Tree, []core.Direction, core.RunStats) {
	n := g.N()
	ops := &treeOps{parent: make([]int32, n), level: make([]int32, n)}
	for i := range ops.parent {
		ops.parent[i] = -1 //pushpull:allow atomicmix single-threaded init before the traversal starts
		ops.level[i] = -1  //pushpull:allow atomicmix single-threaded init before the traversal starts
	}
	ready := make([]int32, n)
	for i := range ready {
		ready[i] = 1
	}
	if n > 0 {
		ready[root] = 0
		ops.parent[root] = int32(root) //pushpull:allow atomicmix single-threaded init before the traversal starts
		ops.level[root] = 0            //pushpull:allow atomicmix single-threaded init before the traversal starts
	}
	cfg := &Config{Options: opt, Ready: ready, Mode: mode, EarlyOut: true}
	_, dirs, stats := Run(g, cfg, ops)

	tree := &Tree{Parent: make([]graph.V, n), Level: make([]int32, n)}
	for i := 0; i < n; i++ {
		tree.Parent[i] = graph.V(ops.parent[i]) //pushpull:allow atomicmix single-threaded copy-out after every worker has joined
		tree.Level[i] = ops.level[i]            //pushpull:allow atomicmix single-threaded copy-out after every worker has joined
	}
	return tree, dirs, stats
}

// Reached returns the number of visited vertices in the tree.
func (t *Tree) Reached() int {
	c := 0
	for _, l := range t.Level {
		if l >= 0 {
			c++
		}
	}
	return c
}
