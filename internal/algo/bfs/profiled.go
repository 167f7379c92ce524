package bfs

import (
	"time"

	"pushpull/internal/core"
	"pushpull/internal/frontier"
	"pushpull/internal/graph"
	"pushpull/internal/memsim"
	"pushpull/internal/sched"
)

// Code regions for instruction-TLB modeling.
const (
	regionPushTopDown = iota
	regionPushFilter
	regionPullBottomUp
)

// TraverseFromProfiled runs a deterministic, instrumented BFS from root,
// reporting every access at the R/W-marked points of Algorithm 3 to the
// per-thread probes. Pushing charges one atomic per frontier edge touching
// an unready vertex (the parent-claim CAS) plus one per ready-counter
// decrement (the k-filter of §4.3); pulling charges only reads plus plain
// owner-side writes. Auto mode applies the direction-optimizing heuristic
// of Beamer et al. deterministically, so the per-round trace matches the
// plain Auto run's.
//
// The returned tree's levels equal the fast variants' output; parents may
// differ from a parallel push run (there the first CAS wins a race, here
// the deterministic scan order wins).
func TraverseFromProfiled(g *graph.CSR, root graph.V, mode Mode, opt core.Options, prof core.Profile, space *memsim.AddressSpace) (*Tree, []core.Direction, core.RunStats, error) {
	var stats core.RunStats
	if err := prof.Validate(); err != nil {
		return nil, nil, stats, err
	}
	n := g.N()
	tree := &Tree{Parent: make([]graph.V, n), Level: make([]int32, n)}
	if n == 0 {
		return tree, nil, stats, nil
	}
	if space == nil {
		space = &memsim.AddressSpace{}
	}
	offA := space.NewArray(n+1, 8)
	adjA := space.NewArray(int(g.M()), 4)
	parentA := space.NewArray(n, 4)
	levelA := space.NewArray(n, 4)
	readyA := space.NewArray(n, 4)
	// The frontier bitmap of the bottom-up scan is packed: 64 vertices per
	// uint64 word, so a membership probe is an 8-byte read at word v>>6 —
	// an 8× smaller footprint than a byte-per-vertex dense frontier.
	inFA := space.NewArray((n+63)/64, 8)

	parent := make([]int32, n)
	level := make([]int32, n)
	ready := make([]int32, n)
	for i := range parent {
		parent[i] = -1
		level[i] = -1
		ready[i] = 1
	}
	parent[root] = int32(root)
	level[root] = 0
	ready[root] = 0

	cur := []graph.V{root}
	inF := frontier.NewBitmap(n)
	unexplored := g.M()
	edgeWork := func(f []graph.V) int64 {
		var w int64
		for _, v := range f {
			w += g.Degree(v)
		}
		return w
	}

	var dirs []core.Direction
	for len(cur) > 0 {
		start := time.Now()
		work := edgeWork(cur)
		usePull := false
		switch mode {
		case ForcePull:
			usePull = true
		case ForcePush:
			usePull = false
		default:
			usePull = frontier.UsePull(work, unexplored, len(cur), n)
		}
		unexplored -= work

		var next []graph.V
		if usePull {
			dirs = append(dirs, core.Pull)
			inF.Clear()
			for _, v := range cur {
				inF.SetSeq(v)
			}
			for w := 0; w < prof.Threads; w++ {
				p := prof.Probes[w]
				p.Exec(regionPullBottomUp)
				lo, hi := sched.BlockRange(n, prof.Threads, w)
				for vi := lo; vi < hi; vi++ {
					v := graph.V(vi)
					p.Read(readyA.Addr(int64(vi)), 4)
					p.Branch(ready[v] <= 0)
					if ready[v] <= 0 {
						continue
					}
					p.Read(offA.Addr(int64(vi)), 8)
					offs := g.Offsets[v]
					for j, u := range g.Neighbors(v) {
						p.Branch(true)
						p.Read(adjA.Addr(offs+int64(j)), 4)
						p.Read(inFA.Addr(int64(u>>6)), 8) // packed membership probe
						if !inF.Get(u) {
							continue
						}
						// ⇐ combine into owned state: plain writes only.
						if parent[v] == -1 {
							parent[v] = int32(u)
							level[v] = level[u] + 1
							p.Write(parentA.Addr(int64(vi)), 4)
							p.Write(levelA.Addr(int64(vi)), 4)
						}
						p.Write(readyA.Addr(int64(vi)), 4)
						ready[v]--
						if ready[v] == 0 {
							next = append(next, v)
							break // early-out, matching TraverseFrom's pull
						}
					}
				}
			}
		} else {
			dirs = append(dirs, core.Push)
			// Sub-step 1: ⇐ combine along frontier edges with ready > 0.
			for w := 0; w < prof.Threads; w++ {
				p := prof.Probes[w]
				p.Exec(regionPushTopDown)
				lo, hi := sched.BlockRange(len(cur), prof.Threads, w)
				for i := lo; i < hi; i++ {
					v := cur[i]
					p.Read(offA.Addr(int64(v)), 8)
					offs := g.Offsets[v]
					for j, u := range g.Neighbors(v) {
						p.Branch(true)
						p.Read(adjA.Addr(offs+int64(j)), 4)
						p.Read(readyA.Addr(int64(u)), 4) // R: ready[w] > 0?
						if ready[u] <= 0 {
							continue
						}
						p.Atomic(parentA.Addr(int64(u)), 4) // CAS parent claim
						p.Jump()
						if parent[u] == -1 {
							parent[u] = int32(v)
							level[u] = level[v] + 1
							p.Write(levelA.Addr(int64(u)), 4)
						}
					}
				}
			}
			// Sub-step 2: decrement ready counters; the decrement reaching
			// zero enqueues the vertex (the k-filter).
			for w := 0; w < prof.Threads; w++ {
				p := prof.Probes[w]
				p.Exec(regionPushFilter)
				lo, hi := sched.BlockRange(len(cur), prof.Threads, w)
				for i := lo; i < hi; i++ {
					v := cur[i]
					offs := g.Offsets[v]
					for j, u := range g.Neighbors(v) {
						p.Branch(true)
						p.Read(adjA.Addr(offs+int64(j)), 4)
						p.Atomic(readyA.Addr(int64(u)), 4) // FAA decrement
						ready[u]--
						if ready[u] == 0 {
							next = append(next, u)
						}
					}
				}
			}
		}
		cur = next
		el := time.Since(start)
		stats.Record(el)
		opt.Tick(stats.Iterations-1, el)
	}

	for i := 0; i < n; i++ {
		tree.Parent[i] = graph.V(parent[i])
		tree.Level[i] = level[i]
	}
	return tree, dirs, stats, nil
}
