package gc

import (
	"time"

	"pushpull/internal/core"
	"pushpull/internal/graph"
	"pushpull/internal/memsim"
	"pushpull/internal/sched"
)

// Code regions for instruction-TLB modeling.
const (
	regionColor = iota
	regionFix
)

// ProfiledResult carries the coloring produced by an instrumented run.
type ProfiledResult struct {
	Colors     []int32
	Iterations int
}

// runProfiled executes the Boman algorithm deterministically, reporting
// accesses to the per-thread probes with the Table 1 BGC accounting: one
// lock per conflict marking in *both* directions (the paper measures equal
// lock counts), while pull issues strictly more reads because it rescans
// the full border set every iteration instead of the push-maintained dirty
// set.
func runProfiled(g *graph.CSR, part graph.Partition, opt Options, prof core.Profile, space *memsim.AddressSpace, dir core.Direction) (*ProfiledResult, error) {
	opt.defaults()
	if err := prof.Validate(); err != nil {
		return nil, err
	}
	if part.P != prof.Threads {
		part = graph.NewPartition(g.N(), prof.Threads)
	}
	n := g.N()
	if space == nil {
		space = &memsim.AddressSpace{}
	}
	offA := space.NewArray(n+1, 8)
	adjA := space.NewArray(int(g.M()), 4)
	colA := space.NewArray(n, 4)
	availA := space.NewArray(n, 8) // first word of each row, the hot part

	s := newState(g, part)
	res := &ProfiledResult{Colors: make([]int32, n)}
	if n == 0 {
		return res, nil
	}
	border := part.Border(g)
	borderByOwner := make([][]graph.V, part.P)
	for _, v := range border {
		o := part.Owner(v)
		borderByOwner[o] = append(borderByOwner[o], v)
	}
	dirty := border
	// Reused across iterations (and across the modeled "threads", which
	// run sequentially here): the taken-color scratch set and the phase-2
	// scan body, hoisted so the iteration loop itself allocates nothing
	// beyond the dirty list it maintains.
	taken := map[int32]bool{}
	var conflicts int
	var nextDirty []graph.V
	scanFor := func(w int, verts []graph.V) {
		p := prof.Probes[w]
		p.Exec(regionFix)
		for _, v := range verts {
			vlo, vhi := part.Range(part.Owner(v))
			p.Read(colA.Addr(int64(v)), 4)
			cv := s.colors[v]
			offs := g.Offsets[v]
			p.Read(offA.Addr(int64(v)), 8)
			for j, u := range g.Neighbors(v) {
				p.Branch(true)
				p.Read(adjA.Addr(offs+int64(j)), 4)
				if vlo <= u && u < vhi {
					continue
				}
				p.Read(colA.Addr(int64(u)), 4) // R: other thread's color
				if s.colors[u] != cv {
					continue
				}
				conflicts++
				if dir == core.Push {
					loser := v
					if u > v {
						loser = u
					}
					p.Lock(availA.Addr(int64(loser)))
					p.Write(availA.Addr(int64(loser)), 8) // W i
					s.avail[loser].set(cv)
					if s.needs.Set(loser) {
						nextDirty = append(nextDirty, loser)
					}
				} else if v > u {
					p.Lock(availA.Addr(int64(v)))
					p.Write(availA.Addr(int64(v)), 8)
					s.avail[v].set(cv)
					s.needs.Set(v)
				}
			}
		}
	}

	for iter := 0; iter < opt.MaxIters; iter++ {
		iterStart := time.Now()
		// Phase 1 (profiled): greedy coloring of vertices needing color.
		for w := 0; w < part.P; w++ {
			p := prof.Probes[w]
			p.Exec(regionColor)
			lo, hi := part.Range(w)
			for v := lo; v < hi; v++ {
				p.Read(colA.Addr(int64(v)), 4)
				p.Branch(!s.needs.Get(v))
				if !s.needs.Get(v) {
					continue
				}
				clear(taken)
				p.Read(offA.Addr(int64(v)), 8)
				offs := g.Offsets[v]
				for j, u := range g.Neighbors(v) {
					p.Branch(true)
					p.Read(adjA.Addr(offs+int64(j)), 4)
					p.Read(colA.Addr(int64(u)), 4)
					if lo <= u && u < hi && s.colors[u] >= 0 {
						//pushpull:allow alloc taken is a reused scratch set, cleared per vertex; it only grows to one neighborhood's palette
						taken[s.colors[u]] = true
					}
				}
				p.Read(availA.Addr(int64(v)), 8)
				s.colors[v] = smallestAllowed(s.avail[v], taken)
				p.Write(colA.Addr(int64(v)), 4)
			}
		}
		s.needs.Clear()

		// Phase 2 (profiled): conflict fixing. nextDirty must start nil,
		// not truncated: dedupe below aliases its backing array into
		// dirty, which the next round still scans.
		conflicts = 0
		nextDirty = nil
		if dir == core.Push {
			// The dirty list is scanned in deterministic block order.
			t := part.P
			for w := 0; w < t; w++ {
				lo, hi := sched.BlockRange(len(dirty), t, w)
				scanFor(w, dirty[lo:hi])
			}
			dirty = dedupe(nextDirty)
		} else {
			for w := 0; w < part.P; w++ {
				scanFor(w, borderByOwner[w])
			}
		}
		res.Iterations++
		// Same per-iteration contract as the plain runs: the hook sees the
		// wall time of every instrumented iteration (probe bookkeeping
		// included, so it is slower than an uninstrumented pass).
		opt.Tick(iter, time.Since(iterStart))
		if conflicts == 0 {
			break
		}
	}
	copy(res.Colors, s.colors)
	return res, nil
}

// PushProfiled runs the instrumented push variant.
func PushProfiled(g *graph.CSR, part graph.Partition, opt Options, prof core.Profile, space *memsim.AddressSpace) (*ProfiledResult, error) {
	return runProfiled(g, part, opt, prof, space, core.Push)
}

// PullProfiled runs the instrumented pull variant.
func PullProfiled(g *graph.CSR, part graph.Partition, opt Options, prof core.Profile, space *memsim.AddressSpace) (*ProfiledResult, error) {
	return runProfiled(g, part, opt, prof, space, core.Pull)
}
