package gc

import (
	"sort"
	"time"

	"pushpull/internal/core"
	"pushpull/internal/counters"
	"pushpull/internal/frontier"
	"pushpull/internal/graph"
	"pushpull/internal/memsim"
	"pushpull/internal/sched"
)

// Code regions for instruction-TLB modeling of the §5 strategies.
const (
	regionMIS = iota + 2 // continue after the Boman regions
	regionDiscover
	regionResolve
	regionCRBorder
	regionCRPartition
)

// feArrays bundles the modeled state of a Frontier-Exploit run.
type feArrays struct {
	off, adj, col, cand, inF memsim.Array
}

func feModel(g *graph.CSR, space *memsim.AddressSpace) feArrays {
	if space == nil {
		space = &memsim.AddressSpace{}
	}
	return feArrays{
		off:  space.NewArray(g.N()+1, 8),
		adj:  space.NewArray(int(g.M()), 4),
		col:  space.NewArray(g.N(), 4),
		cand: space.NewArray(g.N(), 1),
		inF:  space.NewArray(g.N(), 1),
	}
}

// profiledGreedySubset charges the sequential greedy coloring pass (the
// Greedy-Switch fallback and the isolated-leftover tail) to probe p.
func profiledGreedySubset(g *graph.CSR, colors []int32, p counters.Probe, a feArrays) {
	taken := map[int32]bool{}
	for v := graph.V(0); v < g.NumV; v++ {
		p.Read(a.col.Addr(int64(v)), 4)
		p.Branch(colors[v] >= 0)
		if colors[v] >= 0 {
			continue
		}
		clear(taken)
		p.Read(a.off.Addr(int64(v)), 8)
		offs := g.Offsets[v]
		for j, u := range g.Neighbors(v) {
			p.Branch(true)
			p.Read(a.adj.Addr(offs+int64(j)), 4)
			p.Read(a.col.Addr(int64(u)), 4)
			if colors[u] >= 0 {
				taken[colors[u]] = true
			}
		}
		for c := int32(0); ; c++ {
			if !taken[c] {
				colors[v] = c
				p.Write(a.col.Addr(int64(v)), 4)
				break
			}
		}
	}
}

// FrontierExploitProfiled runs the FE strategy (§5) deterministically under
// the probes, with the same policy steering as FrontierExploit: push-side
// candidate discovery charges an atomic claim per first touch of an
// uncolored neighbor, pull-side discovery charges only reads plus the
// owner's plain candidate write. Result.Dirs records the direction of every
// iteration, so a Generic-Switch flip is visible in the trace.
//
// Both the instrumented and the fast variant resolve candidates in
// canonical id order, so the probed coloring equals the uninstrumented
// run's exactly.
func FrontierExploitProfiled(g *graph.CSR, opt Options, dir core.Direction, policy core.SwitchPolicy, prof core.Profile, space *memsim.AddressSpace) (*Result, error) {
	opt.defaults()
	if err := prof.Validate(); err != nil {
		return nil, err
	}
	if policy == nil {
		policy = core.NeverSwitch{}
	}
	n := g.N()
	res := &Result{Colors: make([]int32, n)}
	res.Stats.Direction = dir
	if n == 0 {
		return res, nil
	}
	a := feModel(g, space)
	colors := make([]int32, n)
	for i := range colors {
		colors[i] = -1
	}
	t := prof.Threads

	// Round 0: greedy maximal independent set, colored c₀ = 0. The scan is
	// inherently sequential; its events are charged to probe 0.
	start := time.Now()
	p0 := prof.Probes[0]
	p0.Exec(regionMIS)
	inF := frontier.NewBitmap(n)
	var f []graph.V
	for v := graph.V(0); v < g.NumV; v++ {
		ok := true
		p0.Read(a.off.Addr(int64(v)), 8)
		offs := g.Offsets[v]
		for j, u := range g.Neighbors(v) {
			p0.Branch(true)
			p0.Read(a.adj.Addr(offs+int64(j)), 4)
			p0.Read(a.inF.Addr(int64(u)), 1)
			if inF.Get(u) {
				ok = false
				break
			}
		}
		if ok {
			inF.SetSeq(v)
			colors[v] = 0
			p0.Write(a.inF.Addr(int64(v)), 1)
			p0.Write(a.col.Addr(int64(v)), 4)
			f = append(f, v)
		}
	}
	colored := len(f)
	nextColor := int32(1)
	res.Iterations++
	res.Dirs = append(res.Dirs, dir)
	res.Stats.Record(time.Since(start))
	opt.Tick(0, res.Stats.PerIteration[0])

	progress, conflicts := colored, 0
	candMark := frontier.NewBitmap(n)

	// Round-scoped buffers hoisted out of the iteration loop and reused:
	// their contents are copied into f and colors before each reset, so
	// truncation never aliases live data.
	perThread := make([][]graph.V, t)
	var cands []graph.V
	byID := func(i, j int) bool { return cands[i] < cands[j] }

	for colored < n && res.Iterations < opt.MaxIters {
		start = time.Now()
		switch policy.Decide(res.Iterations, progress, conflicts, n-colored) {
		case core.SwitchDirection:
			if dir == core.Push {
				dir = core.Pull
			} else {
				dir = core.Push
			}
		case core.GoSequential:
			p0.Exec(regionResolve)
			profiledGreedySubset(g, colors, p0, a)
			colored = n
			res.Iterations++
			res.Dirs = append(res.Dirs, dir)
			el := time.Since(start)
			res.Stats.Record(el)
			opt.Tick(res.Iterations-1, el)
			continue
		}

		// Candidate discovery (deterministic worker order).
		candMark.Clear()
		for w := range perThread {
			perThread[w] = perThread[w][:0]
		}
		if dir == core.Push {
			for w := 0; w < t; w++ {
				p := prof.Probes[w]
				p.Exec(regionDiscover)
				lo, hi := sched.BlockRange(len(f), t, w)
				for i := lo; i < hi; i++ {
					v := f[i]
					p.Read(a.off.Addr(int64(v)), 8)
					offs := g.Offsets[v]
					for j, u := range g.Neighbors(v) {
						p.Branch(true)
						p.Read(a.adj.Addr(offs+int64(j)), 4)
						p.Read(a.col.Addr(int64(u)), 4)
						if colors[u] >= 0 {
							continue
						}
						p.Atomic(a.cand.Addr(int64(u)), 1) // claim (W i)
						p.Jump()
						if candMark.Set(u) {
							perThread[w] = append(perThread[w], u)
						}
					}
				}
			}
		} else {
			for w := 0; w < t; w++ {
				p := prof.Probes[w]
				p.Exec(regionDiscover)
				lo, hi := sched.BlockRange(n, t, w)
				for vi := lo; vi < hi; vi++ {
					v := graph.V(vi)
					p.Read(a.col.Addr(int64(vi)), 4)
					p.Branch(colors[v] >= 0)
					if colors[v] >= 0 {
						continue
					}
					p.Read(a.off.Addr(int64(vi)), 8)
					offs := g.Offsets[v]
					for j, u := range g.Neighbors(v) {
						p.Branch(true)
						p.Read(a.adj.Addr(offs+int64(j)), 4)
						p.Read(a.inF.Addr(int64(u)), 1)
						if inF.Get(u) {
							candMark.SetSeq(v)
							p.Write(a.cand.Addr(int64(vi)), 1) // own vertex
							perThread[w] = append(perThread[w], v)
							break
						}
					}
				}
			}
		}
		cands = cands[:0]
		for w := 0; w < t; w++ {
			cands = append(cands, perThread[w]...)
		}
		// Same canonical id order as the fast variant, so the probed
		// coloring equals the uninstrumented one exactly.
		sort.Slice(cands, byID)

		// Deterministic conflict resolution (sequential, charged to probe 0
		// like the MIS pass): a candidate takes the round's color cᵢ unless
		// a same-round winner neighbor already holds it; then it defers to
		// the next round, exactly as the fast variant does.
		p0.Exec(regionResolve)
		ci := nextColor
		conflicts = 0
		winners := cands[:0]
		for _, v := range cands {
			ok := true
			offs := g.Offsets[v]
			for j, u := range g.Neighbors(v) {
				p0.Branch(true)
				p0.Read(a.adj.Addr(offs+int64(j)), 4)
				p0.Read(a.col.Addr(int64(u)), 4)
				if colors[u] == ci {
					ok = false
					break
				}
			}
			if !ok {
				conflicts++
				continue
			}
			colors[v] = ci
			p0.Write(a.col.Addr(int64(v)), 4)
			winners = append(winners, v)
		}
		nextColor = ci + 1
		colored += len(winners)
		progress = len(winners)

		// New frontier = this round's winners.
		inF.Clear()
		f = append(f[:0], winners...)
		for _, v := range winners {
			inF.SetSeq(v)
			p0.Write(a.inF.Addr(int64(v)), 1)
		}

		res.Iterations++
		res.Dirs = append(res.Dirs, dir)
		el := time.Since(start)
		res.Stats.Record(el)
		opt.Tick(res.Iterations-1, el)
		if progress == 0 {
			// Isolated leftovers: finish them greedily.
			profiledGreedySubset(g, colors, p0, a)
			colored = n
		}
	}
	if colored < n {
		// MaxIters cut the run short: same greedy-finish iteration as the
		// fast variant, so the probed coloring stays valid and equal.
		start = time.Now()
		p0.Exec(regionResolve)
		profiledGreedySubset(g, colors, p0, a)
		res.Iterations++
		res.Dirs = append(res.Dirs, dir)
		el := time.Since(start)
		res.Stats.Record(el)
		opt.Tick(res.Iterations-1, el)
	}
	copy(res.Colors, colors)
	res.NumColors = CountColors(res.Colors)
	res.Stats.Direction = dir
	return res, nil
}

// ConflictRemovalProfiled runs the CR strategy (§5, Algorithm 9) under the
// probes: the sequential border pass is charged to probe 0, the parallel
// partition pass to each owner. The coloring equals the uninstrumented
// ConflictRemoval exactly (both are deterministic given the partition).
func ConflictRemovalProfiled(g *graph.CSR, part graph.Partition, opt Options, prof core.Profile, space *memsim.AddressSpace) (*Result, error) {
	opt.defaults()
	if err := prof.Validate(); err != nil {
		return nil, err
	}
	if part.P != prof.Threads {
		part = graph.NewPartition(g.N(), prof.Threads)
	}
	n := g.N()
	res := &Result{}
	res.Colors = make([]int32, n)
	if n == 0 {
		return res, nil
	}
	a := feModel(g, space)
	colors := make([]int32, n)
	for i := range colors {
		colors[i] = -1
	}
	start := time.Now()

	// seq_color_partition(B): border first, sequentially, conflict-free.
	p0 := prof.Probes[0]
	p0.Exec(regionCRBorder)
	taken := map[int32]bool{}
	colorOne := func(p counters.Probe, v graph.V) {
		p.Read(a.col.Addr(int64(v)), 4)
		p.Branch(colors[v] >= 0)
		if colors[v] >= 0 {
			return
		}
		clear(taken)
		p.Read(a.off.Addr(int64(v)), 8)
		offs := g.Offsets[v]
		for j, u := range g.Neighbors(v) {
			p.Branch(true)
			p.Read(a.adj.Addr(offs+int64(j)), 4)
			p.Read(a.col.Addr(int64(u)), 4)
			if colors[u] >= 0 {
				taken[colors[u]] = true
			}
		}
		for c := int32(0); ; c++ {
			if !taken[c] {
				colors[v] = c
				p.Write(a.col.Addr(int64(v)), 4)
				break
			}
		}
	}
	for _, v := range part.Border(g) {
		colorOne(p0, v)
	}
	// Then all partitions in parallel; border vertices are fixed, interior
	// vertices of different partitions are never adjacent.
	for w := 0; w < part.P; w++ {
		p := prof.Probes[w]
		p.Exec(regionCRPartition)
		lo, hi := part.Range(w)
		for v := lo; v < hi; v++ {
			colorOne(p, v)
		}
	}
	res.Iterations = 1
	res.Stats.Record(time.Since(start))
	copy(res.Colors, colors)
	res.NumColors = CountColors(res.Colors)
	return res, nil
}
