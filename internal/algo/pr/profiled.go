package pr

import (
	"time"

	"pushpull/internal/core"
	"pushpull/internal/graph"
	"pushpull/internal/memsim"
	"pushpull/internal/sched"
)

// Code regions for instruction-TLB modeling: each maps to one code page.
const (
	regionPushInit = iota
	regionPushScatter
	regionPushCommit
	regionPullGather
	regionPAPhase1
	regionPAPhase2
	regionPullScale
)

// arrays bundles the modeled address ranges of the PageRank state so the
// cache simulator sees the same layout the fast variants use: the out-view
// offsets and adjacency, the rank vector, the next-rank vector, the in-view
// offsets and adjacency, and (pull only) the out-degree array of a view
// that carries one and the per-iteration contribution vector.
type arrays struct {
	off, adj, pr, next, inOff, inAdj, outDeg, contrib memsim.Array
}

// modelArrays lays the views out in the modeled address space. The in-view
// of an undirected graph (In == Out) is the out-view, so it aliases those
// ranges; a directed graph pays the extra n + 2m cells for serving both
// views, and a push-only run handed no in-view models none. A pull run
// handed OutDeg and no Out models the in-view first, then n 4-byte
// degrees in place of the out-view.
func modelArrays(vw Views, space *memsim.AddressSpace) arrays {
	if space == nil {
		space = &memsim.AddressSpace{}
	}
	first := vw.Out
	if first == nil {
		first = vw.In
	}
	n := first.N()
	a := arrays{
		off:  space.NewArray(n+1, 8),
		adj:  space.NewArray(int(first.M()), 4),
		pr:   space.NewArray(n, 8),
		next: space.NewArray(n, 8),
	}
	a.inOff, a.inAdj = a.off, a.adj
	if vw.In != nil && vw.In != first {
		a.inOff = space.NewArray(n+1, 8)
		a.inAdj = space.NewArray(int(vw.In.M()), 4)
	}
	if vw.OutDeg != nil {
		a.outDeg = space.NewArray(n, 4)
	}
	// Last, so the ranges a push run touches sit where they always did.
	a.contrib = space.NewArray(n, 8)
	return a
}

// PushProfiled executes push PageRank deterministically, reporting every
// access at the R/W-marked points of Algorithm 1 to the per-thread probes:
// rank scatters along out-edges, an atomic float add per arc. This is the
// paper's push bill, not the fast Push's, which issues atomics only on
// cross-owner arcs (PushPAProfiled counts that scheme). The returned ranks
// equal the fast variants' output.
func PushProfiled(vw Views, opt Options, prof core.Profile, space *memsim.AddressSpace) ([]float64, error) {
	opt.defaults()
	if err := prof.Validate(); err != nil {
		return nil, err
	}
	g := vw.Out
	n := g.N()
	a := modelArrays(vw, space)
	pr := make([]float64, n)
	next := make([]float64, n)
	if n == 0 {
		return pr, nil
	}
	for i := range pr {
		pr[i] = 1 / float64(n)
	}
	base := (1 - opt.Damping) / float64(n)
	// Phase bodies hoisted out of the iteration loop so the modeled run
	// allocates nothing per round, matching the fast variants.
	initPhase := func(w, lo, hi int) {
		p := prof.Probes[w]
		p.Exec(regionPushInit)
		for i := lo; i < hi; i++ {
			next[i] = base
			p.Write(a.next.Addr(int64(i)), 8)
		}
	}
	scatterPhase := func(w, lo, hi int) {
		p := prof.Probes[w]
		p.Exec(regionPushScatter)
		for vi := lo; vi < hi; vi++ {
			v := graph.V(vi)
			// Read pr[v] and the two offsets bounding N(v).
			p.Read(a.pr.Addr(int64(vi)), 8)
			p.Read(a.off.Addr(int64(vi)), 8)
			d := g.Degree(v)
			p.Branch(d == 0)
			if d == 0 {
				continue
			}
			c := opt.Damping * pr[v] / float64(d)
			offs := g.Offsets[v]
			for i, u := range g.Neighbors(v) {
				p.Branch(true)                       // loop condition
				p.Read(a.adj.Addr(offs+int64(i)), 4) // sequential adj read
				p.Atomic(a.next.Addr(int64(u)), 8)   // W f: conflicting float add
				p.Jump()                             // call into the CAS helper
				next[u] += c                         // deterministic execution: no retries
			}
		}
	}
	commitPhase := func(w, lo, hi int) {
		p := prof.Probes[w]
		p.Exec(regionPushCommit)
		for i := lo; i < hi; i++ {
			p.Read(a.next.Addr(int64(i)), 8)
			p.Write(a.pr.Addr(int64(i)), 8)
			pr[i] = next[i]
		}
	}
	for l := 0; l < opt.Iterations; l++ {
		iterStart := time.Now()
		sched.SequentialFor(n, prof.Threads, initPhase)
		sched.SequentialFor(n, prof.Threads, scatterPhase)
		sched.SequentialFor(n, prof.Threads, commitPhase)
		opt.Tick(l, time.Since(iterStart))
	}
	return pr, nil
}

// PullProfiled executes pull PageRank deterministically under the probes,
// in the fast kernel's two phases: the scale pass reads pr[v] and the
// out-view offset pair giving d(v) (§7.3: the out-degree), or OutDeg[v]
// when set, as Pull does, and writes contrib[v], all sequential; the
// gather walks in-edges, paying one sequential adjacency read and one
// random contrib[u] read per edge. Against the single random atomic of
// pushing, pull keeps the larger read volume (3n + 2m vs 3n + m) that
// Table 1's higher pull miss counts measure. The ranks equal Pull's bit
// for bit.
func PullProfiled(vw Views, opt Options, prof core.Profile, space *memsim.AddressSpace) ([]float64, error) {
	opt.defaults()
	if err := prof.Validate(); err != nil {
		return nil, err
	}
	out, in, outDeg := vw.Out, vw.In, vw.OutDeg
	n := in.N()
	a := modelArrays(vw, space)
	pr := make([]float64, n)
	next := make([]float64, n)
	if n == 0 {
		return pr, nil
	}
	for i := range pr {
		pr[i] = 1 / float64(n)
	}
	contrib := make([]float64, n)
	base := (1 - opt.Damping) / float64(n)
	// Hoisted phase bodies; pr and next are captured by reference, so the
	// per-round swap stays visible.
	scalePhase := func(w, lo, hi int) {
		p := prof.Probes[w]
		p.Exec(regionPullScale)
		for vi := lo; vi < hi; vi++ {
			p.Read(a.pr.Addr(int64(vi)), 8)
			var d int64
			if outDeg != nil {
				p.Read(a.outDeg.Addr(int64(vi)), 4)
				d = int64(outDeg[vi])
			} else {
				p.Read(a.off.Addr(int64(vi)), 8)
				d = out.Degree(graph.V(vi))
			}
			p.Branch(d == 0)
			contrib[vi] = contribution(pr[vi], d)
			p.Write(a.contrib.Addr(int64(vi)), 8)
		}
	}
	gatherPhase := func(w, lo, hi int) {
		p := prof.Probes[w]
		p.Exec(regionPullGather)
		for vi := lo; vi < hi; vi++ {
			v := graph.V(vi)
			p.Read(a.inOff.Addr(int64(vi)), 8)
			sum := 0.0
			offs := in.Offsets[v]
			for i, u := range in.Neighbors(v) {
				p.Branch(true)                         // loop condition
				p.Read(a.inAdj.Addr(offs+int64(i)), 4) // sequential adj read
				p.Read(a.contrib.Addr(int64(u)), 8)    // R: the one random read
				sum += contrib[u]
			}
			p.Write(a.next.Addr(int64(vi)), 8) // private, no conflict
			next[vi] = base + opt.Damping*sum
		}
	}
	for l := 0; l < opt.Iterations; l++ {
		iterStart := time.Now()
		sched.SequentialFor(n, prof.Threads, scalePhase)
		sched.SequentialFor(n, prof.Threads, gatherPhase)
		pr, next = next, pr
		opt.Tick(l, time.Since(iterStart))
	}
	return pr, nil
}

// PushPAProfiled executes partition-aware push PageRank under the probes,
// billing Algorithm 8 over the §5 split: local edges issue plain writes,
// remote edges issue atomics, and the extra offset arrays of the 2n+2m
// layout are modeled too (the +n reads that make PA slower on sparse road
// graphs, §6.2). The fast Push runs the same phases without the split.
func PushPAProfiled(pa *graph.PAGraph, opt Options, prof core.Profile, space *memsim.AddressSpace) ([]float64, error) {
	opt.defaults()
	if err := prof.Validate(); err != nil {
		return nil, err
	}
	if prof.Threads != pa.Part.P {
		prof = core.Profile{Threads: pa.Part.P, Probes: prof.Probes}
		if err := prof.Validate(); err != nil {
			return nil, err
		}
	}
	g := pa.G
	n := g.N()
	if space == nil {
		space = &memsim.AddressSpace{}
	}
	// PA layout: separate local/remote offset and adjacency arrays.
	locOff := space.NewArray(n+1, 8)
	remOff := space.NewArray(n+1, 8)
	locAdj := space.NewArray(len(pa.LocAdj), 4)
	remAdj := space.NewArray(len(pa.RemAdj), 4)
	off := space.NewArray(n+1, 8)
	prA := space.NewArray(n, 8)
	nextA := space.NewArray(n, 8)

	pr := make([]float64, n)
	next := make([]float64, n)
	if n == 0 {
		return pr, nil
	}
	for i := range pr {
		pr[i] = 1 / float64(n)
	}
	base := (1 - opt.Damping) / float64(n)
	// Phase bodies hoisted out of the iteration loop so the modeled run
	// allocates nothing per round, matching the fast variants.
	initPhase := func(w, lo, hi int) {
		p := prof.Probes[w]
		p.Exec(regionPushInit)
		for i := lo; i < hi; i++ {
			next[i] = base
			p.Write(nextA.Addr(int64(i)), 8)
		}
	}
	// Phase 1: local, non-atomic.
	localPhase := func(w, lo, hi int) {
		p := prof.Probes[w]
		p.Exec(regionPAPhase1)
		for vi := lo; vi < hi; vi++ {
			v := graph.V(vi)
			p.Read(prA.Addr(int64(vi)), 8)
			p.Read(off.Addr(int64(vi)), 8)
			d := g.Degree(v)
			p.Branch(d == 0)
			if d == 0 {
				continue
			}
			c := opt.Damping * pr[v] / float64(d)
			p.Read(locOff.Addr(int64(vi)), 8)
			offs := pa.LocOff[v]
			for i, u := range pa.Local(v) {
				p.Branch(true)
				p.Read(locAdj.Addr(offs+int64(i)), 4)
				p.Read(nextA.Addr(int64(u)), 8)
				p.Write(nextA.Addr(int64(u)), 8) // plain store, no atomic
				next[u] += c
			}
		}
	}
	// Phase 2: remote, atomic.
	remotePhase := func(w, lo, hi int) {
		p := prof.Probes[w]
		p.Exec(regionPAPhase2)
		for vi := lo; vi < hi; vi++ {
			v := graph.V(vi)
			p.Read(prA.Addr(int64(vi)), 8)
			d := g.Degree(v)
			p.Branch(d == 0)
			if d == 0 {
				continue
			}
			c := opt.Damping * pr[v] / float64(d)
			p.Read(remOff.Addr(int64(vi)), 8)
			offs := pa.RemOff[v]
			for i, u := range pa.Remote(v) {
				p.Branch(true)
				p.Read(remAdj.Addr(offs+int64(i)), 4)
				p.Atomic(nextA.Addr(int64(u)), 8) // W i per Algorithm 8
				p.Jump()
				next[u] += c
			}
		}
	}
	commitPhase := func(w, lo, hi int) {
		p := prof.Probes[w]
		p.Exec(regionPushCommit)
		for i := lo; i < hi; i++ {
			p.Read(nextA.Addr(int64(i)), 8)
			p.Write(prA.Addr(int64(i)), 8)
			pr[i] = next[i]
		}
	}
	for l := 0; l < opt.Iterations; l++ {
		iterStart := time.Now()
		sched.SequentialFor(n, prof.Threads, initPhase)
		sched.SequentialFor(n, prof.Threads, localPhase)
		sched.SequentialFor(n, prof.Threads, remotePhase)
		sched.SequentialFor(n, prof.Threads, commitPhase)
		opt.Tick(l, time.Since(iterStart))
	}
	return pr, nil
}
