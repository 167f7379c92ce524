package pr

import (
	"time"

	"pushpull/internal/core"
	"pushpull/internal/graph"
	"pushpull/internal/memsim"
	"pushpull/internal/sched"
)

// Hub-cached pull PageRank, after "A New Frontier for Pull-Based Graph
// Processing": the pull gather's random read per edge — contrib[u] out of
// an n-entry vector — lands, on skewed graphs, mostly on the same few
// high-degree hubs. The hub split assigns those vertices compact slot ids,
// and each iteration copies their contributions into a k-entry cache
// (hubContrib[s] = contrib[hub]) after the scale pass; the gather then
// serves every hub-prefix edge from the cache-resident array and only
// chases the residual suffix through the full-size vector. A hub edge and
// a residual edge cost the same — one adjacency read and one 8-byte read —
// so what the cache buys is locality (where the read lands), not read
// count. The per-vertex sum adds hub
// contributions first, then residuals, so ranks match the plain kernels up
// to floating-point reassociation (≤1e-9 in practice), not bit-for-bit.

// PullHub runs pull PageRank over an undirected CSR with the hub cache.
// hs must be BuildHubSplit(g, k) for the same g.
func PullHub(g *graph.CSR, hs *graph.HubSplit, opt Options) ([]float64, core.RunStats) {
	opt.defaults()
	n := g.N()
	stats := core.RunStats{Direction: core.Pull}
	pr := make([]float64, n)
	if n == 0 {
		return pr, stats
	}
	stats.Reserve(opt.Iterations)
	t := sched.Clamp(opt.Threads, n)
	initRank := 1 / float64(n)
	for i := range pr {
		pr[i] = initRank
	}
	next := make([]float64, n)
	contrib := make([]float64, n)
	hubContrib := make([]float64, hs.K)
	base := (1 - opt.Damping) / float64(n)
	// Hoisted bodies: pr and next are captured by reference so the
	// per-round swap stays visible, and nothing allocates per iteration.
	scale := func(w, lo, hi int) {
		for vi := lo; vi < hi; vi++ {
			contrib[vi] = contribution(pr[vi], g.Degree(graph.V(vi)))
		}
	}
	refresh := func() {
		for s, h := range hs.Hubs {
			hubContrib[s] = contrib[h]
		}
	}
	gather := func(w, lo, hi int) {
		for vi := lo; vi < hi; vi++ {
			v := graph.V(vi)
			sum := 0.0
			for _, s := range hs.HubRow(v) {
				sum += hubContrib[s] // lands in the k-entry cache
			}
			for _, u := range hs.ResidualRow(v) {
				sum += contrib[u]
			}
			next[v] = base + opt.Damping*sum
		}
	}
	for l := 0; l < opt.Iterations; l++ {
		if opt.Canceled() {
			stats.Canceled = true
			break
		}
		start := time.Now()
		sched.ParallelFor(n, t, opt.Schedule, 0, scale)
		refresh()
		sched.ParallelFor(n, t, opt.Schedule, 0, gather)
		pr, next = next, pr
		el := time.Since(start)
		stats.Record(el)
		opt.Tick(l, el)
	}
	return pr, stats
}

// PullDirectedHub runs pull directed PageRank with the hub cache. hs must
// be BuildHubSplit(dg.In, k): hubs are the vertices read most often along
// in-edges, and their contribution scales by *out*-degree (§7.3).
func PullDirectedHub(dg *DirectedGraph, hs *graph.HubSplit, opt Options) ([]float64, core.RunStats) {
	opt.defaults()
	n := dg.Out.N()
	stats := core.RunStats{Direction: core.Pull}
	pr := make([]float64, n)
	if n == 0 {
		return pr, stats
	}
	stats.Reserve(opt.Iterations)
	t := sched.Clamp(opt.Threads, n)
	for i := range pr {
		pr[i] = 1 / float64(n)
	}
	next := make([]float64, n)
	contrib := make([]float64, n)
	hubContrib := make([]float64, hs.K)
	base := (1 - opt.Damping) / float64(n)
	scale := func(w, lo, hi int) {
		for vi := lo; vi < hi; vi++ {
			contrib[vi] = contribution(pr[vi], dg.Out.Degree(graph.V(vi)))
		}
	}
	refresh := func() {
		for s, h := range hs.Hubs {
			hubContrib[s] = contrib[h]
		}
	}
	gather := func(w, lo, hi int) {
		for vi := lo; vi < hi; vi++ {
			v := graph.V(vi)
			sum := 0.0
			for _, s := range hs.HubRow(v) {
				sum += hubContrib[s] // lands in the k-entry cache
			}
			for _, u := range hs.ResidualRow(v) {
				sum += contrib[u]
			}
			next[v] = base + opt.Damping*sum
		}
	}
	for l := 0; l < opt.Iterations; l++ {
		if opt.Canceled() {
			stats.Canceled = true
			break
		}
		start := time.Now()
		sched.ParallelFor(n, t, opt.Schedule, 0, scale)
		refresh()
		sched.ParallelFor(n, t, opt.Schedule, 0, gather)
		pr, next = next, pr
		el := time.Since(start)
		stats.Record(el)
		opt.Tick(l, el)
	}
	return pr, stats
}

// hubArrays models the hub split's extra state: the k-entry contribution
// cache, the per-row split points, and the reordered adjacency (which
// replaces the plain CSR adjacency in the gather's traffic).
type hubArrays struct {
	off, adj, hubEnd, hubContrib, pr, next, contrib memsim.Array
}

func modelHubArrays(n int, m int, k int, space *memsim.AddressSpace) hubArrays {
	if space == nil {
		space = &memsim.AddressSpace{}
	}
	return hubArrays{
		off:        space.NewArray(n+1, 8),
		adj:        space.NewArray(m, 4),
		hubEnd:     space.NewArray(n, 8),
		hubContrib: space.NewArray(k, 8),
		pr:         space.NewArray(n, 8),
		next:       space.NewArray(n, 8),
		contrib:    space.NewArray(n, 8),
	}
}

// PullHubProfiled executes hub-cached pull PageRank deterministically
// under the probes: the plain kernel's scale pass, a k-entry refresh that
// copies each hub's contribution into the cache, then the gather. Every
// edge charges one sequential adj read plus one 8-byte read — into the
// k-entry cache on the hub prefix, into the n-entry contribution vector on
// the residual suffix — so the bill exceeds PullProfiled's by the per-row
// hubEnd read and the refresh, and what differs is where the reads land.
func PullHubProfiled(g *graph.CSR, hs *graph.HubSplit, opt Options, prof core.Profile, space *memsim.AddressSpace) ([]float64, error) {
	opt.defaults()
	if err := prof.Validate(); err != nil {
		return nil, err
	}
	n := g.N()
	a := modelHubArrays(n, int(g.M()), hs.K, space)
	pr := make([]float64, n)
	next := make([]float64, n)
	if n == 0 {
		return pr, nil
	}
	for i := range pr {
		pr[i] = 1 / float64(n)
	}
	contrib := make([]float64, n)
	hubContrib := make([]float64, hs.K)
	base := (1 - opt.Damping) / float64(n)
	scalePhase := func(w, lo, hi int) {
		p := prof.Probes[w]
		p.Exec(regionPullScale)
		for vi := lo; vi < hi; vi++ {
			p.Read(a.pr.Addr(int64(vi)), 8)
			p.Read(a.off.Addr(int64(vi)), 8)
			d := g.Degree(graph.V(vi))
			p.Branch(d == 0)
			contrib[vi] = contribution(pr[vi], d)
			p.Write(a.contrib.Addr(int64(vi)), 8)
		}
	}
	refreshPhase := func(w, lo, hi int) {
		p := prof.Probes[w]
		p.Exec(regionHubRefresh)
		if w != 0 {
			return // the k-entry refresh is a single-thread prologue
		}
		for s, h := range hs.Hubs {
			p.Read(a.contrib.Addr(int64(h)), 8)
			hubContrib[s] = contrib[h]
			p.Write(a.hubContrib.Addr(int64(s)), 8)
		}
	}
	gatherPhase := func(w, lo, hi int) {
		p := prof.Probes[w]
		p.Exec(regionHubGather)
		for vi := lo; vi < hi; vi++ {
			v := graph.V(vi)
			p.Read(a.off.Addr(int64(vi)), 8)
			p.Read(a.hubEnd.Addr(int64(vi)), 8)
			sum := 0.0
			offs := g.Offsets[v]
			for i, s := range hs.HubRow(v) {
				p.Branch(true)                         // loop condition
				p.Read(a.adj.Addr(offs+int64(i)), 4)   // sequential adj read
				p.Read(a.hubContrib.Addr(int64(s)), 8) // cache-resident contribution
				sum += hubContrib[s]
			}
			resBase := hs.HubEnd[v]
			for i, u := range hs.ResidualRow(v) {
				p.Branch(true)
				p.Read(a.adj.Addr(resBase+int64(i)), 4) // sequential adj read
				p.Read(a.contrib.Addr(int64(u)), 8)     // R: the one random read
				sum += contrib[u]
			}
			p.Write(a.next.Addr(int64(vi)), 8) // private, no conflict
			next[vi] = base + opt.Damping*sum
		}
	}
	for l := 0; l < opt.Iterations; l++ {
		iterStart := time.Now()
		sched.SequentialFor(n, prof.Threads, scalePhase)
		sched.SequentialFor(n, prof.Threads, refreshPhase)
		sched.SequentialFor(n, prof.Threads, gatherPhase)
		pr, next = next, pr
		opt.Tick(l, time.Since(iterStart))
	}
	return pr, nil
}

// PullDirectedHubProfiled executes hub-cached directed pull PageRank under
// the probes; hs must be built on dg.In, contributions scale by the
// out-degree of the source.
func PullDirectedHubProfiled(dg *DirectedGraph, hs *graph.HubSplit, opt Options, prof core.Profile, space *memsim.AddressSpace) ([]float64, error) {
	opt.defaults()
	if err := prof.Validate(); err != nil {
		return nil, err
	}
	n := dg.Out.N()
	if space == nil {
		space = &memsim.AddressSpace{}
	}
	da := modelDirectedArrays(dg, space)
	hubEndA := space.NewArray(n, 8)
	hubContribA := space.NewArray(hs.K, 8)
	pr := make([]float64, n)
	next := make([]float64, n)
	if n == 0 {
		return pr, nil
	}
	for i := range pr {
		pr[i] = 1 / float64(n)
	}
	contrib := make([]float64, n)
	hubContrib := make([]float64, hs.K)
	base := (1 - opt.Damping) / float64(n)
	scalePhase := func(w, lo, hi int) {
		p := prof.Probes[w]
		p.Exec(regionPullScale)
		for vi := lo; vi < hi; vi++ {
			p.Read(da.pr.Addr(int64(vi)), 8)
			p.Read(da.outOff.Addr(int64(vi)), 8)
			d := dg.Out.Degree(graph.V(vi))
			p.Branch(d == 0)
			contrib[vi] = contribution(pr[vi], d)
			p.Write(da.contrib.Addr(int64(vi)), 8)
		}
	}
	refreshPhase := func(w, lo, hi int) {
		p := prof.Probes[w]
		p.Exec(regionHubRefresh)
		if w != 0 {
			return
		}
		for s, h := range hs.Hubs {
			p.Read(da.contrib.Addr(int64(h)), 8)
			hubContrib[s] = contrib[h]
			p.Write(hubContribA.Addr(int64(s)), 8)
		}
	}
	gatherPhase := func(w, lo, hi int) {
		p := prof.Probes[w]
		p.Exec(regionHubGather)
		for vi := lo; vi < hi; vi++ {
			v := graph.V(vi)
			p.Read(da.inOff.Addr(int64(vi)), 8)
			p.Read(hubEndA.Addr(int64(vi)), 8)
			sum := 0.0
			offs := dg.In.Offsets[v]
			for i, s := range hs.HubRow(v) {
				p.Branch(true)
				p.Read(da.inAdj.Addr(offs+int64(i)), 4)
				p.Read(hubContribA.Addr(int64(s)), 8)
				sum += hubContrib[s]
			}
			resBase := hs.HubEnd[v]
			for i, u := range hs.ResidualRow(v) {
				p.Branch(true)
				p.Read(da.inAdj.Addr(resBase+int64(i)), 4)
				p.Read(da.contrib.Addr(int64(u)), 8)
				sum += contrib[u]
			}
			p.Write(da.next.Addr(int64(vi)), 8)
			next[vi] = base + opt.Damping*sum
		}
	}
	for l := 0; l < opt.Iterations; l++ {
		iterStart := time.Now()
		sched.SequentialFor(n, prof.Threads, scalePhase)
		sched.SequentialFor(n, prof.Threads, refreshPhase)
		sched.SequentialFor(n, prof.Threads, gatherPhase)
		pr, next = next, pr
		opt.Tick(l, time.Since(iterStart))
	}
	return pr, nil
}
