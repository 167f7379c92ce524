package sssp

import (
	"math"
	"math/bits"
	"time"

	"pushpull/internal/atomicx"
	"pushpull/internal/core"
	"pushpull/internal/counters"
	"pushpull/internal/graph"
	"pushpull/internal/memsim"
	"pushpull/internal/sched"
)

// Code regions for instruction-TLB modeling.
const (
	regionExpand = iota
	regionScan
)

// PushProfiled runs a deterministic, instrumented push Δ-stepping. Event
// accounting follows the paper's Table 1 conventions for SSSP-Δ: distance
// relaxations are guarded by locks rather than atomics (float min-update,
// §6.1 "Both push and pull variants use locks"); a lock is charged only
// when the relaxed vertex belongs to another thread's partition — on road
// networks with contiguous 1D partitions this makes push lock counts tiny,
// exactly the rca column's shape.
func PushProfiled(g *graph.CSR, opt Options, prof core.Profile, space *memsim.AddressSpace) (*Result, error) {
	if err := prof.Validate(); err != nil {
		return nil, err
	}
	n := g.N()
	res := &Result{Dist: make([]float64, n)}
	res.Stats.Direction = core.Push
	dist := res.Dist
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	if n == 0 {
		return res, nil
	}
	if space == nil {
		space = &memsim.AddressSpace{}
	}
	offA := space.NewArray(n+1, 8)
	adjA := space.NewArray(int(g.M()), 4)
	wA := space.NewArray(int(g.M()), 4)
	distA := space.NewArray(n, 8)
	bktA := space.NewArray(n, 8)

	part := graph.NewPartition(n, prof.Threads)
	delta := resolveDelta(g, opt.Delta)
	dist[opt.Source] = 0
	bucketOf := func(d float64) int { return int(d / delta) }
	buckets := [][]graph.V{{opt.Source}}
	ensure := func(b int) {
		for len(buckets) <= b {
			buckets = append(buckets, nil)
		}
	}
	for b := 0; b < len(buckets); b++ {
		cur := buckets[b]
		buckets[b] = nil
		for len(cur) > 0 {
			iterStart := time.Now()
			res.Inner++
			var next []graph.V
			for _, v := range cur {
				owner := part.Owner(v)
				p := prof.Probes[owner]
				p.Exec(regionExpand)
				p.Read(distA.Addr(int64(v)), 8)
				dv := dist[v]
				p.Branch(bucketOf(dv) != b)
				if bucketOf(dv) != b {
					continue
				}
				offs := g.Offsets[v]
				p.Read(offA.Addr(int64(v)), 8)
				ws := g.NeighborWeights(v)
				for j, u := range g.Neighbors(v) {
					p.Branch(true)
					p.Read(adjA.Addr(offs+int64(j)), 4)
					p.Read(wA.Addr(offs+int64(j)), 4)
					we := 1.0
					if ws != nil {
						we = float64(ws[j])
					}
					nd := dv + we
					p.Read(distA.Addr(int64(u)), 8) // R in Algorithm 4 line 17
					p.Branch(nd < dist[u])
					if nd >= dist[u] {
						continue
					}
					if part.Owner(u) != owner {
						p.Lock(distA.Addr(int64(u))) // cross-partition relax
					}
					p.Write(distA.Addr(int64(u)), 8) // W: d[w] = weight
					p.Write(bktA.Addr(int64(u)), 8)
					dist[u] = nd
					nb := bucketOf(nd)
					if nb == b {
						next = append(next, u)
					} else {
						ensure(nb)
						buckets[nb] = append(buckets[nb], u)
					}
				}
			}
			cur = next
			// Record and tick per inner iteration, the same granularity the
			// plain Push variant reports.
			el := time.Since(iterStart)
			res.Stats.Record(el)
			opt.Tick(res.Inner-1, el)
		}
	}
	return res, nil
}

// PullProfiled runs Pull's rounds deterministically and instrumented: the
// same row selection (scatter into per-worker marks, word-parallel merge,
// dense sweep above the denseShare threshold) and the same relaxation
// (active bit before distance), over the same pullRounds state, with the
// workers' word ranges dealt out as contiguous blocks and executed in
// worker order. Every bitmap word a phase touches is charged as an 8-byte
// access. Each adopted relaxation is charged one lock for the shared
// bucket-set insertion, Table 1's convention for SSSP-Δ, reproducing the
// pull column's lock ≫ push shape; nothing is charged as an atomic. The
// bucket advance between epochs is bookkeeping outside the counted
// kernel, as it has always been here.
func PullProfiled(g *graph.CSR, opt Options, prof core.Profile, space *memsim.AddressSpace) (*Result, error) {
	if err := prof.Validate(); err != nil {
		return nil, err
	}
	n := g.N()
	res := &Result{Dist: make([]float64, n)}
	res.Stats.Direction = core.Pull
	if n == 0 {
		return res, nil
	}
	if space == nil {
		space = &memsim.AddressSpace{}
	}
	t := sched.Clamp(prof.Threads, n)
	r := pullProfile{
		pullRounds: newPullRounds(g, opt.Source, resolveDelta(g, opt.Delta), t),
		probes:     prof.Probes,
		offA:       space.NewArray(n+1, 8),
		adjA:       space.NewArray(int(g.M()), 4),
		wA:         space.NewArray(int(g.M()), 4),
		distA:      space.NewArray(n, 8),
	}
	nw := len(r.rows.Words())
	r.actA, r.nextA, r.rowA = space.NewArray(nw, 8), space.NewArray(nw, 8), space.NewArray(nw, 8)
	for w := 0; w < t; w++ {
		r.markA = append(r.markA, space.NewArray(nw, 8))
	}

	r.active.SetSeq(opt.Source)
	activeEdges := g.Degree(opt.Source)
	for more := true; more; activeEdges, more = r.advance() {
		res.Epochs++
		for {
			iterStart := time.Now()
			res.Inner++
			if r.dense(activeEdges) {
				r.rows.Fill()
				r.wrote(r.rowA, nw)
			} else {
				sched.SequentialFor(nw, t, r.scatter)
				sched.SequentialFor(nw, t, r.merge)
			}
			sched.SequentialFor(nw, t, r.relax)
			activeEdges = r.endRound()
			r.actA, r.nextA = r.nextA, r.actA
			r.wrote(r.nextA, nw) // endRound cleared it
			el := time.Since(iterStart)
			res.Stats.Record(el)
			opt.Tick(res.Inner-1, el)
			if activeEdges == 0 {
				break
			}
		}
	}
	r.distances(res.Dist)
	return res, nil
}

// pullProfile is pullRounds with a probe per worker and the simulated
// addresses of everything a round touches.
type pullProfile struct {
	*pullRounds
	probes []counters.Probe

	offA, adjA, wA, distA memsim.Array
	actA, nextA, rowA     memsim.Array // one 8-byte cell per bitmap word
	markA                 []memsim.Array
}

// wrote charges the calling thread with a store to each of a bitmap's nw
// words: the fills and clears between phases.
func (r *pullProfile) wrote(a memsim.Array, nw int) {
	for wi := 0; wi < nw; wi++ {
		r.probes[0].Write(a.Addr(int64(wi)), 8)
	}
}

// scatter is pullRounds.scatter, counted.
func (r *pullProfile) scatter(w, from, to int) {
	p, mine := r.probes[w], r.marks[w]
	active := r.active.Words()
	for wi := from; wi < to; wi++ {
		p.Exec(regionExpand)
		p.Read(r.actA.Addr(int64(wi)), 8)
		for word := active[wi]; word != 0; word &= word - 1 {
			u := graph.V(wi<<6 + bits.TrailingZeros64(word))
			offs := r.g.Offsets[u]
			p.Read(r.offA.Addr(int64(u)), 8)
			for j, v := range r.g.Neighbors(u) {
				p.Branch(true)
				p.Read(r.adjA.Addr(offs+int64(j)), 4)
				p.Read(r.markA[w].Addr(int64(v>>6)), 8)
				p.Write(r.markA[w].Addr(int64(v>>6)), 8)
				mine.SetSeq(v)
			}
		}
	}
}

// merge is Bitmap.MergeWords, counted.
func (r *pullProfile) merge(w, from, to int) {
	p := r.probes[w]
	rows := r.rows.Words()
	for wi := from; wi < to; wi++ {
		var word uint64
		for s, marks := range r.marks {
			src := marks.Words()
			p.Read(r.markA[s].Addr(int64(wi)), 8)
			p.Branch(src[wi] != 0)
			if src[wi] != 0 {
				word |= src[wi]
				src[wi] = 0
				p.Write(r.markA[s].Addr(int64(wi)), 8)
			}
		}
		rows[wi] = word
		p.Write(r.rowA.Addr(int64(wi)), 8)
	}
}

// relax is pullRounds.relax, counted.
func (r *pullProfile) relax(w, from, to int) {
	p, g, dist := r.probes[w], r.g, r.dist
	rows, active, next := r.rows.Words(), r.active.Words(), r.next.Words()
	for wi := from; wi < to; wi++ {
		p.Read(r.rowA.Addr(int64(wi)), 8)
		for word := rows[wi]; word != 0; word &= word - 1 {
			v := graph.V(wi<<6 + bits.TrailingZeros64(word))
			p.Exec(regionScan)
			p.Read(r.distA.Addr(int64(v)), 8)
			dv := atomicx.LoadFloat64(&dist[v])
			p.Branch(dv <= r.lo)
			if dv <= r.lo {
				continue
			}
			offs := g.Offsets[v]
			p.Read(r.offA.Addr(int64(v)), 8)
			ws := g.NeighborWeights(v)
			best := dv
			for j, u := range g.Neighbors(v) {
				p.Branch(true)
				p.Read(r.adjA.Addr(offs+int64(j)), 4)
				p.Read(r.actA.Addr(int64(u>>6)), 8) // R: active[w]
				hit := active[u>>6]&(1<<(uint(u)&63)) != 0
				p.Branch(hit)
				if !hit {
					continue
				}
				p.Read(r.wA.Addr(offs+int64(j)), 4)
				p.Read(r.distA.Addr(int64(u)), 8) // R line 24/25
				we := 1.0
				if ws != nil {
					we = float64(ws[j])
				}
				if nd := atomicx.LoadFloat64(&dist[u]) + we; nd < best {
					best = nd
				}
			}
			p.Branch(best < dv)
			if best >= dv {
				continue
			}
			p.Lock(r.distA.Addr(int64(v))) // shared bucket-set insert
			p.Write(r.distA.Addr(int64(v)), 8)
			atomicx.StoreFloat64(&dist[v], best)
			if best < r.hi {
				bit := uint64(1) << (uint(v) & 63)
				p.Write(r.nextA.Addr(int64(wi)), 8)
				p.Write(r.actA.Addr(int64(wi)), 8)
				next[wi] |= bit
				active[wi] |= bit
				r.nextEdges[w] += g.Degree(v)
			}
		}
	}
}
