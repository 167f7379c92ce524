package sssp

import (
	"time"

	"pushpull/internal/atomicx"
	"pushpull/internal/core"
	"pushpull/internal/frontier"
	"pushpull/internal/graph"
	"pushpull/internal/sched"
)

// Adaptive runs Δ-stepping with per-inner-iteration direction switching —
// the traversal push↔pull switching the paper credits with the highest
// performance (§7.2, after Beamer [4] and Chakaravarthy [17]): relax the
// current bucket by pushing while that is the cheaper side of the
// direction-optimizing trade-off of §4.4, and by pulling once the edges a
// pull round would read are few enough against the edges the bucket would
// push along.
//
// The result matches Push, Pull and Dijkstra; Result.Dirs records the
// direction chosen for every inner iteration.
type AdaptiveResult struct {
	*Result
	Dirs []core.Direction
}

// Adaptive runs the switching Δ-stepping variant.
func Adaptive(g *graph.CSR, opt Options) *AdaptiveResult {
	n := g.N()
	res := &AdaptiveResult{Result: &Result{Dist: make([]float64, n)}}
	if n == 0 {
		return res
	}
	t := sched.Clamp(opt.Threads, n)
	h := frontier.DefaultSwitch()
	res.Stats.Reserve(64)
	res.Dirs = make([]core.Direction, 0, 64)

	// The pull rounds and their scratch belong to the run. Their bucket
	// bounds serve the push rounds too, so that both directions agree on
	// the bucket a distance is in.
	p := newPullRounds(g, opt.Source, resolveDelta(g, opt.Delta), t)
	p.later = frontier.NewBitmap(n)
	var lowered frontier.Sparse // what a pull round's bitmaps are read out into

	buckets := [][]graph.V{{opt.Source}}
	inRound := frontier.NewBitmap(n)
	perThread := make([][]graph.V, t)
	// enqueue files v under the later bucket its distance is in.
	enqueue := func(v graph.V) {
		nb := p.bucketOf(atomicx.LoadFloat64(&p.dist[v]))
		for len(buckets) <= nb {
			buckets = append(buckets, nil)
		}
		buckets[nb] = append(buckets[nb], v)
	}

	for b := 0; b < len(buckets); b++ {
		cur := buckets[b]
		buckets[b] = nil
		if len(cur) == 0 {
			continue
		}
		res.Epochs++
		p.setBucket(b)
		for len(cur) > 0 {
			if opt.Canceled() {
				res.Stats.Canceled = true
				break
			}
			start := time.Now()
			res.Inner++
			// Direction decision, on what each side would touch: a push
			// round relaxes the bucket's out-edges with an atomic minimum
			// each; a pull round reads the in-edges of the unsettled rows
			// those out-edges lead to (every row's, at most all m, when the
			// bucket is large enough to skip marking them), without
			// atomics. Below n/β vertices the bucket is pushed unasked: a
			// pull round's fixed cost — n/64 words per phase and worker,
			// two more fork-joins — is already more than pushing it.
			usePull := false
			if int64(len(cur))*h.Beta >= int64(n) {
				activeEdges := p.setActive(cur)
				rowEdges := g.M()
				if dense := p.markRows(activeEdges); !dense {
					rowEdges = p.rowEdges()
				}
				usePull = h.UsePull(activeEdges, rowEdges, len(cur), n)
			}
			if usePull {
				res.Dirs = append(res.Dirs, core.Pull)
				p.relaxRows()
				// Route improvements exactly like the push merge: what
				// landed in bucket b (the active set relaxRows leaves
				// behind) continues the epoch, later buckets are queued.
				p.active.ToSparse(&lowered)
				cur = append(cur[:0], lowered.Vertices()...)
				p.later.ToSparse(&lowered)
				p.later.Clear()
				for _, v := range lowered.Vertices() {
					enqueue(v)
				}
			} else {
				res.Dirs = append(res.Dirs, core.Push)
				cur = adaptivePushRound(p, cur, perThread, inRound, enqueue)
			}
			el := time.Since(start)
			res.Stats.Record(el)
			opt.Tick(res.Inner-1, el)
		}
		if res.Stats.Canceled {
			break
		}
	}
	p.distances(res.Dist)
	return res
}

// setActive makes the vertices of vs that are still in the current bucket
// the active set and returns their out-edge work. A bucket list holds a
// vertex under every bucket it was ever lowered into; the entries it has
// left behind for an earlier bucket are dropped here.
func (p *pullRounds) setActive(vs []graph.V) int64 {
	p.active.Clear()
	var edges int64
	for _, v := range vs {
		if atomicx.LoadFloat64(&p.dist[v]) >= p.lo && !p.active.Get(v) {
			p.active.SetSeq(v)
			edges += p.g.Degree(v)
		}
	}
	return edges
}

// adaptivePushRound relaxes the bucket's out-edges with atomic minima and
// returns the refreshed current-bucket list.
func adaptivePushRound(p *pullRounds, cur []graph.V, perThread [][]graph.V,
	inRound *frontier.Bitmap, enqueue func(graph.V)) []graph.V {

	g, distBits := p.g, p.dist
	sched.ParallelFor(len(cur), p.t, sched.Static, 0, func(w, lo, hi int) {
		for i := lo; i < hi; i++ {
			v := cur[i]
			dv := atomicx.LoadFloat64(&distBits[v])
			if dv < p.lo {
				continue // stale entry: v moved to an earlier bucket
			}
			ws := g.NeighborWeights(v)
			for j, u := range g.Neighbors(v) {
				we := 1.0
				if ws != nil {
					we = float64(ws[j])
				}
				if lowered, _ := atomicx.MinFloat64(&distBits[u], dv+we); lowered {
					perThread[w] = append(perThread[w], u)
				}
			}
		}
	})
	// Deterministic merge of the per-thread buffers, on each vertex's
	// final distance: a later relaxation may have lowered it further.
	// Nothing lands below bucket b, whose members are the only sources.
	inRound.Clear()
	next := cur[:0:0]
	for w := range perThread {
		for _, v := range perThread[w] {
			if atomicx.LoadFloat64(&distBits[v]) >= p.hi {
				enqueue(v)
			} else if inRound.Set(v) {
				next = append(next, v)
			}
		}
		perThread[w] = perThread[w][:0]
	}
	return next
}
