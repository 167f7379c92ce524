package gc

import (
	"math/bits"
	"time"

	"pushpull/internal/core"
	"pushpull/internal/frontier"
	"pushpull/internal/graph"
	"pushpull/internal/sched"
)

// FrontierExploit runs the FE strategy of §5: a maximal independent set is
// colored c₀ first; each iteration i colors the uncolored neighbors of the
// current frontier with the single fresh color cᵢ. A candidate whose
// neighbor already took cᵢ this round defers — it is adjacent to a winner,
// so the next frontier rediscovers it — which is what gives the strategy
// its multi-round traversal structure and gives Generic-Switch a real
// progress/conflict signal to steer by.
//
// A round touches the frontier's neighborhood, not every vertex — the
// memory-access reduction the strategy exists for — and each phase reads an
// arc at most once. Discovery marks candidates in per-worker bitmaps with
// plain stores: push marks every uncolored target of a frontier arc, pull
// marks an uncolored row at its first frontier neighbor. A word-parallel
// merge ORs them into the candidate bitmap, so no worker writes a word
// another worker writes. Resolution (see resolve) then runs in that bitmap
// itself: in increasing id, a candidate whose bit is still set wins and
// clears its neighbors' bits, and a cleared one loses without reading an
// arc. Round 0's maximal independent set is the same resolve over a full
// bitmap. The bitmap left holding the winners becomes the next frontier.
// The adjacency must be symmetric (coloring is undirected): a loser learns
// of its winning neighbor through the winner's arc to it.
//
// policy steers the run: core.NeverSwitch{} is plain FE, a
// core.GenericSwitch adds GS (flip push↔pull when conflicts dominate), and
// a core.GreedySwitch adds GrS (fall back to the sequential greedy scheme
// for the remainder). dir is the starting direction.
func FrontierExploit(g *graph.CSR, opt Options, dir core.Direction, policy core.SwitchPolicy) *Result {
	opt.defaults()
	if policy == nil {
		policy = core.NeverSwitch{}
	}
	n := g.N()
	res := &Result{Colors: make([]int32, n)}
	res.Stats.Direction = dir
	if n == 0 {
		return res
	}
	colors := make([]int32, n)
	for i := range colors {
		colors[i] = -1
	}
	t := sched.Clamp(opt.Threads, n)

	// Round 0: greedy maximal independent set, colored c₀ = 0.
	start := time.Now()
	inF, candMark := frontier.NewBitmap(n), frontier.NewBitmap(n)
	inF.Fill()
	f := resolve(g, inF, nil)
	for _, v := range f {
		colors[v] = 0
	}
	colored := len(f)
	nextColor := int32(1)
	res.Iterations++
	res.Dirs = append(res.Dirs, dir)
	res.Stats.Record(time.Since(start))
	opt.Tick(0, res.Stats.PerIteration[0])

	progress, conflicts := colored, 0
	marks := make([]*frontier.Bitmap, t)
	for w := range marks {
		marks[w] = frontier.NewBitmap(n)
	}

	// Round bodies hoisted out of the iteration loop so the steady state
	// does not allocate; f, inF and candMark are captured by reference, so
	// each round's swap stays visible.
	discoverPush := func(w, lo, hi int) {
		mine := marks[w]
		for i := lo; i < hi; i++ {
			for _, u := range g.Neighbors(f[i]) {
				if colors[u] < 0 {
					mine.SetSeq(u)
				}
			}
		}
	}
	discoverPull := func(w, lo, hi int) {
		mine := marks[w]
		for vi := lo; vi < hi; vi++ {
			v := graph.V(vi)
			if colors[v] >= 0 {
				continue
			}
			for _, u := range g.Neighbors(v) {
				if inF.Get(u) {
					mine.SetSeq(v)
					break
				}
			}
		}
	}
	merge := func(_, lo, hi int) { candMark.MergeWords(marks, lo, hi) }
	nw := len(candMark.Words())

	for colored < n && res.Iterations < opt.MaxIters {
		if opt.Canceled() {
			res.Stats.Canceled = true
			break
		}
		start = time.Now()
		switch policy.Decide(res.Iterations, progress, conflicts, n-colored) {
		case core.SwitchDirection:
			if dir == core.Push {
				dir = core.Pull
			} else {
				dir = core.Push
			}
		case core.GoSequential:
			// GrS: finish the small remainder with the optimized greedy
			// scheme — one final "iteration".
			greedyColorSubset(g, colors, nil)
			colored = n
			res.Iterations++
			res.Dirs = append(res.Dirs, dir)
			el := time.Since(start)
			res.Stats.Record(el)
			opt.Tick(res.Iterations-1, el)
			continue
		}

		// Candidate discovery: push lets frontier vertices mark uncolored
		// neighbors; pull lets uncolored vertices search for a frontier
		// neighbor. Both mark the same candidate set, with different
		// access patterns, and the merge overwrites every word of
		// candMark, so last round's bits need no clearing.
		if dir == core.Push {
			sched.ParallelFor(len(f), t, sched.Static, 0, discoverPush)
		} else {
			sched.ParallelFor(n, t, sched.Static, 0, discoverPull)
		}
		sched.ParallelFor(nw, t, sched.Static, 0, merge)

		// Deterministic conflict resolution in id order: a candidate takes
		// the round's color cᵢ unless a lower-id winner of this round is
		// its neighbor, then it defers. The first candidate always wins,
		// so every round makes progress, and the winner set — with it the
		// iteration count — does not depend on the thread count.
		ci := nextColor
		cands := candMark.Count()
		f = resolve(g, candMark, f[:0])
		for _, v := range f {
			colors[v] = ci
		}
		nextColor = ci + 1
		colored += len(f)
		progress = len(f)
		conflicts = cands - len(f)

		// New frontier = this round's winners, left set in candMark;
		// every deferred loser is adjacent to one, so the next round
		// rediscovers it.
		inF, candMark = candMark, inF

		res.Iterations++
		res.Dirs = append(res.Dirs, dir)
		el := time.Since(start)
		res.Stats.Record(el)
		opt.Tick(res.Iterations-1, el)
		if progress == 0 {
			// No frontier-adjacent uncolored vertex remains (isolated
			// leftovers); finish them greedily.
			greedyColorSubset(g, colors, nil)
			colored = n
		}
	}
	if colored < n && !res.Stats.Canceled {
		// The MaxIters bound cut the run short (one fresh color per round
		// means high-chromatic graphs need many rounds): finish the
		// remainder with the sequential greedy scheme as one final
		// iteration, so the returned coloring is always valid.
		start = time.Now()
		greedyColorSubset(g, colors, nil)
		res.Iterations++
		res.Dirs = append(res.Dirs, dir)
		el := time.Since(start)
		res.Stats.Record(el)
		opt.Tick(res.Iterations-1, el)
	}
	copy(res.Colors, colors)
	res.NumColors = CountColors(res.Colors)
	// A Generic-Switch flip mid-run changes dir; report the direction the
	// run finished in, with Dirs carrying the full per-iteration truth.
	res.Stats.Direction = dir
	return res
}

// resolve appends to winners, in increasing id, every vertex of b whose bit
// is still set when the walk reaches it, and clears the bits of each
// winner's neighbors as it goes: a vertex loses exactly when a lower-id
// winner is its neighbor, and a loser reads no arc. The winner clears its
// whole row, so the outcome does not depend on the order of a row's
// neighbors. b is left holding exactly the winners (a self-loop clears a
// winner's own bit, which is set again).
func resolve(g *graph.CSR, b *frontier.Bitmap, winners []graph.V) []graph.V {
	words := b.Words()
	for wi := range words {
		for w := words[wi]; w != 0; {
			bit := uint(bits.TrailingZeros64(w))
			v := graph.V(wi<<6 | int(bit))
			winners = append(winners, v)
			for _, u := range g.Neighbors(v) {
				b.ClearSeq(u)
			}
			b.SetSeq(v)
			// Only bits above v are left to walk, as they stand now.
			w = words[wi] &^ (2<<bit - 1)
		}
	}
	return winners
}

// GrS is the paper's Greedy-Switch configuration for coloring: FE with a
// fallback to sequential greedy once fewer than fraction·n vertices remain
// (the paper observes thrashing below 0.1·n, §5).
func GrS(g *graph.CSR, opt Options, dir core.Direction, fraction float64) *Result {
	if fraction <= 0 {
		fraction = 0.1
	}
	return FrontierExploit(g, opt, dir, &core.GreedySwitch{Fraction: fraction, Total: g.N()})
}

// GS is the paper's Generic-Switch configuration: FE that flips direction
// when the progress/conflict ratio of an iteration falls below threshold.
func GS(g *graph.CSR, opt Options, dir core.Direction, threshold float64) *Result {
	if threshold <= 0 {
		threshold = 1
	}
	return FrontierExploit(g, opt, dir, &core.GenericSwitch{Threshold: threshold})
}
