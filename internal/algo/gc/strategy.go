package gc

import (
	"sort"
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
// progress/conflict signal to steer by. The frontier's neighborhood is the
// only state touched per round instead of every vertex — the memory-access
// reduction the strategy exists for.
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
	inF := frontier.NewBitmap(n)
	var f []graph.V
	for v := graph.V(0); v < g.NumV; v++ {
		ok := true
		for _, u := range g.Neighbors(v) {
			if inF.Get(u) {
				ok = false
				break
			}
		}
		if ok {
			inF.SetSeq(v)
			colors[v] = 0
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
	perThread := frontier.NewPerThread(t)
	candMark := frontier.NewBitmap(n)

	// Round bodies hoisted out of the iteration loop so the steady state
	// does not allocate; f is captured by reference, so each round's
	// frontier rebuild stays visible. cands lives across rounds too —
	// Merge resets it, reusing the backing slice.
	var cands frontier.Sparse
	discoverPush := func(w, lo, hi int) {
		for i := lo; i < hi; i++ {
			for _, u := range g.Neighbors(f[i]) {
				if colors[u] < 0 && candMark.Set(u) { // atomic claim
					perThread.Add(w, u)
				}
			}
		}
	}
	discoverPull := func(w, lo, hi int) {
		for vi := lo; vi < hi; vi++ {
			v := graph.V(vi)
			if colors[v] >= 0 {
				continue
			}
			for _, u := range g.Neighbors(v) {
				if inF.Get(u) {
					// Only the owner marks v (the pull invariant),
					// but the bitmap packs 64 vertices per word, so
					// block-boundary words are shared: Set's CAS
					// keeps the word write safe.
					candMark.Set(v)
					perThread.Add(w, v)
					break
				}
			}
		}
	}
	byID := func(i, j int) bool { return cands.Vertices()[i] < cands.Vertices()[j] }

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
		// neighbor. Both produce the same candidate set with different
		// access patterns (and only push needs the atomic claim).
		candMark.Clear()
		if dir == core.Push {
			sched.ParallelFor(len(f), t, sched.Static, 0, discoverPush)
		} else {
			sched.ParallelFor(n, t, sched.Static, 0, discoverPull)
		}
		perThread.Merge(&cands)
		// Canonical id order: the candidate *set* is deterministic, but the
		// per-thread merge order is not (push claims race); sorting makes
		// the winner set — and with it the iteration count — reproducible.
		sort.Slice(cands.Vertices(), byID)

		// Deterministic conflict resolution: a candidate takes the round's
		// color cᵢ unless a neighbor — necessarily a same-round winner,
		// earlier colors are all < cᵢ — already holds it; then it defers.
		// The first candidate always wins, so every round makes progress.
		ci := nextColor
		conflicts = 0
		winners := cands.Vertices()[:0]
		for _, v := range cands.Vertices() {
			ok := true
			for _, u := range g.Neighbors(v) {
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
			winners = append(winners, v)
		}
		nextColor = ci + 1
		colored += len(winners)
		progress = len(winners)

		// New frontier = this round's winners; every deferred loser is
		// adjacent to one, so the next round rediscovers it.
		inF.Clear()
		f = append(f[:0], winners...)
		for _, v := range winners {
			inF.SetSeq(v)
		}

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
