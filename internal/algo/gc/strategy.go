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
// Resolution (see resolve) runs in the candidate bitmap: in increasing
// id, a candidate whose bit is still set wins and clears its neighbors'
// bits, and a cleared one loses without reading an arc. A pushed round's
// winners, in that same row walk, mark their neighbors in a second bitmap;
// with every colored vertex taken out, word by word, it is the next
// round's candidate set, so a pushed round reads each winner's row once
// and push has no discovery phase of its own. A pulled round discovers
// instead: workers draw chunks of whole bitmap words, and every uncolored
// vertex of a word scans its row for a frontier neighbor (the last round's
// winners, left set in their candidate bitmap); the worker stores the word
// it built, so each word has one writer and a colored vertex costs one
// bit. A pulled round thus reads a winner's row twice: up to its first
// frontier neighbor in discovery, and whole in resolution. A push round
// after a pull round, a Generic-Switch flip, finds no marks waiting and
// runs the pull discovery once. Round 0's maximal independent set is the
// same resolve over a full bitmap. The adjacency must be symmetric
// (coloring is undirected): a loser learns of its winning neighbor through
// the winner's arc to it.
//
// Beside the returned colors, the run allocates four n-bit bitmaps —
// frontier, candidates, next candidates and colored — 4·n/8 bytes at any
// thread count.
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
	colors := res.Colors
	for i := range colors {
		colors[i] = -1
	}
	t := sched.Clamp(opt.Threads, n)

	inF, cand := frontier.NewBitmap(n), frontier.NewBitmap(n)
	next, done := frontier.NewBitmap(n), frontier.NewBitmap(n)
	nw := len(done.Words())
	// tail masks the last word's bits past n, which are never uncolored.
	tail := ^uint64(0) >> (uint(-n) & 63)
	marked := false // a pushed round left the next candidates in cand

	// Round bodies hoisted out of the iteration loop so the steady state
	// does not allocate; the bitmaps are captured by reference, so each
	// round's rotation stays visible.
	discoverPull := func(_, lo, hi int) {
		cw, dw := cand.Words(), done.Words()
		for wi := lo; wi < hi; wi++ {
			open := ^dw[wi]
			if wi == nw-1 {
				open &= tail
			}
			var word uint64
			for ; open != 0; open &= open - 1 {
				bit := uint(bits.TrailingZeros64(open))
				for _, u := range g.Neighbors(graph.V(wi<<6 | int(bit))) {
					if inF.Get(u) {
						word |= 1 << bit
						break
					}
				}
			}
			cw[wi] = word
		}
	}
	// settle resolves cand with color ci, marking next when the round is
	// pushed, and rotates the bitmaps: the winners become the frontier and
	// a pushed round's marks, less every colored vertex, the candidates.
	settle := func(ci int32) int {
		var mark *frontier.Bitmap
		if dir == core.Push {
			next.Clear()
			mark = next
		}
		won := resolve(g, cand, mark, colors, ci)
		dw, cw, mw := done.Words(), cand.Words(), next.Words()
		for i := range dw {
			dw[i] |= cw[i]
			if mark != nil {
				mw[i] &^= dw[i]
			}
		}
		inF, cand = cand, inF
		marked = mark != nil
		if marked {
			cand, next = next, cand
		}
		return won
	}

	// Round 0: greedy maximal independent set, colored c₀ = 0.
	start := time.Now()
	cand.Fill()
	colored := settle(0)
	nextColor := int32(1)
	res.Iterations++
	res.Dirs = append(res.Dirs, dir)
	res.Stats.Record(time.Since(start))
	opt.Tick(0, res.Stats.PerIteration[0])

	progress, conflicts := colored, 0
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

		// The candidates are the uncolored neighbors of the frontier. A
		// pushed round's winners marked them already; otherwise every
		// uncolored vertex searches for a frontier neighbor.
		if dir == core.Pull || !marked {
			sched.ParallelFor(nw, t, sched.Dynamic, chunkWords, discoverPull)
		}

		// Deterministic conflict resolution in id order: a candidate takes
		// the round's color cᵢ unless a lower-id winner of this round is
		// its neighbor, then it defers. The first candidate always wins,
		// so every round makes progress, and the winner set — with it the
		// iteration count — does not depend on the thread count. Every
		// deferred loser is adjacent to a winner, so the next round
		// rediscovers it.
		cands := cand.Count()
		progress = settle(nextColor)
		nextColor++
		colored += progress
		conflicts = cands - progress

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
	res.NumColors = CountColors(res.Colors)
	// A Generic-Switch flip mid-run changes dir; report the direction the
	// run finished in, with Dirs carrying the full per-iteration truth.
	res.Stats.Direction = dir
	return res
}

// chunkWords is how many candidate-bitmap words (64 vertices each) a pull
// worker draws at a time: rmat's hubs sit at low ids, so equal static
// blocks would leave one worker most of the rows to scan.
const chunkWords = 8

// resolve colors ci, in increasing id, every vertex of b whose bit is
// still set when the walk reaches it, and clears the bits of each winner's
// neighbors as it goes: a vertex loses exactly when a lower-id winner is
// its neighbor, and a loser reads no arc. The winner clears its whole row,
// so the outcome does not depend on the order of a row's neighbors. b is
// left holding exactly the winners (a self-loop clears a winner's own bit,
// which is set again). A non-nil next gets, in the same row walk, the bit
// of every winner's neighbor. resolve returns the number of winners.
func resolve(g *graph.CSR, b, next *frontier.Bitmap, colors []int32, ci int32) int {
	words := b.Words()
	var marks []uint64
	if next != nil {
		marks = next.Words()
	}
	won := 0
	for wi := range words {
		for w := words[wi]; w != 0; {
			bit := uint(bits.TrailingZeros64(w))
			v := graph.V(wi<<6 | int(bit))
			colors[v] = ci
			won++
			if marks == nil {
				for _, u := range g.Neighbors(v) {
					words[u>>6] &^= 1 << (uint(u) & 63)
				}
			} else {
				for _, u := range g.Neighbors(v) {
					m := uint64(1) << (uint(u) & 63)
					words[u>>6] &^= m
					marks[u>>6] |= m
				}
			}
			words[wi] |= 1 << bit
			// Only bits above v are left to walk, as they stand now.
			w = words[wi] &^ (2<<bit - 1)
		}
	}
	return won
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
