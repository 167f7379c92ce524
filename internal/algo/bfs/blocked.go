package bfs

import (
	"time"

	"pushpull/internal/core"
	"pushpull/internal/frontier"
	"pushpull/internal/graph"
	"pushpull/internal/sched"
)

// Block-sequential bottom-up BFS over an out-of-core BlockCSR, after
// HybridGraph's BPull: every round walks destination blocks in storage
// order, so the adjacency streams sequentially off disk while the
// resident state is three packed bitmaps plus the tree. A per-block
// frontier summary — one bit per block, ORed out of the pending bitmap's
// words — lets a round skip cold blocks (no unvisited vertices) without
// touching their segments at all, which is what makes the late rounds of
// a traversal cheap: once most blocks are settled, a round's I/O shrinks
// to the blocks still holding work.
//
// The kernel is pull-only (every round reports core.Pull): pushing would
// scatter random writes across the file, exactly the traffic the block
// layout exists to avoid. It is also atomics-free by construction —
// BlockVerts is a multiple of 64, so a block's vertices never share a
// bitmap word with another block's, and each block is dealt to exactly
// one worker per round, one block at a time from a shared cursor: every
// word of nextF and pending has a single writer, and level[u] of a
// frontier member was settled in an earlier round. A vertex's parent is
// the first frontier member in its row, whichever worker scans it.

// TraverseBlocked runs a plain BFS from root over a block-format graph.
// For a directed file the stored adjacency is the pull view (in-edges),
// so the traversal follows out-edges — same orientation as the in-memory
// kernels. Levels match TraverseFrom exactly; parents are valid tree
// edges but may differ from a push run's race winners.
func TraverseBlocked(bg *graph.BlockCSR, root graph.V, opt core.Options) (*Tree, []core.Direction, core.RunStats, error) {
	n := bg.N()
	stats := core.RunStats{}
	tree := &Tree{Parent: make([]graph.V, n), Level: make([]int32, n)}
	for i := range tree.Parent {
		tree.Parent[i] = -1
		tree.Level[i] = -1
	}
	if n == 0 {
		return tree, nil, stats, nil
	}
	numBlocks := bg.NumBlocks()
	t := sched.Clamp(opt.Threads, numBlocks)
	blockVerts := int(bg.BlockVerts)

	// pending marks not-yet-claimed vertices; its per-block summary is
	// the skip index. inF/nextF are the frontier double buffer.
	pending := frontier.NewBitmap(n)
	pending.Fill()
	pending.ClearSeq(root)
	inF := frontier.NewBitmap(n)
	inF.SetSeq(root)
	nextF := frontier.NewBitmap(n)
	summary := make([]uint64, (numBlocks+63)/64)
	tree.Parent[root] = root
	tree.Level[root] = 0

	dirs := make([]core.Direction, 0, 64)
	stats.Reserve(64)
	curs := make([]graph.BlockCursor, t)
	errs := make([]error, t)
	parent, level := tree.Parent, tree.Level
	// Hoisted round body: lo/hi are block indices. Claims are plain
	// stores — see the package comment for why no word is contended.
	body := func(w, lo, hi int) {
		cur := &curs[w]
		for bi := lo; bi < hi; bi++ {
			if summary[bi>>6]&(1<<(uint(bi)&63)) == 0 {
				continue // cold block: nothing pending, segment untouched
			}
			if errs[w] != nil {
				return
			}
			if err := bg.Load(bi, cur); err != nil {
				errs[w] = err
				return
			}
			blo, bhi := bg.BlockRange(bi)
			for v := blo; v < bhi; v++ {
				if !pending.Get(v) {
					continue
				}
				for _, u := range cur.Row(v) {
					if !inF.Get(u) {
						continue
					}
					parent[v] = u
					level[v] = level[u] + 1
					nextF.SetSeq(v)     // single writer per word: block-aligned
					pending.ClearSeq(v) // likewise
					break               // early-out: the parent claim landed
				}
			}
		}
	}
	for {
		if opt.Canceled() {
			stats.Canceled = true
			break
		}
		start := time.Now()
		pending.BlockSummary(summary, blockVerts)
		sched.ParallelFor(numBlocks, t, sched.Dynamic, 1, body)
		for _, err := range errs {
			if err != nil {
				return nil, dirs, stats, err
			}
		}
		dirs = append(dirs, core.Pull)
		el := time.Since(start)
		stats.Record(el)
		opt.Tick(stats.Iterations-1, el)
		if nextF.Count() == 0 {
			break
		}
		inF, nextF = nextF, inF
		nextF.Clear()
	}
	return tree, dirs, stats, nil
}
