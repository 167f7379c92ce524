// Package allocfix exercises kernelalloc: heap allocations inside hot
// kernel loops (ones recording per-iteration progress) are flagged;
// hoisted buffers, cold loops, and //pushpull:allow alloc sites are not.
package allocfix

import "time"

type stats struct{}

func (s *stats) Record(d time.Duration) {}

type node struct{ v int }

func badMake(st *stats, rounds, n int) {
	for i := 0; i < rounds; i++ {
		buf := make([]int, n) // want `make allocates per iteration`
		_ = buf
		st.Record(0)
	}
}

func badClosure(st *stats, rounds int) {
	sum := 0
	for i := 0; i < rounds; i++ {
		f := func(x int) int { return x + i } // want `closure allocated per iteration`
		sum = f(sum)
		st.Record(0)
	}
	_ = sum
}

func badComposite(st *stats, rounds int) *node {
	var last *node
	for i := 0; i < rounds; i++ {
		last = &node{v: i} // want `&composite literal escapes`
		st.Record(0)
	}
	return last
}

func badMap(st *stats, rounds int) map[int]int {
	m := map[int]int{}
	for i := 0; i < rounds; i++ {
		m[i] = i // want `map write in a hot kernel loop`
		st.Record(0)
	}
	return m
}

// goodHoisted reuses a run-scoped buffer: nothing allocates inside the
// hot loop.
func goodHoisted(st *stats, rounds, n int) {
	buf := make([]int, n)
	for i := 0; i < rounds; i++ {
		for j := range buf {
			buf[j] = j
		}
		st.Record(0)
	}
}

// coldLoop never records progress, so it is not a hot kernel loop.
func coldLoop(rounds, n int) {
	for i := 0; i < rounds; i++ {
		_ = make([]int, n)
	}
}

func allowedFrontier(st *stats, rounds int) {
	for i := 0; i < rounds; i++ {
		frontier := make([]int, 0, i) //pushpull:allow alloc frontier size is data-dependent per level
		_ = frontier
		st.Record(0)
	}
}

// goodHubRefresh mirrors pull PageRank's per-iteration contrib scale
// pass: the contribution vector is hoisted once and refreshed in place
// each iteration, so the hot loop never touches the allocator.
func goodHubRefresh(st *stats, rounds, hubs int) {
	contrib := make([]float64, hubs)
	for i := 0; i < rounds; i++ {
		for h := range contrib {
			contrib[h] = float64(h + i)
		}
		st.Record(0)
	}
}

// badHubRefresh rebuilds the buffer per iteration — the mistake the
// hoisted refresh exists to avoid.
func badHubRefresh(st *stats, rounds, hubs int) {
	for i := 0; i < rounds; i++ {
		contrib := make([]float64, hubs) // want `make allocates per iteration`
		for h := range contrib {
			contrib[h] = float64(h + i)
		}
		st.Record(0)
	}
}

// goodBitmapSwap double-buffers two hoisted packed frontiers: the round
// loop clears and swaps, never reallocates.
func goodBitmapSwap(st *stats, rounds, words int) {
	curr := make([]uint64, words)
	next := make([]uint64, words)
	for i := 0; i < rounds; i++ {
		for w := range next {
			next[w] = 0
		}
		curr, next = next, curr
		st.Record(0)
	}
	_ = curr
}

// badBitmapPerRound allocates a fresh packed frontier every round.
func badBitmapPerRound(st *stats, rounds, words int) {
	var frontier []uint64
	for i := 0; i < rounds; i++ {
		frontier = make([]uint64, words) // want `make allocates per iteration`
		frontier[0] = 1
		st.Record(0)
	}
	_ = frontier
}

// blockCursor stands in for the out-of-core reader's per-worker scratch:
// Load grows its buffer at most once, so the cursor must be hoisted
// outside the round loop, never rebuilt inside it.
type blockCursor struct{ buf []byte }

func (c *blockCursor) load(block, size int) {
	if cap(c.buf) < size {
		c.buf = make([]byte, size) //pushpull:allow alloc grow-once block scratch, reused across loads
	}
	c.buf = c.buf[:size]
}

// goodBlockIteration mirrors the block-sequential pull kernels: one
// cursor per worker, hoisted before the round loop, its grow-once buffer
// amortized across every block of every round.
func goodBlockIteration(st *stats, rounds, blocks, size int) {
	var cur blockCursor
	for i := 0; i < rounds; i++ {
		for b := 0; b < blocks; b++ {
			cur.load(b, size)
			_ = cur.buf
		}
		st.Record(0)
	}
}

// badBlockIteration rebuilds the cursor's buffer per round, defeating
// the grow-once amortization the cursor exists for.
func badBlockIteration(st *stats, rounds, blocks, size int) {
	for i := 0; i < rounds; i++ {
		cur := blockCursor{buf: make([]byte, size)} // want `make allocates per iteration`
		for b := 0; b < blocks; b++ {
			cur.load(b, size)
			_ = cur.buf
		}
		st.Record(0)
	}
}
