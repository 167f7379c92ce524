// Package sched provides the thread-scheduling substrate for the push/pull
// algorithm implementations: parallel loops over vertex ranges with static
// or dynamic (chunk-stealing) schedules — the OpenMP schedules compared in
// the paper's §6 — a reusable barrier (used by the Partition-Awareness
// strategy's two-phase iteration, Algorithm 8), and a deterministic
// sequential executor used by profiled runs so cache-simulation results are
// reproducible.
package sched

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Schedule selects how ParallelFor distributes iterations over workers.
type Schedule int

const (
	// Static divides the index range into T contiguous blocks, one per
	// worker — the layout that makes vertex ownership t[v] contiguous.
	Static Schedule = iota
	// Dynamic hands out fixed-size chunks from a shared atomic cursor,
	// balancing skewed per-vertex work (power-law degree distributions).
	Dynamic
)

// String names the schedule.
func (s Schedule) String() string {
	switch s {
	case Static:
		return "static"
	case Dynamic:
		return "dynamic"
	default:
		return "unknown"
	}
}

// DefaultThreads returns the runtime's available parallelism.
func DefaultThreads() int { return runtime.GOMAXPROCS(0) }

// Clamp bounds t to [1, n] with a GOMAXPROCS default for t <= 0.
func Clamp(t, n int) int {
	if t <= 0 {
		t = DefaultThreads()
	}
	if n < 1 {
		n = 1
	}
	if t > n {
		t = n
	}
	return t
}

// BlockRange returns the half-open range [lo, hi) of block w out of t
// blocks over n items: the 1D ownership decomposition of §2.2. Blocks
// differ in size by at most one item.
func BlockRange(n, t, w int) (lo, hi int) {
	base := n / t
	rem := n % t
	if w < rem {
		lo = w * (base + 1)
		hi = lo + base + 1
		return
	}
	lo = rem*(base+1) + (w-rem)*base
	hi = lo + base
	return
}

// OwnerOf returns which of t blocks owns index i under BlockRange; this is
// the paper's t[v] owner function, computable in O(1).
func OwnerOf(n, t, i int) int {
	base := n / t
	rem := n % t
	pivot := rem * (base + 1)
	if i < pivot {
		return i / (base + 1)
	}
	if base == 0 {
		return rem // degenerate: more threads than items
	}
	return rem + (i-pivot)/base
}

// ParallelFor runs body over [0, n) with t workers under the given
// schedule. body receives the worker id and a half-open sub-range. With
// Static, each worker gets exactly one contiguous block (its "partition");
// with Dynamic, workers pull chunks of the given grain (0 ⇒ a heuristic
// grain) until the range is exhausted.
func ParallelFor(n, t int, s Schedule, grain int, body func(worker, lo, hi int)) {
	if n <= 0 {
		return
	}
	t = Clamp(t, n)
	if t == 1 {
		// Inline fast path. The goroutine-spawning path lives in its own
		// function because its closures capture t and grain, which would
		// otherwise be moved to the heap at entry — two allocations per
		// call even when this path never spawns anything, putting the
		// allocator inside every single-threaded kernel iteration.
		body(0, 0, n)
		return
	}
	parallelFor(n, t, s, grain, body)
}

// parallelFor is the multi-worker slow path of ParallelFor.
func parallelFor(n, t int, s Schedule, grain int, body func(worker, lo, hi int)) {
	var wg sync.WaitGroup
	wg.Add(t)
	switch s {
	case Static:
		for w := 0; w < t; w++ {
			go func(w int) {
				defer wg.Done()
				lo, hi := BlockRange(n, t, w)
				if lo < hi {
					body(w, lo, hi)
				}
			}(w)
		}
	default: // Dynamic
		if grain <= 0 {
			grain = n / (t * 8)
			if grain < 1 {
				grain = 1
			}
		}
		var cursor atomic.Int64
		for w := 0; w < t; w++ {
			go func(w int) {
				defer wg.Done()
				for {
					lo := int(cursor.Add(int64(grain))) - grain
					if lo >= n {
						return
					}
					hi := lo + grain
					if hi > n {
						hi = n
					}
					body(w, lo, hi)
				}
			}(w)
		}
	}
	wg.Wait()
}

// SequentialFor partitions [0, n) into t blocks exactly as ParallelFor with
// Static would, but executes them in worker order on the calling goroutine.
// Profiled (cache-simulated) runs use it so that the interleaving — and
// therefore every cache and TLB miss — is deterministic.
func SequentialFor(n, t int, body func(worker, lo, hi int)) {
	if n <= 0 {
		return
	}
	t = Clamp(t, n)
	for w := 0; w < t; w++ {
		lo, hi := BlockRange(n, t, w)
		if lo < hi {
			body(w, lo, hi)
		}
	}
}

// Barrier is a reusable synchronization barrier for a fixed number of
// parties, in the style of the "lightweight barrier" of Algorithm 8.
type Barrier struct {
	mu      sync.Mutex
	cond    *sync.Cond
	parties int
	waiting int
	phase   uint64
}

// NewBarrier creates a barrier for n parties (n ≥ 1).
func NewBarrier(n int) *Barrier {
	if n < 1 {
		n = 1
	}
	b := &Barrier{parties: n}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// Wait blocks until all parties have called Wait, then releases them all.
// The barrier resets automatically for reuse.
func (b *Barrier) Wait() {
	b.mu.Lock()
	phase := b.phase
	b.waiting++
	if b.waiting == b.parties {
		b.waiting = 0
		b.phase++
		b.cond.Broadcast()
		b.mu.Unlock()
		return
	}
	for phase == b.phase {
		b.cond.Wait()
	}
	b.mu.Unlock()
}

// Pool is a reusable team of worker goroutines with stable ids. Using one
// pool across iterations avoids re-spawning goroutines in tight
// per-iteration loops (PageRank, coloring rounds).
type Pool struct {
	t    int
	jobs []chan func(worker int)
	done chan struct{}
	wg   sync.WaitGroup
}

// NewPool starts a pool with t workers.
func NewPool(t int) *Pool {
	if t < 1 {
		t = 1
	}
	p := &Pool{t: t, jobs: make([]chan func(worker int), t), done: make(chan struct{})}
	for w := 0; w < t; w++ {
		p.jobs[w] = make(chan func(worker int))
		go func(w int) {
			for job := range p.jobs[w] {
				job(w)
				p.wg.Done()
			}
		}(w)
	}
	return p
}

// Threads returns the worker count.
func (p *Pool) Threads() int { return p.t }

// Run executes body once on every worker and waits for all to finish.
func (p *Pool) Run(body func(worker int)) {
	p.wg.Add(p.t)
	for w := 0; w < p.t; w++ {
		p.jobs[w] <- body
	}
	p.wg.Wait()
}

// For runs body over [0, n) statically partitioned across the pool.
func (p *Pool) For(n int, body func(worker, lo, hi int)) {
	if n <= 0 {
		return
	}
	p.Run(func(w int) {
		lo, hi := BlockRange(n, p.t, w)
		if lo < hi {
			body(w, lo, hi)
		}
	})
}

// Close shuts the pool down. The pool must be idle.
func (p *Pool) Close() {
	for _, c := range p.jobs {
		close(c)
	}
}
