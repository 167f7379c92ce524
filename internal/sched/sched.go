// Package sched provides the thread-scheduling substrate for the push/pull
// algorithm implementations: parallel loops over vertex ranges with static
// or dynamic (chunk-stealing) schedules — the OpenMP schedules compared in
// the paper's §6 — and a deterministic sequential executor used by
// profiled runs so cache-simulation results are reproducible. Each kernel
// fixes the schedule of each of its loops; no run option picks one. The
// §6 comparison is `pushpull ablation`, which times Algorithm 1's push
// under both.
package sched

import (
	"fmt"
	"runtime"
	"runtime/debug"
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
	// The suite's rmat graphs hold their hubs at the low ids, so Static
	// hands worker 0 of two 75 % of the arcs; the pull kernels' loops,
	// whose rows each have one writer, deal their rows this way. Timing
	// decides which worker takes a chunk, so a loop whose result names
	// the worker cannot use it: pr push, whose worker picks the
	// accumulator a term lands in, deals fixed chunks by arc count
	// instead, one deal per graph and thread count.
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
// grain) until the range is exhausted. A body that panics panics on the
// caller: inline at t = 1, and otherwise as a *Panic raised once every
// worker has stopped.
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
	var b barrier
	b.wg.Add(t)
	switch s {
	case Static:
		for w := 0; w < t; w++ {
			go func(w int) {
				defer b.done()
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
				defer b.done()
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
	b.wait()
}

// A Panic is a worker's panic raised again on the goroutine that waits
// for the worker: the value the worker panicked with and the worker's
// stack when it did, which the re-raise would otherwise lose.
type Panic struct {
	Value any
	Stack []byte
}

// Error reports the value and the worker's stack.
func (p *Panic) Error() string { return fmt.Sprintf("%v\n\n%s", p.Value, p.Stack) }

// barrier is what a team's waiter shares with its workers: the count of
// workers still running and the first panic among them.
type barrier struct {
	wg     sync.WaitGroup
	caught atomic.Pointer[Panic]
}

// done ends a worker, deferred: it records the worker's panic, if any,
// instead of letting it end the process.
func (b *barrier) done() {
	if v := recover(); v != nil {
		p, ok := v.(*Panic)
		if !ok {
			p = &Panic{Value: v, Stack: debug.Stack()}
		}
		b.caught.CompareAndSwap(nil, p)
	}
	b.wg.Done()
}

// wait returns once every worker is done, raising the first one's panic.
func (b *barrier) wait() {
	b.wg.Wait()
	if p := b.caught.Swap(nil); p != nil {
		panic(p)
	}
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
