// Package atomicx provides atomic primitives that the Go standard library
// lacks but lock-free graph computations need: atomic float64 accumulation,
// atomic integer/float minimum, test-and-set spinlocks, and cache-line
// padded counters.
//
// The paper ("To Push or To Pull", HPDC'17, §2.3 and §4.9) distinguishes
// integer atomics (FAA, CAS — directly supported by CPUs) from float
// updates, which CPUs do not support atomically and which therefore cost a
// lock or a CAS retry loop. AddFloat64 implements exactly that CAS loop and
// reports the number of retries so callers can account for the extra
// synchronization that push-based PageRank and betweenness centrality pay.
package atomicx

import (
	"math"
	"sync/atomic"
)

// Float64 is an atomically updatable float64. The zero value is 0.0.
type Float64 struct {
	bits atomic.Uint64
}

// Load returns the current value.
func (f *Float64) Load() float64 { return math.Float64frombits(f.bits.Load()) }

// Store sets the value.
func (f *Float64) Store(v float64) { f.bits.Store(math.Float64bits(v)) }

// Add atomically adds delta and returns the new value.
func (f *Float64) Add(delta float64) float64 {
	for {
		old := f.bits.Load()
		next := math.Float64frombits(old) + delta
		if f.bits.CompareAndSwap(old, math.Float64bits(next)) {
			return next
		}
	}
}

// AddFloat64 atomically adds delta to *addr, interpreting the uint64 as the
// IEEE-754 bits of a float64. It returns the number of CAS attempts, which
// is ≥ 1; attempts−1 is the contention (retry) count.
//
// Storing ranks as raw uint64 bit patterns lets a single []uint64 slice be
// shared by all threads with no per-element lock, mirroring the fine-grained
// update style of the paper's push variants.
func AddFloat64(addr *uint64, delta float64) (attempts int) {
	for {
		attempts++
		old := atomic.LoadUint64(addr)
		next := math.Float64frombits(old) + delta
		if atomic.CompareAndSwapUint64(addr, old, math.Float64bits(next)) {
			return attempts
		}
	}
}

// LoadFloat64 atomically reads the float64 stored as bits in *addr.
func LoadFloat64(addr *uint64) float64 {
	return math.Float64frombits(atomic.LoadUint64(addr))
}

// StoreFloat64 atomically writes v as bits into *addr.
func StoreFloat64(addr *uint64, v float64) {
	atomic.StoreUint64(addr, math.Float64bits(v))
}

// MinFloat64 atomically lowers *addr (float64 bits) to v if v is smaller.
// It returns true if the stored value was lowered, along with the number of
// CAS attempts performed (0 when the value was already ≤ v).
//
// This is the relaxation primitive of push-based Δ-stepping: d[w] =
// min(d[w], weight) executed concurrently by many threads.
func MinFloat64(addr *uint64, v float64) (lowered bool, attempts int) {
	for {
		old := atomic.LoadUint64(addr)
		cur := math.Float64frombits(old)
		if cur <= v {
			return lowered, attempts
		}
		attempts++
		if atomic.CompareAndSwapUint64(addr, old, math.Float64bits(v)) {
			return true, attempts
		}
	}
}

// SpinLock is a test-and-test-and-set spinlock. The zero value is unlocked.
//
// The paper counts "locks" as a synchronization event distinct from atomics
// (§2.4); push-based PageRank without float atomics would acquire one lock
// per neighbor update (§4.1). SpinLock is the cheapest lock we can build so
// that lock-based variants measure the protocol cost, not Go's mutex
// machinery.
type SpinLock struct {
	state atomic.Uint32
}

// Lock acquires the lock, spinning until it is available. It returns the
// number of failed acquisition attempts (0 on an uncontended acquire).
func (l *SpinLock) Lock() (spins int) {
	for {
		if l.state.Load() == 0 && l.state.CompareAndSwap(0, 1) {
			return spins
		}
		spins++
	}
}

// Unlock releases the lock. It must only be called by the holder.
func (l *SpinLock) Unlock() { l.state.Store(0) }
