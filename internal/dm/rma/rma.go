// Package rma implements the Remote Memory Access programming model of the
// paper's distributed experiments (§6.3), after foMPI [25]: windows exposed
// by every rank, one-sided Put/Get, float Accumulate, integer
// fetch-and-add, CAS, and Flush.
//
// Two costs carry the §6.3 findings: AccumulateFloat charges the expensive
// locking protocol real MPI implementations use for float accumulation
// (making push-RMA PageRank the slowest variant), while FAAInt64 charges
// the hardware fast path for 64-bit integers (making RMA beat MP for
// triangle counting). Operations on the caller's own window segment charge
// only local cost and no remote counters.
package rma

import (
	"fmt"
	"sync/atomic"

	"pushpull/internal/atomicx"
	"pushpull/internal/counters"
	"pushpull/internal/dm"
)

// FloatWin is a float64 window distributed over all ranks: segment i lives
// on rank i. Values are stored as bits so concurrent accumulates are
// lock-free exactly like the shared-memory push variants.
type FloatWin struct {
	cluster *dm.Cluster
	seg     [][]uint64
}

// NewFloatWin creates a window with the given per-rank segment sizes.
func NewFloatWin(c *dm.Cluster, sizes []int) (*FloatWin, error) {
	if len(sizes) != c.P {
		return nil, fmt.Errorf("rma: %d segment sizes for %d ranks", len(sizes), c.P)
	}
	w := &FloatWin{cluster: c, seg: make([][]uint64, c.P)}
	for i, s := range sizes {
		if s < 0 {
			return nil, fmt.Errorf("rma: negative segment size %d", s)
		}
		w.seg[i] = make([]uint64, s) //pushpull:allow atomicmix constructor runs before the window is shared; only elements race, never the headers
	}
	return w, nil
}

// SegLen returns the length of rank t's segment.
func (w *FloatWin) SegLen(t int) int { return len(w.seg[t]) } //pushpull:allow atomicmix segment headers are immutable after construction; the atomics guard elements

// Get reads element idx of rank target's segment.
func (w *FloatWin) Get(r *dm.Rank, target, idx int) float64 {
	cost := w.cluster.Cost
	if target == r.ID {
		r.Charge(cost.LocalOp)
	} else {
		r.Charge(cost.RemoteGet + cost.ByteCost*8)
		r.Rec().Inc(counters.RemoteReads)
	}
	return atomicx.LoadFloat64(&w.seg[target][idx])
}

// Put writes element idx of rank target's segment.
func (w *FloatWin) Put(r *dm.Rank, target, idx int, v float64) {
	cost := w.cluster.Cost
	if target == r.ID {
		r.Charge(cost.LocalOp)
	} else {
		r.Charge(cost.RemotePut + cost.ByteCost*8)
		r.Rec().Inc(counters.RemoteWrites)
	}
	atomicx.StoreFloat64(&w.seg[target][idx], v)
}

// Accumulate atomically adds delta to element idx of rank target's segment
// — MPI_Accumulate on floats, charged with the locking-protocol cost that
// makes push-RMA PageRank slow (§6.3.1).
func (w *FloatWin) Accumulate(r *dm.Rank, target, idx int, delta float64) {
	cost := w.cluster.Cost
	if target == r.ID {
		r.Charge(cost.FloatAccum / 4) // local accumulate: no wire, same protocol
	} else {
		r.Charge(cost.FloatAccum + cost.ByteCost*8)
		r.Rec().Inc(counters.RemoteAtomics)
	}
	atomicx.AddFloat64(&w.seg[target][idx], delta)
}

// Flush completes all outstanding operations to target.
func (w *FloatWin) Flush(r *dm.Rank, target int) {
	r.Charge(w.cluster.Cost.Flush)
}

// Local returns the caller's own segment decoded to float64 (a snapshot).
func (w *FloatWin) Local(r *dm.Rank) []float64 {
	seg := w.seg[r.ID] //pushpull:allow atomicmix segment headers are immutable after construction; the atomics guard elements
	out := make([]float64, len(seg))
	for i := range seg {
		out[i] = atomicx.LoadFloat64(&seg[i])
	}
	return out
}

// FillLocal overwrites the caller's own segment.
func (w *FloatWin) FillLocal(r *dm.Rank, v float64) {
	seg := w.seg[r.ID] //pushpull:allow atomicmix segment headers are immutable after construction; the atomics guard elements
	for i := range seg {
		atomicx.StoreFloat64(&seg[i], v)
	}
	r.ChargeOps(len(seg))
}

// IntWin is an int64 window distributed over all ranks.
type IntWin struct {
	cluster *dm.Cluster
	seg     [][]int64
}

// NewIntWin creates an integer window with the given segment sizes.
func NewIntWin(c *dm.Cluster, sizes []int) (*IntWin, error) {
	if len(sizes) != c.P {
		return nil, fmt.Errorf("rma: %d segment sizes for %d ranks", len(sizes), c.P)
	}
	w := &IntWin{cluster: c, seg: make([][]int64, c.P)}
	for i, s := range sizes {
		if s < 0 {
			return nil, fmt.Errorf("rma: negative segment size %d", s)
		}
		w.seg[i] = make([]int64, s) //pushpull:allow atomicmix constructor runs before the window is shared; only elements race, never the headers
	}
	return w, nil
}

// SegLen returns the length of rank t's segment.
func (w *IntWin) SegLen(t int) int { return len(w.seg[t]) } //pushpull:allow atomicmix segment headers are immutable after construction; the atomics guard elements

// Get reads element idx of rank target's segment.
func (w *IntWin) Get(r *dm.Rank, target, idx int) int64 {
	cost := w.cluster.Cost
	if target == r.ID {
		r.Charge(cost.LocalOp)
	} else {
		r.Charge(cost.RemoteGet + cost.ByteCost*8)
		r.Rec().Inc(counters.RemoteReads)
	}
	return atomic.LoadInt64(&w.seg[target][idx])
}

// Put writes element idx of rank target's segment.
func (w *IntWin) Put(r *dm.Rank, target, idx int, v int64) {
	cost := w.cluster.Cost
	if target == r.ID {
		r.Charge(cost.LocalOp)
	} else {
		r.Charge(cost.RemotePut + cost.ByteCost*8)
		r.Rec().Inc(counters.RemoteWrites)
	}
	atomic.StoreInt64(&w.seg[target][idx], v)
}

// FAA atomically adds delta and returns the previous value — the 64-bit
// integer fast path of §6.3.2.
func (w *IntWin) FAA(r *dm.Rank, target, idx int, delta int64) int64 {
	cost := w.cluster.Cost
	if target == r.ID {
		r.Charge(cost.IntFAA / 4)
	} else {
		r.Charge(cost.IntFAA + cost.ByteCost*8)
		r.Rec().Inc(counters.RemoteAtomics)
	}
	return atomic.AddInt64(&w.seg[target][idx], delta) - delta
}

// CAS atomically compares-and-swaps element idx on rank target.
func (w *IntWin) CAS(r *dm.Rank, target, idx int, old, new int64) bool {
	cost := w.cluster.Cost
	if target == r.ID {
		r.Charge(cost.IntFAA / 4)
	} else {
		r.Charge(cost.IntFAA + cost.ByteCost*8)
		r.Rec().Inc(counters.RemoteAtomics)
	}
	return atomic.CompareAndSwapInt64(&w.seg[target][idx], old, new)
}

// Flush completes all outstanding operations to target.
func (w *IntWin) Flush(r *dm.Rank, target int) {
	r.Charge(w.cluster.Cost.Flush)
}

// Local returns a snapshot of the caller's own segment.
func (w *IntWin) Local(r *dm.Rank) []int64 {
	seg := w.seg[r.ID] //pushpull:allow atomicmix segment headers are immutable after construction; the atomics guard elements
	out := make([]int64, len(seg))
	for i := range seg {
		out[i] = atomic.LoadInt64(&seg[i])
	}
	return out
}
