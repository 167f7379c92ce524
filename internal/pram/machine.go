package pram

import (
	"errors"
	"fmt"
)

// OpKind is the kind of one processor instruction.
type OpKind int

const (
	// Idle processors issue no memory access this step.
	Idle OpKind = iota
	// Load reads Mem[Addr] into the processor's accumulator.
	Load
	// Store writes Value to Mem[Addr].
	Store
	// LocalOp models local computation (no memory access).
	LocalOp
)

// Op is one processor's instruction for one lockstep cycle.
type Op struct {
	Kind  OpKind
	Addr  int
	Value int64
}

// Machine is an executable step-synchronous PRAM: P processors share a
// memory of M cells and no processor executes instruction i+1 before all
// complete instruction i (§2.1). Step enforces each model's concurrent-
// access rules and returns an error on violations — EREW rejects any
// concurrent access, CREW rejects concurrent writes, and CRCW-CB combines
// concurrent writes with the configured associative-commutative operator.
type Machine struct {
	model   Model
	mem     []int64
	combine func(a, b int64) int64
	steps   int64
	work    int64
	acc     []int64 // per-processor accumulator, filled by Load
}

// ErrAccessConflict reports a forbidden concurrent access.
var ErrAccessConflict = errors.New("pram: concurrent access violates model")

// NewMachine builds a machine with p processors and m memory cells.
// combine is required for CRCW-CB (e.g. addition or max) and ignored
// otherwise.
func NewMachine(model Model, p, m int, combine func(a, b int64) int64) (*Machine, error) {
	if p < 1 || m < 1 {
		return nil, fmt.Errorf("pram: invalid machine size P=%d M=%d", p, m)
	}
	if model == CRCWCB && combine == nil {
		return nil, errors.New("pram: CRCW-CB requires a combining operator")
	}
	return &Machine{
		model:   model,
		mem:     make([]int64, m),
		combine: combine,
		acc:     make([]int64, p),
	}, nil
}

// P returns the processor count.
func (ma *Machine) P() int { return len(ma.acc) }

// Mem returns the memory (shared view; mutate only between steps).
func (ma *Machine) Mem() []int64 { return ma.mem }

// Acc returns processor p's accumulator.
func (ma *Machine) Acc(p int) int64 { return ma.acc[p] }

// Steps returns the lockstep cycle count (PRAM time S).
func (ma *Machine) Steps() int64 { return ma.steps }

// Work returns the executed instruction count (PRAM work W).
func (ma *Machine) Work() int64 { return ma.work }

// Step executes one lockstep cycle. ops must have one entry per processor
// (Idle entries are free). All reads observe the memory state from before
// the cycle; writes commit at the end — the standard PRAM semantics that
// our shared-memory push implementations emulate with their two-sub-step
// rounds.
func (ma *Machine) Step(ops []Op) error {
	if len(ops) != len(ma.acc) {
		return fmt.Errorf("pram: %d ops for %d processors", len(ops), len(ma.acc))
	}
	readers := map[int]int{}
	type pendingWrite struct {
		value int64
		count int
	}
	writes := map[int]pendingWrite{}
	busy := false
	for p, op := range ops {
		switch op.Kind {
		case Idle:
			continue
		case LocalOp:
			ma.work++
			busy = true
		case Load:
			if err := ma.checkAddr(op.Addr); err != nil {
				return err
			}
			readers[op.Addr]++
			ma.acc[p] = ma.mem[op.Addr]
			ma.work++
			busy = true
		case Store:
			if err := ma.checkAddr(op.Addr); err != nil {
				return err
			}
			w := writes[op.Addr]
			if w.count == 0 {
				w.value = op.Value
			} else {
				// Concurrent write: only CRCW-CB may combine.
				if ma.model != CRCWCB {
					return fmt.Errorf("%w: %d concurrent writers at cell %d under %v",
						ErrAccessConflict, w.count+1, op.Addr, ma.model)
				}
				w.value = ma.combine(w.value, op.Value)
			}
			w.count++
			writes[op.Addr] = w
			ma.work++
			busy = true
		default:
			return fmt.Errorf("pram: unknown op kind %d", op.Kind)
		}
	}
	// Cross-checks between readers and writers.
	for addr, n := range readers {
		if ma.model == EREW && n > 1 {
			return fmt.Errorf("%w: %d concurrent readers at cell %d under EREW",
				ErrAccessConflict, n, addr)
		}
		if _, ok := writes[addr]; ok {
			return fmt.Errorf("%w: read and write of cell %d in one step",
				ErrAccessConflict, addr)
		}
	}
	if ma.model == EREW {
		for addr, w := range writes {
			if w.count > 1 {
				return fmt.Errorf("%w: %d concurrent writers at cell %d under EREW",
					ErrAccessConflict, w.count, addr)
			}
		}
	}
	for addr, w := range writes {
		ma.mem[addr] = w.value
	}
	if busy {
		ma.steps++
	}
	return nil
}

func (ma *Machine) checkAddr(a int) error {
	if a < 0 || a >= len(ma.mem) {
		return fmt.Errorf("pram: address %d out of memory [0,%d)", a, len(ma.mem))
	}
	return nil
}

// RunKRelaxation executes a push-style k-relaxation on the machine: the
// processors propagate the k source values into the target cells, with
// concurrent updates to one target combined (CRCW-CB) or serialized over
// multiple steps (CREW/EREW, tree-free simple serialization). It returns
// steps and work consumed, for comparison against the KRelaxation bound.
//
// sources[i] is a (cell, target) pair: the value at cell srcs[i] is
// combined into cell dsts[i].
func RunKRelaxation(ma *Machine, srcs, dsts []int) (steps, work int64, err error) {
	if len(srcs) != len(dsts) {
		return 0, 0, errors.New("pram: srcs/dsts length mismatch")
	}
	if ma.combine == nil {
		return 0, 0, errors.New("pram: k-relaxation needs a combining operator on every model")
	}
	s0, w0 := ma.steps, ma.work
	p := ma.P()
	k := len(srcs)
	// Loads: each processor loads one source per cycle.
	vals := make([]int64, k)
	for base := 0; base < k; base += p {
		ops := make([]Op, p)
		for i := 0; i < p && base+i < k; i++ {
			ops[i] = Op{Kind: Load, Addr: srcs[base+i]}
		}
		if err := ma.Step(ops); err != nil {
			return 0, 0, err
		}
		for i := 0; i < p && base+i < k; i++ {
			vals[base+i] = ma.Acc(i)
		}
	}
	switch ma.model {
	case CRCWCB:
		// All updates to one target can land in the same cycle; stage the
		// combined value with the existing cell content first.
		for base := 0; base < k; base += p {
			ops := make([]Op, p)
			for i := 0; i < p && base+i < k; i++ {
				d := dsts[base+i]
				ops[i] = Op{Kind: Store, Addr: d, Value: ma.combine(ma.mem[d], vals[base+i])}
			}
			// Concurrent stores to the same d would double-count mem[d];
			// combine it exactly once per distinct target per cycle.
			seen := map[int]bool{}
			for i := 0; i < p && base+i < k; i++ {
				d := dsts[base+i]
				if seen[d] {
					ops[i].Value = vals[base+i] // only the first carries mem[d]
				} else {
					seen[d] = true
				}
			}
			if err := ma.Step(ops); err != nil {
				return 0, 0, err
			}
		}
	default:
		// Exclusive-write models: serialize conflicting targets across
		// cycles (the simple O(conflict-degree) schedule; the merge-tree
		// schedule of §4 is asymptotically better but needs scratch cells).
		remaining := make([]int, k)
		for i := range remaining {
			remaining[i] = i
		}
		for len(remaining) > 0 {
			ops := make([]Op, p)
			used := map[int]bool{}
			var next []int
			slot := 0
			for _, i := range remaining {
				d := dsts[i]
				if used[d] || slot >= p {
					next = append(next, i)
					continue
				}
				used[d] = true
				ops[slot] = Op{Kind: Store, Addr: d, Value: ma.combine(ma.mem[d], vals[i])}
				slot++
			}
			if err := ma.Step(ops); err != nil {
				return 0, 0, err
			}
			remaining = next
		}
	}
	return ma.steps - s0, ma.work - w0, nil
}
