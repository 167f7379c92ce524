package sched

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestBlockRangeCoversExactly(t *testing.T) {
	f := func(nRaw, tRaw uint16) bool {
		n := int(nRaw%1000) + 1
		tt := int(tRaw%16) + 1
		covered := make([]int, n)
		prevHi := 0
		for w := 0; w < tt; w++ {
			lo, hi := BlockRange(n, tt, w)
			if lo != prevHi {
				return false // blocks must be contiguous and ordered
			}
			prevHi = hi
			for i := lo; i < hi; i++ {
				covered[i]++
			}
		}
		if prevHi != n {
			return false
		}
		for _, c := range covered {
			if c != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBlockRangeBalance(t *testing.T) {
	// Block sizes differ by at most one.
	for _, n := range []int{1, 7, 100, 101, 1024} {
		for _, tt := range []int{1, 2, 3, 7, 16} {
			min, max := n, 0
			for w := 0; w < tt; w++ {
				lo, hi := BlockRange(n, tt, w)
				sz := hi - lo
				if sz < min {
					min = sz
				}
				if sz > max {
					max = sz
				}
			}
			if max-min > 1 {
				t.Fatalf("n=%d t=%d: block sizes differ by %d", n, tt, max-min)
			}
		}
	}
}

func TestOwnerOfMatchesBlockRange(t *testing.T) {
	f := func(nRaw, tRaw uint16) bool {
		n := int(nRaw%500) + 1
		tt := int(tRaw%12) + 1
		for w := 0; w < tt; w++ {
			lo, hi := BlockRange(n, tt, w)
			for i := lo; i < hi; i++ {
				if OwnerOf(n, tt, i) != w {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestParallelForStaticCoversAll(t *testing.T) {
	const n = 10000
	marks := make([]atomic.Int32, n)
	ParallelFor(n, 4, Static, 0, func(w, lo, hi int) {
		for i := lo; i < hi; i++ {
			marks[i].Add(1)
		}
	})
	for i := range marks {
		if got := marks[i].Load(); got != 1 {
			t.Fatalf("index %d visited %d times", i, got)
		}
	}
}

func TestParallelForDynamicCoversAll(t *testing.T) {
	const n = 9973 // prime, exercises ragged chunking
	marks := make([]atomic.Int32, n)
	ParallelFor(n, 4, Dynamic, 64, func(w, lo, hi int) {
		for i := lo; i < hi; i++ {
			marks[i].Add(1)
		}
	})
	for i := range marks {
		if got := marks[i].Load(); got != 1 {
			t.Fatalf("index %d visited %d times", i, got)
		}
	}
}

func TestParallelForEdgeCases(t *testing.T) {
	called := false
	ParallelFor(0, 4, Static, 0, func(w, lo, hi int) { called = true })
	if called {
		t.Fatal("body called for n=0")
	}
	// n=1 with many threads: exactly one call.
	var calls atomic.Int32
	ParallelFor(1, 8, Static, 0, func(w, lo, hi int) { calls.Add(1) })
	if calls.Load() != 1 {
		t.Fatalf("calls = %d", calls.Load())
	}
	// t<=0 falls back to GOMAXPROCS without panicking.
	ParallelFor(10, 0, Dynamic, 0, func(w, lo, hi int) {})
}

func TestSequentialForDeterministicOrder(t *testing.T) {
	var order []int
	SequentialFor(100, 4, func(w, lo, hi int) {
		order = append(order, w)
		// Ranges must match the static parallel decomposition.
		elo, ehi := BlockRange(100, 4, w)
		if lo != elo || hi != ehi {
			t.Fatalf("worker %d got [%d,%d), want [%d,%d)", w, lo, hi, elo, ehi)
		}
	})
	for i, w := range order {
		if w != i {
			t.Fatalf("order = %v", order)
		}
	}
}

// TestPanicRaisedOnCaller: a worker that panics in a ParallelFor loop,
// under either schedule, does not end the process: the caller panics
// instead, with a *Panic carrying the value and the worker's stack, once
// every other worker has stopped.
func TestPanicRaisedOnCaller(t *testing.T) {
	caught := func(run func()) (p *Panic) {
		t.Helper()
		defer func() {
			if v := recover(); !errors.As(asError(v), &p) {
				t.Errorf("recovered %v (%T), want a *Panic", v, v)
			}
		}()
		run()
		return nil
	}
	for _, s := range []Schedule{Static, Dynamic} {
		var finished atomic.Int64
		p := caught(func() {
			ParallelFor(1000, 4, s, 10, func(w, lo, hi int) {
				if lo == 0 {
					panic("boom")
				}
				finished.Add(int64(hi - lo))
			})
		})
		if p == nil || p.Value != "boom" || !strings.Contains(string(p.Stack), "TestPanicRaisedOnCaller") {
			t.Errorf("%v: raised %+v, want the worker's value and stack", s, p)
		}
		if s == Static && finished.Load() != 750 {
			t.Errorf("static: %d of 750 iterations outside the panicking block ran before the raise", finished.Load())
		}
	}
}

// asError is v as an error, nil when it is not one.
func asError(v any) error {
	err, _ := v.(error)
	return err
}

func TestScheduleString(t *testing.T) {
	if Static.String() != "static" || Dynamic.String() != "dynamic" {
		t.Fatal("schedule names wrong")
	}
	if Schedule(99).String() != "unknown" {
		t.Fatal("unknown schedule name")
	}
}

func TestClamp(t *testing.T) {
	if Clamp(0, 100) < 1 {
		t.Fatal("Clamp(0) < 1")
	}
	if got := Clamp(8, 4); got != 4 {
		t.Fatalf("Clamp(8,4) = %d", got)
	}
	if got := Clamp(2, 0); got != 1 {
		t.Fatalf("Clamp(2,0) = %d", got)
	}
}

func BenchmarkParallelForStatic(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ParallelFor(1<<14, 4, Static, 0, func(w, lo, hi int) {
			s := 0
			for j := lo; j < hi; j++ {
				s += j
			}
			_ = s
		})
	}
}
