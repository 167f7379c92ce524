package sched

import (
	"sync"
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

func TestBarrier(t *testing.T) {
	const parties = 4
	const rounds = 50
	b := NewBarrier(parties)
	var phase atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan string, parties)
	for p := 0; p < parties; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				// All parties must observe the same phase before the barrier.
				if got := phase.Load(); got != int64(r) {
					errs <- "phase skew"
					return
				}
				b.Wait()
				// Exactly one party advances the phase per round.
				phase.CompareAndSwap(int64(r), int64(r+1))
				b.Wait()
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	if got := phase.Load(); got != rounds {
		t.Fatalf("phase = %d, want %d", got, rounds)
	}
}

func TestPoolRunAndFor(t *testing.T) {
	p := NewPool(3)
	defer p.Close()
	if p.Threads() != 3 {
		t.Fatalf("Threads = %d", p.Threads())
	}
	var ran atomic.Int32
	p.Run(func(w int) { ran.Add(1) })
	if ran.Load() != 3 {
		t.Fatalf("Run executed on %d workers", ran.Load())
	}

	const n = 1000
	marks := make([]atomic.Int32, n)
	for iter := 0; iter < 10; iter++ { // reuse across iterations
		p.For(n, func(w, lo, hi int) {
			for i := lo; i < hi; i++ {
				marks[i].Add(1)
			}
		})
	}
	for i := range marks {
		if marks[i].Load() != 10 {
			t.Fatalf("index %d visited %d times", i, marks[i].Load())
		}
	}
}

func TestPoolForEmpty(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	p.For(0, func(w, lo, hi int) { t.Error("body called for n=0") })
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

func BenchmarkPoolFor(b *testing.B) {
	p := NewPool(4)
	defer p.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.For(1<<14, func(w, lo, hi int) {
			s := 0
			for j := lo; j < hi; j++ {
				s += j
			}
			_ = s
		})
	}
}
