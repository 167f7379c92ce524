package atomicx

import (
	"math"
	"sync"
	"testing"
	"testing/quick"
)

func TestFloat64LoadStore(t *testing.T) {
	var f Float64
	if got := f.Load(); got != 0 {
		t.Fatalf("zero value = %v, want 0", got)
	}
	f.Store(3.25)
	if got := f.Load(); got != 3.25 {
		t.Fatalf("Load = %v, want 3.25", got)
	}
	f.Store(math.Inf(1))
	if got := f.Load(); !math.IsInf(got, 1) {
		t.Fatalf("Load = %v, want +Inf", got)
	}
}

func TestFloat64AddSequential(t *testing.T) {
	var f Float64
	for i := 0; i < 100; i++ {
		f.Add(0.5)
	}
	if got := f.Load(); got != 50 {
		t.Fatalf("sum = %v, want 50", got)
	}
}

func TestFloat64AddConcurrent(t *testing.T) {
	var f Float64
	const workers = 8
	const perWorker = 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				f.Add(1)
			}
		}()
	}
	wg.Wait()
	if got := f.Load(); got != workers*perWorker {
		t.Fatalf("sum = %v, want %v", got, workers*perWorker)
	}
}

func TestAddFloat64Concurrent(t *testing.T) {
	var bits uint64
	const workers = 8
	const perWorker = 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if n := AddFloat64(&bits, 2); n < 1 {
					t.Errorf("attempts = %d, want >= 1", n)
				}
			}
		}()
	}
	wg.Wait()
	if got := LoadFloat64(&bits); got != 2*workers*perWorker {
		t.Fatalf("sum = %v, want %v", got, 2*workers*perWorker)
	}
}

func TestStoreLoadFloat64(t *testing.T) {
	var bits uint64
	StoreFloat64(&bits, -1.5)
	if got := LoadFloat64(&bits); got != -1.5 {
		t.Fatalf("got %v, want -1.5", got)
	}
}

func TestMinFloat64(t *testing.T) {
	var bits uint64
	StoreFloat64(&bits, 10)
	if low, _ := MinFloat64(&bits, 12); low {
		t.Fatal("MinFloat64 lowered 10 to 12")
	}
	if low, att := MinFloat64(&bits, 5); !low || att < 1 {
		t.Fatalf("MinFloat64(5): lowered=%v attempts=%d", low, att)
	}
	if got := LoadFloat64(&bits); got != 5 {
		t.Fatalf("value = %v, want 5", got)
	}
	// Equal value must not count as lowering.
	if low, _ := MinFloat64(&bits, 5); low {
		t.Fatal("MinFloat64 lowered 5 to 5")
	}
}

func TestMinFloat64Concurrent(t *testing.T) {
	var bits uint64
	StoreFloat64(&bits, math.Inf(1))
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 1000; i > 0; i-- {
				MinFloat64(&bits, float64(w*1000+i))
			}
		}()
	}
	wg.Wait()
	if got := LoadFloat64(&bits); got != 1 {
		t.Fatalf("min = %v, want 1", got)
	}
}

func TestSpinLockMutualExclusion(t *testing.T) {
	var l SpinLock
	counter := 0
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				l.Lock()
				counter++
				l.Unlock()
			}
		}()
	}
	wg.Wait()
	if counter != 16000 {
		t.Fatalf("counter = %d, want 16000 (lock is not exclusive)", counter)
	}
}

func TestPaddedCounters(t *testing.T) {
	p := make(PaddedCounters, 4)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				p[w].Add(1)
			}
		}()
	}
	wg.Wait()
	if got := p.Sum(); got != 4000 {
		t.Fatalf("Sum = %d, want 4000", got)
	}
	p.Reset()
	if got := p.Sum(); got != 0 {
		t.Fatalf("Sum after Reset = %d, want 0", got)
	}
}

// Property: a sequence of atomic float adds equals the plain sum.
func TestAddFloat64MatchesPlainSum(t *testing.T) {
	f := func(vals []float64) bool {
		var bits uint64
		var plain float64
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			AddFloat64(&bits, v)
			plain += v
		}
		got := LoadFloat64(&bits)
		return got == plain
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: MinFloat64 over any sequence yields the minimum of the inputs
// and the initial value.
func TestMinFloat64IsMin(t *testing.T) {
	f := func(init float64, vals []float64) bool {
		if math.IsNaN(init) {
			return true
		}
		var bits uint64
		StoreFloat64(&bits, init)
		want := init
		for _, v := range vals {
			if math.IsNaN(v) {
				continue
			}
			MinFloat64(&bits, v)
			if v < want {
				want = v
			}
		}
		return LoadFloat64(&bits) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAddFloat64Uncontended(b *testing.B) {
	var bits uint64
	for i := 0; i < b.N; i++ {
		AddFloat64(&bits, 1)
	}
}

func BenchmarkAddFloat64Contended(b *testing.B) {
	var bits uint64
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			AddFloat64(&bits, 1)
		}
	})
}

func BenchmarkSpinLock(b *testing.B) {
	var l SpinLock
	x := 0
	for i := 0; i < b.N; i++ {
		l.Lock()
		x++
		l.Unlock()
	}
	_ = x
}
