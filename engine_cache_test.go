package pushpull_test

// Result-cache accounting: the cache is bounded by the bytes its entries
// are charged (payload at put, memoized encoding when the memo fills),
// the entry cap stays as the secondary bound, and every way an entry
// leaves — LRU pressure, invalidation, same-key overwrite — gives its
// bytes back.

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"

	"pushpull"
)

// sizedHook, when set, is called by every sizedAlgo execution before it
// returns; tests use it to hold runs at a known point.
var sizedHook atomic.Pointer[func()]

// sizedAlgo returns a payload of exactly WithIterations(n) floats and no
// other slice, so a cached result is charged 8n bytes; WithSource varies
// the cache key without changing the size.
type sizedAlgo struct{}

func (sizedAlgo) Name() string        { return "test-sized" }
func (sizedAlgo) Describe() string    { return "test-only: a payload of WithIterations floats" }
func (sizedAlgo) Caps() pushpull.Caps { return pushpull.Caps{} }
func (sizedAlgo) Run(ctx context.Context, w *pushpull.Workload, cfg *pushpull.Config) (*pushpull.Report, error) {
	if hook := sizedHook.Load(); hook != nil {
		(*hook)()
	}
	return &pushpull.Report{Result: make([]float64, cfg.Iterations), Stats: pushpull.RunStats{Iterations: 1}}, nil
}

var registerSizedOnce sync.Once

// sizedRun runs test-sized on eng: a payload of the given number of floats
// under a cache key that differs per key.
func sizedRun(eng *pushpull.Engine, w *pushpull.Workload, key, floats int) (*pushpull.Report, error) {
	registerSizedOnce.Do(func() { pushpull.MustRegister(sizedAlgo{}) })
	return eng.Run(context.Background(), w, "test-sized",
		pushpull.WithSource(pushpull.V(key)), pushpull.WithIterations(floats))
}

// sized is sizedRun for the test's own goroutine: an error ends the test.
func sized(t testing.TB, eng *pushpull.Engine, w *pushpull.Workload, key, floats int) *pushpull.Report {
	t.Helper()
	rep, err := sizedRun(eng, w, key, floats)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// encodeTo memoizes an n-byte encoding on a hit report's cache entry.
func encodeTo(rep *pushpull.Report, n int) *pushpull.Encoding {
	return rep.Encoding(func() []byte { return make([]byte, n) })
}

// checkTotals holds the running totals against a recount of the entries.
func checkTotals(t *testing.T, eng *pushpull.Engine) pushpull.EngineStats {
	t.Helper()
	st := eng.Stats()
	if bytes, enc := eng.RecountCache(); st.CacheBytes != bytes || st.EncodingBytes != enc {
		t.Fatalf("running totals %d bytes / %d encoding, recount of the %d live entries %d / %d",
			st.CacheBytes, st.EncodingBytes, st.CacheEntries, bytes, enc)
	}
	return st
}

const kb = 1000 // floats in a test payload: 8000 bytes charged

func TestCacheEvictsByBytesBelowEntryCap(t *testing.T) {
	const budget = 5 * 8 * kb
	eng := pushpull.NewEngine(pushpull.WithResultCacheBytes(budget))
	w := pushpull.NewWorkload(undirectedGraph(t, 64, 3))
	for key := 0; key < 12; key++ {
		if sized(t, eng, w, key, kb).Stats.CacheHit {
			t.Fatalf("key %d: first run hit", key)
		}
		st := checkTotals(t, eng)
		if st.CacheBytes > budget {
			t.Fatalf("after put %d: %d bytes cached, budget %d", key, st.CacheBytes, budget)
		}
		if want := min(key+1, 5); st.CacheEntries != want || st.CacheBytes != int64(want)*8*kb {
			t.Fatalf("after put %d: %d entries / %d bytes, want %d entries of %d bytes", key, st.CacheEntries, st.CacheBytes, want, 8*kb)
		}
	}
	if st := eng.Stats(); st.CacheBudget != budget {
		t.Errorf("CacheBudget = %d, want %d", st.CacheBudget, budget)
	}
	// The five most recent survive, the seven before them are gone.
	for key := 7; key < 12; key++ {
		if !sized(t, eng, w, key, kb).Stats.CacheHit {
			t.Errorf("key %d: evicted with the budget not exceeded", key)
		}
	}
	if sized(t, eng, w, 6, kb).Stats.CacheHit {
		t.Error("key 6 still cached: 6 entries fit a 5-entry budget")
	}
}

func TestCacheChargesMemoizedEncoding(t *testing.T) {
	// Room for three payloads and half an encoding: memoizing one encoding
	// has to push the least recently used entry out.
	const budget = 3*8*kb + 2500
	eng := pushpull.NewEngine(pushpull.WithResultCacheBytes(budget))
	w := pushpull.NewWorkload(undirectedGraph(t, 64, 3))
	for key := 0; key < 3; key++ {
		sized(t, eng, w, key, kb)
	}
	hit := sized(t, eng, w, 0, kb) // recency is now 0, 2, 1
	before := checkTotals(t, eng)
	if before.CacheEntries != 3 || before.EncodingBytes != 0 {
		t.Fatalf("before encoding: %+v", before)
	}
	enc := encodeTo(hit, 5000)
	after := checkTotals(t, eng)
	if got := after.EncodingBytes; got != int64(len(enc.Bytes)) {
		t.Errorf("EncodingBytes = %d, want len(Encoding.Bytes) = %d", got, len(enc.Bytes))
	}
	if after.CacheEntries != 2 || after.CacheBytes != 2*8*kb+5000 {
		t.Errorf("after encoding: %d entries / %d bytes, want 2 entries / %d (the LRU tail pushed out)",
			after.CacheEntries, after.CacheBytes, 2*8*kb+5000)
	}
	if after.CacheBytes > budget {
		t.Errorf("%d bytes cached, budget %d", after.CacheBytes, budget)
	}
	// A second request for the encoding is a memo hit and charges nothing.
	if again := encodeTo(sized(t, eng, w, 0, kb), 5000); again != enc {
		t.Error("second Encoding call built a new encoding")
	}
	if st := checkTotals(t, eng); st.CacheBytes != after.CacheBytes || st.EncodingHits != 1 {
		t.Errorf("memo hit changed the charge or was not counted: %+v", st)
	}
	if !sized(t, eng, w, 2, kb).Stats.CacheHit {
		t.Error("key 2 evicted: it was not the LRU tail")
	}
	if sized(t, eng, w, 1, kb).Stats.CacheHit {
		t.Error("key 1 — the LRU tail — survived the encoding's charge")
	}
}

func TestCacheReleasesBytes(t *testing.T) {
	t.Run("invalidate", func(t *testing.T) {
		eng := pushpull.NewEngine()
		keep := pushpull.NewWorkload(undirectedGraph(t, 64, 3))
		drop := pushpull.NewWorkload(undirectedGraph(t, 64, 4))
		sized(t, eng, keep, 0, kb)
		encodeTo(sized(t, eng, keep, 0, kb), 700)
		for key := 0; key < 3; key++ {
			sized(t, eng, drop, key, 2*kb)
		}
		encodeTo(sized(t, eng, drop, 1, 2*kb), 900)
		if st := checkTotals(t, eng); st.CacheBytes != 8*kb+700+3*16*kb+900 || st.EncodingBytes != 1600 {
			t.Fatalf("before invalidation: %d bytes / %d encoding", st.CacheBytes, st.EncodingBytes)
		}
		if n := eng.Invalidate(drop); n != 3 {
			t.Fatalf("Invalidate removed %d entries, want 3", n)
		}
		if st := checkTotals(t, eng); st.CacheBytes != 8*kb+700 || st.EncodingBytes != 700 || st.CacheEntries != 1 {
			t.Errorf("after invalidation: %d entries, %d bytes / %d encoding; want what the kept graph holds (1, %d, 700)",
				st.CacheEntries, st.CacheBytes, st.EncodingBytes, 8*kb+700)
		}
	})

	// Two identical runs miss together (no single-flight), so the second
	// to finish overwrites the first's entry. A hit taken in between still
	// holds the first entry's memo: filling it afterwards must charge
	// nothing, because that entry is gone.
	t.Run("overwrite", func(t *testing.T) {
		eng := pushpull.NewEngine(pushpull.WithSingleFlight(false))
		w := pushpull.NewWorkload(undirectedGraph(t, 64, 3))
		arrivals := make(chan chan struct{})
		hook := func() {
			release := make(chan struct{})
			arrivals <- release
			<-release
		}
		sizedHook.Store(&hook)
		defer sizedHook.Store(nil)
		var done [2]chan struct{}
		for i := range done {
			done[i] = make(chan struct{})
			go func() {
				defer close(done[i])
				if _, err := sizedRun(eng, w, 0, kb); err != nil {
					t.Error(err)
				}
			}()
		}
		first, second := <-arrivals, <-arrivals // both missed, both executing
		close(first)
		select { // whichever run that was, it returns once its entry is stored
		case <-done[0]:
		case <-done[1]:
		}
		sizedHook.Store(nil)
		held := sized(t, eng, w, 0, kb)
		if !held.Stats.CacheHit {
			t.Fatal("no hit on the first run's entry")
		}
		close(second)
		<-done[0]
		<-done[1]
		if st := checkTotals(t, eng); st.CacheEntries != 1 || st.CacheBytes != 8*kb {
			t.Fatalf("after the overwrite: %d entries / %d bytes, want 1 / %d", st.CacheEntries, st.CacheBytes, 8*kb)
		}
		encodeTo(held, 700)
		if st := checkTotals(t, eng); st.CacheBytes != 8*kb || st.EncodingBytes != 0 {
			t.Errorf("a replaced entry's memo was charged: %d bytes / %d encoding", st.CacheBytes, st.EncodingBytes)
		}
		// The live entry has its own memo, and that one is charged.
		encodeTo(sized(t, eng, w, 0, kb), 300)
		if st := checkTotals(t, eng); st.CacheBytes != 8*kb+300 || st.EncodingBytes != 300 {
			t.Errorf("the live entry's memo: %d bytes / %d encoding, want %d / 300", st.CacheBytes, st.EncodingBytes, 8*kb+300)
		}
	})
}

func TestCacheOversizeResultStaysHittableAndAlone(t *testing.T) {
	const budget = 3 * 8 * kb
	eng := pushpull.NewEngine(pushpull.WithResultCacheBytes(budget))
	w := pushpull.NewWorkload(undirectedGraph(t, 64, 3))
	sized(t, eng, w, 0, kb)
	sized(t, eng, w, 1, kb)
	sized(t, eng, w, 2, 10*kb) // 80 kB into a 24 kB budget
	if st := checkTotals(t, eng); st.CacheEntries != 1 || st.CacheBytes != 80*kb {
		t.Fatalf("after the oversize put: %d entries / %d bytes, want it alone", st.CacheEntries, st.CacheBytes)
	}
	if !sized(t, eng, w, 2, 10*kb).Stats.CacheHit {
		t.Error("a result larger than the budget is not servable hot")
	}
	// Its encoding overshoots further, still by this one entry only.
	encodeTo(sized(t, eng, w, 2, 10*kb), 50*kb)
	if st := checkTotals(t, eng); st.CacheEntries != 1 || st.CacheBytes != 130*kb {
		t.Errorf("after encoding the oversize entry: %d entries / %d bytes", st.CacheEntries, st.CacheBytes)
	}
	// The next result, of ordinary size, takes its place.
	sized(t, eng, w, 3, kb)
	if st := checkTotals(t, eng); st.CacheEntries != 1 || st.CacheBytes != 8*kb {
		t.Errorf("after the next put: %d entries / %d bytes, want 1 / %d", st.CacheEntries, st.CacheBytes, 8*kb)
	}
}

// With the byte bound lifted, or set above capacity × payload, the entry
// cap alone governs — the cache the parent had.
func TestCacheEntryCapGovernsUnderALargeBudget(t *testing.T) {
	for name, budget := range map[string]int64{"no byte bound": 0, "budget above cap × payload": 4 * 8 * kb} {
		eng := pushpull.NewEngine(pushpull.WithResultCache(3), pushpull.WithResultCacheBytes(budget))
		w := pushpull.NewWorkload(undirectedGraph(t, 64, 3))
		for key := 0; key < 6; key++ {
			sized(t, eng, w, key, kb)
			if st := checkTotals(t, eng); st.CacheEntries != min(key+1, 3) {
				t.Fatalf("%s: %d entries after put %d", name, st.CacheEntries, key)
			}
		}
		for key := 3; key < 6; key++ {
			if !sized(t, eng, w, key, kb).Stats.CacheHit {
				t.Errorf("%s: key %d evicted below the entry cap", name, key)
			}
		}
		if sized(t, eng, w, 0, kb).Stats.CacheHit {
			t.Errorf("%s: key 0 survived three later puts into a 3-entry cache", name)
		}
		if st := eng.Stats(); st.CacheBudget != budget || st.CacheBytes != 3*8*kb {
			t.Errorf("%s: budget %d, %d bytes", name, st.CacheBudget, st.CacheBytes)
		}
	}
}

// Hits (each memoizing its entry's encoding), puts under a budget that
// forces eviction, and invalidations race; when they have all returned the
// running totals must equal a recount, and the bound must hold.
func TestCacheConcurrentAccountingMatchesRecount(t *testing.T) {
	// Twelve distinct results, room for eight payloads: most requests hit,
	// and every put or charge past the eighth evicts.
	const budget = 8 * 8 * kb
	eng := pushpull.NewEngine(pushpull.WithResultCacheBytes(budget), pushpull.WithWorkers(0))
	graphs := []*pushpull.Workload{
		pushpull.NewWorkload(undirectedGraph(t, 64, 3)),
		pushpull.NewWorkload(undirectedGraph(t, 64, 4)),
	}
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 150; i++ {
				w := graphs[(g+i)%2]
				rep, err := sizedRun(eng, w, (g*7+i)%6, kb)
				if err != nil {
					t.Error(err)
					return
				}
				if rep.Stats.CacheHit {
					encodeTo(rep, 1000+(g*7+i)%10)
				}
				if i%40 == 39 {
					eng.Invalidate(w)
				}
			}
		}()
	}
	wg.Wait()
	st := checkTotals(t, eng)
	// The most recently used entry may overshoot: a payload and its
	// encoding.
	if over := st.CacheBytes - budget; over > 8*kb+1010 {
		t.Errorf("%d bytes cached: over the %d budget by more than one entry", st.CacheBytes, budget)
	}
	if st.CacheEntries == 0 || st.CacheHits == 0 {
		t.Errorf("the race exercised nothing: %+v", st)
	}
}
