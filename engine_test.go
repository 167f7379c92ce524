package pushpull_test

// Engine tests: the serving-layer refactor. The result cache hits on the
// second identical run (keyed on workload content identity, algorithm
// and the canonical options fingerprint), non-cacheable configurations
// and bare graphs bypass it, LRU eviction bounds it, the bounded worker
// pool reports queue wait, and option domains are validated with
// ErrBadOption at Run entry.

import (
	"context"
	"errors"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pushpull"
)

// undirectedGraph builds a deterministic pseudo-random undirected graph.
func undirectedGraph(t testing.TB, n int, seed uint64) *pushpull.Graph {
	t.Helper()
	b := pushpull.NewBuilder(n)
	state := seed | 1
	next := func() uint64 {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return state
	}
	for i := 0; i < 6*n; i++ {
		b.AddEdge(pushpull.V(next()%uint64(n)), pushpull.V(next()%uint64(n)))
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// slowAlgo is a registry algorithm for pool tests: it holds a worker slot
// while honoring ctx, so admission-queue behavior is observable without
// depending on kernel timings. If an iteration hook is configured it
// fires once at entry — the pool tests use it as a "slot acquired"
// signal.
type slowAlgo struct{}

func (slowAlgo) Name() string        { return "test-slow" }
func (slowAlgo) Describe() string    { return "test-only: sleeps to exercise the admission queue" }
func (slowAlgo) Caps() pushpull.Caps { return pushpull.Caps{} }
func (slowAlgo) Run(ctx context.Context, w *pushpull.Workload, cfg *pushpull.Config) (*pushpull.Report, error) {
	if cfg.Hook != nil {
		cfg.Hook(0, 0)
	}
	stats := pushpull.RunStats{Iterations: 1}
	select {
	case <-time.After(30 * time.Millisecond):
	case <-ctx.Done():
		stats.Canceled = true
	}
	return &pushpull.Report{Result: []float64{1}, Stats: stats}, nil
}

var registerSlowOnce sync.Once

func registerSlow(t *testing.T) {
	t.Helper()
	registerSlowOnce.Do(func() {
		pushpull.MustRegister(slowAlgo{})
	})
}

// gateRuns counts real gateAlgo kernel executions across the test binary;
// tests snapshot it before and after to count executions they caused.
var gateRuns atomic.Int64

// gateEntered maps a *Workload to a chan struct{} its test wants signaled
// each time gateAlgo starts executing on that handle.
var gateEntered sync.Map

// gateAlgo is the single-flight observable: every real execution bumps
// gateRuns and builds the workload's Stats (so Workload.Builds() provides
// a second, independent execution count), signals entry to a test that
// asked (gateEntered), then holds its worker slot for ~100ms so
// concurrently issued identical requests must overlap it.
type gateAlgo struct{}

func (gateAlgo) Name() string { return "test-gate" }
func (gateAlgo) Describe() string {
	return "test-only: counts executions and dawdles to invite coalescing"
}
func (gateAlgo) Caps() pushpull.Caps { return pushpull.Caps{} }
func (gateAlgo) Run(ctx context.Context, w *pushpull.Workload, cfg *pushpull.Config) (*pushpull.Report, error) {
	gateRuns.Add(1)
	w.Stats()
	if ch, ok := gateEntered.Load(w); ok {
		ch.(chan struct{}) <- struct{}{}
	}
	stats := pushpull.RunStats{Iterations: 1}
	select {
	case <-time.After(100 * time.Millisecond):
	case <-ctx.Done():
		stats.Canceled = true
	}
	return &pushpull.Report{Result: []float64{1}, Stats: stats}, nil
}

var registerGateOnce sync.Once

func registerGate(t *testing.T) {
	t.Helper()
	registerGateOnce.Do(func() {
		pushpull.MustRegister(gateAlgo{})
	})
}

// TestEngineCacheHit is the tentpole acceptance check: the second
// identical Run on the same Engine and Workload is served from cache —
// Stats.CacheHit set, payload shared, no new kernel work on the handle.
func TestEngineCacheHit(t *testing.T) {
	eng := pushpull.NewEngine()
	w := pushpull.NewWorkload(undirectedGraph(t, 500, 42))
	opts := []pushpull.Option{pushpull.WithIterations(10), pushpull.WithThreads(2)}

	first, err := eng.Run(context.Background(), w, "pr", opts...)
	if err != nil {
		t.Fatal(err)
	}
	if first.Stats.CacheHit {
		t.Fatal("first run reported CacheHit")
	}
	second, err := eng.Run(context.Background(), w, "pr", opts...)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Stats.CacheHit {
		t.Fatal("second identical run was not served from cache")
	}
	if d := pushpull.MaxDiff(first.Ranks(), second.Ranks()); d != 0 {
		t.Errorf("cached payload differs from original by %g", d)
	}
	if second.Algorithm != "pr" || second.Stats.Iterations != first.Stats.Iterations {
		t.Errorf("cached report lost metadata: %+v", second)
	}
	st := eng.Stats()
	if st.CacheHits != 1 || st.CacheMisses != 1 || st.CacheEntries != 1 {
		t.Errorf("stats = %+v, want 1 hit / 1 miss / 1 entry", st)
	}

	// A fresh handle over the same content shares the identity, so the
	// cache survives re-wrapping the graph.
	w2 := pushpull.NewWorkload(undirectedGraph(t, 500, 42))
	if w.ID() != w2.ID() {
		t.Fatalf("equal content, different IDs: %s vs %s", w.ID(), w2.ID())
	}
	third, err := eng.Run(context.Background(), w2, "pr", opts...)
	if err != nil {
		t.Fatal(err)
	}
	if !third.Stats.CacheHit {
		t.Error("run on an equal-content handle missed the cache")
	}
}

// TestEngineCacheKeying: any result-shaping divergence — options,
// algorithm, graph content, declared kind — is a different key.
func TestEngineCacheKeying(t *testing.T) {
	eng := pushpull.NewEngine()
	ctx := context.Background()
	w := pushpull.NewWorkload(undirectedGraph(t, 300, 7))

	if _, err := eng.Run(ctx, w, "pr", pushpull.WithIterations(5)); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		on   pushpull.Runnable
		algo string
		opts []pushpull.Option
	}{
		{"different iterations", w, "pr", []pushpull.Option{pushpull.WithIterations(6)}},
		{"different direction", w, "pr", []pushpull.Option{pushpull.WithIterations(5), pushpull.WithDirection(pushpull.Push)}},
		{"different algorithm", w, "tc", nil},
		{"different content", pushpull.NewWorkload(undirectedGraph(t, 300, 8)), "pr", []pushpull.Option{pushpull.WithIterations(5)}},
		{"different kind", pushpull.Directed(undirectedGraph(t, 300, 7)), "pr", []pushpull.Option{pushpull.WithIterations(5)}},
	}
	for _, tc := range cases {
		rep, err := eng.Run(ctx, tc.on, tc.algo, tc.opts...)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if rep.Stats.CacheHit {
			t.Errorf("%s: unexpectedly served from cache", tc.name)
		}
	}

	// nil vs empty Sources are different bc configurations (all vertices
	// vs zero sources) and must not share a cache entry.
	full, err := eng.Run(ctx, w, "bc") // nil Sources: exact all-vertices BC
	if err != nil {
		t.Fatal(err)
	}
	empty, err := eng.Run(ctx, w, "bc", pushpull.WithSources([]pushpull.V{}))
	if err != nil {
		t.Fatal(err)
	}
	if empty.Stats.CacheHit {
		t.Error("empty-source bc served the all-vertices cache entry")
	}
	if pushpull.SumFloats(full.Ranks()) == pushpull.SumFloats(empty.Ranks()) {
		t.Error("all-vertices and zero-source bc agree; the test lost its discriminating power")
	}
}

// TestEngineGreedySwitchDefaultTotal: a GreedySwitch without a Total runs
// with the workload's vertex count, so it is the run that spells n out and
// is served from that run's cache entry; another Total is another run.
func TestEngineGreedySwitchDefaultTotal(t *testing.T) {
	eng := pushpull.NewEngine()
	ctx := context.Background()
	w := pushpull.NewWorkload(undirectedGraph(t, 300, 31))
	grs := func(total int) *pushpull.Report {
		t.Helper()
		rep, err := eng.Run(ctx, w, "gc-fe",
			pushpull.WithSwitchPolicy(&pushpull.GreedySwitch{Fraction: 0.5, Total: total}))
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	if grs(w.N()).Stats.CacheHit {
		t.Fatal("first run reported CacheHit")
	}
	if !grs(0).Stats.CacheHit {
		t.Error("GreedySwitch{0.5} after GreedySwitch{0.5, n} missed the cache")
	}
	if grs(w.N() / 2).Stats.CacheHit {
		t.Error("GreedySwitch{0.5, n/2} served the {0.5, n} entry")
	}
}

// TestEngineUncacheable: hooks, probes and bare graphs never touch the
// cache — the second identical call runs for real.
func TestEngineUncacheable(t *testing.T) {
	eng := pushpull.NewEngine()
	ctx := context.Background()
	g := undirectedGraph(t, 300, 9)
	w := pushpull.NewWorkload(g)

	cases := []struct {
		name string
		on   pushpull.Runnable
		opts []pushpull.Option
	}{
		{"bare graph", g, []pushpull.Option{pushpull.WithIterations(5)}},
		{"probes", w, []pushpull.Option{pushpull.WithIterations(5), pushpull.WithProbes()}},
		{"hook", w, []pushpull.Option{pushpull.WithIterations(5),
			pushpull.WithIterationHook(func(int, time.Duration) {})}},
	}
	for _, tc := range cases {
		for i := 0; i < 2; i++ {
			rep, err := eng.Run(ctx, tc.on, "pr", tc.opts...)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			if rep.Stats.CacheHit {
				t.Errorf("%s: call %d served from cache", tc.name, i+1)
			}
		}
	}
	if st := eng.Stats(); st.Uncacheable != 6 || st.CacheHits != 0 {
		t.Errorf("stats = %+v, want 6 uncacheable, 0 hits", st)
	}
}

// TestEngineLRUEviction: a capacity-1 cache keeps only the most recent
// result, so A-B-A misses on the final A.
func TestEngineLRUEviction(t *testing.T) {
	eng := pushpull.NewEngine(pushpull.WithResultCache(1))
	ctx := context.Background()
	w := pushpull.NewWorkload(undirectedGraph(t, 300, 11))
	runA := []pushpull.Option{pushpull.WithIterations(3)}
	runB := []pushpull.Option{pushpull.WithIterations(4)}

	for i, opts := range [][]pushpull.Option{runA, runB, runA} {
		rep, err := eng.Run(ctx, w, "pr", opts...)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Stats.CacheHit {
			t.Errorf("run %d hit the cache despite capacity 1", i+1)
		}
	}
	if st := eng.Stats(); st.CacheEntries != 1 || st.CacheMisses != 3 {
		t.Errorf("stats = %+v, want 1 entry / 3 misses", st)
	}
}

// TestEngineDefaultUncached: the facade's default engine preserves
// one-shot semantics — identical Runs always execute.
func TestEngineDefaultUncached(t *testing.T) {
	w := pushpull.NewWorkload(undirectedGraph(t, 200, 13))
	for i := 0; i < 2; i++ {
		rep := run(t, w, "pr", pushpull.WithIterations(3))
		if rep.Stats.CacheHit {
			t.Fatalf("facade Run %d served from cache", i+1)
		}
	}
}

// TestEngineQueueWait: with a single worker slot, a concurrent run waits
// and reports the wait; cache hits bypass the pool entirely.
func TestEngineQueueWait(t *testing.T) {
	registerSlow(t)
	eng := pushpull.NewEngine(pushpull.WithWorkers(1), pushpull.WithResultCache(0))
	w := pushpull.NewWorkload(undirectedGraph(t, 50, 17))

	slotHeld := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rep, err := eng.Run(context.Background(), w, "test-slow",
			pushpull.WithIterationHook(func(int, time.Duration) { close(slotHeld) }))
		if err != nil {
			t.Error(err)
			return
		}
		if rep.Stats.QueueWait != 0 {
			t.Errorf("first run waited %v, want immediate admission", rep.Stats.QueueWait)
		}
	}()
	<-slotHeld // the single worker slot is now occupied for ~30ms
	second, err := eng.Run(context.Background(), w, "test-slow")
	if err != nil {
		t.Fatal(err)
	}
	if second.Stats.QueueWait == 0 {
		t.Error("second run reports no queue wait despite a full pool")
	}
	wg.Wait()
	if st := eng.Stats(); st.QueuedRuns != 1 || st.QueueWait == 0 {
		t.Errorf("stats = %+v, want 1 queued run with nonzero wait", st)
	}
}

// TestEngineQueueCancel: a run canceled while waiting for admission
// returns the context error without ever executing.
func TestEngineQueueCancel(t *testing.T) {
	registerSlow(t)
	eng := pushpull.NewEngine(pushpull.WithWorkers(1), pushpull.WithResultCache(0))
	w := pushpull.NewWorkload(undirectedGraph(t, 50, 19))

	slotHeld := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, err := eng.Run(context.Background(), w, "test-slow",
			pushpull.WithIterationHook(func(int, time.Duration) { close(slotHeld) }))
		if err != nil {
			t.Error(err)
		}
	}()
	<-slotHeld // the slot is occupied: the next run must queue
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	_, err := eng.Run(ctx, w, "test-slow")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("queued run returned %v, want context.DeadlineExceeded", err)
	}
	<-done
}

// TestEngineCanceledRunNotCached: a canceled (partial) report must not be
// served to later callers.
func TestEngineCanceledRunNotCached(t *testing.T) {
	registerSlow(t)
	eng := pushpull.NewEngine()
	w := pushpull.NewWorkload(undirectedGraph(t, 50, 23))

	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	rep, err := eng.Run(ctx, w, "test-slow")
	if err == nil || rep == nil || !rep.Stats.Canceled {
		t.Fatalf("short-deadline run: rep=%+v err=%v, want canceled partial report", rep, err)
	}
	full, err := eng.Run(context.Background(), w, "test-slow")
	if err != nil {
		t.Fatal(err)
	}
	if full.Stats.CacheHit || full.Stats.Canceled {
		t.Errorf("run after canceled attempt: %+v, want a fresh complete run", full.Stats)
	}
}

// TestRunBadOption: negative counts fail at Run entry with the typed
// ErrBadOption instead of clamping or panicking in a kernel.
func TestRunBadOption(t *testing.T) {
	g := undirectedGraph(t, 100, 29)
	cases := []struct {
		name string
		algo string
		opt  pushpull.Option
	}{
		{"threads", "pr", pushpull.WithThreads(-1)},
		{"threads", "gc", pushpull.WithThreads(-2)},
	}
	for _, tc := range cases {
		_, err := pushpull.Run(context.Background(), g, tc.algo, tc.opt)
		if !errors.Is(err, pushpull.ErrBadOption) {
			t.Errorf("%s: err = %v, want ErrBadOption", tc.name, err)
		}
	}
	// Zero still means "use the default" everywhere.
	if _, err := pushpull.Run(context.Background(), g, "pr",
		pushpull.WithThreads(0)); err != nil {
		t.Errorf("zero-valued options rejected: %v", err)
	}
}

// TestSSSPDeltaBadOption: a Δ that is negative, non-finite or so small
// that a bucket index would pass n + M fails with ErrBadOption in every
// direction. Unchecked, a tiny Δ grows a bucket list past the machine's
// memory (1e-6, 1e-12), or overflows the bucket index (1e-300) into wrong
// distances or an index-out-of-range panic.
func TestSSSPDeltaBadOption(t *testing.T) {
	g, err := pushpull.NamedWeightedGraph("rmat", 0.05, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range []pushpull.Direction{pushpull.Push, pushpull.Pull, pushpull.Auto} {
		for _, delta := range []float64{1e-300, 1e-12, 1e-6, -1, math.NaN(), math.Inf(1)} {
			rep, err := pushpull.Run(context.Background(), g, "sssp",
				pushpull.WithDirection(dir), pushpull.WithDelta(delta))
			if !errors.Is(err, pushpull.ErrBadOption) || rep != nil {
				t.Errorf("%v Δ=%g: report %v, err = %v, want ErrBadOption alone", dir, delta, rep != nil, err)
			}
		}
		if _, err := pushpull.Run(context.Background(), g, "sssp", pushpull.WithDirection(dir)); err != nil {
			t.Errorf("%v heuristic Δ: %v", dir, err)
		}
	}
}

// TestEngineWorkloadRegistry: the named-workload registry behind the
// serving front registers, replaces and lists handles.
func TestEngineWorkloadRegistry(t *testing.T) {
	eng := pushpull.NewEngine()
	w1 := pushpull.NewWorkload(undirectedGraph(t, 100, 31))
	w2 := pushpull.NewWorkload(undirectedGraph(t, 200, 37))

	if err := eng.RegisterWorkload("", w1); err == nil {
		t.Error("empty name accepted")
	}
	if err := eng.RegisterWorkload("g", nil); err == nil {
		t.Error("nil workload accepted")
	}
	if err := eng.RegisterWorkload("g", w1); err != nil {
		t.Fatal(err)
	}
	if err := eng.RegisterWorkload("h", w2); err != nil {
		t.Fatal(err)
	}
	if got, _ := eng.Workload("g"); got != w1 {
		t.Error("lookup returned the wrong handle")
	}
	// PUT semantics: re-registering a name replaces the handle.
	if err := eng.RegisterWorkload("g", w2); err != nil {
		t.Fatal(err)
	}
	if got, _ := eng.Workload("g"); got != w2 {
		t.Error("re-register did not replace the handle")
	}
	names := eng.WorkloadNames()
	if len(names) != 2 || names[0] != "g" || names[1] != "h" {
		t.Errorf("WorkloadNames() = %v, want [g h]", names)
	}
}

// TestEngineSingleFlight is the dedup acceptance check: N concurrent
// identical requests produce exactly one underlying kernel execution —
// proven by the run counter AND by Workload.Builds() — with every
// follower served a report flagged Coalesced (or CacheHit, for a
// follower scheduled only after the leader finished).
func TestEngineSingleFlight(t *testing.T) {
	registerGate(t)
	eng := pushpull.NewEngine()
	w := pushpull.NewWorkload(undirectedGraph(t, 400, 77))

	const n = 8
	before := gateRuns.Load()
	reports := make([]*pushpull.Report, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rep, err := eng.Run(context.Background(), w, "test-gate")
			if err != nil {
				t.Error(err)
				return
			}
			reports[i] = rep
		}(i)
	}
	wg.Wait()

	if execs := gateRuns.Load() - before; execs != 1 {
		t.Errorf("%d concurrent identical requests ran the kernel %d times, want exactly 1", n, execs)
	}
	if b := w.Builds(); b.Stats != 1 {
		t.Errorf("Builds().Stats = %d, want 1 (one execution, one stats build)", b.Stats)
	}
	var leaders, coalesced, hits int
	for _, rep := range reports {
		switch {
		case rep == nil:
		case rep.Stats.Coalesced:
			coalesced++
		case rep.Stats.CacheHit:
			hits++
		default:
			leaders++
		}
	}
	if leaders != 1 || coalesced+hits != n-1 {
		t.Errorf("outcomes: %d real, %d coalesced, %d cache hits; want 1 real and %d followers",
			leaders, coalesced, hits, n-1)
	}
	if coalesced == 0 {
		t.Error("no request coalesced despite a 100ms execution window")
	}
	if st := eng.Stats(); st.Coalesced != uint64(coalesced) {
		t.Errorf("Stats().Coalesced = %d, want %d", st.Coalesced, coalesced)
	}
}

// TestEngineSingleFlightLeaderFailure: followers never inherit a canceled
// (partial) leader result — they rerun for real.
func TestEngineSingleFlightLeaderFailure(t *testing.T) {
	registerGate(t)
	eng := pushpull.NewEngine(pushpull.WithResultCache(0))
	w := pushpull.NewWorkload(undirectedGraph(t, 100, 79))

	// Leader and retrying follower each signal once; room for both.
	entered := make(chan struct{}, 2)
	gateEntered.Store(w, entered)
	defer gateEntered.Delete(w)

	before := gateRuns.Load()
	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, err := eng.Run(leaderCtx, w, "test-gate")
		if !errors.Is(err, context.Canceled) {
			t.Errorf("canceled leader returned %v, want context.Canceled", err)
		}
	}()
	<-entered // the leader is inside its run: its flight is registered
	follower := make(chan *pushpull.Report, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		rep, err := eng.Run(context.Background(), w, "test-gate")
		if err != nil {
			t.Error(err)
			return
		}
		follower <- rep
	}()
	// The follower has joined the leader's flight — from here on it takes
	// the leader's outcome, whenever the cancel lands.
	for deadline := time.Now().Add(10 * time.Second); eng.FlightWaiters() == 0; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatal("follower never joined the leader's flight")
		}
	}
	cancelLeader()
	wg.Wait()

	rep := <-follower
	if rep.Stats.Canceled || rep.Stats.Coalesced {
		t.Errorf("follower stats %+v, want a fresh complete run after leader cancellation", rep.Stats)
	}
	if execs := gateRuns.Load() - before; execs != 2 {
		t.Errorf("kernel ran %d times, want 2 (failed leader + retrying follower)", execs)
	}
}

// TestEngineDefaultNoSingleFlight: the facade's default engine never
// coalesces — concurrent identical one-shot Runs all execute for real.
func TestEngineDefaultNoSingleFlight(t *testing.T) {
	registerGate(t)
	w := pushpull.NewWorkload(undirectedGraph(t, 100, 81))

	before := gateRuns.Load()
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rep, err := pushpull.Run(context.Background(), w, "test-gate")
			if err != nil {
				t.Error(err)
				return
			}
			if rep.Stats.Coalesced || rep.Stats.CacheHit {
				t.Errorf("one-shot Run was deduplicated: %+v", rep.Stats)
			}
		}()
	}
	wg.Wait()
	if execs := gateRuns.Load() - before; execs != 2 {
		t.Errorf("kernel ran %d times, want 2 (default engine must not coalesce)", execs)
	}
}

// TestEngineInvalidateOnOverwrite is the regression test for the stale-
// result bug: re-registering a name with different content must drop the
// replaced graph's cached results (they could never hit again), while
// re-registering equal content keeps them.
func TestEngineInvalidateOnOverwrite(t *testing.T) {
	eng := pushpull.NewEngine()
	ctx := context.Background()
	a := pushpull.NewWorkload(undirectedGraph(t, 300, 87))
	opts := []pushpull.Option{pushpull.WithIterations(4)}

	if err := eng.RegisterWorkload("g", a); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(ctx, a, "pr", opts...); err != nil {
		t.Fatal(err)
	}
	if st := eng.Stats(); st.CacheEntries != 1 {
		t.Fatalf("cache entries = %d after one run, want 1", st.CacheEntries)
	}

	// Equal content under the same name: the cached result stays valid.
	if err := eng.RegisterWorkload("g", pushpull.NewWorkload(undirectedGraph(t, 300, 87))); err != nil {
		t.Fatal(err)
	}
	if st := eng.Stats(); st.CacheEntries != 1 {
		t.Errorf("re-register of equal content dropped the cache (entries = %d)", st.CacheEntries)
	}

	// Different content: the old graph's entries are stale — gone.
	b := pushpull.NewWorkload(undirectedGraph(t, 300, 89))
	if err := eng.RegisterWorkload("g", b); err != nil {
		t.Fatal(err)
	}
	if st := eng.Stats(); st.CacheEntries != 0 {
		t.Errorf("overwrite with different content left %d stale cache entries", st.CacheEntries)
	}
	rep, err := eng.Run(ctx, b, "pr", opts...)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stats.CacheHit {
		t.Error("run on the replacement graph was served a stale cached result")
	}

	// Explicit invalidation drops exactly the handle's entries.
	if n := eng.Invalidate(b); n != 1 {
		t.Errorf("Invalidate removed %d entries, want 1", n)
	}
	if st := eng.Stats(); st.CacheEntries != 0 {
		t.Errorf("cache entries = %d after explicit invalidation, want 0", st.CacheEntries)
	}
}

// TestEngineDropWorkload: dropping a graph removes the binding and its
// cached results; dropping an unknown name reports false.
func TestEngineDropWorkload(t *testing.T) {
	eng := pushpull.NewEngine()
	w := pushpull.NewWorkload(undirectedGraph(t, 200, 91))
	if err := eng.RegisterWorkload("g", w); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(context.Background(), w, "pr", pushpull.WithIterations(3)); err != nil {
		t.Fatal(err)
	}
	ok, err := eng.DropWorkload("g")
	if err != nil || !ok {
		t.Fatalf("DropWorkload = %v, %v, want true, nil", ok, err)
	}
	if _, still := eng.Workload("g"); still {
		t.Error("workload still registered after drop")
	}
	if st := eng.Stats(); st.CacheEntries != 0 {
		t.Errorf("drop left %d cache entries", st.CacheEntries)
	}
	if ok, err := eng.DropWorkload("g"); ok || err != nil {
		t.Errorf("second drop = %v, %v, want false, nil", ok, err)
	}
}

// TestWorkloadIDDistinguishesKind: same adjacency, different declared
// kind ⇒ different identity (the kind changes what a run computes).
func TestWorkloadIDDistinguishesKind(t *testing.T) {
	g := directedGraph(t, 200, false)
	plain := pushpull.NewWorkload(g).ID()
	directed := pushpull.Directed(g).ID()
	weighted := pushpull.Weighted(g).ID()
	if plain == directed || plain == weighted || directed == weighted {
		t.Errorf("kind not folded into identity: plain=%s directed=%s weighted=%s",
			plain, directed, weighted)
	}
	// Stable across calls on one handle.
	w := pushpull.NewWorkload(g)
	if w.ID() != w.ID() {
		t.Error("ID not stable across calls")
	}
}
