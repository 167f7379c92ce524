package pushpull_test

// Workload-handle tests: the graph-kind API redesign. Directed PageRank
// through the facade cross-validates against the sequential directed
// reference; the memoized derived views (transpose, PA split, stats) are
// provably built once per handle; the capability gate returns the typed
// precondition errors before any worker runs.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"pushpull"
	"pushpull/internal/algo/pr"
	"pushpull/internal/algo/sssp"
)

// directedGraph builds a deterministic pseudo-random directed graph with
// asymmetric adjacency (so transpose ≠ graph).
func directedGraph(t testing.TB, n int, weighted bool) *pushpull.Graph {
	t.Helper()
	b := pushpull.NewBuilder(n).Directed()
	state := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return state
	}
	for i := 0; i < 6*n; i++ {
		u := pushpull.V(next() % uint64(n))
		v := pushpull.V(next() % uint64(n))
		if weighted {
			b.AddEdgeW(u, v, 1+float32(next()%100))
		} else {
			b.AddEdge(u, v)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestFacadeDirectedPRMatchesSequential is the acceptance cross-check:
// Run on Directed(g) hands the pr kernels the §4.8 views, and push, pull
// and the probed variants all match pr.Sequential over the out-edges
// within 1e-9.
func TestFacadeDirectedPRMatchesSequential(t *testing.T) {
	g := directedGraph(t, 700, false)
	want := pr.Sequential(pr.Views{Out: g}, pr.Options{Iterations: 15})
	for _, c := range []struct {
		name string
		opt  pushpull.Option
	}{
		{"push", pushpull.WithDirection(pushpull.Push)},
		{"pull", pushpull.WithDirection(pushpull.Pull)},
		{"auto", pushpull.WithDirection(pushpull.Auto)},
	} {
		w := pushpull.Directed(g)
		rep := run(t, w, "pr", c.opt,
			pushpull.WithThreads(3), pushpull.WithIterations(15))
		if d := pushpull.MaxDiff(rep.Ranks(), want); d > 1e-9 {
			t.Errorf("directed pr %s diverges from Sequential by %g", c.name, d)
		}
		if rep.Stats.Iterations != 15 || len(rep.Directions) != 15 {
			t.Errorf("directed pr %s: %d iterations, %d trace entries, want 15/15",
				c.name, rep.Stats.Iterations, len(rep.Directions))
		}
		// WithProbes behaves identically to the undirected path: counters
		// attached, payload unchanged.
		probed := run(t, w, "pr", c.opt,
			pushpull.WithThreads(3), pushpull.WithIterations(15), pushpull.WithProbes())
		if probed.Counters == nil || probed.Counters.Get(pushpull.Reads) == 0 {
			t.Fatalf("probed directed pr %s returned no counters", c.name)
		}
		if d := pushpull.MaxDiff(probed.Ranks(), want); d > 1e-9 {
			t.Errorf("probed directed pr %s diverges from Sequential by %g", c.name, d)
		}
	}
	// The §4 asymmetry carries over: directed push pays atomics per
	// out-arc, directed pull none.
	w := pushpull.Directed(g)
	push := run(t, w, "pr", pushpull.WithDirection(pushpull.Push),
		pushpull.WithIterations(1), pushpull.WithProbes())
	pull := run(t, w, "pr", pushpull.WithDirection(pushpull.Pull),
		pushpull.WithIterations(1), pushpull.WithProbes())
	if got := push.Counters.Get(pushpull.Atomics); got == 0 {
		t.Error("directed push pr issued no atomics")
	}
	if got := pull.Counters.Get(pushpull.Atomics); got != 0 {
		t.Errorf("directed pull pr issued %d atomics, want 0", got)
	}
}

// TestWorkloadMemoizesTranspose is the acceptance memoization check: the
// transpose behind directed pull is built exactly once across N runs on
// the same Workload, and repeated accessor calls return the same view.
func TestWorkloadMemoizesTranspose(t *testing.T) {
	g := directedGraph(t, 400, false)
	w := pushpull.Directed(g)
	if got := w.Builds().Transposes; got != 0 {
		t.Fatalf("fresh workload already built %d transposes", got)
	}
	for i := 0; i < 3; i++ {
		run(t, w, "pr", pushpull.WithDirection(pushpull.Pull), pushpull.WithIterations(2))
	}
	if got := w.Builds().Transposes; got != 1 {
		t.Fatalf("3 pull runs built the transpose %d times, want exactly 1", got)
	}
	if w.Transpose() != w.Transpose() {
		t.Error("Transpose() returns distinct views across calls")
	}
	// Pushing never needs the in-view; a fresh handle must not build it.
	w2 := pushpull.Directed(g)
	run(t, w2, "pr", pushpull.WithDirection(pushpull.Push), pushpull.WithIterations(2))
	if got := w2.Builds().Transposes; got != 0 {
		t.Errorf("push-only run built %d transposes, want 0 (lazy)", got)
	}
}

// TestWorkloadMemoizesPAAndStats: no run lays out the Partition-Awareness
// split; PA builds it once per distinct partition count, and Stats is
// computed once per handle.
func TestWorkloadMemoizesPAAndStats(t *testing.T) {
	g := testGraph(t)
	w := pushpull.NewWorkload(g)
	for _, probes := range []bool{false, true} {
		opts := []pushpull.Option{pushpull.WithDirection(pushpull.Push),
			pushpull.WithThreads(3), pushpull.WithIterations(2)}
		if probes {
			opts = append(opts, pushpull.WithProbes())
		}
		run(t, w, "pr", opts...)
		run(t, w, "tc", opts...)
	}
	if got := w.Builds().PASplits; got != 0 {
		t.Fatalf("pr and tc push runs built %d splits, want 0 (their kernels need none)", got)
	}
	for i := 0; i < 3; i++ {
		w.PA(3)
	}
	if got := w.Builds().PASplits; got != 1 {
		t.Fatalf("3 PA(3) calls built %d splits, want exactly 1", got)
	}
	if w.PA(3) != w.PA(3) {
		t.Error("PA(3) returns distinct layouts across calls")
	}
	// A different partition count is a different split, memoized separately.
	w.PA(5)
	if got := w.Builds().PASplits; got != 2 {
		t.Errorf("second partition count built %d splits total, want 2", got)
	}
	if w.PA(3).Part.P != 3 || w.PA(5).Part.P != 5 {
		t.Error("memoized splits keyed to the wrong partition counts")
	}
	w.Stats()
	w.Stats()
	if got := w.Builds().Stats; got != 1 {
		t.Errorf("Stats() built %d times, want 1", got)
	}
}

// TestNeedsWeightsTyped is the acceptance fail-fast check: sssp and mst on
// an unweighted workload return ErrNeedsWeights from the capability gate —
// before any goroutine spawns — and a Weighted claim over a weightless
// graph fails the same way for every algorithm.
func TestNeedsWeightsTyped(t *testing.T) {
	g := testGraph(t)
	for _, algo := range []string{"sssp", "mst"} {
		rep, err := pushpull.Run(context.Background(), g, algo, pushpull.WithSource(0))
		if !errors.Is(err, pushpull.ErrNeedsWeights) {
			t.Errorf("%s on unweighted workload: err = %v, want ErrNeedsWeights", algo, err)
		}
		if rep != nil {
			t.Errorf("%s on unweighted workload returned a report alongside the precondition error", algo)
		}
	}
	// The claim direction: Weighted(g) promises weights the graph lacks.
	if _, err := pushpull.Run(context.Background(), pushpull.Weighted(g), "pr"); !errors.Is(err, pushpull.ErrNeedsWeights) {
		t.Errorf("pr on Weighted(unweighted graph): err = %v, want ErrNeedsWeights", err)
	}
	// And the weighted path still runs.
	run(t, pushpull.Weighted(weightedGraph(t)), "sssp", pushpull.WithSource(0))
}

// TestDirectedUnsupportedTyped: algorithms without Caps.Directed reject a
// directed workload with the typed error.
func TestDirectedUnsupportedTyped(t *testing.T) {
	g := directedGraph(t, 200, true)
	for _, algo := range []string{"tc", "bfs", "gc", "bc", "mst"} {
		_, err := pushpull.Run(context.Background(), pushpull.Directed(g), algo,
			pushpull.WithSource(0))
		if !errors.Is(err, pushpull.ErrDirectedUnsupported) {
			t.Errorf("%s on directed workload: err = %v, want ErrDirectedUnsupported", algo, err)
		}
	}
}

// capsStub is an externally registered algorithm with the zero (most
// restrictive) capability set.
type capsStub struct{}

func (capsStub) Name() string        { return "caps-stub-algo" }
func (capsStub) Describe() string    { return "capability-gate stub" }
func (capsStub) Caps() pushpull.Caps { return pushpull.Caps{} }
func (capsStub) Run(context.Context, *pushpull.Workload, *pushpull.Config) (*pushpull.Report, error) {
	return &pushpull.Report{}, nil
}

// TestCapsGateForExternalAlgorithms: the engine enforces Caps uniformly,
// including for algorithms registered outside the package.
func TestCapsGateForExternalAlgorithms(t *testing.T) {
	if _, err := pushpull.Lookup("caps-stub-algo"); err != nil {
		if err := pushpull.Register(capsStub{}); err != nil {
			t.Fatal(err)
		}
	}
	g := testGraph(t)
	if _, err := pushpull.Run(context.Background(), g, "caps-stub-algo",
		pushpull.WithProbes()); !errors.Is(err, pushpull.ErrProbesUnsupported) {
		t.Errorf("probes on probe-less algorithm: err = %v, want ErrProbesUnsupported", err)
	}
	if _, err := pushpull.Run(context.Background(), g, "caps-stub-algo",
		pushpull.WithDegreeSorted()); !errors.Is(err, pushpull.ErrDegreeSortUnsupported) {
		t.Errorf("degree sort on a plain-layout algorithm: err = %v, want ErrDegreeSortUnsupported", err)
	}
	if _, err := pushpull.Run(context.Background(), g, "caps-stub-algo"); err != nil {
		t.Errorf("plain run of the stub failed: %v", err)
	}
}

// nonGraphRunnable satisfies the Runnable shape without being a *Graph or
// *Workload; Run must reject it rather than guess.
type nonGraphRunnable struct{}

func (nonGraphRunnable) N() int   { return 1 }
func (nonGraphRunnable) M() int64 { return 0 }

func TestRunnableResolution(t *testing.T) {
	// Bare *Graph auto-wraps (the whole existing call surface).
	run(t, testGraph(t), "pr", pushpull.WithIterations(1))
	if _, err := pushpull.Run(context.Background(), nil, "pr"); err == nil {
		t.Error("Run on nil Runnable succeeded")
	}
	var nilW *pushpull.Workload
	if _, err := pushpull.Run(context.Background(), nilW, "pr"); err == nil {
		t.Error("Run on nil *Workload succeeded")
	}
	if _, err := pushpull.Run(context.Background(), nonGraphRunnable{}, "pr"); err == nil {
		t.Error("Run on a non-graph Runnable succeeded")
	}
}

// TestWorkloadRoundTrip: a directed weighted workload written with
// WriteWorkload is restored by ReadWorkload with kind, adjacency and
// weights intact — the edge-list fidelity satellite at the facade level.
func TestWorkloadRoundTrip(t *testing.T) {
	g := directedGraph(t, 120, true)
	w := pushpull.Directed(g, pushpull.AsWeighted())
	var buf bytes.Buffer
	if err := pushpull.WriteWorkload(&buf, w); err != nil {
		t.Fatal(err)
	}
	got, err := pushpull.ReadWorkload(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !got.IsDirected() {
		t.Fatal("round trip lost directedness")
	}
	if !got.HasWeights() {
		t.Fatal("round trip lost weights")
	}
	gg := got.Graph()
	if gg.N() != g.N() || gg.M() != g.M() {
		t.Fatalf("round trip changed shape: n %d→%d, m %d→%d", g.N(), gg.N(), g.M(), gg.M())
	}
	for v := pushpull.V(0); int(v) < g.N(); v++ {
		a, b := g.Neighbors(v), gg.Neighbors(v)
		wa, wb := g.NeighborWeights(v), gg.NeighborWeights(v)
		if len(a) != len(b) {
			t.Fatalf("vertex %d: degree %d→%d", v, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] || wa[i] != wb[i] {
				t.Fatalf("vertex %d arc %d: (%d,%g)→(%d,%g)", v, i, a[i], wa[i], b[i], wb[i])
			}
		}
	}
	// The restored directed workload computes the same directed ranks.
	want := run(t, w, "pr", pushpull.WithIterations(5))
	have := run(t, got, "pr", pushpull.WithIterations(5))
	if d := pushpull.MaxDiff(want.Ranks(), have.Ranks()); d > 1e-12 {
		t.Errorf("ranks diverge by %g after round trip", d)
	}
}

// sssp at the heuristic Δ takes Δ and the light view from the workload:
// a forced push run reads no light view and builds none, the first pull
// run builds it, and no later run of any mode or thread count builds
// anything, all still equal to Dijkstra.
func TestWorkloadSSSPViewMemoized(t *testing.T) {
	g := weightedGraph(t)
	want := sssp.Dijkstra(g, 0)
	w := pushpull.Weighted(g)
	check := func(what string, opts ...pushpull.Option) {
		t.Helper()
		rep := run(t, w, "sssp", append(opts, pushpull.WithSource(0))...)
		if d := sssp.MaxDiff(rep.Ranks(), want); d > 1e-9 {
			t.Errorf("%s: diverges from Dijkstra by %g", what, d)
		}
	}
	check("push", pushpull.WithDirection(pushpull.Push))
	if got := w.Builds().LightViews; got != 0 {
		t.Fatalf("forced push built %d light views, want 0", got)
	}
	check("pull", pushpull.WithDirection(pushpull.Pull))
	if got := w.Builds().LightViews; got != 1 {
		t.Fatalf("the first pull run built %d light views, want 1", got)
	}
	before := w.Builds()
	for _, dir := range []pushpull.Direction{pushpull.Auto, pushpull.Push, pushpull.Pull} {
		for _, threads := range []int{1, 2, 7} {
			check(fmt.Sprintf("%v t=%d", dir, threads), pushpull.WithDirection(dir), pushpull.WithThreads(threads))
		}
	}
	if after := w.Builds(); after != before {
		t.Errorf("Builds() = %+v after the repeated runs, want %+v", after, before)
	}
}

// An explicit Δ is a run's own: it builds its light view per run and
// leaves the workload's memo alone.
func TestWorkloadSSSPViewSkipsExplicitDelta(t *testing.T) {
	g := weightedGraph(t)
	want := sssp.Dijkstra(g, 0)
	w := pushpull.Weighted(g)
	for _, delta := range []float64{1.5, 4, 11} {
		rep := run(t, w, "sssp", pushpull.WithSource(0), pushpull.WithDirection(pushpull.Pull), pushpull.WithDelta(delta))
		if d := sssp.MaxDiff(rep.Ranks(), want); d > 1e-9 {
			t.Errorf("WithDelta(%g): diverges from Dijkstra by %g", delta, d)
		}
	}
	if b := w.Builds(); b != (pushpull.WorkloadBuilds{}) {
		t.Errorf("Builds() = %+v after explicit-Δ runs only, want nothing memoized", b)
	}
}

// Every memoized view, first asked for by N goroutines at once on a fresh
// handle (run under -race in CI), is built exactly once, and every caller
// gets the one built value. The sssp row's concurrent first pull runs
// wait for one light-view build instead of racing to build two.
func TestWorkloadViewsConcurrent(t *testing.T) {
	g := directedGraph(t, 400, false)
	road := weightedGraph(t)
	want := sssp.Dijkstra(road, 0)
	directed := func() *pushpull.Workload { return pushpull.Directed(g) }
	for _, row := range []struct {
		name  string
		fresh func() *pushpull.Workload
		get   func(t *testing.T, w *pushpull.Workload) any
		// count reads the row's Builds() counter; nil for ID, which
		// Builds() does not count.
		count func(b pushpull.WorkloadBuilds) int
	}{
		{"transpose", directed,
			func(t *testing.T, w *pushpull.Workload) any { return w.Transpose() },
			func(b pushpull.WorkloadBuilds) int { return b.Transposes }},
		{"degree-sorted", directed,
			func(t *testing.T, w *pushpull.Workload) any { return w.DegreeSorted() },
			func(b pushpull.WorkloadBuilds) int { return b.DegreeSorts }},
		{"sorted-transpose", directed,
			func(t *testing.T, w *pushpull.Workload) any { return w.SortedTranspose() },
			func(b pushpull.WorkloadBuilds) int { return b.Transposes }},
		{"pa-2", directed,
			func(t *testing.T, w *pushpull.Workload) any { return w.PA(2) },
			func(b pushpull.WorkloadBuilds) int { return b.PASplits }},
		{"pa-3", directed,
			func(t *testing.T, w *pushpull.Workload) any { return w.PA(3) },
			func(b pushpull.WorkloadBuilds) int { return b.PASplits }},
		{"stats", directed,
			func(t *testing.T, w *pushpull.Workload) any { return w.Stats() },
			func(b pushpull.WorkloadBuilds) int { return b.Stats }},
		{"sssp-light-view", func() *pushpull.Workload { return pushpull.Weighted(road) },
			func(t *testing.T, w *pushpull.Workload) any {
				rep, err := pushpull.Run(context.Background(), w, "sssp", pushpull.WithSource(0),
					pushpull.WithDirection(pushpull.Pull), pushpull.WithThreads(2))
				if err != nil {
					t.Error(err)
					return nil
				}
				if d := sssp.MaxDiff(rep.Ranks(), want); d > 1e-9 {
					t.Errorf("concurrent pull diverges from Dijkstra by %g", d)
				}
				return nil
			},
			func(b pushpull.WorkloadBuilds) int { return b.LightViews }},
		{"block", directed,
			func(t *testing.T, w *pushpull.Workload) any {
				blk, err := w.OutOfCore()
				if err != nil {
					t.Error(err)
				}
				return blk
			},
			func(b pushpull.WorkloadBuilds) int { return b.BlockBuilds }},
		{"id", directed,
			func(t *testing.T, w *pushpull.Workload) any { return w.ID() },
			nil},
	} {
		t.Run(row.name, func(t *testing.T) {
			w := row.fresh()
			defer w.Close()
			const N = 8
			got := make([]any, N)
			start := make(chan struct{})
			var wg sync.WaitGroup
			for i := range got {
				wg.Add(1)
				go func() {
					defer wg.Done()
					<-start
					got[i] = row.get(t, w)
				}()
			}
			close(start)
			wg.Wait()
			for i, v := range got {
				if v != got[0] {
					t.Fatalf("caller %d got another %T than caller 0: want one shared value", i, v)
				}
			}
			if row.count == nil {
				if want := row.fresh().ID(); got[0] != want {
					t.Errorf("ID() = %v, a fresh handle's is %v", got[0], want)
				}
				return
			}
			if n := row.count(w.Builds()); n != 1 {
				t.Errorf("%d concurrent first callers built %d, want 1 (Builds() = %+v)", N, n, w.Builds())
			}
		})
	}
}

// A view build holds only its own key: while a PA(2) build is held, the
// transpose, the degree sort, the stats and the content ID of the same
// handle all build and return. A second PA(2) caller waits for the held
// build and receives the split it built.
func TestWorkloadViewBuildsIndependent(t *testing.T) {
	w := pushpull.Directed(directedGraph(t, 400, false))
	release := make(chan struct{})
	held := w.HoldPABuild(2, release)
	deadline := time.After(10 * time.Second)
	fail := func(format string, args ...any) {
		t.Helper()
		close(release)
		t.Fatalf(format, args...)
	}

	others := make(chan struct{})
	go func() {
		defer close(others)
		w.Transpose()
		w.DegreeSorted()
		w.Stats()
		w.ID()
	}()
	select {
	case <-others:
	case <-deadline:
		fail("Transpose, DegreeSorted, Stats and ID did not return while a PA(2) build was held")
	}

	second := make(chan *pushpull.PAGraph, 1)
	go func() { second <- w.PA(2) }()
	select {
	case <-second:
		fail("a second PA(2) caller returned while the first build was held")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	first := <-held
	select {
	case got := <-second:
		if got != first {
			t.Errorf("the waiting PA(2) caller got %p, the held build stored %p", got, first)
		}
	case <-deadline:
		t.Fatal("the waiting PA(2) caller did not return after the held build finished")
	}
	want := pushpull.WorkloadBuilds{Transposes: 1, PASplits: 1, Stats: 1, DegreeSorts: 1}
	if b := w.Builds(); b != want {
		t.Errorf("Builds() = %+v, want %+v", b, want)
	}
}

// A block build that fails (here: no temporary directory to write the
// block file in) is not memoized: the call errors, counts no build, and
// the next call, with the directory back, builds the view once.
func TestWorkloadBlockBuildRetried(t *testing.T) {
	w := pushpull.Directed(directedGraph(t, 400, false))
	defer w.Close()
	t.Run("missing-tmpdir", func(t *testing.T) {
		t.Setenv("TMPDIR", filepath.Join(t.TempDir(), "missing"))
		if _, err := w.OutOfCore(); err == nil {
			t.Fatal("OutOfCore() succeeded with TMPDIR pointing at a missing directory")
		}
		if got := w.Builds().BlockBuilds; got != 0 {
			t.Errorf("a failed block build counted %d builds, want 0", got)
		}
	})
	blk, err := w.OutOfCore()
	if err != nil {
		t.Fatalf("OutOfCore() after TMPDIR was restored: %v", err)
	}
	if again, _ := w.OutOfCore(); again != blk {
		t.Error("a second OutOfCore() returned a different block view")
	}
	if got := w.Builds().BlockBuilds; got != 1 {
		t.Errorf("BlockBuilds = %d after the retry, want 1", got)
	}
}

// TestConcurrentRunSharedWorkload hammers one shared handle from many
// goroutines (run under -race in CI): every derived view — the directed
// transpose, the PA split, the stats — is still built exactly once, and
// every concurrent directed-pull run computes the same ranks.
func TestConcurrentRunSharedWorkload(t *testing.T) {
	g := directedGraph(t, 400, false)
	w := pushpull.Directed(g)
	want := run(t, pushpull.Directed(g), "pr", pushpull.WithIterations(8))

	const N = 8
	var wg sync.WaitGroup
	for i := 0; i < N; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Pull forces the memoized transpose; Stats touches the Table 2
			// computation; both race against the N-1 sibling goroutines.
			rep, err := pushpull.Run(context.Background(), w, "pr",
				pushpull.WithDirection(pushpull.Pull), pushpull.WithIterations(8))
			if err != nil {
				t.Error(err)
				return
			}
			if d := pushpull.MaxDiff(rep.Ranks(), want.Ranks()); d > 1e-9 {
				t.Errorf("concurrent run diverges by %g", d)
			}
			_ = w.Stats()
			_ = w.ID()
		}()
	}
	wg.Wait()
	if b := w.Builds(); b.Transposes != 1 || b.Stats != 1 {
		t.Errorf("Builds() = %+v after %d concurrent runs, want one transpose and one stats build", b, N)
	}

	// The same property under an Engine with caching: concurrent identical
	// runs may race to fill the cache, but the handle still builds each
	// view once and every report agrees.
	eng := pushpull.NewEngine()
	w2 := pushpull.NewWorkload(undirectedGraph(t, 400, 5))
	var wg2 sync.WaitGroup
	for i := 0; i < N; i++ {
		wg2.Add(1)
		go func() {
			defer wg2.Done()
			rep, err := eng.Run(context.Background(), w2, "gc", pushpull.WithThreads(4))
			if err != nil {
				t.Error(err)
				return
			}
			if err := pushpull.ValidateColoring(w2.Graph(), rep.Colors()); err != nil {
				t.Errorf("concurrent cached gc: %v", err)
			}
		}()
	}
	wg2.Wait()
}
