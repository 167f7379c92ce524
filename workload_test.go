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
	"sync"
	"testing"

	"pushpull"
	"pushpull/internal/algo/pr"
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
// Run on Directed(g) hands the pr kernels the §4.8 views, and push, pull,
// partition-aware push and the probed variants all match pr.Sequential
// over the out-edges within 1e-9.
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
		// Probed, this bills Algorithm 8 over the split of the out-rows,
		// one simulated thread per partition.
		{"partition-aware", pushpull.WithPartitionAwareness()},
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
	// out-arc, the partition-aware bill only per remote out-arc, directed
	// pull none.
	w := pushpull.Directed(g)
	push := run(t, w, "pr", pushpull.WithDirection(pushpull.Push),
		pushpull.WithIterations(1), pushpull.WithProbes())
	aware := run(t, w, "pr", pushpull.WithPartitionAwareness(), pushpull.WithPartitions(3),
		pushpull.WithIterations(1), pushpull.WithProbes())
	pull := run(t, w, "pr", pushpull.WithDirection(pushpull.Pull),
		pushpull.WithIterations(1), pushpull.WithProbes())
	if got := push.Counters.Get(pushpull.Atomics); got == 0 {
		t.Error("directed push pr issued no atomics")
	}
	if got, all := aware.Counters.Get(pushpull.Atomics), push.Counters.Get(pushpull.Atomics); got == 0 || got >= all {
		t.Errorf("directed partition-aware pr over 3 partitions issued %d atomics, want some but fewer than push's %d", got, all)
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

// TestWorkloadMemoizesPAAndStats: the Partition-Awareness split is built
// once per distinct partition count across repeated probed runs (the
// only pr runs that lay it out), and Stats once per handle.
func TestWorkloadMemoizesPAAndStats(t *testing.T) {
	g := testGraph(t)
	w := pushpull.Partitioned(g, 3)
	run(t, w, "pr", pushpull.WithPartitionAwareness(), pushpull.WithThreads(3),
		pushpull.WithIterations(2))
	if got := w.Builds().PASplits; got != 0 {
		t.Fatalf("unprobed PA push built %d splits, want 0 (the kernel needs none)", got)
	}
	for i := 0; i < 3; i++ {
		run(t, w, "pr", pushpull.WithPartitionAwareness(), pushpull.WithThreads(3),
			pushpull.WithIterations(2), pushpull.WithProbes())
	}
	if got := w.Builds().PASplits; got != 1 {
		t.Fatalf("3 probed PA runs built %d splits, want exactly 1", got)
	}
	if w.PA(3) != w.PA(3) {
		t.Error("PA(3) returns distinct layouts across calls")
	}
	// A different partition count is a different split, memoized separately.
	run(t, w, "pr", pushpull.WithPartitionAwareness(), pushpull.WithPartitions(5),
		pushpull.WithThreads(5), pushpull.WithIterations(2), pushpull.WithProbes())
	if got := w.Builds().PASplits; got != 2 {
		t.Errorf("second partition count built %d splits total, want 2", got)
	}
	// WithPartitions beats the workload default; without it the
	// AsPartitioned count feeds the PA split.
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
	for _, algo := range []string{"tc", "bfs", "gc", "bc", "mst", "dist-pr-mp"} {
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
		pushpull.WithPartitionAwareness()); !errors.Is(err, pushpull.ErrPartitionAwareUnsupported) {
		t.Errorf("PA on PA-less algorithm: err = %v, want ErrPartitionAwareUnsupported", err)
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
	w2 := pushpull.Partitioned(undirectedGraph(t, 400, 5), 4)
	var wg2 sync.WaitGroup
	for i := 0; i < N; i++ {
		wg2.Add(1)
		go func() {
			defer wg2.Done()
			rep, err := eng.Run(context.Background(), w2, "gc")
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
