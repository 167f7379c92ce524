package pushpull_test

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"pushpull"
	"pushpull/internal/algo/bc"
	"pushpull/internal/algo/bfs"
	"pushpull/internal/algo/gc"
	"pushpull/internal/algo/mst"
	"pushpull/internal/algo/pr"
	"pushpull/internal/algo/sssp"
	"pushpull/internal/algo/tc"
	"pushpull/internal/core"
	"pushpull/internal/gen"
	"pushpull/internal/graph"
)

func testGraph(t testing.TB) *pushpull.Graph {
	t.Helper()
	g, err := gen.RMAT(gen.DefaultRMAT(10, 8, 7))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func weightedGraph(t testing.TB) *pushpull.Graph {
	t.Helper()
	g, err := gen.RoadGrid(40, 40, 0.9, 3)
	if err != nil {
		t.Fatal(err)
	}
	return gen.WithUniformWeights(g, 1, 10, 4)
}

func run(t testing.TB, on pushpull.Runnable, algo string, opts ...pushpull.Option) *pushpull.Report {
	t.Helper()
	rep, err := pushpull.Run(context.Background(), on, algo, opts...)
	if err != nil {
		t.Fatalf("Run(%s): %v", algo, err)
	}
	return rep
}

// ---- registry ----

func TestLookupUnknown(t *testing.T) {
	if _, err := pushpull.Lookup("no-such-algo"); err == nil {
		t.Fatal("Lookup of unknown algorithm succeeded")
	}
	if _, err := pushpull.Run(context.Background(), testGraph(t), "no-such-algo"); err == nil {
		t.Fatal("Run of unknown algorithm succeeded")
	}
}

func TestBuiltinsRegistered(t *testing.T) {
	names := map[string]bool{}
	for _, n := range pushpull.Algorithms() {
		names[n] = true
	}
	for _, want := range []string{"pr", "bfs", "sssp", "gc", "tc", "bc", "mst"} {
		if !names[want] {
			t.Errorf("builtin %q not registered (have %v)", want, pushpull.Algorithms())
		}
	}
}

type fakeAlgo struct{ name string }

func (f *fakeAlgo) Name() string        { return f.name }
func (f *fakeAlgo) Describe() string    { return "test stub" }
func (f *fakeAlgo) Caps() pushpull.Caps { return pushpull.Caps{} }
func (f *fakeAlgo) Run(context.Context, *pushpull.Workload, *pushpull.Config) (*pushpull.Report, error) {
	return &pushpull.Report{}, nil
}

func TestRegisterErrors(t *testing.T) {
	if err := pushpull.Register(nil); err == nil {
		t.Error("Register(nil) succeeded")
	}
	if err := pushpull.Register(&fakeAlgo{name: ""}); err == nil {
		t.Error("Register with empty name succeeded")
	}
	if err := pushpull.Register(&fakeAlgo{name: "pr"}); err == nil {
		t.Error("duplicate registration of pr succeeded")
	}
	// The registry is process-global with no unregister, so stay
	// idempotent across -count=N reruns in one process.
	if _, err := pushpull.Lookup("test-stub-algo"); err != nil {
		if err := pushpull.Register(&fakeAlgo{name: "test-stub-algo"}); err != nil {
			t.Fatalf("fresh registration failed: %v", err)
		}
	}
	if err := pushpull.Register(&fakeAlgo{name: "test-stub-algo"}); err == nil {
		t.Error("second registration of test-stub-algo succeeded")
	}
}

func TestRunNilGraph(t *testing.T) {
	if _, err := pushpull.Run(context.Background(), nil, "pr"); err == nil {
		t.Fatal("Run on nil graph succeeded")
	}
}

// ---- cross-validation against the direct internal calls ----

func TestFacadePRMatchesDirect(t *testing.T) {
	g := testGraph(t)
	opt := pr.Options{Iterations: 10}
	opt.Threads = 2
	for _, dir := range []pushpull.Direction{pushpull.Push, pushpull.Pull} {
		rep := run(t, g, "pr", pushpull.WithDirection(dir),
			pushpull.WithThreads(2), pushpull.WithIterations(10))
		var want []float64
		if dir == pushpull.Push {
			want, _ = pr.Push(pr.Views{Out: g, In: g}, opt)
		} else {
			want, _ = pr.Pull(pr.Views{Out: g, In: g}, opt)
		}
		if d := pr.MaxDiff(rep.Ranks(), want); d > 1e-12 {
			t.Errorf("pr %v: facade diverges from direct call by %g", dir, d)
		}
		if rep.Stats.Iterations != 10 {
			t.Errorf("pr %v: %d iterations, want 10", dir, rep.Stats.Iterations)
		}
		if len(rep.Directions) != 10 {
			t.Errorf("pr %v: direction trace has %d entries, want 10", dir, len(rep.Directions))
		}
	}
}

func TestFacadeTCMatchesDirect(t *testing.T) {
	g := testGraph(t)
	want := tc.Sequential(g)
	for _, dir := range []pushpull.Direction{pushpull.Push, pushpull.Pull, pushpull.Auto} {
		rep := run(t, g, "tc", pushpull.WithDirection(dir), pushpull.WithThreads(3))
		if !tc.Equal(rep.Counts(), want) {
			t.Errorf("tc %v: facade counts diverge from sequential reference", dir)
		}
	}
}

func TestFacadeBFSMatchesDirect(t *testing.T) {
	g := testGraph(t)
	wantTree, _, _ := bfs.TraverseFrom(g, 0, bfs.ForcePush, core.Options{Threads: 2})
	for _, dir := range []pushpull.Direction{pushpull.Push, pushpull.Pull, pushpull.Auto} {
		rep := run(t, g, "bfs", pushpull.WithDirection(dir),
			pushpull.WithThreads(2), pushpull.WithSource(0))
		tree := rep.Tree()
		if tree == nil {
			t.Fatalf("bfs %v: no tree payload", dir)
		}
		for v := range tree.Level {
			if tree.Level[v] != wantTree.Level[v] {
				t.Fatalf("bfs %v: level[%d] = %d, want %d", dir, v, tree.Level[v], wantTree.Level[v])
			}
		}
		if len(rep.Directions) != rep.Stats.Iterations {
			t.Errorf("bfs %v: %d trace entries for %d rounds", dir, len(rep.Directions), rep.Stats.Iterations)
		}
	}
	rep := run(t, g, "bfs", pushpull.WithDirection(pushpull.Pull), pushpull.WithSource(0))
	for i, d := range rep.Directions {
		if d != pushpull.Pull {
			t.Errorf("forced-pull bfs round %d ran %v", i, d)
		}
	}
}

func TestFacadeSSSPMatchesDirect(t *testing.T) {
	g := weightedGraph(t)
	want := sssp.Dijkstra(g, 0)
	for _, dir := range []pushpull.Direction{pushpull.Push, pushpull.Pull, pushpull.Auto} {
		rep := run(t, g, "sssp", pushpull.WithDirection(dir),
			pushpull.WithThreads(2), pushpull.WithSource(0))
		res, ok := rep.Result.(*pushpull.SSSPResult)
		if !ok {
			t.Fatalf("sssp %v: payload is %T", dir, rep.Result)
		}
		if d := sssp.MaxDiff(res.Dist, want); d > 1e-9 {
			t.Errorf("sssp %v: facade diverges from Dijkstra by %g", dir, d)
		}
	}
	// Auto must actually record a per-iteration trace.
	rep := run(t, g, "sssp", pushpull.WithSource(0))
	if len(rep.Directions) == 0 || len(rep.Directions) != rep.Stats.Iterations {
		t.Errorf("adaptive sssp trace: %d entries for %d iterations",
			len(rep.Directions), rep.Stats.Iterations)
	}
}

func TestFacadeGCMatchesDirect(t *testing.T) {
	g := testGraph(t)
	const threads = 3
	part := graph.NewPartition(g.N(), threads)
	for _, dir := range []pushpull.Direction{pushpull.Push, pushpull.Pull} {
		rep := run(t, g, "gc", pushpull.WithDirection(dir), pushpull.WithThreads(threads))
		if err := gc.Validate(g, rep.Colors()); err != nil {
			t.Fatalf("gc %v: invalid coloring: %v", dir, err)
		}
		var want *gc.Result
		var err error
		opt := gc.Options{}
		opt.Threads = threads
		if dir == pushpull.Push {
			want, err = gc.Push(g, part, opt)
		} else {
			want, err = gc.Pull(g, part, opt)
		}
		if err != nil {
			t.Fatal(err)
		}
		if got := rep.Stats.Iterations; got != want.Iterations {
			t.Errorf("gc %v: facade took %d iterations, direct %d", dir, got, want.Iterations)
		}
	}
	// Strategy variants produce valid colorings too.
	for _, tc := range []struct {
		algo string
		opts []pushpull.Option
	}{
		{"gc-fe", nil},
		{"gc-cr", nil},
		{"gc", []pushpull.Option{pushpull.WithSwitchPolicy(&pushpull.GreedySwitch{Fraction: 0.1, Total: g.N()}), pushpull.WithMaxIters(4096)}},
	} {
		rep := run(t, g, tc.algo, append(tc.opts, pushpull.WithThreads(threads))...)
		if err := gc.Validate(g, rep.Colors()); err != nil {
			t.Errorf("%s: invalid coloring: %v", tc.algo, err)
		}
	}
}

func TestFacadeBCMatchesDirect(t *testing.T) {
	g := testGraph(t)
	sources := []pushpull.V{0, 1, 2, 3}
	want := bc.Sequential(g, sources)
	for _, dir := range []pushpull.Direction{pushpull.Push, pushpull.Pull} {
		rep := run(t, g, "bc", pushpull.WithDirection(dir),
			pushpull.WithThreads(2), pushpull.WithSources(sources))
		if d := bc.MaxDiff(rep.Ranks(), want); d > 1e-6 {
			t.Errorf("bc %v: facade diverges from sequential Brandes by %g", dir, d)
		}
	}
}

func TestFacadeMSTMatchesDirect(t *testing.T) {
	g := weightedGraph(t)
	want := mst.Kruskal(g)
	for _, dir := range []pushpull.Direction{pushpull.Push, pushpull.Pull, pushpull.Auto} {
		rep := run(t, g, "mst", pushpull.WithDirection(dir), pushpull.WithThreads(2))
		res, ok := rep.Result.(*pushpull.MSTResult)
		if !ok {
			t.Fatalf("mst %v: payload is %T", dir, rep.Result)
		}
		if !mst.SameTree(res, want) {
			t.Errorf("mst %v: facade tree differs from Kruskal", dir)
		}
	}
}

// ---- options ----

func TestWithProbes(t *testing.T) {
	g := testGraph(t)
	push := run(t, g, "pr", pushpull.WithDirection(pushpull.Push),
		pushpull.WithThreads(2), pushpull.WithIterations(1), pushpull.WithProbes())
	pull := run(t, g, "pr", pushpull.WithDirection(pushpull.Pull),
		pushpull.WithThreads(2), pushpull.WithIterations(1), pushpull.WithProbes())
	if push.Counters == nil || pull.Counters == nil {
		t.Fatal("probed run has no counter report")
	}
	if got := push.Counters.Get(pushpull.Atomics); got == 0 {
		t.Error("push pr issued no atomics")
	}
	if got := pull.Counters.Get(pushpull.Atomics); got != 0 {
		t.Errorf("pull pr issued %d atomics, want 0", got)
	}
	// The probed ranks still match the plain run.
	plain := run(t, g, "pr", pushpull.WithDirection(pushpull.Push),
		pushpull.WithThreads(2), pushpull.WithIterations(1))
	if d := pr.MaxDiff(push.Ranks(), plain.Ranks()); d > 1e-12 {
		t.Errorf("probed ranks diverge from plain run by %g", d)
	}
	// Probed reports still carry the iteration count and trace.
	if push.Stats.Iterations != 1 || len(push.Directions) != 1 {
		t.Errorf("probed pr report: %d iterations, %d trace entries, want 1/1",
			push.Stats.Iterations, len(push.Directions))
	}
	// Every registry algorithm has an instrumented variant now — including
	// mst (which needs a weighted workload) and gc steered by a switch
	// policy (Frontier-Exploit).
	mstRep := run(t, weightedGraph(t), "mst", pushpull.WithProbes(), pushpull.WithThreads(2))
	if mstRep.Counters == nil || mstRep.Counters.Get(pushpull.Reads) == 0 {
		t.Error("probed mst returned no counters")
	}
	feRep := run(t, g, "gc", pushpull.WithProbes(), pushpull.WithMaxIters(4096),
		pushpull.WithSwitchPolicy(&pushpull.GenericSwitch{Threshold: 1}))
	if feRep.Counters == nil || feRep.Counters.Get(pushpull.Reads) == 0 {
		t.Error("probed gc+switch-policy returned no counters")
	}
}

func TestBadSources(t *testing.T) {
	g := testGraph(t)
	n := pushpull.V(g.N())
	// The NeedsSource capability gate range-checks sources uniformly and
	// returns the typed ErrBadSource.
	if _, err := pushpull.Run(context.Background(), g, "bc",
		pushpull.WithSources([]pushpull.V{n})); !errors.Is(err, pushpull.ErrBadSource) {
		t.Errorf("bc out-of-range source: err = %v, want ErrBadSource", err)
	}
	if _, err := pushpull.Run(context.Background(), g, "bfs",
		pushpull.WithSource(n)); !errors.Is(err, pushpull.ErrBadSource) {
		t.Errorf("bfs out-of-range source: err = %v, want ErrBadSource", err)
	}
	// Weighted graph: the weights gate fires before the source check, so
	// an unweighted one would pass vacuously here.
	wg := weightedGraph(t)
	if _, err := pushpull.Run(context.Background(), wg, "sssp",
		pushpull.WithSource(pushpull.V(wg.N()))); !errors.Is(err, pushpull.ErrBadSource) {
		t.Errorf("sssp out-of-range source: err = %v, want ErrBadSource", err)
	}
}

func TestWithDampingZero(t *testing.T) {
	g := testGraph(t)
	def := run(t, g, "pr", pushpull.WithIterations(5))
	zero := run(t, g, "pr", pushpull.WithIterations(5), pushpull.WithDamping(0))
	// Zero damping collapses every rank to 1/n: the uniform teleport
	// distribution — previously inexpressible through Options.Damping.
	n := float64(g.N())
	for v, r := range zero.Ranks() {
		if math.Abs(r-1/n) > 1e-15 {
			t.Fatalf("zero-damping rank[%d] = %g, want %g", v, r, 1/n)
		}
	}
	if d := pr.MaxDiff(def.Ranks(), zero.Ranks()); d == 0 {
		t.Error("WithDamping(0) behaved like the default damping")
	}
}

func TestSwitchPolicyReusable(t *testing.T) {
	g := testGraph(t)
	// GenericSwitch latches after its one flip; the facade must hand the
	// algorithm a fresh instance per run so callers can reuse the value.
	policy := &pushpull.GenericSwitch{Threshold: 1.0}
	a := run(t, g, "gc", pushpull.WithSwitchPolicy(policy), pushpull.WithMaxIters(4096))
	b := run(t, g, "gc", pushpull.WithSwitchPolicy(policy), pushpull.WithMaxIters(4096))
	if a.Stats.Iterations != b.Stats.Iterations {
		t.Errorf("reused GenericSwitch changed behavior: %d vs %d iterations",
			a.Stats.Iterations, b.Stats.Iterations)
	}
}

func TestPartitionAwareOptions(t *testing.T) {
	g := testGraph(t)
	// Unprobed, Partition-Awareness is the push kernel itself: the option
	// implies pushing and computes what a plain push computes.
	aware := run(t, g, "pr", pushpull.WithPartitionAwareness(), pushpull.WithPartitions(3),
		pushpull.WithThreads(3), pushpull.WithIterations(5))
	push := run(t, g, "pr", pushpull.WithDirection(pushpull.Push),
		pushpull.WithThreads(3), pushpull.WithIterations(5))
	if d := pr.MaxDiff(aware.Ranks(), push.Ranks()); d > 1e-12 {
		t.Errorf("partition-aware ranks diverge from plain push by %g", d)
	}
	if dirFromTrace := aware.Directions[0]; dirFromTrace != pushpull.Push {
		t.Errorf("PA run traced %v, want push (PA implies pushing)", dirFromTrace)
	}
	// PA contradicts an explicit pull direction.
	for _, algo := range []string{"pr", "tc"} {
		if _, err := pushpull.Run(context.Background(), g, algo,
			pushpull.WithPartitionAwareness(), pushpull.WithDirection(pushpull.Pull)); err == nil {
			t.Errorf("%s accepted WithPartitionAwareness + WithDirection(Pull)", algo)
		}
	}
}

func TestIterationHook(t *testing.T) {
	g := testGraph(t)
	var ticks int
	run(t, g, "pr", pushpull.WithIterations(7),
		pushpull.WithIterationHook(func(int, time.Duration) { ticks++ }))
	if ticks != 7 {
		t.Errorf("hook fired %d times, want 7", ticks)
	}
}

// ---- cancellation ----

func TestCancelMidRun(t *testing.T) {
	g := testGraph(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const total = 100000
	start := time.Now()
	rep, err := pushpull.Run(ctx, g, "pr",
		pushpull.WithIterations(total),
		pushpull.WithIterationHook(func(iter int, _ time.Duration) {
			if iter == 2 {
				cancel()
			}
		}))
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("cancelled run returned nil error")
	}
	if rep == nil {
		t.Fatal("cancelled run returned no partial report")
	}
	if !rep.Stats.Canceled {
		t.Error("partial report does not mark Canceled")
	}
	if rep.Stats.Iterations >= total {
		t.Errorf("run completed all %d iterations despite cancel", total)
	}
	if rep.Stats.Iterations < 3 {
		t.Errorf("run recorded %d iterations, want ≥ 3 before the cancel took", rep.Stats.Iterations)
	}
	if rep.Ranks() == nil {
		t.Error("partial report has no payload")
	}
	if elapsed > 30*time.Second {
		t.Errorf("cancelled run took %v — not prompt", elapsed)
	}
}

func TestCancelBeforeRun(t *testing.T) {
	g := testGraph(t)
	// sssp and mst declare NeedsWeights, so they get a weighted workload —
	// the capability gate fires before ctx is even consulted.
	wg := weightedGraph(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, algo := range []string{"pr", "tc", "bfs", "sssp", "gc", "gc-fe", "gc-cr", "bc", "mst"} {
		in := g
		if algo == "sssp" || algo == "mst" {
			in = wg
		}
		opts := []pushpull.Option{pushpull.WithSource(0)}
		rep, err := pushpull.Run(ctx, in, algo, opts...)
		if err == nil {
			t.Errorf("%s: pre-cancelled run returned nil error", algo)
		}
		if rep == nil {
			t.Errorf("%s: pre-cancelled run returned no report", algo)
			continue
		}
		if !rep.Stats.Canceled {
			t.Errorf("%s: pre-cancelled report does not mark Canceled", algo)
		}
		// Single-pass algorithms (tc, bc) still record one cancelled pass;
		// everything else must stop before its first iteration.
		if got := rep.Stats.Iterations; got > 1 {
			t.Errorf("%s: pre-cancelled run still did %d iterations", algo, got)
		}
	}
}
