package sssp

import (
	"math"
	"testing"
	"testing/quick"

	"pushpull/internal/core"
	"pushpull/internal/counters"
	"pushpull/internal/gen"
	"pushpull/internal/graph"
	"pushpull/internal/memsim"
)

const tol = 1e-9

func weighted(t *testing.T, seed uint64) *graph.CSR {
	t.Helper()
	g, err := gen.RMAT(gen.DefaultRMAT(10, 8, seed))
	if err != nil {
		t.Fatal(err)
	}
	return gen.WithUniformWeights(g, 1, 100, seed+1)
}

func TestPushMatchesDijkstra(t *testing.T) {
	g := weighted(t, 21)
	want := Dijkstra(g, 0)
	for _, delta := range []float64{0, 10, 50, 1000} {
		opt := Options{Source: 0, Delta: delta}
		opt.Threads = 4
		res := Push(g, opt)
		if d := MaxDiff(res.Dist, want); d > tol {
			t.Fatalf("Δ=%v: push vs dijkstra max diff %g", delta, d)
		}
		if res.Epochs == 0 || res.Inner == 0 {
			t.Fatalf("Δ=%v: no work recorded: %+v", delta, res)
		}
	}
}

func TestPullMatchesDijkstra(t *testing.T) {
	g := weighted(t, 22)
	want := Dijkstra(g, 0)
	for _, delta := range []float64{0, 10, 50, 1000} {
		opt := Options{Source: 0, Delta: delta}
		opt.Threads = 4
		res := Pull(g, opt)
		if d := MaxDiff(res.Dist, want); d > tol {
			t.Fatalf("Δ=%v: pull vs dijkstra max diff %g", delta, d)
		}
	}
}

func TestUnweightedEqualsBFSDepth(t *testing.T) {
	// On an unweighted path, distance = hop count.
	g := gen.Path(50)
	res := Push(g, Options{Source: 0, Delta: 1})
	for v := 0; v < 50; v++ {
		if res.Dist[v] != float64(v) {
			t.Fatalf("dist[%d] = %v", v, res.Dist[v])
		}
	}
	res2 := Pull(g, Options{Source: 0, Delta: 1})
	if d := MaxDiff(res.Dist, res2.Dist); d != 0 {
		t.Fatalf("push/pull diff on path: %g", d)
	}
}

func TestDisconnected(t *testing.T) {
	b := graph.NewBuilder(4)
	b.AddEdgeW(0, 1, 5)
	// 2—3 unreachable from 0
	b.AddEdgeW(2, 3, 1)
	g := b.MustBuild()
	for _, run := range []func(*graph.CSR, Options) *Result{Push, Pull} {
		res := run(g, Options{Source: 0})
		if !math.IsInf(res.Dist[2], 1) || !math.IsInf(res.Dist[3], 1) {
			t.Fatal("unreachable vertex got finite distance")
		}
		if res.Dist[1] != 5 {
			t.Fatalf("dist[1] = %v", res.Dist[1])
		}
	}
}

func TestEmptyGraph(t *testing.T) {
	g := graph.NewBuilder(0).MustBuild()
	if res := Push(g, Options{}); len(res.Dist) != 0 {
		t.Fatal("empty push")
	}
	if res := Pull(g, Options{}); len(res.Dist) != 0 {
		t.Fatal("empty pull")
	}
}

func TestDeltaAffectsEpochCount(t *testing.T) {
	g := weighted(t, 23)
	small := Push(g, Options{Source: 0, Delta: 5})
	large := Push(g, Options{Source: 0, Delta: 1e6})
	if small.Epochs <= large.Epochs {
		t.Fatalf("epochs: Δ=5 → %d, Δ=1e6 → %d; small Δ must need more epochs",
			small.Epochs, large.Epochs)
	}
	// With Δ → ∞, a single bucket holds everything (Bellman-Ford-like).
	if large.Epochs != 1 {
		t.Fatalf("Δ=1e6 epochs = %d, want 1", large.Epochs)
	}
}

func TestRoadGraph(t *testing.T) {
	g, err := gen.RoadGrid(30, 30, 0.9, 7)
	if err != nil {
		t.Fatal(err)
	}
	g = gen.WithUniformWeights(g, 1, 10, 8)
	want := Dijkstra(g, 0)
	push := Push(g, Options{Source: 0})
	pull := Pull(g, Options{Source: 0})
	if d := MaxDiff(push.Dist, want); d > tol {
		t.Fatalf("push diff %g", d)
	}
	if d := MaxDiff(pull.Dist, want); d > tol {
		t.Fatalf("pull diff %g", d)
	}
}

// Property: push == pull == Dijkstra on random weighted graphs.
func TestVariantsAgreeProperty(t *testing.T) {
	f := func(seed uint64) bool {
		g, err := gen.ErdosRenyi(120, 4, seed)
		if err != nil {
			return false
		}
		g = gen.WithUniformWeights(g, 1, 20, seed+9)
		want := Dijkstra(g, 0)
		opt := Options{Source: 0}
		opt.Threads = 3
		if MaxDiff(Push(g, opt).Dist, want) > tol {
			return false
		}
		return MaxDiff(Pull(g, opt).Dist, want) <= tol
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestProfiledMatchDijkstra(t *testing.T) {
	g := weighted(t, 31)
	want := Dijkstra(g, 0)
	opt := Options{Source: 0}

	prof, _ := core.CountingProfile(4)
	res, err := PushProfiled(g, opt, prof, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d := MaxDiff(res.Dist, want); d > tol {
		t.Fatalf("profiled push diff %g", d)
	}

	prof2, _ := core.CountingProfile(4)
	res2, err := PullProfiled(g, opt, prof2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d := MaxDiff(res2.Dist, want); d > tol {
		t.Fatalf("profiled pull diff %g", d)
	}
}

// profiledCounts runs one profiled kernel at four threads and returns its
// event totals.
func profiledCounts(t *testing.T, g *graph.CSR, run func(*graph.CSR, Options, core.Profile, *memsim.AddressSpace) (*Result, error)) counters.Report {
	t.Helper()
	prof, grp := core.CountingProfile(4)
	if _, err := run(g, Options{Source: 0}, prof, nil); err != nil {
		t.Fatal(err)
	}
	return grp.Report()
}

// Table 1 SSSP-Δ shapes. Pull reads the whole row of every destination it
// marks, so it still reads more than push, which reads only the bucket's
// out-edges; and pull locks ≫ push locks (push only locks cross-partition
// relaxations). What is gone is §4.4's rescan factor: a round reads the
// rows its frontier leads to, not every unsettled row. Counted pull Reads,
// rescanning kernel (the parent of PR 20) → this one:
//
//	road grid 24×24, this fixture:  199,094 →  23,204  (8.6×)
//	rmat scale 10, weighted(31):    238,893 → 156,373  (1.5×)
//
// The road grid's frontiers are a few vertices wide, so nearly all of the
// old reads were rescans. On the rmat most rounds are dense (the frontier
// owns a sixteenth of the edges or more) and a dense round reads as many
// words as a rescan did — an active-bitmap word per edge where the old
// kernel read a distance — so the count falls by the sparse rounds only.
func TestCounterShapes(t *testing.T) {
	road, err := gen.RoadGrid(24, 24, 0.95, 3)
	if err != nil {
		t.Fatal(err)
	}
	road = gen.WithUniformWeights(road, 1, 10, 4)
	push := profiledCounts(t, road, PushProfiled)
	pull := profiledCounts(t, road, PullProfiled)

	if pull.Get(counters.Reads) < push.Get(counters.Reads) {
		t.Fatalf("pull reads %d below push reads %d",
			pull.Get(counters.Reads), push.Get(counters.Reads))
	}
	if pull.Get(counters.Locks) <= push.Get(counters.Locks) {
		t.Fatalf("pull locks %d not > push locks %d",
			pull.Get(counters.Locks), push.Get(counters.Locks))
	}
	if push.Get(counters.Atomics) != 0 || pull.Get(counters.Atomics) != 0 {
		t.Fatal("SSSP-Δ is lock-based in Table 1; atomics must be 0")
	}
	if got := pull.Get(counters.Reads); 3*got > 199094 {
		t.Fatalf("road grid: pull reads %d, want at most a third of the rescanning kernel's 199094", got)
	}

	rmat := profiledCounts(t, weighted(t, 31), PullProfiled)
	if got := rmat.Get(counters.Reads); 3*got > 2*238893 {
		t.Fatalf("rmat: pull reads %d, want at most two thirds of the rescanning kernel's 238893", got)
	}
	if rmat.Get(counters.Atomics) != 0 {
		t.Fatal("rmat: pull counted an atomic")
	}
}

func TestProfiledValidation(t *testing.T) {
	g := gen.Ring(10)
	bad := core.Profile{Threads: 2, Probes: []counters.Probe{counters.NopProbe{}}}
	if _, err := PushProfiled(g, Options{}, bad, nil); err == nil {
		t.Fatal("bad profile accepted")
	}
	if _, err := PullProfiled(g, Options{}, bad, nil); err == nil {
		t.Fatal("bad profile accepted")
	}
}

func BenchmarkPush(b *testing.B) {
	g, _ := gen.RMAT(gen.DefaultRMAT(12, 8, 1))
	g = gen.WithUniformWeights(g, 1, 100, 2)
	for i := 0; i < b.N; i++ {
		Push(g, Options{Source: 0})
	}
}

func BenchmarkPull(b *testing.B) {
	g, _ := gen.RMAT(gen.DefaultRMAT(12, 8, 1))
	g = gen.WithUniformWeights(g, 1, 100, 2)
	for i := 0; i < b.N; i++ {
		Pull(g, Options{Source: 0})
	}
}
