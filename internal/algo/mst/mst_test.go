package mst

import (
	"math"
	"testing"
	"testing/quick"

	"pushpull/internal/core"
	"pushpull/internal/gen"
	"pushpull/internal/graph"
)

func weighted(t testing.TB, scale, ef int, seed uint64) *graph.CSR {
	t.Helper()
	g, err := gen.RMAT(gen.DefaultRMAT(scale, ef, seed))
	if err != nil {
		t.Fatal(err)
	}
	return gen.WithUniformWeights(g, 1, 100, seed+1)
}

// agreesWithKruskal runs Borůvka in both directions at 1, 2 and 7 threads
// and checks each run's tree, weight and per-phase bookkeeping against
// Kruskal's reference.
func agreesWithKruskal(t *testing.T, g *graph.CSR, want *Result) {
	t.Helper()
	for _, dir := range []core.Direction{core.Push, core.Pull} {
		for _, threads := range []int{1, 2, 7} {
			opt := Options{}
			opt.Threads = threads
			got := Boruvka(g, opt, dir)
			if !SameTree(got, want) {
				t.Fatalf("%v t=%d: edges %v, want %v", dir, threads, got.Edges, want.Edges)
			}
			if math.Abs(got.TotalWeight-want.TotalWeight) > 1e-6 {
				t.Fatalf("%v t=%d: weight %v vs %v", dir, threads, got.TotalWeight, want.TotalWeight)
			}
			if got.Iterations < 1 || len(got.PhaseFM) != got.Iterations ||
				len(got.PhaseBMT) != got.Iterations || len(got.PhaseM) != got.Iterations {
				t.Fatalf("%v t=%d: phase bookkeeping: %d iters, %d/%d/%d FM/BMT/M entries", dir, threads,
					got.Iterations, len(got.PhaseFM), len(got.PhaseBMT), len(got.PhaseM))
			}
		}
	}
}

func TestKnownTree(t *testing.T) {
	// Square with diagonal: 0-1 (1), 1-2 (2), 2-3 (3), 3-0 (4), 0-2 (5).
	// MST = {0-1, 1-2, 2-3} with weight 6.
	b := graph.NewBuilder(4)
	b.AddEdgeW(0, 1, 1)
	b.AddEdgeW(1, 2, 2)
	b.AddEdgeW(2, 3, 3)
	b.AddEdgeW(3, 0, 4)
	b.AddEdgeW(0, 2, 5)
	g := b.MustBuild()

	want := Kruskal(g)
	if want.TotalWeight != 6 || len(want.Edges) != 3 {
		t.Fatalf("kruskal: %+v", want)
	}
	agreesWithKruskal(t, g, want)
	if p := Prim(g); !SameTree(p, want) {
		t.Fatalf("prim: %v", p.Edges)
	}
}

func TestAllVariantsAgreeOnRMAT(t *testing.T) {
	g := weighted(t, 10, 8, 5)
	want := Kruskal(g)
	prim := Prim(g)
	if !SameTree(prim, want) {
		t.Fatal("prim != kruskal")
	}
	agreesWithKruskal(t, g, want)
}

func TestSpanningTreeEdgeCount(t *testing.T) {
	// A connected graph's MST has exactly n-1 edges.
	g := weighted(t, 9, 10, 7)
	s := graph.ComputeStats(g)
	want := Kruskal(g)
	if len(want.Edges) != g.N()-s.Components {
		t.Fatalf("kruskal: %d edges, want %d", len(want.Edges), g.N()-s.Components)
	}
	agreesWithKruskal(t, g, want)
}

func TestDisconnectedForest(t *testing.T) {
	b := graph.NewBuilder(6)
	b.AddEdgeW(0, 1, 1)
	b.AddEdgeW(1, 2, 2)
	b.AddEdgeW(3, 4, 3)
	b.AddEdgeW(4, 5, 4)
	g := b.MustBuild()
	want := Kruskal(g)
	if len(want.Edges) != 4 {
		t.Fatalf("kruskal forest has %d edges", len(want.Edges))
	}
	agreesWithKruskal(t, g, want)
	if p := Prim(g); !SameTree(p, want) {
		t.Fatal("prim forest differs")
	}
}

func TestEqualWeightsDeterministic(t *testing.T) {
	// All weights equal: tie-breaking must still produce one consistent
	// tree across all algorithms.
	g := gen.Complete(8) // unweighted → weight 1 everywhere
	want := Kruskal(g)
	if len(want.Edges) != 7 {
		t.Fatalf("kruskal edges = %d", len(want.Edges))
	}
	agreesWithKruskal(t, g, want)
	if p := Prim(g); !SameTree(p, want) {
		t.Fatal("prim tie-broken tree differs")
	}
}

func TestRoadNetwork(t *testing.T) {
	g, err := gen.RoadGrid(20, 20, 1.0, 3) // full grid: connected
	if err != nil {
		t.Fatal(err)
	}
	g = gen.WithUniformWeights(g, 1, 10, 4)
	agreesWithKruskal(t, g, Kruskal(g))
}

// TestBoruvkaAllocs pins the flat contraction: a round allocates nothing
// per vertex or per supervertex, so growing n eightfold (rmat scale 10 to
// 13) must not even double the allocations of a run. The remaining ones
// are the run's arrays, the appended tree edges and phase timings, and
// ParallelFor's goroutines, all logarithmic in n or fixed.
func TestBoruvkaAllocs(t *testing.T) {
	small, large := weighted(t, 10, 8, 3), weighted(t, 13, 8, 3)
	for _, dir := range []core.Direction{core.Push, core.Pull} {
		opt := Options{}
		opt.Threads = 2
		a := testing.AllocsPerRun(3, func() { Boruvka(small, opt, dir) })
		b := testing.AllocsPerRun(3, func() { Boruvka(large, opt, dir) })
		if b >= 2*a {
			t.Fatalf("%v: %.0f allocs at n=%d, %.0f at n=%d: not flat in n", dir, a, small.N(), b, large.N())
		}
	}
}

func TestEmptyAndSingle(t *testing.T) {
	empty := graph.NewBuilder(0).MustBuild()
	if res := Boruvka(empty, Options{}, core.Push); len(res.Edges) != 0 {
		t.Fatal("empty graph produced edges")
	}
	single := graph.NewBuilder(1).MustBuild()
	if res := Boruvka(single, Options{}, core.Pull); len(res.Edges) != 0 {
		t.Fatal("single vertex produced edges")
	}
	iso := graph.NewBuilder(3).MustBuild() // no edges at all
	if res := Boruvka(iso, Options{}, core.Push); len(res.Edges) != 0 {
		t.Fatal("edgeless graph produced edges")
	}
}

func TestIterationsLogarithmic(t *testing.T) {
	// Borůvka halves components per round: ~log2(n) iterations.
	g := weighted(t, 10, 8, 9)
	res := Boruvka(g, Options{}, core.Pull)
	if res.Iterations > 14 {
		t.Fatalf("iterations = %d for n=1024", res.Iterations)
	}
}

// Property: push == pull == Kruskal == Prim on random weighted graphs.
func TestVariantsAgreeProperty(t *testing.T) {
	f := func(seed uint64) bool {
		g, err := gen.ErdosRenyi(100, 4, seed)
		if err != nil {
			return false
		}
		g = gen.WithUniformWeights(g, 1, 50, seed+3)
		want := Kruskal(g)
		if !SameTree(Prim(g), want) {
			return false
		}
		opt := Options{}
		opt.Threads = 3
		return SameTree(Boruvka(g, opt, core.Push), want) &&
			SameTree(Boruvka(g, opt, core.Pull), want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkBoruvkaPush(b *testing.B) {
	g := weighted(b, 11, 8, 1)
	opt := Options{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Boruvka(g, opt, core.Push)
	}
}

func BenchmarkBoruvkaPull(b *testing.B) {
	g := weighted(b, 11, 8, 1)
	opt := Options{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Boruvka(g, opt, core.Pull)
	}
}

func BenchmarkKruskal(b *testing.B) {
	g := weighted(b, 11, 8, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Kruskal(g)
	}
}
