package sssp

import (
	"testing"
	"testing/quick"

	"pushpull/internal/core"
	"pushpull/internal/gen"
	"pushpull/internal/graph"
)

func TestAdaptiveMatchesDijkstra(t *testing.T) {
	g := weighted(t, 41)
	want := Dijkstra(g, 0)
	for _, m := range modes {
		for _, delta := range []float64{0, 10, 200} {
			opt := Options{Source: 0, Delta: delta}
			opt.Threads = 4
			res := runMode(g, opt, m.mode)
			if d := MaxDiff(res.Dist, want); d > tol {
				t.Fatalf("%s Δ=%v: diff %g", m.name, delta, d)
			}
			if len(res.Dirs) != res.Inner {
				t.Fatalf("%s Δ=%v: %d directions for %d inner iterations", m.name, delta, len(res.Dirs), res.Inner)
			}
		}
	}
}

func TestAdaptiveOnRoadGraph(t *testing.T) {
	g, err := gen.RoadGrid(25, 25, 0.9, 5)
	if err != nil {
		t.Fatal(err)
	}
	g = gen.WithUniformWeights(g, 1, 10, 6)
	want := Dijkstra(g, 0)
	for _, m := range modes {
		// Road buckets are tiny, so the switch essentially always pushes;
		// any direction is correct, so only the distances are checked.
		res := runMode(g, Options{Source: 0}, m.mode)
		if d := MaxDiff(res.Dist, want); d > tol {
			t.Fatalf("road %s diff %g", m.name, d)
		}
	}
}

func TestAdaptiveSwitchEngagesOnDenseGraph(t *testing.T) {
	// With a huge Δ the single bucket holds nearly the whole dense graph;
	// the heuristic must choose pull for at least one inner iteration.
	g := weighted(t, 43)
	opt := Options{Source: 0, Delta: 1e9}
	res := Run(g, opt)
	sawPull := false
	for _, d := range res.Dirs {
		if d == core.Pull {
			sawPull = true
		}
	}
	if !sawPull {
		t.Fatalf("heuristic never pulled on a one-bucket dense run (dirs=%v)", res.Dirs)
	}
	want := Dijkstra(g, 0)
	if d := MaxDiff(res.Dist, want); d > tol {
		t.Fatalf("adaptive diff %g", d)
	}
}

func TestAdaptiveEmptyAndDisconnected(t *testing.T) {
	empty := graph.NewBuilder(0).MustBuild()
	b := graph.NewBuilder(4)
	b.AddEdgeW(0, 1, 2)
	b.AddEdgeW(2, 3, 2)
	g := b.MustBuild()
	want := Dijkstra(g, 0)
	for _, m := range modes {
		if res := runMode(empty, Options{}, m.mode); len(res.Dist) != 0 {
			t.Fatalf("%s: empty graph produced distances", m.name)
		}
		if d := MaxDiff(runMode(g, Options{Source: 0}, m.mode).Dist, want); d != 0 {
			t.Fatalf("%s: disconnected diff %g", m.name, d)
		}
	}
}

// Property: every mode == Dijkstra on random weighted graphs across Δ.
func TestAdaptiveAgreementProperty(t *testing.T) {
	f := func(seed uint64) bool {
		g, err := gen.ErdosRenyi(100, 4, seed)
		if err != nil {
			return false
		}
		g = gen.WithUniformWeights(g, 1, 20, seed+1)
		want := Dijkstra(g, 0)
		for _, m := range modes {
			for _, delta := range []float64{0, 15, 1e6} {
				opt := Options{Source: 0, Delta: delta}
				opt.Threads = 3
				if MaxDiff(runMode(g, opt, m.mode).Dist, want) > tol {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}
