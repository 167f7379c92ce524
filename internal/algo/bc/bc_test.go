package bc

import (
	"testing"
	"testing/quick"

	"pushpull/internal/algo/bfs"
	"pushpull/internal/algo/sssp"
	"pushpull/internal/gen"
	"pushpull/internal/graph"
)

const tol = 1e-7

func TestPathCentrality(t *testing.T) {
	// On a path 0—1—2—3—4, centrality of interior vertices is known:
	// bc(v) counts shortest paths through v, both directions:
	// bc(1) = bc(3) = 2·3 = 6, bc(2) = 2·4 = 8, endpoints 0.
	g := gen.Path(5)
	want := []float64{0, 6, 8, 6, 0}
	for _, mode := range []bfs.Mode{bfs.ForcePush, bfs.ForcePull} {
		res := Run(g, Options{Mode: mode})
		if d := sssp.MaxDiff(res.BC, want); d > tol {
			t.Fatalf("mode %v: bc = %v, want %v", mode, res.BC, want)
		}
	}
}

func TestStarCentrality(t *testing.T) {
	// Star with center 0 and k=6 leaves: every leaf pair's shortest path
	// passes the center: bc(0) = k(k-1) = 30 (ordered pairs), leaves 0.
	g := gen.Star(7)
	for _, mode := range []bfs.Mode{bfs.ForcePush, bfs.ForcePull} {
		res := Run(g, Options{Mode: mode})
		if res.BC[0] != 30 {
			t.Fatalf("mode %v: center bc = %v, want 30", mode, res.BC[0])
		}
		for v := 1; v < 7; v++ {
			if res.BC[v] != 0 {
				t.Fatalf("mode %v: leaf bc = %v", mode, res.BC[v])
			}
		}
	}
}

func TestCycleCentralityUniform(t *testing.T) {
	// Symmetry: all vertices of a cycle share the same centrality.
	g := gen.Ring(9)
	res := Run(g, Options{Mode: bfs.ForcePush})
	for v := 1; v < 9; v++ {
		if diff := res.BC[v] - res.BC[0]; diff > tol || diff < -tol {
			t.Fatalf("bc[%d] = %v != bc[0] = %v", v, res.BC[v], res.BC[0])
		}
	}
}

func TestMatchesSequentialOnRMAT(t *testing.T) {
	g, err := gen.RMAT(gen.DefaultRMAT(8, 6, 33))
	if err != nil {
		t.Fatal(err)
	}
	want := Sequential(g, nil)
	for _, mode := range []bfs.Mode{bfs.ForcePush, bfs.ForcePull} {
		opt := Options{Mode: mode}
		opt.Threads = 4
		res := Run(g, opt)
		if d := sssp.MaxDiff(res.BC, want); d > tol {
			t.Fatalf("mode %v: max diff %g", mode, d)
		}
		if res.Phase1 <= 0 || res.Phase2 <= 0 {
			t.Fatalf("mode %v: phase timings empty", mode)
		}
	}
}

func TestSampledSources(t *testing.T) {
	g, err := gen.RMAT(gen.DefaultRMAT(8, 6, 7))
	if err != nil {
		t.Fatal(err)
	}
	sources := []graph.V{0, 5, 17}
	want := Sequential(g, sources)
	res := Run(g, Options{Sources: sources, Mode: bfs.ForcePull})
	if d := sssp.MaxDiff(res.BC, want); d > tol {
		t.Fatalf("sampled: max diff %g", d)
	}
}

func TestDisconnectedGraph(t *testing.T) {
	b := graph.NewBuilder(6)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(3, 4)
	b.AddEdge(4, 5)
	g := b.MustBuild()
	want := Sequential(g, nil)
	for _, mode := range []bfs.Mode{bfs.ForcePush, bfs.ForcePull} {
		res := Run(g, Options{Mode: mode})
		if d := sssp.MaxDiff(res.BC, want); d > tol {
			t.Fatalf("mode %v: %v vs %v", mode, res.BC, want)
		}
		// Middle vertices of each path carry bc 2.
		if res.BC[1] != 2 || res.BC[4] != 2 {
			t.Fatalf("mode %v: bc = %v", mode, res.BC)
		}
	}
}

func TestEmptyGraph(t *testing.T) {
	g := graph.NewBuilder(0).MustBuild()
	res := Run(g, Options{})
	if len(res.BC) != 0 {
		t.Fatal("empty graph scores")
	}
}

func TestAutoModeDefaultsToPush(t *testing.T) {
	g := gen.Path(4)
	res := Run(g, Options{Mode: bfs.Auto})
	want := Sequential(g, nil)
	if d := sssp.MaxDiff(res.BC, want); d > tol {
		t.Fatalf("auto mode: %v vs %v", res.BC, want)
	}
}

// Property: push and pull BC agree with sequential Brandes on random
// graphs.
func TestVariantsAgreeProperty(t *testing.T) {
	f := func(seed uint64) bool {
		g, err := gen.ErdosRenyi(60, 3, seed)
		if err != nil {
			return false
		}
		want := Sequential(g, nil)
		for _, mode := range []bfs.Mode{bfs.ForcePush, bfs.ForcePull} {
			opt := Options{Mode: mode}
			opt.Threads = 3
			res := Run(g, opt)
			if sssp.MaxDiff(res.BC, want) > tol {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkBCPush(b *testing.B) {
	g, _ := gen.RMAT(gen.DefaultRMAT(9, 6, 1))
	sources := []graph.V{0, 1, 2, 3}
	opt := Options{Sources: sources, Mode: bfs.ForcePush}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Run(g, opt)
	}
}

func BenchmarkBCPull(b *testing.B) {
	g, _ := gen.RMAT(gen.DefaultRMAT(9, 6, 1))
	sources := []graph.V{0, 1, 2, 3}
	opt := Options{Sources: sources, Mode: bfs.ForcePull}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Run(g, opt)
	}
}
