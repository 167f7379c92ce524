package sssp

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"pushpull/internal/gen"
	"pushpull/internal/graph"
	"pushpull/internal/rng"
)

// The light view holds, of every row, exactly the arcs lighter than Δ, in
// the row's order, self-loops and duplicate arcs included; with no heavy
// arc it is the graph itself. An unweighted graph's arcs all weigh 1, so
// Δ ≤ 1 gives an empty view and Δ > 1 the graph. The build allocates once
// per array, whatever the vertex count.
func TestLightView(t *testing.T) {
	for _, n := range []int{63, 4097} {
		g, _ := randomWeighted(t, n, uint64(n))
		for _, delta := range []float64{0.75, NewView(g).delta, 1e9} {
			for _, threads := range []int{1, 2, 7} {
				name := fmt.Sprintf("n=%d Δ=%v t=%d", n, delta, threads)
				light := lightArcs(g, delta, threads)
				if light.N() != n || len(light.Offsets) != n+1 {
					t.Fatalf("%s: %d vertices, %d offsets", name, light.N(), len(light.Offsets))
				}
				for v := graph.V(0); int(v) < n; v++ {
					var adj []graph.V
					var ws []float32
					for j, u := range g.Neighbors(v) {
						if w := g.NeighborWeights(v)[j]; float64(w) < delta {
							adj, ws = append(adj, u), append(ws, w)
						}
					}
					if !slices.Equal(light.Neighbors(v), adj) || !slices.Equal(light.NeighborWeights(v), ws) {
						t.Fatalf("%s: row %d is %v %v, want %v %v", name, v,
							light.Neighbors(v), light.NeighborWeights(v), adj, ws)
					}
				}
				if delta == 1e9 && light != g {
					t.Errorf("%s: no arc is heavy, but the view is a copy", name)
				}
			}
		}
	}

	path := gen.Path(50)
	for _, delta := range []float64{0.5, 1} {
		if light := lightArcs(path, delta, 2); light.M() != 0 || light.N() != 50 || len(light.Offsets) != 51 {
			t.Errorf("unweighted Δ=%v: %d arcs over %d vertices, want an empty view", delta, light.M(), light.N())
		}
	}
	if lightArcs(path, 1.5, 2) != path {
		t.Error("unweighted Δ=1.5: the view is a copy, want the graph itself")
	}

	small, _ := randomWeighted(t, 63, 63)
	large, _ := randomWeighted(t, 4097, 4097)
	if a, b := allocs(func() { lightArcs(small, 10, 1) }), allocs(func() { lightArcs(large, 10, 1) }); a != b {
		t.Errorf("the build allocates %.0f times at n=63 and %.0f at n=4097", a, b)
	}
}

// What forced pull reads at one thread, in arcs. An epoch's later rounds
// read light rows and one sweep per epoch the heavy arcs, where every
// round used to read whole rows. With every arc heavy no epoch has a
// later round, and with every arc light the view is the graph, so those
// two counts are the whole-row kernel's. Whole-row kernel → this one:
//
//	weighted(31), heuristic Δ:             54,752 → 22,377
//	road grid 24×24 of TestCounterShapes:   4,391 →  4,434
//	randomWeighted(4097), Δ = 0.75:       125,500 → 125,500
//	randomWeighted(4097), Δ = 1e9:        147,572 → 147,572
func TestPullReadsPinned(t *testing.T) {
	random, _ := randomWeighted(t, 4097, 4097)
	for _, c := range []struct {
		name  string
		g     *graph.CSR
		delta float64
		want  int64
	}{
		{"weighted(31)", weighted(t, 31), 0, 22377},
		{"road grid", counterRoad(t), 0, 4434},
		{"random, every arc heavy", random, 0.75, 125500},
		{"random, every arc light", random, 1e9, 147572},
	} {
		opt := Options{Delta: c.delta, Mode: ForcePull}
		opt.Threads = 1
		if got := Run(c.g, opt).PullArcs; got != c.want {
			t.Errorf("%s: forced pull read %d arcs, want %d", c.name, got, c.want)
		}
	}
}

// boundaryGraph is a random graph on n vertices with about 3n edges whose
// weights are weight(k) for k in 1..10.
func boundaryGraph(t *testing.T, n int, seed uint64, weight func(k int) float32) *graph.CSR {
	t.Helper()
	r := rng.New(seed)
	b := graph.NewBuilder(n)
	for i := 0; i < 3*n; i++ {
		b.AddEdgeW(graph.V(r.Intn(n)), graph.V(r.Intn(n)), weight(1+r.Intn(10)))
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// trapGraph is the rounding trap: a Δ a few ulps below a float32 f, and a
// bucket b whose bounds lo = b·Δ and hi = (b+1)·Δ round so that lo + f <
// hi. A path of float32 weights puts vertex 3 at exactly lo, a weightless
// arc puts vertex 5 there within bucket b's epoch, and the heavy arc 5–4
// of weight f lands vertex 4 in bucket b, where only the sweep finds it.
// Vertex 6 hangs off 4 by a weightless arc, so its distance is right only
// if the sweep re-opens the epoch. The last 32 vertices form an
// unreachable clique, ballast that keeps every round and the sweep sparse
// (a dense sweep would relax row 6 right after row 4) and the bucket
// budget above b.
func trapGraph(t *testing.T) (*graph.CSR, float64) {
	t.Helper()
	// below returns the largest float32 at or below x ≥ 0.
	below := func(x float64) float32 {
		f := float32(x)
		if float64(f) > x {
			f = math.Nextafter32(f, 0)
		}
		return f
	}
	// nil0 is a zero weight in effect: added to any distance here it
	// rounds away.
	const nil0 = float32(1e-30)
	for i := 0; i < 1000; i++ {
		f := float32(0.3 + 1e-4*float64(i))
		delta := float64(f)
		for k := 0; k < 8; k++ {
			delta = math.Nextafter(delta, 0)
			for b := 2; b <= 60; b++ {
				lo, hi := float64(b)*delta, float64(b+1)*delta
				if lo+float64(f) >= hi {
					continue
				}
				w1 := below(lo)
				r1 := lo - float64(w1)
				w2 := below(r1)
				w3 := float32(r1 - float64(w2))
				if float64(w1)+float64(w2)+float64(w3) != lo {
					continue
				}
				bld := graph.NewBuilder(64)
				bld.AddEdgeW(0, 1, w1)
				bld.AddEdgeW(1, 2, max(w2, nil0))
				bld.AddEdgeW(2, 3, max(w3, nil0))
				bld.AddEdgeW(3, 5, nil0)
				bld.AddEdgeW(5, 4, f)
				bld.AddEdgeW(4, 6, nil0)
				for u := 32; u < 64; u++ {
					for v := u + 1; v < 64; v++ {
						bld.AddEdgeW(graph.V(u), graph.V(v), 1)
					}
				}
				g, err := bld.Build()
				if err != nil {
					t.Fatal(err)
				}
				return g, delta
			}
		}
	}
	t.Fatal("no Δ puts lo + f below hi")
	return nil, 0
}

// Bucket bounds that round, and weights on them. Δ = 0.1, 0.3 and 0.7 are
// not representable, so b·Δ rounds, and weights in tenths sit next to the
// bounds. With integer weights and Δ = 2, and with weights in float32
// tenths and Δ = float32(0.3), some weights equal Δ: the lightest heavy
// arcs. trapGraph has a heavy arc land in the bucket being settled. Every
// mode matches Dijkstra at every thread count, in the same epochs.
func TestBucketBoundaries(t *testing.T) {
	tenths := boundaryGraph(t, 500, 1, func(k int) float32 { return float32(float64(k) * 0.1) })
	integers := boundaryGraph(t, 500, 2, func(k int) float32 { return float32(k%4 + 1) })
	trap, trapDelta := trapGraph(t)
	for _, c := range []struct {
		name  string
		g     *graph.CSR
		delta float64
	}{
		{"tenths Δ=0.1", tenths, 0.1},
		{"tenths Δ=0.3", tenths, 0.3},
		{"tenths Δ=0.7", tenths, 0.7},
		{"tenths Δ=float32(0.3)", tenths, float64(float32(0.3))},
		{"integers Δ=2", integers, 2},
		{"trap", trap, trapDelta},
	} {
		want := Dijkstra(c.g, 0)
		epochs := -1
		for _, threads := range []int{1, 2, 7} {
			for _, m := range modes {
				opt := Options{Delta: c.delta, Mode: m.mode}
				opt.Threads = threads
				res := Run(c.g, opt)
				name := fmt.Sprintf("%s %s t=%d", c.name, m.name, threads)
				checkRun(t, name, res, want)
				if epochs < 0 {
					epochs = res.Epochs
				}
				if res.Epochs != epochs {
					t.Errorf("%s: %d epochs, want %d", name, res.Epochs, epochs)
				}
			}
		}
	}
}

// counterRoad is TestCounterShapes' road grid.
func counterRoad(t *testing.T) *graph.CSR {
	t.Helper()
	road, err := gen.RoadGrid(24, 24, 0.95, 3)
	if err != nil {
		t.Fatal(err)
	}
	return gen.WithUniformWeights(road, 1, 10, 4)
}
