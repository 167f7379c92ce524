package sssp

import (
	"testing"

	"pushpull/internal/core"
	"pushpull/internal/graph"
)

// pathGraph builds a unit-weight path 0–1–…–(length-1) padded with
// isolated vertices up to n, so two graphs of different path length have
// identical vertex counts — and therefore identical setup allocations —
// while differing in round count: with one bucket every round settles one
// more vertex, with Δ = 1 every vertex is an epoch of its own.
func pathGraph(t testing.TB, n, length int) *graph.CSR {
	t.Helper()
	b := graph.NewBuilder(n)
	for i := 0; i < length-1; i++ {
		b.AddEdgeW(graph.V(i), graph.V(i+1), 1)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func allocs(run func()) float64 { return testing.AllocsPerRun(5, run) }

// Steady-state zero-allocation proof for the pull rounds: the bitmaps and
// the phase bodies are set up once per run, so neither more inner rounds
// nor more epochs may allocate more. Run at Threads 1 so the round loop
// executes inline.
func TestPullSteadyStateAllocs(t *testing.T) {
	const n = 1024
	short, long := pathGraph(t, n, 20), pathGraph(t, n, 40)
	opt := func(delta float64) Options {
		return Options{Options: core.Options{Threads: 1}, Delta: delta}
	}
	if r := Pull(long, opt(1e9)); r.Epochs != 1 || r.Inner < 39 {
		t.Fatalf("fixture: one bucket should take one epoch of ~40 rounds, got %d epochs, %d rounds", r.Epochs, r.Inner)
	}
	if r := Pull(long, opt(1)); r.Epochs < 39 {
		t.Fatalf("fixture: Δ=1 should take ~40 epochs, got %d", r.Epochs)
	}
	a20 := allocs(func() { Pull(short, opt(1e9)) })
	a40 := allocs(func() { Pull(long, opt(1e9)) })
	if a20 != a40 {
		t.Errorf("pull rounds allocate: %.0f allocs over 20 rounds vs %.0f over 40", a20, a40)
	}
	if epochs := allocs(func() { Pull(long, opt(1)) }); epochs != a40 {
		t.Errorf("pull epochs allocate: %.0f allocs over 40 epochs vs %.0f over one", epochs, a40)
	}
}

// ladderGraph is vertex 0 joined to every vertex of a first layer of the
// given width, followed by further layers joined rung by rung (vertex j of
// a layer to vertex j of the next), unit weights, padded with isolated
// vertices up to n: with one bucket each sparse round settles one layer.
// The last 64 vertices form an unreachable clique, ballast that keeps a
// layer's out-edges under m/denseShare whatever the number of layers (a
// dense round would sweep the rungs top to bottom at once).
func ladderGraph(t testing.TB, n, width, layers int) *graph.CSR {
	t.Helper()
	b := graph.NewBuilder(n)
	at := func(layer, j int) graph.V { return graph.V(1 + layer*width + j) }
	for j := 0; j < width; j++ {
		b.AddEdgeW(0, at(0, j), 1)
		for l := 0; l+1 < layers; l++ {
			b.AddEdgeW(at(l, j), at(l+1, j), 1)
		}
	}
	for u := n - 64; u < n; u++ {
		for v := u + 1; v < n; v++ {
			b.AddEdgeW(graph.V(u), graph.V(v), 1)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// The switching variant owns one set of pull-round scratch per run, so
// its pull rounds share the invariant. (Its bucket lists are per bucket by
// design, so only the round count varies here, within one bucket.) The
// layers are wide enough to clear the n/β floor below which a bucket is
// pushed unasked, and a layer's out-edges lead to two short rows each, so
// every round after the source's pulls.
func TestAdaptiveSteadyStateAllocs(t *testing.T) {
	const n, width = 2048, 96
	short, long := ladderGraph(t, n, width, 10), ladderGraph(t, n, width, 20)
	opt := Options{Options: core.Options{Threads: 1}, Delta: 1e9}
	r := Adaptive(long, opt)
	if s := Adaptive(short, opt); s.Inner < 10 || r.Inner < 2*s.Inner-2 {
		t.Fatalf("fixture: expected a round per layer, got %d and %d", s.Inner, r.Inner)
	}
	for i, d := range r.Dirs[1:] {
		if d != core.Pull {
			t.Fatalf("fixture: round %d pushed; the test covers pull rounds", i+1)
		}
	}
	a10 := allocs(func() { Adaptive(short, opt) })
	a20 := allocs(func() { Adaptive(long, opt) })
	if a10 != a20 {
		t.Errorf("adaptive pull rounds allocate: %.0f allocs over 10 rounds vs %.0f over 20", a10, a20)
	}
}
