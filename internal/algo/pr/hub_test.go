package pr

import (
	"testing"

	"pushpull/internal/core"
	"pushpull/internal/counters"
	"pushpull/internal/graph"
	"pushpull/internal/memsim"
)

func TestPullHubMatchesSequential(t *testing.T) {
	g := testGraph(t)
	opt := Options{Iterations: 15}
	opt.Threads = 4
	want := Sequential(g, opt)
	for _, k := range []int{0, 1, 16, 256, g.N()} {
		hs := graph.BuildHubSplit(g, k)
		got, stats := PullHub(g, hs, opt)
		if d := MaxDiff(got, want); d > tol {
			t.Fatalf("k=%d: hub pull vs sequential: max diff %g", k, d)
		}
		if stats.Direction != core.Pull || stats.Iterations != 15 {
			t.Fatalf("k=%d: stats = %+v", k, stats)
		}
	}
}

func TestPullHubOnDegreeSorted(t *testing.T) {
	// The composition the engine runs on skewed graphs: degree-sort, then
	// hub-split the sorted view; results un-permute to the sequential ranks.
	g := testGraph(t)
	opt := Options{Iterations: 12}
	opt.Threads = 4
	want := Sequential(g, opt)
	ds := graph.SortByDegree(g)
	hs := graph.BuildHubSplit(ds.G, 64)
	got, _ := PullHub(ds.G, hs, opt)
	unperm := make([]float64, len(got))
	for newID, old := range ds.Perm {
		unperm[old] = got[newID]
	}
	if d := MaxDiff(unperm, want); d > tol {
		t.Fatalf("degree-sorted hub pull: max diff %g", d)
	}
}

func TestPullDirectedHubMatchesSequential(t *testing.T) {
	dg := directedFixture(t, 500, 3000, 17)
	opt := Options{Iterations: 15}
	opt.Threads = 4
	want := SequentialDirected(dg, opt)
	for _, k := range []int{0, 16, 256} {
		hs := graph.BuildHubSplit(dg.In, k)
		got, _ := PullDirectedHub(dg, hs, opt)
		if d := MaxDiff(got, want); d > tol {
			t.Fatalf("k=%d: directed hub pull: max diff %g", k, d)
		}
	}
}

func TestPullHubProfiledMatchesFast(t *testing.T) {
	g := testGraph(t)
	opt := Options{Iterations: 8}
	opt.Threads = 3
	hs := graph.BuildHubSplit(g, 32)
	want, _ := PullHub(g, hs, opt)
	prof, grp := core.CountingProfile(3)
	got, err := PullHubProfiled(g, hs, opt, prof, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d := MaxDiff(got, want); d != 0 {
		t.Fatalf("profiled hub pull differs from fast: %g", d)
	}
	tot := grp.Report()
	if tot.Get(counters.Atomics) != 0 {
		t.Fatalf("pull charged %d atomics", tot.Get(counters.Atomics))
	}
	// With the contribution vector a residual edge costs what a hub edge
	// costs (adj + one 8-byte read), so the hub cache saves no read: its
	// bill is plain pull's plus the per-row hubEnd read and the k-entry
	// refresh, per iteration.
	if hs.HubEdges() == 0 {
		t.Fatal("fixture has no hub edges")
	}
	profPlain, grpPlain := core.CountingProfile(3)
	if _, err := PullProfiled(g, opt, profPlain, nil); err != nil {
		t.Fatal(err)
	}
	plain := grpPlain.Report().Get(counters.Reads)
	if want := plain + 8*int64(g.N()+hs.K); tot.Get(counters.Reads) != want {
		t.Fatalf("hub pull reads %d, want plain pull's %d + L·(n+k) = %d", tot.Get(counters.Reads), plain, want)
	}
}

// What the hub cache still claims is locality: hub-prefix reads land in a
// k-entry array instead of the n-entry contribution vector. That can only
// show when the vector does not fit the cache, so the claim is made on
// modeled L1 misses with an L1 of half n·8 bytes — and the stock 32 KiB
// L1, which holds this fixture's whole vector, shows the other side: there
// the extra hubEnd and refresh traffic makes hub the one that misses more.
func TestPullHubLocalityNeedsStateBeyondCache(t *testing.T) {
	g := testGraph(t)
	opt := Options{Iterations: 4}
	hs := graph.BuildHubSplit(g, 128)
	l1Misses := func(l1 int, hub bool) int64 {
		cfg := memsim.XeonE5SandyBridge()
		cfg.L1.Size = l1
		m := memsim.NewMachine(cfg, 1)
		prof := core.Profile{Threads: 1, Probes: m.Probes()}
		var err error
		if hub {
			_, err = PullHubProfiled(g, hs, opt, prof, m.Space())
		} else {
			_, err = PullProfiled(g, opt, prof, m.Space())
		}
		if err != nil {
			t.Fatal(err)
		}
		return m.Report().Get(counters.L1Miss)
	}
	small := g.N() * 8 / 2
	plainSmall, hubSmall := l1Misses(small, false), l1Misses(small, true)
	plainStock, hubStock := l1Misses(32<<10, false), l1Misses(32<<10, true)
	t.Logf("L1 misses, plain vs hub(k=%d, %d of %d edges): %d B L1 %d vs %d; 32 KiB L1 %d vs %d",
		hs.K, hs.HubEdges(), g.M(), small, plainSmall, hubSmall, plainStock, hubStock)
	if hubSmall >= plainSmall {
		t.Errorf("L1 of %d B (half the contribution vector): hub misses %d, plain %d — no locality gain", small, hubSmall, plainSmall)
	}
	if hubStock < plainStock {
		t.Errorf("32 KiB L1 (vector resident): hub misses %d < plain %d — the hub cache should have nothing to win here", hubStock, plainStock)
	}
}

func TestPullDirectedHubProfiledMatchesFast(t *testing.T) {
	dg := directedFixture(t, 500, 3000, 17)
	opt := Options{Iterations: 8}
	opt.Threads = 3
	hs := graph.BuildHubSplit(dg.In, 32)
	want, _ := PullDirectedHub(dg, hs, opt)
	prof, grp := core.CountingProfile(3)
	got, err := PullDirectedHubProfiled(dg, hs, opt, prof, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d := MaxDiff(got, want); d != 0 {
		t.Fatalf("profiled directed hub pull differs from fast: %g", d)
	}
	if grp.Report().Get(counters.Atomics) != 0 {
		t.Fatalf("pull charged atomics")
	}
}
