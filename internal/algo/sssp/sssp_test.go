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

// modes are Run's direction policies, by name.
var modes = []struct {
	name string
	mode Mode
}{{"auto", Auto}, {"push", ForcePush}, {"pull", ForcePull}}

// runMode is Run in the given mode.
func runMode(g *graph.CSR, opt Options, mode Mode) *Result {
	opt.Mode = mode
	return Run(g, opt)
}

func TestPushMatchesDijkstra(t *testing.T) {
	g := weighted(t, 21)
	want := Dijkstra(g, 0)
	for _, m := range modes {
		for _, delta := range []float64{0, 10, 50, 1000} {
			opt := Options{Source: 0, Delta: delta}
			opt.Threads = 4
			res := runMode(g, opt, m.mode)
			if d := MaxDiff(res.Dist, want); d > tol {
				t.Fatalf("%s Δ=%v: max diff vs dijkstra %g", m.name, delta, d)
			}
			if res.Epochs == 0 || res.Inner == 0 {
				t.Fatalf("%s Δ=%v: no work recorded: %+v", m.name, delta, res)
			}
		}
	}
}

func TestPullMatchesDijkstra(t *testing.T) {
	g := weighted(t, 22)
	want := Dijkstra(g, 0)
	for _, m := range modes {
		for _, delta := range []float64{0, 10, 50, 1000} {
			opt := Options{Source: 0, Delta: delta}
			opt.Threads = 4
			if d := MaxDiff(runMode(g, opt, m.mode).Dist, want); d > tol {
				t.Fatalf("%s Δ=%v: max diff vs dijkstra %g", m.name, delta, d)
			}
		}
	}
}

// Push rounds take their sources in id order. At one thread, where the
// counts are deterministic, no mode may need more epochs or rounds than
// the counts pinned here, taken from the kernel that took them in
// lowering order.
func TestRoundCountsPinned(t *testing.T) {
	random, _ := randomWeighted(t, 4097, 4097)
	road, err := gen.RoadGrid(40, 40, 0.9, 3)
	if err != nil {
		t.Fatal(err)
	}
	road = gen.WithUniformWeights(road, 1, 10, 4)
	for _, c := range []struct {
		name   string
		g      *graph.CSR
		epochs int
		inner  [3]int // auto, push, pull
	}{
		{"weighted(31)", weighted(t, 31), 9, [3]int{16, 17, 15}},
		{"random", random, 10, [3]int{29, 31, 29}},
		{"road", road, 46, [3]int{126, 126, 124}},
	} {
		for i, m := range modes {
			opt := Options{}
			opt.Threads = 1
			res := runMode(c.g, opt, m.mode)
			if res.Epochs != c.epochs || res.Inner > c.inner[i] {
				t.Errorf("%s %s: %d epochs, %d rounds; want %d epochs, at most %d rounds",
					c.name, m.name, res.Epochs, res.Inner, c.epochs, c.inner[i])
			}
			if d := MaxDiff(res.Dist, Dijkstra(c.g, 0)); d > tol {
				t.Errorf("%s %s: max diff %g from Dijkstra", c.name, m.name, d)
			}
		}
	}
}

func TestUnweightedEqualsBFSDepth(t *testing.T) {
	// On an unweighted path, distance = hop count, in every mode.
	g := gen.Path(50)
	for _, m := range modes {
		res := runMode(g, Options{Source: 0, Delta: 1}, m.mode)
		for v := 0; v < 50; v++ {
			if res.Dist[v] != float64(v) {
				t.Fatalf("%s: dist[%d] = %v", m.name, v, res.Dist[v])
			}
		}
	}
}

func TestDisconnected(t *testing.T) {
	b := graph.NewBuilder(4)
	b.AddEdgeW(0, 1, 5)
	// 2—3 unreachable from 0
	b.AddEdgeW(2, 3, 1)
	g := b.MustBuild()
	for _, m := range modes {
		res := runMode(g, Options{Source: 0}, m.mode)
		if !math.IsInf(res.Dist[2], 1) || !math.IsInf(res.Dist[3], 1) {
			t.Fatalf("%s: unreachable vertex got finite distance", m.name)
		}
		if res.Dist[1] != 5 {
			t.Fatalf("%s: dist[1] = %v", m.name, res.Dist[1])
		}
	}
}

func TestEmptyGraph(t *testing.T) {
	g := graph.NewBuilder(0).MustBuild()
	for _, m := range modes {
		if res := runMode(g, Options{}, m.mode); len(res.Dist) != 0 {
			t.Fatalf("empty %s", m.name)
		}
	}
}

func TestDeltaAffectsEpochCount(t *testing.T) {
	g := weighted(t, 23)
	for _, m := range modes {
		small := runMode(g, Options{Source: 0, Delta: 5}, m.mode)
		large := runMode(g, Options{Source: 0, Delta: 1e6}, m.mode)
		if small.Epochs <= large.Epochs {
			t.Fatalf("%s epochs: Δ=5 → %d, Δ=1e6 → %d; small Δ must need more epochs",
				m.name, small.Epochs, large.Epochs)
		}
		// With Δ → ∞, a single bucket holds everything (Bellman-Ford-like).
		if large.Epochs != 1 {
			t.Fatalf("%s: Δ=1e6 epochs = %d, want 1", m.name, large.Epochs)
		}
	}
}

// A Δ far below the spacing of the distances stops every mode and both
// profiled kernels with OverBudget instead of growing a bucket list out to
// ⌊d/Δ⌋ or overflowing int in the conversion; half the heuristic stays
// under the budget.
func TestDeltaBudget(t *testing.T) {
	g := weighted(t, 24)
	want := Dijkstra(g, 0)
	variants := map[string]func(Options) *Result{
		"push-profiled": func(o Options) *Result {
			prof, _ := core.CountingProfile(2)
			res, err := PushProfiled(g, o, prof, nil)
			if err != nil {
				t.Fatal(err)
			}
			return res
		},
		"pull-profiled": func(o Options) *Result {
			prof, _ := core.CountingProfile(2)
			res, err := PullProfiled(g, o, prof, nil)
			if err != nil {
				t.Fatal(err)
			}
			return res
		},
	}
	for _, m := range modes {
		mode := m.mode
		variants[m.name] = func(o Options) *Result { return runMode(g, o, mode) }
	}
	for name, run := range variants {
		for _, delta := range []float64{1e-300, 1e-12, 1e-6} {
			opt := Options{Delta: delta}
			opt.Threads = 2
			if !run(opt).OverBudget {
				t.Errorf("%s Δ=%g: ran to completion past the bucket budget", name, delta)
			}
		}
		opt := Options{Delta: heuristicDelta(g) / 2}
		opt.Threads = 2
		res := run(opt)
		if res.OverBudget {
			t.Errorf("%s: half the heuristic Δ passed the bucket budget", name)
		}
		if d := MaxDiff(res.Dist, want); d > tol {
			t.Errorf("%s: half the heuristic Δ: max diff vs dijkstra %g", name, d)
		}
	}
}

func TestRoadGraph(t *testing.T) {
	g, err := gen.RoadGrid(30, 30, 0.9, 7)
	if err != nil {
		t.Fatal(err)
	}
	g = gen.WithUniformWeights(g, 1, 10, 8)
	want := Dijkstra(g, 0)
	for _, m := range modes {
		if d := MaxDiff(runMode(g, Options{Source: 0}, m.mode).Dist, want); d > tol {
			t.Fatalf("%s diff %g", m.name, d)
		}
	}
}

// Property: every mode == Dijkstra on random weighted graphs.
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
		for _, m := range modes {
			if MaxDiff(runMode(g, opt, m.mode).Dist, want) > tol {
				return false
			}
		}
		return true
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
	road := counterRoad(t)
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

func BenchmarkRun(b *testing.B) {
	g, _ := gen.RMAT(gen.DefaultRMAT(12, 8, 1))
	g = gen.WithUniformWeights(g, 1, 100, 2)
	for _, m := range modes {
		b.Run(m.name, func(b *testing.B) {
			var res *Result
			for i := 0; i < b.N; i++ {
				res = runMode(g, Options{Source: 0}, m.mode)
			}
			b.ReportMetric(float64(res.PullArcs), "pull-arcs/op")
		})
	}
}
