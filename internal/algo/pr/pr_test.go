package pr

import (
	"context"
	"math"
	"path/filepath"
	"testing"
	"testing/quick"
	"time"

	"pushpull/internal/core"
	"pushpull/internal/counters"
	"pushpull/internal/gen"
	"pushpull/internal/graph"
	"pushpull/internal/memsim"
	"pushpull/internal/rng"
	"pushpull/internal/sched"
)

const tol = 1e-9

func testGraph(t *testing.T) *graph.CSR {
	t.Helper()
	g, err := gen.RMAT(gen.DefaultRMAT(10, 8, 42))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestPushMatchesSequential(t *testing.T) {
	g := testGraph(t)
	opt := Options{Iterations: 15}
	opt.Threads = 4
	want := Sequential(g, opt)
	got, stats := Push(g, opt)
	if d := MaxDiff(got, want); d > tol {
		t.Fatalf("push vs sequential: max diff %g", d)
	}
	if stats.Iterations != 15 || stats.Direction != core.Push {
		t.Fatalf("stats = %+v", stats)
	}
}

func TestPullMatchesSequential(t *testing.T) {
	g := testGraph(t)
	opt := Options{Iterations: 15}
	opt.Threads = 4
	want := Sequential(g, opt)
	got, stats := Pull(g, opt)
	if d := MaxDiff(got, want); d > tol {
		t.Fatalf("pull vs sequential: max diff %g", d)
	}
	if stats.Direction != core.Pull {
		t.Fatalf("direction = %v", stats.Direction)
	}
}

func TestPushPAMatchesSequential(t *testing.T) {
	g := testGraph(t)
	opt := Options{Iterations: 15}
	for _, p := range []int{1, 2, 4, 7} {
		pa := graph.BuildPA(g, graph.NewPartition(g.N(), p))
		want := Sequential(g, opt)
		got, _ := PushPA(pa, opt)
		if d := MaxDiff(got, want); d > tol {
			t.Fatalf("P=%d: push+PA vs sequential: max diff %g", p, d)
		}
	}
}

func TestRankMassConserved(t *testing.T) {
	// On a connected graph with no zero-degree vertices, total rank ≈ 1.
	g := gen.Ring(1000)
	opt := Options{Iterations: 30}
	ranks := Sequential(g, opt)
	if s := Sum(ranks); math.Abs(s-1) > 1e-9 {
		t.Fatalf("rank mass = %v", s)
	}
	// Ring symmetry: every rank equals 1/n.
	for i, r := range ranks {
		if math.Abs(r-1.0/1000) > 1e-12 {
			t.Fatalf("rank[%d] = %v", i, r)
		}
	}
}

func TestStarRanks(t *testing.T) {
	// On a star, the center must accumulate far more rank than leaves.
	g := gen.Star(101)
	ranks := Sequential(g, Options{Iterations: 50})
	if ranks[0] < 10*ranks[1] {
		t.Fatalf("center %v vs leaf %v", ranks[0], ranks[1])
	}
	// All leaves identical.
	for i := 2; i < 101; i++ {
		if math.Abs(ranks[i]-ranks[1]) > 1e-12 {
			t.Fatalf("leaf ranks differ: %v vs %v", ranks[i], ranks[1])
		}
	}
}

func TestEmptyAndTinyGraphs(t *testing.T) {
	empty := graph.NewBuilder(0).MustBuild()
	if r, _ := Push(empty, Options{}); len(r) != 0 {
		t.Fatal("empty graph ranks")
	}
	if r, _ := Pull(empty, Options{}); len(r) != 0 {
		t.Fatal("empty graph ranks")
	}
	// Isolated vertices keep base rank.
	iso := graph.NewBuilder(3).MustBuild()
	r, _ := Pull(iso, Options{Iterations: 5, Damping: 0.85})
	base := (1 - 0.85) / 3.0
	for _, x := range r {
		if math.Abs(x-base) > tol {
			t.Fatalf("isolated rank = %v, want %v", x, base)
		}
	}
}

func TestOnIterationHook(t *testing.T) {
	g := gen.Ring(64)
	var iters []int
	opt := Options{Iterations: 5}
	opt.OnIteration = func(i int, _ time.Duration) { iters = append(iters, i) }
	Push(g, opt)
	if len(iters) != 5 || iters[0] != 0 || iters[4] != 4 {
		t.Fatalf("push iterations hook = %v", iters)
	}
	iters = nil
	Pull(g, opt)
	if len(iters) != 5 {
		t.Fatalf("pull iterations hook = %v", iters)
	}
	iters = nil
	pa := graph.BuildPA(g, graph.NewPartition(g.N(), 2))
	PushPA(pa, opt)
	if len(iters) != 5 {
		t.Fatalf("PA iterations hook = %v", iters)
	}
}

func TestDefaults(t *testing.T) {
	var o Options
	o.defaults()
	if o.Iterations != 20 || o.Damping != DefaultDamping {
		t.Fatalf("defaults = %+v", o)
	}
}

func TestSetDampingZeroIsExpressible(t *testing.T) {
	// Assigning Damping = 0 means "default" for zero-value compatibility;
	// SetDamping(0) pins a genuine zero-damping run.
	var implicit Options
	implicit.Damping = 0
	implicit.defaults()
	if implicit.Damping != DefaultDamping {
		t.Fatalf("implicit zero rewritten to %v, want default %v", implicit.Damping, DefaultDamping)
	}
	var explicit Options
	explicit.SetDamping(0)
	explicit.defaults()
	if explicit.Damping != 0 {
		t.Fatalf("SetDamping(0) rewritten to %v", explicit.Damping)
	}
	var pinned Options
	pinned.SetDamping(0.5)
	pinned.defaults()
	if pinned.Damping != 0.5 {
		t.Fatalf("SetDamping(0.5) rewritten to %v", pinned.Damping)
	}
	// Zero damping yields the uniform teleport distribution.
	g, err := gen.ErdosRenyi(100, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Iterations: 5}
	opt.SetDamping(0)
	ranks, _ := Pull(g, opt)
	want := 1 / float64(g.N())
	for v, r := range ranks {
		if math.Abs(r-want) > 1e-15 {
			t.Fatalf("zero-damping rank[%d] = %g, want %g", v, r, want)
		}
	}
}

func TestPushPullEquivalenceProperty(t *testing.T) {
	f := func(seed uint64) bool {
		g, err := gen.ErdosRenyi(300, 4, seed)
		if err != nil {
			return false
		}
		opt := Options{Iterations: 10}
		opt.Threads = 3
		a, _ := Push(g, opt)
		b, _ := Pull(g, opt)
		return MaxDiff(a, b) < tol
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestProfiledVariantsMatchFast(t *testing.T) {
	g := testGraph(t)
	opt := Options{Iterations: 5}
	want := Sequential(g, opt)

	prof, _ := core.CountingProfile(4)
	got, err := PushProfiled(g, opt, prof, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d := MaxDiff(got, want); d > tol {
		t.Fatalf("profiled push diff %g", d)
	}

	prof2, _ := core.CountingProfile(4)
	got2, err := PullProfiled(g, opt, prof2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d := MaxDiff(got2, want); d > tol {
		t.Fatalf("profiled pull diff %g", d)
	}

	pa := graph.BuildPA(g, graph.NewPartition(g.N(), 4))
	prof3, _ := core.CountingProfile(4)
	got3, err := PushPAProfiled(pa, opt, prof3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d := MaxDiff(got3, want); d > tol {
		t.Fatalf("profiled push+PA diff %g", d)
	}
}

// The central Table 1 shape: pushing issues ≈ L·2m atomics, pulling zero;
// pulling reads more than pushing (3n + 2m vs 3n + m per iteration, m
// counting adjacency slots); PA strictly reduces atomics.
func TestCounterShapes(t *testing.T) {
	g := testGraph(t)
	opt := Options{Iterations: 3}
	L := int64(3)
	m2 := g.M() // directed slots = 2m

	profPush, gPush := core.CountingProfile(4)
	if _, err := PushProfiled(g, opt, profPush, nil); err != nil {
		t.Fatal(err)
	}
	push := gPush.Report()

	profPull, gPull := core.CountingProfile(4)
	if _, err := PullProfiled(g, opt, profPull, nil); err != nil {
		t.Fatal(err)
	}
	pull := gPull.Report()

	if got := push.Get(counters.Atomics); got != L*m2 {
		t.Fatalf("push atomics = %d, want %d", got, L*m2)
	}
	if got := pull.Get(counters.Atomics); got != 0 {
		t.Fatalf("pull atomics = %d, want 0", got)
	}
	if pull.Get(counters.Reads) <= push.Get(counters.Reads) {
		t.Fatalf("pull reads %d not > push reads %d",
			pull.Get(counters.Reads), push.Get(counters.Reads))
	}
	// The pull bill exactly: the scale pass reads pr[v] and an offset, the
	// gather an offset per row and adj + contrib[u] per edge; both passes
	// write one cell per vertex.
	n := int64(g.N())
	if got, want := pull.Get(counters.Reads), L*(3*n+2*m2); got != want {
		t.Fatalf("pull reads = %d, want L·(3n+2m) = %d", got, want)
	}
	if got, want := pull.Get(counters.Writes), L*2*n; got != want {
		t.Fatalf("pull writes = %d, want L·2n = %d", got, want)
	}
	if pull.Get(counters.Locks) != 0 || push.Get(counters.Locks) != 0 {
		t.Fatal("PR variants must not take locks (CAS-float counted as atomics)")
	}

	pa := graph.BuildPA(g, graph.NewPartition(g.N(), 4))
	profPA, gPA := core.CountingProfile(4)
	if _, err := PushPAProfiled(pa, opt, profPA, nil); err != nil {
		t.Fatal(err)
	}
	paRep := gPA.Report()
	if got, want := paRep.Get(counters.Atomics), L*pa.RemoteEdges(); got != want {
		t.Fatalf("PA atomics = %d, want %d", got, want)
	}
	if paRep.Get(counters.Atomics) >= push.Get(counters.Atomics) {
		t.Fatal("PA did not reduce atomics")
	}
}

// Cache-model shape from Table 1: pull suffers more L1 misses than push on
// a dense power-law graph. Both now make one random access per edge; pull
// still streams more (an extra offset pass and the contribution vector).
func TestCacheMissShape(t *testing.T) {
	g := testGraph(t)
	opt := Options{Iterations: 2}

	machine := memsim.NewMachine(memsim.XeonE5SandyBridge(), 4)
	prof := core.Profile{Threads: 4, Probes: machine.Probes()}
	if _, err := PushProfiled(g, opt, prof, machine.Space()); err != nil {
		t.Fatal(err)
	}
	pushMiss := machine.Report().Get(counters.L1Miss)

	machine2 := memsim.NewMachine(memsim.XeonE5SandyBridge(), 4)
	prof2 := core.Profile{Threads: 4, Probes: machine2.Probes()}
	if _, err := PullProfiled(g, opt, prof2, machine2.Space()); err != nil {
		t.Fatal(err)
	}
	pullMiss := machine2.Report().Get(counters.L1Miss)

	if pullMiss <= pushMiss {
		t.Fatalf("pull L1 misses %d not > push %d", pullMiss, pushMiss)
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

// pullTwoReads is the gather every pull kernel ran before the contribution
// vector, kept as the oracle: per edge it reads the neighbor's rank and
// degree, skips a degree-0 neighbor and divides. rows is the pull view,
// deg the degree a contribution scales by.
func pullTwoReads(n int, rows func(graph.V) []graph.V, deg func(graph.V) int64, opt Options) []float64 {
	opt.defaults()
	pr := make([]float64, n)
	next := make([]float64, n)
	for i := range pr {
		pr[i] = 1 / float64(n)
	}
	base := (1 - opt.Damping) / float64(n)
	for l := 0; l < opt.Iterations; l++ {
		for v := graph.V(0); int(v) < n; v++ {
			sum := 0.0
			for _, u := range rows(v) {
				du := deg(u)
				if du == 0 {
					continue
				}
				sum += pr[u] / float64(du)
			}
			next[v] = base + opt.Damping*sum
		}
		pr, next = next, pr
	}
	return pr
}

// contribFixture is one graph of the bit-identity table: out is what the
// builder produced (the out-edge view when directed).
type contribFixture struct {
	name     string
	directed bool
	out      *graph.CSR
}

// contribFixtures covers the shapes where a contribution of 0 or a
// repeated term could make the two gathers part ways: isolated vertices,
// dangling directed sources, self-loops, duplicate edges, and the sizes
// around a single vertex and a block boundary.
func contribFixtures(t *testing.T) []contribFixture {
	t.Helper()
	var fx []contribFixture
	add := func(name string, directed bool, n int, edges [][2]graph.V) {
		b := graph.NewBuilder(n).KeepDuplicates().KeepSelfLoops()
		if directed {
			b = b.Directed()
		}
		for _, e := range edges {
			b.AddEdge(e[0], e[1])
		}
		g, err := b.Build()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fx = append(fx, contribFixture{name: name, directed: directed, out: g})
	}
	// random draws edges over the low three quarters of the ids, so the top
	// quarter stays isolated; one edge in eight is a self-loop, one in
	// eight repeats its predecessor.
	random := func(n, m int, seed uint64) [][2]graph.V {
		r := rng.New(seed)
		span := n - n/4
		edges := make([][2]graph.V, 0, m)
		for i := 0; i < m; i++ {
			u, v := graph.V(r.Intn(span)), graph.V(r.Intn(span))
			switch {
			case i%8 == 3:
				v = u
			case i%8 == 5 && i > 0:
				u, v = edges[i-1][0], edges[i-1][1]
			}
			edges = append(edges, [2]graph.V{u, v})
		}
		return edges
	}
	for _, directed := range []bool{false, true} {
		kind := "undirected"
		if directed {
			kind = "directed"
		}
		add(kind+"/n1", directed, 1, nil)
		add(kind+"/n1-loop", directed, 1, [][2]graph.V{{0, 0}})
		add(kind+"/n2", directed, 2, [][2]graph.V{{0, 1}})
		add(kind+"/n2-dup", directed, 2, [][2]graph.V{{0, 1}, {0, 1}, {1, 1}})
		add(kind+"/n65", directed, 65, random(65, 300, 7))
		add(kind+"/n700", directed, 700, random(700, 5000, 11))
	}
	// Every arc of a directed star points at the center: n−1 sources, and a
	// center with out-degree 0 that every other vertex would pull from if
	// the transpose were used by mistake.
	star := make([][2]graph.V, 0, 64)
	for v := graph.V(1); v < 65; v++ {
		star = append(star, [2]graph.V{v, 0})
	}
	add("directed/sink-star", true, 65, star)
	return fx
}

func bitsEqual(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d ranks, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: rank[%d] = %x (%g), oracle %x (%g)", what, i,
				math.Float64bits(got[i]), got[i], math.Float64bits(want[i]), want[i])
		}
	}
}

// TestPullBitIdenticalToTwoReadsGather pins the claim the contribution
// vector rests on: the same quotient added in the same order. Pull,
// PullDirected and PullBlocked (mmap and buffered handles) must equal the
// two-reads oracle bit for bit at every thread count and schedule, and
// every profiled twin equals its fast kernel exactly.
func TestPullBitIdenticalToTwoReadsGather(t *testing.T) {
	dir := t.TempDir()
	for fi, fx := range contribFixtures(t) {
		n := fx.out.N()
		pull, deg := fx.out, fx.out.Degree
		var dg *DirectedGraph
		var outDeg []int64
		if fx.directed {
			dg = NewDirected(fx.out)
			pull = dg.In
			outDeg = make([]int64, n)
			for v := range outDeg {
				outDeg[v] = fx.out.Degree(graph.V(v))
			}
		}
		base := Options{Iterations: 6}
		want := pullTwoReads(n, pull.Neighbors, deg, base)

		path := filepath.Join(dir, "g"+string(rune('a'+fi))+".blk")
		if err := graph.WriteBlockFile(path, pull, outDeg, 64); err != nil {
			t.Fatalf("%s: %v", fx.name, err)
		}
		handles := map[string]*graph.BlockCSR{}
		for name, opts := range map[string][]graph.BlockOpt{"mmap": nil, "buffered": {graph.Buffered()}} {
			bg, err := graph.OpenBlockCSR(path, opts...)
			if err != nil {
				t.Fatalf("%s: open %s: %v", fx.name, name, err)
			}
			t.Cleanup(func() { bg.Close() })
			handles[name] = bg
		}

		for _, threads := range []int{1, 2, 4, 7} {
			for _, schedule := range []sched.Schedule{sched.Static, sched.Dynamic} {
				opt := base
				opt.Threads, opt.Schedule = threads, schedule
				at := fx.name + "/t" + string(rune('0'+threads)) + "/" + schedule.String()

				var got []float64
				if fx.directed {
					got, _ = PullDirected(dg, opt)
				} else {
					got, _ = Pull(fx.out, opt)
				}
				bitsEqual(t, at+" in-memory", got, want)
				for name, bg := range handles {
					blocked, _, err := PullBlocked(bg, opt)
					if err != nil {
						t.Fatalf("%s blocked/%s: %v", at, name, err)
					}
					bitsEqual(t, at+" blocked/"+name, blocked, want)
				}

				prof, _ := core.CountingProfile(threads)
				var twin []float64
				var err error
				if fx.directed {
					twin, err = PullDirectedProfiled(dg, opt, prof, nil)
				} else {
					twin, err = PullProfiled(fx.out, opt, prof, nil)
				}
				if err != nil {
					t.Fatalf("%s profiled: %v", at, err)
				}
				bitsEqual(t, at+" profiled", twin, want)
				blockedTwin, err := PullBlockedProfiled(handles["mmap"], opt, prof, nil)
				if err != nil {
					t.Fatalf("%s blocked profiled: %v", at, err)
				}
				bitsEqual(t, at+" blocked profiled", blockedTwin, want)
			}
		}
	}
}

// openBlocked writes pull to a block file of 64-vertex blocks and opens it.
func openBlocked(t *testing.T, pull *graph.CSR) *graph.BlockCSR {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.blk")
	if err := graph.WriteBlockFile(path, pull, nil, 64); err != nil {
		t.Fatal(err)
	}
	bg, err := graph.OpenBlockCSR(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { bg.Close() })
	return bg
}

// cancelAfter is a context whose first `left` Err calls pass and every
// later one reports cancellation — the kernels poll Err once per
// iteration, from the loop's own goroutine, so the run stops after exactly
// `left` iterations whatever the machine's speed.
type cancelAfter struct {
	context.Context
	left int
}

func (c *cancelAfter) Err() error {
	if c.left--; c.left < 0 {
		return context.Canceled
	}
	return nil
}

// A run canceled mid-way must still hand back a full-length vector of
// finite ranks: the contribution vector is scratch, never the result.
func TestPullCanceledMidRunReturnsFiniteRanks(t *testing.T) {
	g := testGraph(t)
	dg := directedFixture(t, 600, 4000, 11)
	bg := openBlocked(t, g)
	opts := func() Options {
		opt := Options{Iterations: 50}
		opt.Threads = 3
		opt.Ctx = &cancelAfter{Context: context.Background(), left: 4}
		return opt
	}
	runs := map[string]func() ([]float64, core.RunStats){
		"pull":          func() ([]float64, core.RunStats) { return Pull(g, opts()) },
		"pull-directed": func() ([]float64, core.RunStats) { return PullDirected(dg, opts()) },
		"pull-blocked": func() ([]float64, core.RunStats) {
			r, s, err := PullBlocked(bg, opts())
			if err != nil {
				t.Fatal(err)
			}
			return r, s
		},
	}
	for name, run := range runs {
		ranks, stats := run()
		if !stats.Canceled || stats.Iterations != 4 {
			t.Errorf("%s: canceled=%v after %d iterations, want canceled after 4", name, stats.Canceled, stats.Iterations)
		}
		wantLen := g.N()
		if name == "pull-directed" {
			wantLen = dg.Out.N()
		}
		if len(ranks) != wantLen {
			t.Errorf("%s: %d ranks, want %d", name, len(ranks), wantLen)
		}
		for v, r := range ranks {
			if math.IsNaN(r) || math.IsInf(r, 0) || r <= 0 {
				t.Fatalf("%s: rank[%d] = %g after cancellation", name, v, r)
			}
		}
	}
}

func BenchmarkPush(b *testing.B) {
	g, _ := gen.RMAT(gen.DefaultRMAT(12, 8, 1))
	opt := Options{Iterations: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Push(g, opt)
	}
}

func BenchmarkPull(b *testing.B) {
	g, _ := gen.RMAT(gen.DefaultRMAT(12, 8, 1))
	opt := Options{Iterations: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Pull(g, opt)
	}
}

func BenchmarkPushPA(b *testing.B) {
	g, _ := gen.RMAT(gen.DefaultRMAT(12, 8, 1))
	pa := graph.BuildPA(g, graph.NewPartition(g.N(), 4))
	opt := Options{Iterations: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		PushPA(pa, opt)
	}
}
