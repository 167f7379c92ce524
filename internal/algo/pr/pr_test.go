package pr

import (
	"context"
	"fmt"
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
)

const tol = 1e-9

// views pairs out and in (either may be nil) after checking both: Push
// and Pull read only graphs that passed graph.Check.
func views(out, in *graph.CSR) Views {
	for _, g := range []*graph.CSR{out, in} {
		if g != nil {
			if err := g.Check(); err != nil {
				panic(err)
			}
		}
	}
	return Views{out, in}
}

// und is the view pair of an undirected graph: In == Out.
func und(g *graph.CSR) Views { return views(g, g) }

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
	want := Sequential(und(g), opt)
	got, stats := Push(und(g), opt)
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
	want := Sequential(und(g), opt)
	got, stats := Pull(und(g), opt)
	if d := MaxDiff(got, want); d > tol {
		t.Fatalf("pull vs sequential: max diff %g", d)
	}
	if stats.Direction != core.Pull {
		t.Fatalf("direction = %v", stats.Direction)
	}
}

// Push scatters into per-worker accumulators: at every thread count it
// matches Sequential, and at one thread (a single chunk, one accumulator,
// no fold) it adds in Sequential's order, bit for bit.
func TestPushPAMatchesSequential(t *testing.T) {
	g := testGraph(t)
	opt := Options{Iterations: 15}
	want := Sequential(und(g), opt)
	for _, p := range []int{1, 2, 4, 7} {
		opt.Threads = p
		got, _ := Push(und(g), opt)
		if p == 1 {
			bitsEqual(t, "push at one thread", got, want)
		}
		if d := MaxDiff(got, want); d > 1e-12 {
			t.Fatalf("P=%d: push vs sequential: max diff %g", p, d)
		}
	}
}

// Push has no atomics and folds its per-worker accumulators in worker
// order, and its static schedule deals each worker the same chunk every
// run, so every worker adds the same terms in the same order each run:
// the bits repeat at any fixed thread count, on an undirected graph and
// on a digraph alike.
func TestPushReproducible(t *testing.T) {
	g := testGraph(t)
	opt := Options{Iterations: 10}
	for name, vw := range map[string]Views{"undirected": und(g), "directed": views(orient(t, g), nil)} {
		for _, threads := range []int{2, 4, 7} {
			opt.Threads = threads
			first, _ := Push(vw, opt)
			for run := 1; run < 5; run++ {
				got, _ := Push(vw, opt)
				bitsEqual(t, fmt.Sprintf("%s t=%d run %d", name, threads, run), got, first)
			}
		}
	}
}

// Every update goes into the scattering worker's own accumulator whatever
// the target, so a CSR whose rows are not sorted (pushpull.Graph exposes
// its arrays; nothing guarantees order) must give the same ranks. Run
// under -race: a scatter into another worker's accumulator is a race.
func TestPushUnsortedRows(t *testing.T) {
	g := testGraph(t)
	shuffled := shuffleRows(t, g, 3)
	opt := Options{Iterations: 10}
	want := Sequential(und(g), opt)
	for _, threads := range []int{2, 4, 7} {
		opt.Threads = threads
		got, _ := Push(und(shuffled), opt)
		if d := MaxDiff(got, want); d > 1e-12 {
			t.Fatalf("t=%d: unsorted-row push vs sequential: max diff %g", threads, d)
		}
	}
}

func TestRankMassConserved(t *testing.T) {
	// On a connected graph with no zero-degree vertices, total rank ≈ 1.
	g := gen.Ring(1000)
	opt := Options{Iterations: 30}
	ranks := Sequential(und(g), opt)
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
	ranks := Sequential(und(g), Options{Iterations: 50})
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
	if r, _ := Push(und(empty), Options{}); len(r) != 0 {
		t.Fatal("empty graph ranks")
	}
	if r, _ := Pull(und(empty), Options{}); len(r) != 0 {
		t.Fatal("empty graph ranks")
	}
	// Isolated vertices keep base rank.
	iso := graph.NewBuilder(3).MustBuild()
	r, _ := Pull(und(iso), Options{Iterations: 5, Damping: 0.85})
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
	Push(und(g), opt)
	if len(iters) != 5 || iters[0] != 0 || iters[4] != 4 {
		t.Fatalf("push iterations hook = %v", iters)
	}
	iters = nil
	Pull(und(g), opt)
	if len(iters) != 5 {
		t.Fatalf("pull iterations hook = %v", iters)
	}
	iters = nil
	opt.Threads = 2 // scatter and fold both run
	Push(und(g), opt)
	if len(iters) != 5 {
		t.Fatalf("two-thread push iterations hook = %v", iters)
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
	ranks, _ := Pull(und(g), opt)
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
		a, _ := Push(und(g), opt)
		b, _ := Pull(und(g), opt)
		return MaxDiff(a, b) < tol
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestProfiledVariantsMatchFast(t *testing.T) {
	g := testGraph(t)
	opt := Options{Iterations: 5}
	want := Sequential(und(g), opt)

	prof, _ := core.CountingProfile(4)
	got, err := PushProfiled(und(g), opt, prof, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d := MaxDiff(got, want); d > tol {
		t.Fatalf("profiled push diff %g", d)
	}

	prof2, _ := core.CountingProfile(4)
	got2, err := PullProfiled(und(g), opt, prof2, nil)
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
	if _, err := PushProfiled(und(g), opt, profPush, nil); err != nil {
		t.Fatal(err)
	}
	push := gPush.Report()

	profPull, gPull := core.CountingProfile(4)
	if _, err := PullProfiled(und(g), opt, profPull, nil); err != nil {
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
	if _, err := PushProfiled(und(g), opt, prof, machine.Space()); err != nil {
		t.Fatal(err)
	}
	pushMiss := machine.Report().Get(counters.L1Miss)

	machine2 := memsim.NewMachine(memsim.XeonE5SandyBridge(), 4)
	prof2 := core.Profile{Threads: 4, Probes: machine2.Probes()}
	if _, err := PullProfiled(und(g), opt, prof2, machine2.Space()); err != nil {
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
	if _, err := PushProfiled(und(g), Options{}, bad, nil); err == nil {
		t.Fatal("bad profile accepted")
	}
	if _, err := PullProfiled(und(g), Options{}, bad, nil); err == nil {
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
// vector rests on: the same quotient added in the same order. Pull (over
// undirected and directed views) and PullBlocked (mmap and buffered
// handles) must equal the two-reads oracle bit for bit at every thread count and schedule, and
// the profiled twin equals its fast kernel exactly.
func TestPullBitIdenticalToTwoReadsGather(t *testing.T) {
	dir := t.TempDir()
	for fi, fx := range contribFixtures(t) {
		n := fx.out.N()
		vw, deg := und(fx.out), fx.out.Degree
		var outDeg []int64
		if fx.directed {
			vw = views(fx.out, fx.out.Transpose())
			outDeg = make([]int64, n)
			for v := range outDeg {
				outDeg[v] = fx.out.Degree(graph.V(v))
			}
		}
		base := Options{Iterations: 6}
		pull := vw.In
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
			opt := base
			opt.Threads = threads
			at := fx.name + "/t" + string(rune('0'+threads))

			got, _ := Pull(vw, opt)
			bitsEqual(t, at+" in-memory", got, want)
			for name, bg := range handles {
				blocked, _, err := PullBlocked(bg, opt)
				if err != nil {
					t.Fatalf("%s blocked/%s: %v", at, name, err)
				}
				bitsEqual(t, at+" blocked/"+name, blocked, want)
			}

			prof, _ := core.CountingProfile(threads)
			twin, err := PullProfiled(vw, opt, prof, nil)
			if err != nil {
				t.Fatalf("%s profiled: %v", at, err)
			}
			bitsEqual(t, at+" profiled", twin, want)
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
		"pull":          func() ([]float64, core.RunStats) { return Pull(und(g), opts()) },
		"pull-directed": func() ([]float64, core.RunStats) { return Pull(dg, opts()) },
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

// directedFixture builds a small random digraph and its transpose: the
// view pair of a directed run.
func directedFixture(t testing.TB, n int, edges int, seed uint64) Views {
	t.Helper()
	r := rng.New(seed)
	b := graph.NewBuilder(n).Directed()
	for i := 0; i < edges; i++ {
		b.AddEdge(graph.V(r.Intn(n)), graph.V(r.Intn(n)))
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return views(g, g.Transpose())
}

func TestDirectedPushPullAgree(t *testing.T) {
	dg := directedFixture(t, 500, 3000, 17)
	opt := Options{Iterations: 15}
	opt.Threads = 4
	want := Sequential(dg, opt)
	push, sPush := Push(dg, opt)
	pull, sPull := Pull(dg, opt)
	if d := MaxDiff(push, want); d > tol {
		t.Fatalf("directed push diff %g", d)
	}
	if d := MaxDiff(pull, want); d > tol {
		t.Fatalf("directed pull diff %g", d)
	}
	if sPush.Iterations != 15 || sPull.Iterations != 15 {
		t.Fatal("iteration bookkeeping wrong")
	}
}

func TestDirectedChain(t *testing.T) {
	// 0 → 1 → 2: rank accumulates downstream; vertex 0 keeps only the
	// base mass, vertex 2 gets the most.
	b := graph.NewBuilder(3).Directed()
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	g := b.MustBuild()
	ranks, _ := Pull(views(g, g.Transpose()), Options{Iterations: 40})
	if !(ranks[0] < ranks[1] && ranks[1] < ranks[2]) {
		t.Fatalf("chain ranks not monotone: %v", ranks)
	}
	base := (1 - 0.85) / 3.0
	if math.Abs(ranks[0]-base) > tol {
		t.Fatalf("source rank = %v, want base %v", ranks[0], base)
	}
}

// The property the one-kernel design rests on: undirected is the In == Out
// case. A symmetric digraph equals its own transpose, so handing a kernel
// Views{g, g} or Views{g, g.Transpose()} must give bit-equal ranks and
// equal bills — the only thing a second view may change is the modeled
// address of the in-arrays, never what is computed or counted.
func TestDirectedVsUndirectedConsistency(t *testing.T) {
	r := rng.New(5)
	const n = 200
	b := graph.NewBuilder(n)
	for i := 0; i < 800; i++ {
		b.AddEdge(graph.V(r.Intn(n)), graph.V(r.Intn(n)))
	}
	g := b.MustBuild()
	same, pair := und(g), views(g, g.Transpose())
	if pair.In == g {
		t.Fatal("Transpose returned its receiver: the two-view case is not exercised")
	}
	opt := Options{Iterations: 12}
	want := Sequential(same, opt)
	bitsEqual(t, "sequential", Sequential(pair, opt), want)
	for _, threads := range []int{1, 2, 4, 7} {
		opt.Threads = threads
		pullSame, _ := Pull(same, opt)
		pullPair, _ := Pull(pair, opt)
		bitsEqual(t, "pull", pullPair, pullSame)
		if d := MaxDiff(pullSame, want); d > tol {
			t.Fatalf("pull vs sequential diff %g", d)
		}
		// Fast push never reads In and folds its per-worker accumulators
		// in a fixed order, so the two spellings agree to the bit. Above
		// one thread the fold adds in its own order, not Sequential's, so
		// against the reference it is held to the tolerance.
		pushSame, _ := Push(same, opt)
		pushPair, _ := Push(pair, opt)
		bitsEqual(t, "push", pushPair, pushSame)
		if d := MaxDiff(pushSame, want); d > tol {
			t.Fatalf("push diff %g at %d threads", d, threads)
		}
		type twin func(Views, Options, core.Profile, *memsim.AddressSpace) ([]float64, error)
		for name, kernel := range map[string]twin{"push": PushProfiled, "pull": PullProfiled} {
			profA, grpA := core.CountingProfile(threads)
			profB, grpB := core.CountingProfile(threads)
			ra, errA := kernel(same, opt, profA, nil)
			rb, errB := kernel(pair, opt, profB, nil)
			if errA != nil || errB != nil {
				t.Fatal(errA, errB)
			}
			bitsEqual(t, name+" profiled", rb, ra)
			if grpA.Report() != grpB.Report() {
				t.Fatalf("%s profiled at %d threads: bills differ\nIn == Out:\n%v\ntransposed:\n%v", name, threads, grpA.Report(), grpB.Report())
			}
		}
	}
}

func TestDirectedDanglingVertices(t *testing.T) {
	// Sinks (no out-edges) absorb rank; sources keep base rank only.
	b := graph.NewBuilder(4).Directed()
	b.AddEdge(0, 3)
	b.AddEdge(1, 3)
	b.AddEdge(2, 3)
	g := b.MustBuild()
	dg := views(g, g.Transpose())
	push, _ := Push(dg, Options{Iterations: 10})
	pull, _ := Pull(dg, Options{Iterations: 10})
	if d := MaxDiff(push, pull); d > tol {
		t.Fatalf("dangling diff %g", d)
	}
	if !(push[3] > push[0]) {
		t.Fatalf("sink did not absorb rank: %v", push)
	}
}

func TestDirectedEmpty(t *testing.T) {
	g := graph.NewBuilder(0).Directed().MustBuild()
	dg := views(g, g.Transpose())
	if rks, _ := Push(dg, Options{}); len(rks) != 0 {
		t.Fatal("empty push")
	}
	if rks, _ := Pull(dg, Options{}); len(rks) != 0 {
		t.Fatal("empty pull")
	}
}

// Property: directed push == pull == sequential for random digraphs.
func TestDirectedAgreementProperty(t *testing.T) {
	f := func(seed uint64) bool {
		dg := directedFixture(t, 120, 600, seed)
		opt := Options{Iterations: 8}
		opt.Threads = 3
		want := Sequential(dg, opt)
		a, _ := Push(dg, opt)
		b, _ := Pull(dg, opt)
		return MaxDiff(a, want) < tol && MaxDiff(b, want) < tol
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

// TestDirectedProfiledMatchesFast: on directed views the instrumented
// kernels return the fast kernels' exact ranks and charge the expected
// synchronization — atomics per out-arc when pushing, none when pulling.
func TestDirectedProfiledMatchesFast(t *testing.T) {
	dg := directedFixture(t, 300, 1800, 23)
	opt := Options{Iterations: 6}
	opt.Threads = 3
	wantPush, _ := Push(dg, opt)
	wantPull, _ := Pull(dg, opt)

	prof, grp := core.CountingProfile(3)
	push, err := PushProfiled(dg, opt, prof, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d := MaxDiff(push, wantPush); d > tol {
		t.Fatalf("profiled directed push diff %g", d)
	}
	pushRep := grp.Report()
	if pushRep.Get(counters.Atomics) == 0 {
		t.Fatal("profiled directed push issued no atomics")
	}

	prof, grp = core.CountingProfile(3)
	pull, err := PullProfiled(dg, opt, prof, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d := MaxDiff(pull, wantPull); d > tol {
		t.Fatalf("profiled directed pull diff %g", d)
	}
	pullRep := grp.Report()
	if got := pullRep.Get(counters.Atomics); got != 0 {
		t.Fatalf("profiled directed pull issued %d atomics, want 0", got)
	}
	if pullRep.Get(counters.Reads) == 0 {
		t.Fatal("profiled directed pull recorded no reads")
	}

	// A push-only run may omit the in-view entirely.
	noIn := Views{Out: dg.Out}
	push2, err := PushProfiled(noIn, opt, core.Profile{}, nil)
	if err == nil {
		t.Fatal("invalid profile accepted") // Validate must still fire
	}
	prof, _ = core.CountingProfile(2)
	push2, err = PushProfiled(noIn, opt, prof, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d := MaxDiff(push2, wantPush); d > tol {
		t.Fatalf("in-less profiled push diff %g", d)
	}
}

func BenchmarkPush(b *testing.B) {
	g, _ := gen.RMAT(gen.DefaultRMAT(12, 8, 1))
	opt := Options{Iterations: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Push(und(g), opt)
	}
}

func BenchmarkPull(b *testing.B) {
	g, _ := gen.RMAT(gen.DefaultRMAT(12, 8, 1))
	opt := Options{Iterations: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Pull(und(g), opt)
	}
}

func BenchmarkDirectedPush(b *testing.B) {
	dg := directedFixture(b, 1<<12, 1<<15, 1)
	opt := Options{Iterations: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Push(dg, opt)
	}
}

func BenchmarkDirectedPull(b *testing.B) {
	dg := directedFixture(b, 1<<12, 1<<15, 1)
	opt := Options{Iterations: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Pull(dg, opt)
	}
}
