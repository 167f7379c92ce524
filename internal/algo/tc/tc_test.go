package tc

import (
	"testing"
	"testing/quick"

	"pushpull/internal/core"
	"pushpull/internal/counters"
	"pushpull/internal/gen"
	"pushpull/internal/graph"
)

// bruteForce counts triangles per vertex by enumerating all vertex triples.
func bruteForce(g *graph.CSR) []int64 {
	n := g.NumV
	tc := make([]int64, n)
	for a := graph.V(0); a < n; a++ {
		for b := a + 1; b < n; b++ {
			if !g.HasEdge(a, b) {
				continue
			}
			for c := b + 1; c < n; c++ {
				if g.HasEdge(b, c) && g.HasEdge(a, c) {
					tc[a]++
					tc[b]++
					tc[c]++
				}
			}
		}
	}
	return tc
}

func TestKnownCounts(t *testing.T) {
	// Triangle with a tail: vertices 0,1,2 form the only triangle.
	b := graph.NewBuilder(5)
	b.AddEdge(0, 1)
	b.AddEdge(0, 2)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	b.AddEdge(3, 4)
	g := b.MustBuild()
	want := []int64{1, 1, 1, 0, 0}

	if got := Sequential(g); !Equal(got, want) {
		t.Fatalf("sequential = %v", got)
	}
	if got, _ := Push(g, Options{}); !Equal(got, want) {
		t.Fatalf("push = %v", got)
	}
	if got, _ := Pull(g, Options{}); !Equal(got, want) {
		t.Fatalf("pull = %v", got)
	}
	if Total(want) != 1 {
		t.Fatalf("Total = %d", Total(want))
	}
}

func TestCompleteGraph(t *testing.T) {
	// K5: every vertex is in C(4,2) = 6 triangles; total C(5,3) = 10.
	g := gen.Complete(5)
	got := Sequential(g)
	for v, c := range got {
		if c != 6 {
			t.Fatalf("tc[%d] = %d, want 6", v, c)
		}
	}
	if Total(got) != 10 {
		t.Fatalf("Total = %d", Total(got))
	}
}

func TestTriangleFree(t *testing.T) {
	// Bipartite graphs have no triangles.
	g := gen.BipartiteFull(4, 5)
	for _, c := range Sequential(g) {
		if c != 0 {
			t.Fatal("triangle in bipartite graph")
		}
	}
	// Rings of length > 3 have none either.
	for _, c := range Sequential(gen.Ring(10)) {
		if c != 0 {
			t.Fatal("triangle in C10")
		}
	}
}

func TestAgainstBruteForce(t *testing.T) {
	g, err := gen.ErdosRenyi(60, 5, 11)
	if err != nil {
		t.Fatal(err)
	}
	want := bruteForce(g)
	if got := Sequential(g); !Equal(got, want) {
		t.Fatalf("sequential vs brute force:\n got %v\nwant %v", got, want)
	}
}

func TestPushPullAgreeOnRMAT(t *testing.T) {
	g, err := gen.RMAT(gen.DefaultRMAT(9, 6, 3))
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{}
	opt.Threads = 4
	push, sPush := Push(g, opt)
	pull, sPull := Pull(g, opt)
	seq := Sequential(g)
	if !Equal(push, seq) {
		t.Fatal("push != sequential")
	}
	if !Equal(pull, seq) {
		t.Fatal("pull != sequential")
	}
	if sPush.Direction != core.Push || sPull.Direction != core.Pull {
		t.Fatal("directions wrong")
	}
}

// Push combines a pair's hits into one fetch-and-add; the integer sums
// must equal Sequential exactly whichever worker adds first.
func TestPushMatchesSequentialAcrossThreads(t *testing.T) {
	rmat, err := gen.RMAT(gen.DefaultRMAT(9, 6, 5))
	if err != nil {
		t.Fatal(err)
	}
	for name, g := range map[string]*graph.CSR{"rmat": rmat, "bipartite": gen.BipartiteFull(64, 64)} {
		seq := Sequential(g)
		for _, threads := range []int{1, 2, 4, 7} {
			opt := Options{}
			opt.Threads = threads
			if got, _ := Push(g, opt); !Equal(got, seq) {
				t.Errorf("%s t=%d: push != sequential", name, threads)
			}
		}
	}
}

func TestEmptyGraph(t *testing.T) {
	g := graph.NewBuilder(0).MustBuild()
	if got, _ := Push(g, Options{}); len(got) != 0 {
		t.Fatal("empty push")
	}
	if got, _ := Pull(g, Options{}); len(got) != 0 {
		t.Fatal("empty pull")
	}
}

// Property: push == pull == sequential on random graphs.
func TestVariantsAgreeProperty(t *testing.T) {
	f := func(seed uint64) bool {
		g, err := gen.ErdosRenyi(80, 4, seed)
		if err != nil {
			return false
		}
		opt := Options{}
		opt.Threads = 3
		a, _ := Push(g, opt)
		b, _ := Pull(g, opt)
		c := Sequential(g)
		return Equal(a, c) && Equal(b, c)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestProfiledMatchesFast(t *testing.T) {
	g, err := gen.ErdosRenyi(100, 5, 7)
	if err != nil {
		t.Fatal(err)
	}
	want := Sequential(g)

	prof, _ := core.CountingProfile(3)
	got, err := PushProfiled(g, prof, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(got, want) {
		t.Fatal("profiled push mismatch")
	}

	prof2, _ := core.CountingProfile(3)
	got2, err := PullProfiled(g, prof2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(got2, want) {
		t.Fatal("profiled pull mismatch")
	}
}

// Table 1 shape for TC: push atomics = 2·Σtc·3... exactly the hit count;
// pull atomics = 0; read counts comparable.
func TestCounterShapes(t *testing.T) {
	g, err := gen.RMAT(gen.DefaultRMAT(8, 6, 9))
	if err != nil {
		t.Fatal(err)
	}
	profPush, gPush := core.CountingProfile(2)
	tcs, err := PushProfiled(g, profPush, nil)
	if err != nil {
		t.Fatal(err)
	}
	push := gPush.Report()

	profPull, gPull := core.CountingProfile(2)
	if _, err := PullProfiled(g, profPull, nil); err != nil {
		t.Fatal(err)
	}
	pull := gPull.Report()

	// Hits before halving: Σ tc(v) · 2.
	var hits int64
	for _, c := range tcs {
		hits += 2 * c
	}
	if got := push.Get(counters.Atomics); got != hits {
		t.Fatalf("push atomics = %d, want %d (one FAA per hit)", got, hits)
	}
	if got := pull.Get(counters.Atomics); got != 0 {
		t.Fatalf("pull atomics = %d", got)
	}
	if pull.Get(counters.Writes) >= push.Get(counters.Atomics)+push.Get(counters.Writes) {
		// Pull writes only into tc[v]; push writes are all atomic.
		t.Log("note: write counts", pull.Get(counters.Writes), push.Get(counters.Writes))
	}
	// Branch and read volumes are dominated by the shared pair loop: equal
	// within 1% between variants (Table 1: 3,173T vs 3,173T cond branches).
	pr, lr := push.Get(counters.Reads), pull.Get(counters.Reads)
	if diff := pr - lr; diff < 0 {
		diff = -diff
	} else if float64(diff) > 0.01*float64(pr) {
		t.Fatalf("read volumes diverge: push %d pull %d", pr, lr)
	}
}

func TestProfiledValidation(t *testing.T) {
	g := gen.Ring(10)
	bad := core.Profile{Threads: 2, Probes: []counters.Probe{counters.NopProbe{}}}
	if _, err := PushProfiled(g, bad, nil); err == nil {
		t.Fatal("bad profile accepted")
	}
}

func BenchmarkPush(b *testing.B) {
	g, _ := gen.RMAT(gen.DefaultRMAT(10, 6, 1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Push(g, Options{})
	}
}

func BenchmarkPull(b *testing.B) {
	g, _ := gen.RMAT(gen.DefaultRMAT(10, 6, 1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Pull(g, Options{})
	}
}
