package pushpull_test

// Cross-validation of the degree-sorted layout option: degree-sorted runs
// must produce payloads identical to the plain kernels (pr ranks to 1e-9,
// bfs trees valid with equal levels, gc proper colorings), the option must
// participate in the Engine's cache key, and the derived view must be
// memoized.

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"path/filepath"
	"testing"

	"pushpull"
	"pushpull/internal/graph"
)

// skewedGraph builds a high-skew RMAT workload.
func skewedGraph(t testing.TB) *pushpull.Graph {
	t.Helper()
	g, err := pushpull.RMAT(pushpull.DefaultRMAT(10, 8, 42))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// directedSkewedGraph builds a directed pseudo-random graph.
func directedSkewedGraph(t testing.TB, n int, seed uint64) *pushpull.Graph {
	t.Helper()
	b := pushpull.NewBuilder(n).Directed()
	state := seed | 1
	next := func() uint64 {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return state
	}
	for i := 0; i < 8*n; i++ {
		// Square one endpoint's range to skew the in-degree distribution.
		u := pushpull.V(next() % uint64(n))
		v := pushpull.V((next() % uint64(n)) * (next() % uint64(n)) / uint64(n))
		b.AddEdge(u, v)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func ranksOf(t *testing.T, rep *pushpull.Report) []float64 {
	t.Helper()
	ranks, ok := rep.Result.([]float64)
	if !ok {
		t.Fatalf("pr payload is %T, want []float64", rep.Result)
	}
	return ranks
}

// eachLayoutPair runs algo plain and degree-sorted on weighted rmat and er
// at one tenth scale (seed 42), pushed and pulled, at one and two threads,
// and hands each pair of reports to check. Every run also passes opts.
func eachLayoutPair(t *testing.T, algo string, check func(t *testing.T, g *pushpull.Graph, plain, sorted *pushpull.Report), opts ...pushpull.Option) {
	t.Helper()
	for _, name := range []string{"rmat", "er"} {
		g, err := pushpull.NamedWeightedGraph(name, 0.1, 42)
		if err != nil {
			t.Fatal(err)
		}
		w := pushpull.NewWorkload(g, pushpull.AsWeighted())
		for _, dir := range []pushpull.Direction{pushpull.Push, pushpull.Pull} {
			for _, threads := range []int{1, 2} {
				t.Run(fmt.Sprintf("%s/%v/t%d", name, dir, threads), func(t *testing.T) {
					o := append([]pushpull.Option{pushpull.WithDirection(dir), pushpull.WithThreads(threads)}, opts...)
					plain := run(t, w, algo, o...)
					sorted := run(t, w, algo, append(o, pushpull.WithDegreeSorted())...)
					check(t, g, plain, sorted)
				})
			}
		}
	}
}

func TestPRLayoutOptionsCrossValidate(t *testing.T) {
	// A degree-sorted run adds the same contributions as the plain run in
	// the same direction, in another order.
	eachLayoutPair(t, "pr", func(t *testing.T, _ *pushpull.Graph, plain, sorted *pushpull.Report) {
		if d := pushpull.MaxDiff(ranksOf(t, plain), ranksOf(t, sorted)); d > 1e-9 {
			t.Fatalf("degree-sorted ranks diverge from plain by %g", d)
		}
	}, pushpull.WithIterations(20))

	g := skewedGraph(t)
	base, err := pushpull.Run(context.Background(), g, "pr", pushpull.WithDirection(pushpull.Pull))
	if err != nil {
		t.Fatal(err)
	}
	want := ranksOf(t, base)
	rep, err := pushpull.Run(context.Background(), pushpull.NewWorkload(g), "pr",
		pushpull.WithDegreeSorted(), pushpull.WithDirection(pushpull.Pull), pushpull.WithThreads(4))
	if err != nil {
		t.Fatal(err)
	}
	if d := pushpull.MaxDiff(want, ranksOf(t, rep)); d > 1e-9 {
		t.Fatalf("degree-sorted: ranks diverge from plain pull by %g", d)
	}
	// Push runs honor the degree sort too.
	rep, err = pushpull.Run(context.Background(), g, "pr",
		pushpull.WithDegreeSorted(), pushpull.WithDirection(pushpull.Push))
	if err != nil {
		t.Fatal(err)
	}
	if d := pushpull.MaxDiff(want, ranksOf(t, rep)); d > 1e-6 {
		t.Fatalf("degree-sorted push: ranks diverge by %g", d)
	}
}

func TestPRDirectedLayoutOptionsCrossValidate(t *testing.T) {
	g := directedSkewedGraph(t, 700, 9)
	base, err := pushpull.Run(context.Background(), pushpull.Directed(g), "pr",
		pushpull.WithDirection(pushpull.Pull))
	if err != nil {
		t.Fatal(err)
	}
	want := ranksOf(t, base)
	rep, err := pushpull.Run(context.Background(), pushpull.Directed(g), "pr",
		pushpull.WithDegreeSorted(), pushpull.WithDirection(pushpull.Pull), pushpull.WithThreads(3))
	if err != nil {
		t.Fatal(err)
	}
	if d := pushpull.MaxDiff(want, ranksOf(t, rep)); d > 1e-9 {
		t.Fatalf("degree-sorted: directed ranks diverge by %g", d)
	}
}

// checkBFSTree validates a tree against the graph and reference levels:
// same reachability and depth, every non-root parent a real neighbor one
// level up.
func checkBFSTree(t *testing.T, g *pushpull.Graph, root pushpull.V, tree *pushpull.BFSTree, want []int32) {
	t.Helper()
	for v := 0; v < g.N(); v++ {
		if tree.Level[v] != want[v] {
			t.Fatalf("level[%d] = %d, want %d", v, tree.Level[v], want[v])
		}
		p := tree.Parent[v]
		if pushpull.V(v) == root || p < 0 {
			continue
		}
		if tree.Level[v] != tree.Level[p]+1 {
			t.Fatalf("parent[%d]=%d: level %d vs parent level %d", v, p, tree.Level[v], tree.Level[p])
		}
		if !g.HasEdge(p, pushpull.V(v)) {
			t.Fatalf("parent[%d]=%d is not a neighbor", v, p)
		}
	}
}

func TestBFSLayoutOptionsCrossValidate(t *testing.T) {
	// Levels are unique even where parents are not: a sorted tree must
	// have the plain run's levels and be a valid tree.
	eachLayoutPair(t, "bfs", func(t *testing.T, g *pushpull.Graph, plain, sorted *pushpull.Report) {
		checkBFSTree(t, g, 0, sorted.Tree(), plain.Tree().Level)
	})

	g := skewedGraph(t)
	base, err := pushpull.Run(context.Background(), g, "bfs", pushpull.WithSource(0))
	if err != nil {
		t.Fatal(err)
	}
	want := base.Result.(*pushpull.BFSTree).Level
	for _, dir := range []pushpull.Direction{pushpull.Auto, pushpull.Push, pushpull.Pull} {
		rep, err := pushpull.Run(context.Background(), pushpull.NewWorkload(g), "bfs",
			pushpull.WithDegreeSorted(), pushpull.WithSource(0), pushpull.WithDirection(dir), pushpull.WithThreads(4))
		if err != nil {
			t.Fatalf("degree-sorted %v: %v", dir, err)
		}
		checkBFSTree(t, g, 0, rep.Result.(*pushpull.BFSTree), want)
	}
}

func TestGCLayoutOptionsProperColoring(t *testing.T) {
	for _, algo := range []string{"gc", "gc-fe"} {
		t.Run(algo, func(t *testing.T) {
			eachLayoutPair(t, algo, func(t *testing.T, g *pushpull.Graph, plain, sorted *pushpull.Report) {
				for name, rep := range map[string]*pushpull.Report{"plain": plain, "sorted": sorted} {
					if err := pushpull.ValidateColoring(g, rep.Colors()); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
				}
			})
		})
	}

	g := skewedGraph(t)
	// The degree sort, pushed and pulled, alone and under a switch policy.
	runs := []struct {
		name string
		on   pushpull.Runnable
		opts []pushpull.Option
	}{
		{"explicit-ds", pushpull.NewWorkload(g), []pushpull.Option{pushpull.WithDegreeSorted()}},
		{"sorted-pull", pushpull.NewWorkload(g),
			[]pushpull.Option{pushpull.WithDegreeSorted(), pushpull.WithDirection(pushpull.Pull)}},
		{"sorted-fe", pushpull.NewWorkload(g),
			[]pushpull.Option{pushpull.WithDegreeSorted(), pushpull.WithSwitchPolicy(&pushpull.GenericSwitch{Threshold: 1})}},
	}
	for _, r := range runs {
		rep, err := pushpull.Run(context.Background(), r.on, "gc", r.opts...)
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		res := rep.Result.(*pushpull.ColoringResult)
		if err := pushpull.ValidateColoring(g, res.Colors); err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
	}
}

func TestLayoutOptionCapsErrors(t *testing.T) {
	g := skewedGraph(t)
	wg := pushpull.WithUniformWeights(g, 1, 2, 7)
	if _, err := pushpull.Run(context.Background(), pushpull.Weighted(wg), "sssp",
		pushpull.WithDegreeSorted()); !errors.Is(err, pushpull.ErrDegreeSortUnsupported) {
		t.Fatalf("sssp WithDegreeSorted: %v, want ErrDegreeSortUnsupported", err)
	}
	// gc-cr does not take the degree sort (gc and gc-fe do).
	if _, err := pushpull.Run(context.Background(), g, "gc-cr",
		pushpull.WithDegreeSorted()); !errors.Is(err, pushpull.ErrDegreeSortUnsupported) {
		t.Fatalf("gc-cr WithDegreeSorted: %v, want ErrDegreeSortUnsupported", err)
	}
}

func TestLayoutViewsMemoized(t *testing.T) {
	g := skewedGraph(t)
	w := pushpull.NewWorkload(g)
	for i := 0; i < 3; i++ {
		if _, err := pushpull.Run(context.Background(), w, "pr", pushpull.WithDegreeSorted(), pushpull.WithDirection(pushpull.Pull)); err != nil {
			t.Fatal(err)
		}
		if _, err := pushpull.Run(context.Background(), w, "bfs", pushpull.WithDegreeSorted(), pushpull.WithSource(0)); err != nil {
			t.Fatal(err)
		}
	}
	b := w.Builds()
	if b.DegreeSorts != 1 {
		t.Fatalf("DegreeSorts = %d, want 1", b.DegreeSorts)
	}
}

func TestLayoutOptionsInCacheKeyAndID(t *testing.T) {
	g := undirectedGraph(t, 400, 5)
	// Layout is asked for per run, so it is no part of the content ID:
	// handles over one graph keep matching each other.
	if pushpull.NewWorkload(g).ID() != pushpull.NewWorkload(g).ID() {
		t.Fatal("identical plain workloads disagree on ID")
	}

	// Run options are part of the Engine cache key: a different option is
	// a different key, the same option hits.
	e := pushpull.NewEngine()
	w := pushpull.NewWorkload(g)
	run := func(opts ...pushpull.Option) *pushpull.Report {
		t.Helper()
		rep, err := e.Run(context.Background(), w, "pr", opts...)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	if rep := run(pushpull.WithDegreeSorted()); rep.Stats.CacheHit {
		t.Fatal("first degree-sorted run cannot be a cache hit")
	}
	if rep := run(pushpull.WithDegreeSorted()); !rep.Stats.CacheHit {
		t.Fatal("identical degree-sorted run must hit the cache")
	}
	if rep := run(); rep.Stats.CacheHit {
		t.Fatal("plain run must not share the layout-optioned keys")
	}
}

// Workload.ID is a cache key, a placement key and a router catalog entry, so it
// must not drift: the literals are the IDs PR 22's tree computed for the
// same handles. The file-handle rows are pure out-of-core handles — a .blk
// written straight from the fixed graph, and one a DiskStore above its
// block threshold wrote from a directed weighted workload (the file stores
// the transpose).
func TestWorkloadIDGolden(t *testing.T) {
	g := undirectedGraph(t, 400, 5)
	dw := directedGraph(t, 300, true)
	dir := t.TempDir()
	blk := filepath.Join(dir, "g.blk")
	if err := graph.WriteBlockFile(blk, g, nil, 0); err != nil {
		t.Fatal(err)
	}
	file, err := pushpull.OpenOutOfCoreWorkload(blk)
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	store, err := pushpull.NewDiskStore(filepath.Join(dir, "store"), pushpull.WithBlockThreshold(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Put("dw", pushpull.Directed(dw, pushpull.AsWeighted())); err != nil {
		t.Fatal(err)
	}
	stored, err := store.Get("dw")
	if err != nil {
		t.Fatal(err)
	}
	defer stored.Close()
	for _, c := range []struct {
		name string
		w    *pushpull.Workload
		want string
	}{
		{"plain", pushpull.NewWorkload(g), "w2c3036ed0d2aa2de-n400"},
		{"directed-weighted", pushpull.Directed(dw, pushpull.AsWeighted()), "w85c65bc17815159c-n300"},
		{"file-handle", file, "w76e0f23d70ed827b-n400"},
		{"file-handle directed-weighted", stored, "w8173a6a3356e6f13-n300"},
	} {
		if got := c.w.ID(); got != c.want {
			t.Errorf("%s: ID %s, want %s", c.name, got, c.want)
		}
	}
}

// TestFNVWordMatchesHashFNV: the content ID's folded FNV-1a, which takes
// a word with zero high bytes in four byte steps and one multiply, gives
// hash/fnv's digest of the same little-endian words, with and without
// high bits set.
func TestFNVWordMatchesHashFNV(t *testing.T) {
	words := []uint64{0, 1, 0xff, 0x100, 0xdeadbeef, math.MaxUint32, 1 << 32, 1 | 1<<34,
		uint64(math.Float32bits(2.5)), 0x0123456789abcdef, math.MaxUint64, 1 << 63}
	want := fnv.New64a()
	got := pushpull.FNVOffset
	var buf [8]byte
	for i, x := range words {
		binary.LittleEndian.PutUint64(buf[:], x)
		want.Write(buf[:])
		got = pushpull.FNVWord(got, x)
		if got != want.Sum64() {
			t.Fatalf("after word %d (%#x): folded %#x, hash/fnv %#x", i, x, got, want.Sum64())
		}
	}
}
