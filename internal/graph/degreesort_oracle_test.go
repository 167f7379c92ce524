package graph_test

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"testing"

	"pushpull/internal/gen"
	"pushpull/internal/graph"
	"pushpull/internal/rng"
)

// sortByDegreeOracle is the degree-sorted build as it stood before the
// counting sort: a comparison sort of the ids by (degree descending, id),
// then every row remapped and sorted in turn through sort.Interface,
// stably, so that arcs to one endpoint keep their order.
func sortByDegreeOracle(g *graph.CSR) *graph.DegreeSorted {
	n := g.N()
	perm := make([]graph.V, n)
	for i := range perm {
		perm[i] = graph.V(i)
	}
	sort.Slice(perm, func(i, j int) bool {
		di, dj := g.Degree(perm[i]), g.Degree(perm[j])
		if di != dj {
			return di > dj
		}
		return perm[i] < perm[j]
	})
	inv := make([]graph.V, n)
	for newID, old := range perm {
		inv[old] = graph.V(newID)
	}
	out := &graph.CSR{NumV: g.NumV, Offsets: make([]int64, n+1), Adj: make([]graph.V, g.M())}
	if g.Weights != nil {
		out.Weights = make([]float32, g.M())
	}
	for newV := graph.V(0); newV < g.NumV; newV++ {
		out.Offsets[newV+1] = out.Offsets[newV] + g.Degree(perm[newV])
	}
	for newV := graph.V(0); newV < g.NumV; newV++ {
		old := perm[newV]
		row := out.Adj[out.Offsets[newV]:out.Offsets[newV+1]]
		for i, w := range g.Neighbors(old) {
			row[i] = inv[w]
		}
		if g.Weights == nil {
			sort.Slice(row, func(i, j int) bool { return row[i] < row[j] })
			continue
		}
		wrow := out.Weights[out.Offsets[newV]:out.Offsets[newV+1]]
		copy(wrow, g.NeighborWeights(old))
		sort.Stable(&arcRow{adj: row, wts: wrow})
	}
	return &graph.DegreeSorted{G: out, Perm: perm, Inv: inv}
}

// arcRow co-sorts one adjacency row with its parallel weights.
type arcRow struct {
	adj []graph.V
	wts []float32
}

func (r *arcRow) Len() int           { return len(r.adj) }
func (r *arcRow) Less(i, j int) bool { return r.adj[i] < r.adj[j] }
func (r *arcRow) Swap(i, j int) {
	r.adj[i], r.adj[j] = r.adj[j], r.adj[i]
	r.wts[i], r.wts[j] = r.wts[j], r.wts[i]
}

// directedFixture is a weighted directed graph with hubs: every arc leaves
// an rmat endpoint pair in one direction only.
func directedFixture(t *testing.T) *graph.CSR {
	t.Helper()
	src, err := gen.RMAT(gen.DefaultRMAT(11, 8, 17))
	if err != nil {
		t.Fatal(err)
	}
	b := graph.NewBuilder(src.N()).Directed()
	r := rng.New(3)
	for v := graph.V(0); v < src.NumV; v++ {
		for _, u := range src.Neighbors(v) {
			if r.Intn(2) == 0 {
				b.AddEdgeW(v, u, float32(r.Intn(100)+1))
			}
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// The counting-sort permutation and the typed row sort must build exactly
// what the comparison-sort builder built.
func TestSortByDegreeMatchesOracle(t *testing.T) {
	rmat, err := gen.RMAT(gen.DefaultRMAT(12, 8, 5))
	if err != nil {
		t.Fatal(err)
	}
	er, err := gen.ErdosRenyi(3000, 6, 9)
	if err != nil {
		t.Fatal(err)
	}
	fixtures := map[string]*graph.CSR{
		"rmat":          rmat,
		"rmat-weighted": gen.WithUniformWeights(rmat, 1, 100, 7),
		"er":            er,
		"directed":      directedFixture(t),
	}
	for name, g := range fixtures {
		want := sortByDegreeOracle(g)
		perm, inv := graph.DegreePerm(g)
		got := graph.SortByDegree(g, perm, inv)
		switch {
		case !slices.Equal(got.Perm, want.Perm):
			t.Errorf("%s: Perm differs", name)
		case !slices.Equal(got.Inv, want.Inv):
			t.Errorf("%s: Inv differs", name)
		case !slices.Equal(got.G.Offsets, want.G.Offsets):
			t.Errorf("%s: Offsets differ", name)
		case !slices.Equal(got.G.Adj, want.G.Adj):
			t.Errorf("%s: Adj differs", name)
		case !slices.Equal(got.G.Weights, want.G.Weights) || (got.G.Weights == nil) != (want.G.Weights == nil):
			t.Errorf("%s: Weights differ", name)
		}
	}
}

// TestSortByDegreeOracleAtAnyWorkers holds SortByDegree to the oracle, bit
// for bit, at GOMAXPROCS 1, 2 and 7, through the worker count it picks and
// at that many workers forced. The directed weighted graphs keep their
// duplicate arcs, most of them weighted apart, so the order of tied arcs
// is pinned; the larger has arcs enough for seven workers.
func TestSortByDegreeOracleAtAnyWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	dupes := func(n, m int, seed uint64) *graph.CSR {
		b := graph.NewBuilder(n).Directed().KeepDuplicates()
		r := rng.New(seed)
		for range m {
			b.AddEdgeW(graph.V(r.Intn(n)), graph.V(r.Intn(n)), float32(r.Intn(64))/4)
		}
		return b.MustBuild()
	}
	rmat, err := gen.RMAT(gen.DefaultRMAT(10, 8, 5))
	if err != nil {
		t.Fatal(err)
	}
	fixtures := []struct {
		name string
		g    *graph.CSR
	}{
		{"n=0", graph.NewBuilder(0).MustBuild()},
		{"rmat-weighted", gen.WithUniformWeights(rmat, 1, 100, 7)},
		{"directed", directedFixture(t)},
		{"directed dupes", dupes(40, 3000, 1)},
		{"directed dupes large", dupes(2000, 150_000, 2)},
	}
	for _, procs := range []int{1, 2, 7} {
		runtime.GOMAXPROCS(procs)
		for _, fx := range fixtures {
			what := fmt.Sprintf("%s at GOMAXPROCS %d", fx.name, procs)
			want := sortByDegreeOracle(fx.g)
			perm, inv := graph.DegreePerm(fx.g)
			sameDegreeSorted(t, what, graph.SortByDegree(fx.g, perm, inv), want)
			sameDegreeSorted(t, what+" forced", graph.SortByDegreeOn(fx.g, perm, inv, procs), want)
		}
	}
}

// sameDegreeSorted fails unless got and want hold the same permutation and
// the same offsets, arcs and weights, bit for bit.
func sameDegreeSorted(t *testing.T, what string, got, want *graph.DegreeSorted) {
	t.Helper()
	bits := func(a, b float32) bool { return math.Float32bits(a) == math.Float32bits(b) }
	switch {
	case !slices.Equal(got.Perm, want.Perm) || !slices.Equal(got.Inv, want.Inv):
		t.Fatalf("%s: permutation differs", what)
	case got.G.NumV != want.G.NumV || !slices.Equal(got.G.Offsets, want.G.Offsets):
		t.Fatalf("%s: offsets differ", what)
	case !slices.Equal(got.G.Adj, want.G.Adj):
		t.Fatalf("%s: arcs differ", what)
	case (got.G.Weights == nil) != (want.G.Weights == nil) || !slices.EqualFunc(got.G.Weights, want.G.Weights, bits):
		t.Fatalf("%s: weights differ", what)
	}
}
