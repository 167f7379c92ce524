package graph_test

import (
	"slices"
	"sort"
	"testing"

	"pushpull/internal/gen"
	"pushpull/internal/graph"
	"pushpull/internal/rng"
)

// sortByDegreeOracle is the degree-sorted build as it stood before the
// counting sort: a comparison sort of the ids by (degree descending, id),
// then every row remapped and sorted in turn through sort.Interface.
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
		sort.Sort(&arcRow{adj: row, wts: wrow})
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
		got := graph.SortByDegree(g)
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
