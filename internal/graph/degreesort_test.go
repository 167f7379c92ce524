package graph

import (
	"testing"

	"pushpull/internal/rng"
)

// randomCSR builds a deterministic pseudo-random graph via the Builder so
// permutation tests exercise non-trivial degree distributions without
// importing the generator package (which would cycle).
func randomCSR(t testing.TB, n, edges int, weighted, directed bool, seed uint64) *CSR {
	t.Helper()
	b := NewBuilder(n)
	if directed {
		b.Directed()
	}
	r := rng.New(seed)
	for i := 0; i < edges; i++ {
		u := V(r.Intn(n))
		v := V(r.Intn(n))
		if weighted {
			b.AddEdgeW(u, v, float32(r.Intn(9)+1))
		} else {
			b.AddEdge(u, v)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestDegreePermIsBijection(t *testing.T) {
	g := randomCSR(t, 200, 900, false, false, 1)
	perm, inv := DegreePerm(g)
	if len(perm) != g.N() || len(inv) != g.N() {
		t.Fatalf("perm/inv lengths %d/%d, want %d", len(perm), len(inv), g.N())
	}
	for newID, old := range perm {
		if inv[old] != V(newID) {
			t.Fatalf("inv[perm[%d]] = %d, not an inverse", newID, inv[old])
		}
	}
	// Degrees are non-increasing in the new id order.
	for i := 1; i < len(perm); i++ {
		if g.Degree(perm[i-1]) < g.Degree(perm[i]) {
			t.Fatalf("degree order broken at %d: %d < %d", i, g.Degree(perm[i-1]), g.Degree(perm[i]))
		}
	}
	// Ties break by ascending original id, so the permutation is deterministic.
	for i := 1; i < len(perm); i++ {
		if g.Degree(perm[i-1]) == g.Degree(perm[i]) && perm[i-1] >= perm[i] {
			t.Fatalf("tie order broken at %d: %d before %d", i, perm[i-1], perm[i])
		}
	}
}

func TestSortByDegreePreservesEdges(t *testing.T) {
	for _, tc := range []struct {
		name               string
		weighted, directed bool
	}{
		{"undirected", false, false},
		{"weighted", true, false},
		{"directed", false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := randomCSR(t, 120, 700, tc.weighted, tc.directed, 7)
			perm, inv := DegreePerm(g)
			ds := SortByDegree(g, perm, inv)
			if err := ds.G.Validate(); err != nil {
				t.Fatalf("permuted CSR invalid: %v", err)
			}
			if ds.G.M() != g.M() {
				t.Fatalf("edge count changed: %d -> %d", g.M(), ds.G.M())
			}
			// Every original arc appears, relabeled, with its weight.
			for u := V(0); u < g.NumV; u++ {
				ws := g.NeighborWeights(u)
				for i, v := range g.Neighbors(u) {
					nu, nv := ds.Inv[u], ds.Inv[v]
					if !ds.G.HasEdge(nu, nv) {
						t.Fatalf("arc (%d,%d) missing as (%d,%d)", u, v, nu, nv)
					}
					if ws != nil {
						if got := weightOf(t, ds.G, nu, nv); got != ws[i] {
							t.Fatalf("weight of (%d,%d) = %v, want %v", nu, nv, got, ws[i])
						}
					}
				}
			}
		})
	}
}

func weightOf(t *testing.T, g *CSR, u, v V) float32 {
	t.Helper()
	ws := g.NeighborWeights(u)
	for i, w := range g.Neighbors(u) {
		if w == v {
			return ws[i]
		}
	}
	t.Fatalf("edge (%d,%d) not found", u, v)
	return 0
}

func TestSortByDegreeHeaviestFirst(t *testing.T) {
	// Star: the center has degree n-1, so it must become vertex 0.
	b := NewBuilder(6)
	for v := V(1); v < 6; v++ {
		b.AddEdge(0, v)
	}
	g := b.MustBuild()
	perm, inv := DegreePerm(g)
	ds := SortByDegree(g, perm, inv)
	if ds.Perm[0] != 0 || ds.Inv[0] != 0 {
		t.Fatalf("star center not relabeled to 0: perm[0]=%d inv[0]=%d", ds.Perm[0], ds.Inv[0])
	}
	if ds.G.Degree(0) != 5 {
		t.Fatalf("vertex 0 degree = %d, want 5", ds.G.Degree(0))
	}
}
