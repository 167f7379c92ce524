package gen

import (
	"slices"
	"testing"
	"testing/quick"

	"pushpull/internal/graph"
)

func TestRMATDeterministicAndValid(t *testing.T) {
	p := DefaultRMAT(10, 8, 42)
	g1, err := RMAT(p)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := RMAT(p)
	if err != nil {
		t.Fatal(err)
	}
	if g1.M() != g2.M() || g1.N() != g2.N() {
		t.Fatal("same seed produced different graphs")
	}
	if err := g1.Validate(); err != nil {
		t.Fatal(err)
	}
	if !g1.IsSymmetric() {
		t.Fatal("rmat not symmetric")
	}
	if g1.N() != 1024 {
		t.Fatalf("n = %d", g1.N())
	}
	// Dedup shrinks m below EdgeFactor*n but not absurdly.
	if g1.UndirectedM() < int64(2*g1.N()) {
		t.Fatalf("m = %d suspiciously low", g1.UndirectedM())
	}
}

func TestRMATPowerLaw(t *testing.T) {
	g, err := RMAT(DefaultRMAT(12, 16, 7))
	if err != nil {
		t.Fatal(err)
	}
	// Power-law: max degree far above average.
	if g.MaxDegree() < int64(6*g.AvgDegree()) {
		t.Fatalf("maxdeg %d vs avg %.1f: no skew", g.MaxDegree(), g.AvgDegree())
	}
}

func TestRMATParamValidation(t *testing.T) {
	bad := []RMATParams{
		{Scale: -1, EdgeFactor: 8, A: 0.25, B: 0.25, C: 0.25, D: 0.25},
		{Scale: 40, EdgeFactor: 8, A: 0.25, B: 0.25, C: 0.25, D: 0.25},
		{Scale: 5, EdgeFactor: 0, A: 0.25, B: 0.25, C: 0.25, D: 0.25},
		{Scale: 5, EdgeFactor: 8, A: 0.9, B: 0.3, C: 0.2, D: 0.1},
	}
	for i, p := range bad {
		if _, err := RMAT(p); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestErdosRenyi(t *testing.T) {
	g, err := ErdosRenyi(2000, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Average degree near 8 (dedup makes it slightly lower).
	if g.AvgDegree() < 6 || g.AvgDegree() > 8.5 {
		t.Fatalf("avg degree = %.2f", g.AvgDegree())
	}
	// ER degrees are concentrated: max degree within a small factor.
	if g.MaxDegree() > 40 {
		t.Fatalf("max degree = %d too skewed for ER", g.MaxDegree())
	}
	if _, err := ErdosRenyi(0, 1, 1); err == nil {
		t.Fatal("n=0 accepted")
	}
	if _, err := ErdosRenyi(10, 100, 1); err == nil {
		t.Fatal("overfull degree accepted")
	}
}

func TestRoadGrid(t *testing.T) {
	g, err := RoadGrid(50, 50, 0.72, 9)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 2500 {
		t.Fatalf("n = %d", g.N())
	}
	// d̄ ≈ 2*0.72 ≈ 1.44 — the rca class.
	if g.AvgDegree() < 1.2 || g.AvgDegree() > 1.7 {
		t.Fatalf("avg degree = %.2f, want ≈1.44", g.AvgDegree())
	}
	if g.MaxDegree() > 4 {
		t.Fatalf("grid degree %d > 4", g.MaxDegree())
	}
	s := graph.ComputeStats(g)
	if s.Diameter < 50 {
		t.Fatalf("road diameter = %d, want large", s.Diameter)
	}
	if _, err := RoadGrid(0, 5, 0.5, 1); err == nil {
		t.Fatal("bad dims accepted")
	}
	if _, err := RoadGrid(5, 5, 1.5, 1); err == nil {
		t.Fatal("bad keep accepted")
	}
}

func TestPrefAttach(t *testing.T) {
	g, err := PrefAttach(5000, 2, 11)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// m ≈ k(n-k): low average degree like a purchase network.
	if g.AvgDegree() < 1.5 || g.AvgDegree() > 2.5 {
		t.Fatalf("avg degree = %.2f", g.AvgDegree())
	}
	// Preferential attachment produces hubs.
	if g.MaxDegree() < 20 {
		t.Fatalf("max degree = %d: no hubs", g.MaxDegree())
	}
	// One connected component by construction.
	if s := graph.ComputeStats(g); s.Components != 1 {
		t.Fatalf("components = %d", s.Components)
	}
	if _, err := PrefAttach(5, 5, 1); err == nil {
		t.Fatal("k>=n accepted")
	}
}

func TestCommunity(t *testing.T) {
	g, err := Community(4000, 40, 7, 1.7, 13)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.AvgDegree() < 5 || g.AvgDegree() > 10 {
		t.Fatalf("avg degree = %.2f", g.AvgDegree())
	}
	// Internal edges dominate: count edges within blocks of size 100.
	intra, inter := 0, 0
	for v := graph.V(0); v < g.NumV; v++ {
		for _, u := range g.Neighbors(v) {
			if int(v)/100 == int(u)/100 {
				intra++
			} else {
				inter++
			}
		}
	}
	if intra < 2*inter {
		t.Fatalf("intra=%d inter=%d: no community structure", intra, inter)
	}
	if _, err := Community(10, 20, 1, 1, 1); err == nil {
		t.Fatal("c>n accepted")
	}
}

func TestFixtures(t *testing.T) {
	if g := Path(5); g.UndirectedM() != 4 || g.MaxDegree() != 2 {
		t.Fatal("Path wrong")
	}
	if g := Ring(6); g.UndirectedM() != 6 || g.MaxDegree() != 2 {
		t.Fatal("Ring wrong")
	}
	if g := Star(7); g.UndirectedM() != 6 || g.Degree(0) != 6 {
		t.Fatal("Star wrong")
	}
	if g := Complete(5); g.UndirectedM() != 10 || g.MaxDegree() != 4 {
		t.Fatal("Complete wrong")
	}
	g := BipartiteFull(3, 4)
	if g.UndirectedM() != 12 {
		t.Fatal("BipartiteFull wrong")
	}
	// No edge within a side.
	for i := graph.V(0); i < 3; i++ {
		for j := graph.V(0); j < 3; j++ {
			if i != j && g.HasEdge(i, j) {
				t.Fatal("edge within side A")
			}
		}
	}
}

func TestWithUniformWeightsSymmetric(t *testing.T) {
	g, err := RMAT(DefaultRMAT(8, 8, 5))
	if err != nil {
		t.Fatal(err)
	}
	wg := WithUniformWeights(g, 1, 100, 77)
	if !wg.Weighted() {
		t.Fatal("no weights")
	}
	// Symmetry: w(u,v) == w(v,u) for every edge.
	weightOf := func(u, v graph.V) float32 {
		ns, ws := wg.Neighbors(u), wg.NeighborWeights(u)
		for i, x := range ns {
			if x == v {
				return ws[i]
			}
		}
		t.Fatalf("edge (%d,%d) missing", u, v)
		return 0
	}
	for v := graph.V(0); v < wg.NumV; v++ {
		for _, u := range wg.Neighbors(v) {
			wa, wb := weightOf(v, u), weightOf(u, v)
			if wa != wb {
				t.Fatalf("asymmetric weight (%d,%d): %v vs %v", v, u, wa, wb)
			}
			if wa < 1 || wa >= 100 {
				t.Fatalf("weight %v out of range", wa)
			}
		}
	}
}

func TestNamedSuite(t *testing.T) {
	for _, s := range Suite() {
		g, err := Named(s.ID, 0.1, 1)
		if err != nil {
			t.Fatalf("%s: %v", s.ID, err)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: %v", s.ID, err)
		}
		if g.N() < 8 {
			t.Fatalf("%s: n = %d", s.ID, g.N())
		}
	}
	if _, err := Named("nope", 1, 1); err == nil {
		t.Fatal("unknown name accepted")
	}
}

// TestNamedDeterministic: every suite graph, weights included, is a pure
// function of its seed. Building it twice must give the same arrays, or
// every number measured on it moves from run to run.
func TestNamedDeterministic(t *testing.T) {
	for _, s := range Suite() {
		a, err := NamedWeighted(s.ID, 0.1, 7)
		if err != nil {
			t.Fatalf("%s: %v", s.ID, err)
		}
		b, err := NamedWeighted(s.ID, 0.1, 7)
		if err != nil {
			t.Fatalf("%s: %v", s.ID, err)
		}
		if !slices.Equal(a.Offsets, b.Offsets) || !slices.Equal(a.Adj, b.Adj) || !slices.Equal(a.Weights, b.Weights) {
			t.Errorf("%s: two builds at seed 7 differ", s.ID)
		}
	}
}

func TestNamedSparsityClasses(t *testing.T) {
	// The suite must preserve Table 2's sparsity ordering:
	// d̄(orc) > d̄(pok) > d̄(am) > d̄(rca) and D(rca) ≫ D(orc).
	load := func(id string) (*graph.CSR, graph.Stats) {
		g, err := Named(id, 0.25, 3)
		if err != nil {
			t.Fatal(err)
		}
		return g, graph.ComputeStats(g)
	}
	orc, sOrc := load("orc")
	pok, sPok := load("pok")
	am, sAm := load("am")
	rca, sRca := load("rca")
	_ = orc
	_ = pok
	_ = am
	_ = rca
	if !(sOrc.AvgDeg > sPok.AvgDeg && sPok.AvgDeg > sAm.AvgDeg && sAm.AvgDeg > sRca.AvgDeg) {
		t.Fatalf("degree ordering violated: orc=%.1f pok=%.1f am=%.1f rca=%.1f",
			sOrc.AvgDeg, sPok.AvgDeg, sAm.AvgDeg, sRca.AvgDeg)
	}
	if sRca.Diameter < 4*sOrc.Diameter {
		t.Fatalf("diameter classes violated: rca=%d orc=%d", sRca.Diameter, sOrc.Diameter)
	}
}

func TestNamedWeighted(t *testing.T) {
	g, err := NamedWeighted("rca", 0.1, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Weighted() {
		t.Fatal("weights missing")
	}
}

func TestNamedScaleMonotone(t *testing.T) {
	small, err := Named("orc", 0.1, 1)
	if err != nil {
		t.Fatal(err)
	}
	big, err := Named("orc", 1.0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if small.N() >= big.N() {
		t.Fatalf("scale not monotone: %d vs %d", small.N(), big.N())
	}
}

// Property: every generator output passes validation for random seeds.
func TestGeneratorsAlwaysValid(t *testing.T) {
	f := func(seed uint64) bool {
		g1, err := RMAT(DefaultRMAT(7, 4, seed))
		if err != nil || g1.Validate() != nil {
			return false
		}
		g2, err := ErdosRenyi(200, 4, seed)
		if err != nil || g2.Validate() != nil {
			return false
		}
		g3, err := RoadGrid(12, 12, 0.7, seed)
		if err != nil || g3.Validate() != nil {
			return false
		}
		g4, err := PrefAttach(100, 2, seed)
		if err != nil || g4.Validate() != nil {
			return false
		}
		g5, err := Community(200, 8, 4, 1, seed)
		if err != nil || g5.Validate() != nil {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkRMAT(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := RMAT(DefaultRMAT(12, 8, uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}
