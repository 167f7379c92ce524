package la

import (
	"math"
	"testing"
	"testing/quick"

	"pushpull/internal/algo/bfs"
	"pushpull/internal/algo/pr"
	"pushpull/internal/algo/sssp"
	"pushpull/internal/core"
	"pushpull/internal/gen"
	"pushpull/internal/graph"
)

const tol = 1e-9

func TestSemiringLaws(t *testing.T) {
	rings := []Semiring{Arithmetic(), MinPlus(), BoolOrAnd()}
	domain := map[string][]float64{
		"arithmetic": {0, 1, 2.5, -3},
		"min-plus":   {0, 1, 2.5, -3, math.Inf(1)},
		"bool":       {0, 1}, // boolean semiring is only defined on bits
	}
	for _, s := range rings {
		vals := domain[s.Name]
		for _, a := range vals {
			// Identity laws.
			if got := s.Add(a, s.Zero); got != a && !(math.IsInf(a, 1) && math.IsInf(got, 1)) {
				t.Errorf("%s: a ⊕ 0̄ = %v, want %v", s.Name, got, a)
			}
			if s.Name != "bool" { // bool ⊗ is min over {0,1} only
				if got := s.Mul(a, s.One); got != a && !(math.IsInf(a, 1) && math.IsInf(got, 1)) {
					t.Errorf("%s: a ⊗ 1̄ = %v, want %v", s.Name, got, a)
				}
			}
			for _, b := range vals {
				// Commutativity of ⊕.
				x, y := s.Add(a, b), s.Add(b, a)
				if x != y && !(math.IsNaN(x) && math.IsNaN(y)) {
					t.Errorf("%s: ⊕ not commutative at (%v,%v)", s.Name, a, b)
				}
			}
		}
	}
}

func TestBoolSemiringOnBits(t *testing.T) {
	s := BoolOrAnd()
	if s.Add(0, 1) != 1 || s.Add(0, 0) != 0 || s.Mul(1, 1) != 1 || s.Mul(1, 0) != 0 {
		t.Fatal("boolean semiring tables wrong")
	}
}

func TestCSRvsCSCMatVec(t *testing.T) {
	g, err := gen.RMAT(gen.DefaultRMAT(9, 8, 3))
	if err != nil {
		t.Fatal(err)
	}
	n := g.N()
	x := make([]float64, n)
	for i := range x {
		x[i] = float64(i%17) / 3
	}
	yr := make([]float64, n)
	yc := make([]float64, n)
	s := Arithmetic()
	CSRMatVec(s, g, x, yr, 4)
	Fill(yc, s.Zero)
	CSCMatVec(s, g, x, yc, 4)
	if d := MaxDiff(yr, yc); d > tol {
		t.Fatalf("CSR vs CSC: max diff %g", d)
	}
}

func TestMatVecWeighted(t *testing.T) {
	b := graph.NewBuilder(3)
	b.AddEdgeW(0, 1, 2)
	b.AddEdgeW(1, 2, 3)
	g := b.MustBuild()
	s := Arithmetic()
	x := []float64{1, 10, 100}
	y := make([]float64, 3)
	CSRMatVec(s, g, x, y, 1)
	// y[0] = 2·x[1] = 20; y[1] = 2·x[0] + 3·x[2] = 302; y[2] = 3·x[1] = 30.
	if y[0] != 20 || y[1] != 302 || y[2] != 30 {
		t.Fatalf("y = %v", y)
	}
}

func TestSpMSpVMatchesDense(t *testing.T) {
	g, err := gen.RMAT(gen.DefaultRMAT(8, 6, 5))
	if err != nil {
		t.Fatal(err)
	}
	n := g.N()
	s := Arithmetic()
	// Sparse x with a handful of entries.
	sv := &SparseVec{Idx: []graph.V{1, 5, 9}, Val: []float64{2, 3, 4}}
	dense := make([]float64, n)
	for i, idx := range sv.Idx {
		dense[idx] = sv.Val[i]
	}
	want := make([]float64, n)
	CSRMatVec(s, g, dense, want, 2)
	got := make([]float64, n)
	Fill(got, s.Zero)
	touched := SpMSpVPush(s, g, sv, got, 2)
	if d := MaxDiff(got, want); d > tol {
		t.Fatalf("SpMSpV vs dense: max diff %g", d)
	}
	// touched must be exactly the nonzero outputs.
	nonzero := map[graph.V]bool{}
	for v := 0; v < n; v++ {
		if want[v] != 0 {
			nonzero[graph.V(v)] = true
		}
	}
	seen := map[graph.V]bool{}
	for _, v := range touched {
		seen[v] = true
	}
	if len(seen) != len(nonzero) {
		t.Fatalf("touched %d vertices, want %d", len(seen), len(nonzero))
	}
}

func TestPageRankLAMatchesDirect(t *testing.T) {
	g, err := gen.RMAT(gen.DefaultRMAT(9, 8, 7))
	if err != nil {
		t.Fatal(err)
	}
	want := pr.Sequential(pr.Views{Out: g, In: g}, pr.Options{Iterations: 10, Damping: 0.85})
	for _, dir := range []core.Direction{core.Push, core.Pull} {
		got := PageRank(g, 10, 0.85, dir, 4)
		if d := MaxDiff(got, want); d > tol {
			t.Fatalf("%v: LA PageRank diff %g", dir, d)
		}
	}
}

func TestBFSLevelsLAMatchesDirect(t *testing.T) {
	g, err := gen.RMAT(gen.DefaultRMAT(9, 8, 9))
	if err != nil {
		t.Fatal(err)
	}
	tree, _, _ := bfs.TraverseFrom(g, 0, bfs.ForcePush, core.Options{})
	for _, dir := range []core.Direction{core.Push, core.Pull} {
		got := BFSLevels(g, 0, dir, 4)
		for v := range got {
			if got[v] != tree.Level[v] {
				t.Fatalf("%v: level[%d] = %d, want %d", dir, v, got[v], tree.Level[v])
			}
		}
	}
}

func TestSSSPLAMatchesDijkstra(t *testing.T) {
	g, err := gen.RMAT(gen.DefaultRMAT(8, 6, 11))
	if err != nil {
		t.Fatal(err)
	}
	g = gen.WithUniformWeights(g, 1, 50, 12)
	want := sssp.Dijkstra(g, 0)
	for _, dir := range []core.Direction{core.Push, core.Pull} {
		got := SSSPBellmanFord(g, 0, dir, 4)
		if d := MaxDiff(got, want); d > tol {
			t.Fatalf("%v: LA SSSP diff %g", dir, d)
		}
	}
}

func TestEmptyGraphs(t *testing.T) {
	g := graph.NewBuilder(0).MustBuild()
	if r := PageRank(g, 5, 0.85, core.Push, 1); len(r) != 0 {
		t.Fatal("empty PR")
	}
	if l := BFSLevels(g, 0, core.Pull, 1); len(l) != 0 {
		t.Fatal("empty BFS")
	}
	if d := SSSPBellmanFord(g, 0, core.Push, 1); len(d) != 0 {
		t.Fatal("empty SSSP")
	}
}

// Property: CSR and CSC products agree over the min-plus semiring too.
func TestMatVecAgreementProperty(t *testing.T) {
	f := func(seed uint64) bool {
		g, err := gen.ErdosRenyi(60, 3, seed)
		if err != nil {
			return false
		}
		g = gen.WithUniformWeights(g, 1, 9, seed+1)
		n := g.N()
		s := MinPlus()
		x := make([]float64, n)
		for i := range x {
			x[i] = float64((seed+uint64(i))%23) + 1
		}
		yr := make([]float64, n)
		yc := make([]float64, n)
		for i := range yc {
			yr[i] = s.Zero
			yc[i] = s.Zero
		}
		CSRMatVec(s, g, x, yr, 3)
		CSCMatVec(s, g, x, yc, 3)
		return MaxDiff(yr, yc) <= tol
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkCSRMatVec(b *testing.B) {
	g, _ := gen.RMAT(gen.DefaultRMAT(12, 8, 1))
	n := g.N()
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = 1
	}
	s := Arithmetic()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		CSRMatVec(s, g, x, y, 0)
	}
}

func BenchmarkCSCMatVec(b *testing.B) {
	g, _ := gen.RMAT(gen.DefaultRMAT(12, 8, 1))
	n := g.N()
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = 1
	}
	s := Arithmetic()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Fill(y, s.Zero)
		CSCMatVec(s, g, x, y, 0)
	}
}
