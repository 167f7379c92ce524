package graph

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"

	"pushpull/internal/rng"
)

// triangleGraph builds the 5-vertex fixture:
//
//	0—1, 0—2, 1—2 (triangle), 2—3, 3—4 (tail)
func triangleGraph(t *testing.T) *CSR {
	t.Helper()
	b := NewBuilder(5)
	b.AddEdge(0, 1)
	b.AddEdge(0, 2)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	b.AddEdge(3, 4)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestBuilderBasics(t *testing.T) {
	g := triangleGraph(t)
	if g.N() != 5 {
		t.Fatalf("N = %d", g.N())
	}
	if g.M() != 10 { // 5 undirected edges → 10 slots
		t.Fatalf("M = %d", g.M())
	}
	if g.UndirectedM() != 5 {
		t.Fatalf("UndirectedM = %d", g.UndirectedM())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if !g.IsSymmetric() {
		t.Fatal("undirected graph not symmetric")
	}
	if d := g.Degree(2); d != 3 {
		t.Fatalf("deg(2) = %d", d)
	}
	if got := g.Neighbors(2); len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 3 {
		t.Fatalf("N(2) = %v", got)
	}
	if !g.HasEdge(0, 1) || g.HasEdge(0, 4) || !g.HasEdge(4, 3) {
		t.Fatal("HasEdge wrong")
	}
	if g.MaxDegree() != 3 {
		t.Fatalf("MaxDegree = %d", g.MaxDegree())
	}
	if g.AvgDegree() != 1.0 { // 10 slots / 5 vertices / 2
		t.Fatalf("AvgDegree = %v", g.AvgDegree())
	}
}

func TestBuilderDedupAndLoops(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 0) // duplicate in reverse
	b.AddEdge(0, 1) // duplicate
	b.AddEdge(2, 2) // self-loop, dropped
	g := b.MustBuild()
	if g.M() != 2 {
		t.Fatalf("M = %d, want 2 (dedup + loop removal)", g.M())
	}

	b2 := NewBuilder(3).KeepDuplicates().KeepSelfLoops()
	b2.AddEdge(0, 1)
	b2.AddEdge(0, 1)
	b2.AddEdge(2, 2)
	g2 := b2.MustBuild()
	// 2×(0,1) both directions = 4 slots, self loop stored twice = 2 slots.
	if g2.M() != 6 {
		t.Fatalf("M = %d, want 6", g2.M())
	}
}

func TestBuilderDirected(t *testing.T) {
	b := NewBuilder(3).Directed()
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	g := b.MustBuild()
	if g.M() != 2 {
		t.Fatalf("M = %d", g.M())
	}
	if g.IsSymmetric() {
		t.Fatal("directed chain reported symmetric")
	}
}

func TestBuilderWeights(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdgeW(0, 1, 2.5)
	b.AddEdgeW(1, 2, 0) // zero weight normalizes to 1
	g := b.MustBuild()
	if !g.Weighted() {
		t.Fatal("not weighted")
	}
	ws := g.NeighborWeights(1)
	ns := g.Neighbors(1)
	for i, u := range ns {
		switch u {
		case 0:
			if ws[i] != 2.5 {
				t.Fatalf("w(1,0) = %v", ws[i])
			}
		case 2:
			if ws[i] != 1 {
				t.Fatalf("w(1,2) = %v", ws[i])
			}
		}
	}
	if g2 := triangleGraph(t); g2.NeighborWeights(0) != nil {
		t.Fatal("unweighted graph returned weights")
	}
}

func TestBuilderRangeError(t *testing.T) {
	b := NewBuilder(2)
	b.AddEdge(0, 5)
	if _, err := b.Build(); err == nil {
		t.Fatal("out-of-range edge accepted")
	}
}

func TestTranspose(t *testing.T) {
	b := NewBuilder(4).Directed()
	b.AddEdgeW(0, 1, 5)
	b.AddEdgeW(0, 2, 6)
	b.AddEdgeW(3, 1, 7)
	g := b.MustBuild()
	tr := g.Transpose()
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if !tr.HasEdge(1, 0) || !tr.HasEdge(2, 0) || !tr.HasEdge(1, 3) {
		t.Fatal("transpose edges wrong")
	}
	if tr.M() != g.M() {
		t.Fatalf("transpose M = %d", tr.M())
	}
	// Weight carried over: arc (0,1,5) becomes (1,0,5).
	ns, ws := tr.Neighbors(1), tr.NeighborWeights(1)
	for i, u := range ns {
		if u == 0 && ws[i] != 5 {
			t.Fatalf("transposed weight = %v", ws[i])
		}
	}
	// Transposing twice returns the original arc set.
	trtr := tr.Transpose()
	for v := V(0); v < g.NumV; v++ {
		got, want := trtr.Neighbors(v), g.Neighbors(v)
		if len(got) != len(want) {
			t.Fatalf("double transpose degree mismatch at %d", v)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("double transpose adjacency mismatch at %d", v)
			}
		}
	}
}

func TestPartitionOwnerRange(t *testing.T) {
	// {3, 5} is the degenerate split: more partitions than vertices, so
	// the trailing ranges are empty and Owner must never name them.
	for _, tc := range []struct{ n, p int }{{10, 3}, {10, 1}, {7, 7}, {3, 5}} {
		p := NewPartition(tc.n, tc.p)
		seen := map[int]int{}
		for v := V(0); v < V(tc.n); v++ {
			seen[p.Owner(v)]++
		}
		if len(seen) != min(tc.n, tc.p) {
			t.Fatalf("n=%d p=%d: owners = %v", tc.n, tc.p, seen)
		}
		total := 0
		for w := 0; w < tc.p; w++ {
			lo, hi := p.Range(w)
			for v := lo; v < hi; v++ {
				if p.Owner(v) != w {
					t.Fatalf("n=%d p=%d: Owner(%d) = %d, want %d", tc.n, tc.p, v, p.Owner(v), w)
				}
			}
			total += int(hi - lo)
		}
		if total != tc.n {
			t.Fatalf("n=%d p=%d: ranges cover %d vertices", tc.n, tc.p, total)
		}
	}
}

func TestBorder(t *testing.T) {
	g := triangleGraph(t)
	// Partition into {0,1,2} and {3,4}: border vertices are 2 and 3.
	p := NewPartition(5, 2)
	lo, hi := p.Range(0)
	if lo != 0 || hi != 3 {
		t.Fatalf("partition range = [%d,%d)", lo, hi)
	}
	border := p.Border(g)
	if len(border) != 2 || border[0] != 2 || border[1] != 3 {
		t.Fatalf("border = %v", border)
	}
	// Single partition: no border.
	if b := NewPartition(5, 1).Border(g); len(b) != 0 {
		t.Fatalf("border with P=1 = %v", b)
	}
}

func TestBuildPASplitsCorrectly(t *testing.T) {
	g := triangleGraph(t)
	part := NewPartition(5, 2) // {0,1,2} | {3,4}
	pa := BuildPA(g, part)
	// Vertex 2 (owner 0): local {0,1}, remote {3}.
	if got := pa.Local(2); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("Local(2) = %v", got)
	}
	if got := pa.Remote(2); len(got) != 1 || got[0] != 3 {
		t.Fatalf("Remote(2) = %v", got)
	}
	// Vertex 4 (owner 1): local {3}, remote {}.
	if got := pa.Local(4); len(got) != 1 || got[0] != 3 {
		t.Fatalf("Local(4) = %v", got)
	}
	if got := pa.Remote(4); len(got) != 0 {
		t.Fatalf("Remote(4) = %v", got)
	}
	// Remote edges counted from both sides: (2,3) and (3,2) → 2 slots.
	if pa.RemoteEdges() != 2 {
		t.Fatalf("RemoteEdges = %d", pa.RemoteEdges())
	}
}

// Property: the PA split is a partition of each adjacency list — local and
// remote together hold exactly the CSR neighbors, and ownership is honored.
func TestPAIsPartitionOfAdjacency(t *testing.T) {
	f := func(seed uint64, nRaw, pRaw uint8) bool {
		n := int(nRaw%40) + 2
		p := int(pRaw%6) + 1
		r := rng.New(seed)
		b := NewBuilder(n)
		for i := 0; i < 3*n; i++ {
			b.AddEdge(V(r.Intn(n)), V(r.Intn(n)))
		}
		g, err := b.Build()
		if err != nil {
			return false
		}
		part := NewPartition(n, p)
		pa := BuildPA(g, part)
		for v := V(0); v < g.NumV; v++ {
			ov := part.Owner(v)
			merged := map[V]int{}
			for _, u := range pa.Local(v) {
				if part.Owner(u) != ov {
					return false
				}
				merged[u]++
			}
			for _, u := range pa.Remote(v) {
				if part.Owner(u) == ov {
					return false
				}
				merged[u]++
			}
			orig := map[V]int{}
			for _, u := range g.Neighbors(v) {
				orig[u]++
			}
			if len(merged) != len(orig) {
				return false
			}
			for k, c := range orig {
				if merged[k] != c {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestComputeStats(t *testing.T) {
	g := triangleGraph(t)
	s := ComputeStats(g)
	if s.N != 5 || s.M != 5 {
		t.Fatalf("stats = %+v", s)
	}
	if s.Components != 1 {
		t.Fatalf("components = %d", s.Components)
	}
	// Diameter of the fixture: 0..4 is 0-2-3-4 → 3.
	if s.Diameter != 3 {
		t.Fatalf("diameter = %d", s.Diameter)
	}
	if s.MaxDeg != 3 {
		t.Fatalf("maxdeg = %d", s.MaxDeg)
	}
	if !strings.Contains(s.String(), "n=5") {
		t.Fatalf("String = %q", s.String())
	}
}

func TestComputeStatsDisconnected(t *testing.T) {
	b := NewBuilder(6)
	b.AddEdge(0, 1)
	b.AddEdge(2, 3)
	b.AddEdge(3, 4)
	// vertex 5 isolated
	g := b.MustBuild()
	s := ComputeStats(g)
	if s.Components != 3 {
		t.Fatalf("components = %d, want 3", s.Components)
	}
	// Largest component is {2,3,4} with diameter 2.
	if s.Diameter != 2 {
		t.Fatalf("diameter = %d, want 2", s.Diameter)
	}
}

func TestComputeStatsEmpty(t *testing.T) {
	g := NewBuilder(0).MustBuild()
	s := ComputeStats(g)
	if s.N != 0 || s.Components != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdgeW(0, 1, 2)
	b.AddEdgeW(1, 2, 3.5)
	b.AddEdgeW(0, 3, 1)
	g := b.MustBuild()

	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.N() != g.N() || g2.M() != g.M() {
		t.Fatalf("round trip: n=%d m=%d", g2.N(), g2.M())
	}
	for v := V(0); v < g.NumV; v++ {
		a, b := g.Neighbors(v), g2.Neighbors(v)
		wa, wb := g.NeighborWeights(v), g2.NeighborWeights(v)
		if len(a) != len(b) {
			t.Fatalf("degree mismatch at %d", v)
		}
		for i := range a {
			if a[i] != b[i] || wa[i] != wb[i] {
				t.Fatalf("adjacency mismatch at %d", v)
			}
		}
	}
}

func TestEdgeListUnweightedRoundTrip(t *testing.T) {
	g := triangleGraph(t)
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.Weighted() {
		t.Fatal("unweighted graph gained weights")
	}
	if g2.M() != g.M() {
		t.Fatalf("M = %d, want %d", g2.M(), g.M())
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	cases := []string{
		"",
		"bogus header\n",
		"# pushpull x 1 0\n",
		"# pushpull 3 1 0\n0\n",
		"# pushpull 3 1 0\na b\n",
		"# pushpull 3 1 0\n0 1 zz\n",
		"# pushpull 2 1 0\n0 9\n", // out of range
	}
	for i, c := range cases {
		if _, err := ReadEdgeList(strings.NewReader(c)); err == nil {
			t.Errorf("case %d: error expected", i)
		}
	}
	// Comments and blank lines are tolerated.
	ok := "# pushpull 3 2 0\n# comment\n\n0 1\n1 2\n"
	g, err := ReadEdgeList(strings.NewReader(ok))
	if err != nil {
		t.Fatal(err)
	}
	if g.UndirectedM() != 2 {
		t.Fatalf("m = %d", g.UndirectedM())
	}
}

// Property: Build always yields a structurally valid, symmetric CSR for
// random undirected input.
func TestBuildAlwaysValid(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%50) + 1
		r := rng.New(seed)
		b := NewBuilder(n)
		for i := 0; i < 4*n; i++ {
			b.AddEdge(V(r.Intn(n)), V(r.Intn(n)))
		}
		g, err := b.Build()
		if err != nil {
			return false
		}
		return g.Validate() == nil && g.IsSymmetric()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkBuild(b *testing.B) {
	r := rng.New(1)
	const n = 1 << 12
	edges := make([]Edge, 8*n)
	for i := range edges {
		edges[i] = Edge{U: V(r.Intn(n)), V: V(r.Intn(n))}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bl := NewBuilder(n)
		for _, e := range edges {
			bl.AddEdge(e.U, e.V)
		}
		if _, err := bl.Build(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHasEdge(b *testing.B) {
	r := rng.New(2)
	const n = 1 << 12
	bl := NewBuilder(n)
	for i := 0; i < 8*n; i++ {
		bl.AddEdge(V(r.Intn(n)), V(r.Intn(n)))
	}
	g := bl.MustBuild()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.HasEdge(V(i&(n-1)), V((i*7)&(n-1)))
	}
}
