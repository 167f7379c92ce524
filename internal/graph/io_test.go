package graph

// Round-trip fidelity regressions for the kind-aware edge-list format:
// directedness and weights must survive WriteEdgeList → ReadEdgeList,
// and the pre-kind header (no directed flag) must keep loading as
// undirected.

import (
	"bytes"
	"math"
	"strconv"
	"strings"
	"testing"
)

// sameCSR compares structure and weights exactly.
func sameCSR(t *testing.T, got, want *CSR) {
	t.Helper()
	if got.N() != want.N() || got.M() != want.M() {
		t.Fatalf("shape changed: n %d→%d, m %d→%d", want.N(), got.N(), want.M(), got.M())
	}
	for v := V(0); v < want.NumV; v++ {
		a, b := want.Neighbors(v), got.Neighbors(v)
		if len(a) != len(b) {
			t.Fatalf("vertex %d: degree %d→%d", v, len(a), len(b))
		}
		wa, wb := want.NeighborWeights(v), got.NeighborWeights(v)
		if (wa == nil) != (wb == nil) {
			t.Fatalf("vertex %d: weights presence changed", v)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("vertex %d arc %d: %d→%d", v, i, a[i], b[i])
			}
			if wa != nil && math.Float32bits(wa[i]) != math.Float32bits(wb[i]) {
				t.Fatalf("vertex %d arc %d: weight %g→%g", v, i, wa[i], wb[i])
			}
		}
	}
}

func TestEdgeListDirectedRoundTrip(t *testing.T) {
	b := NewBuilder(5).Directed()
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 0)
	b.AddEdge(3, 1)
	b.AddEdge(1, 4) // 1↔... asymmetric arcs throughout
	g := b.MustBuild()
	if g.IsSymmetric() {
		t.Fatal("fixture unexpectedly symmetric")
	}

	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "# pushpull 5 5 0 1\n") {
		t.Fatalf("header does not record directedness: %q", strings.SplitN(buf.String(), "\n", 2)[0])
	}
	g2, directed, err := ReadEdgeListKind(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !directed {
		t.Fatal("round trip lost directedness")
	}
	sameCSR(t, g2, g)
}

func TestEdgeListDirectedWeightedRoundTrip(t *testing.T) {
	b := NewBuilder(4).Directed()
	b.AddEdgeW(0, 1, 2.5)
	b.AddEdgeW(1, 0, 7) // both arcs present but with different weights
	b.AddEdgeW(2, 3, 1.25)
	g := b.MustBuild()

	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, directed, err := ReadEdgeListKind(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !directed {
		t.Fatal("round trip lost directedness")
	}
	sameCSR(t, g2, g)
}

// TestEdgeListAsymmetricWeightsDetected: a symmetric adjacency whose two
// arc weights differ is NOT representable undirected; detection must fall
// back to arc-by-arc serialization even though IsSymmetric() holds.
func TestEdgeListAsymmetricWeightsDetected(t *testing.T) {
	b := NewBuilder(2).Directed()
	b.AddEdgeW(0, 1, 1)
	b.AddEdgeW(1, 0, 9)
	g := b.MustBuild()
	if !g.IsSymmetric() {
		t.Fatal("fixture adjacency should be symmetric")
	}
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, directed, err := ReadEdgeListKind(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !directed {
		t.Fatal("asymmetric weights serialized as undirected — weight lost")
	}
	sameCSR(t, g2, g)
}

// TestEdgeListUndirectedStaysCompact: a genuinely undirected graph keeps
// the one-line-per-edge format and reads back with directed = false.
func TestEdgeListUndirectedStaysCompact(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdgeW(0, 1, 4)
	b.AddEdgeW(1, 2, 5)
	g := b.MustBuild()
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	lines := strings.Count(strings.TrimSpace(buf.String()), "\n") + 1
	if lines != 3 { // header + one line per undirected edge
		t.Fatalf("undirected graph serialized in %d lines, want 3:\n%s", lines, buf.String())
	}
	g2, directed, err := ReadEdgeListKind(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if directed {
		t.Fatal("undirected graph read back directed")
	}
	sameCSR(t, g2, g)
}

// TestEdgeListLegacyHeader: the pre-kind four-field header still loads,
// as an undirected graph.
func TestEdgeListLegacyHeader(t *testing.T) {
	g, directed, err := ReadEdgeListKind(strings.NewReader("# pushpull 3 2 0\n0 1\n1 2\n"))
	if err != nil {
		t.Fatal(err)
	}
	if directed {
		t.Fatal("legacy header read as directed")
	}
	if g.UndirectedM() != 2 || !g.IsSymmetric() {
		t.Fatalf("legacy graph misparsed: m=%d", g.UndirectedM())
	}
}

func TestWriteEdgeListKindExplicit(t *testing.T) {
	// An undirected (symmetric) graph may still be pinned directed by the
	// caller: every arc is emitted and the flag recorded.
	b := NewBuilder(3)
	b.AddEdge(0, 1)
	g := b.MustBuild()
	var buf bytes.Buffer
	if err := WriteEdgeListKind(&buf, g, true); err != nil {
		t.Fatal(err)
	}
	g2, directed, err := ReadEdgeListKind(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !directed {
		t.Fatal("explicit directed flag not recorded")
	}
	sameCSR(t, g2, g) // both arcs were written, so the CSR matches
}

// hostileEdgeLists are bodies whose numbers do not fit the vertex type:
// before the reader range-checked them, the first two panicked in Build
// (makeslice), the third loaded as n = 4 and the fourth stored the edge
// (1, 2).
var hostileEdgeLists = []string{
	"# pushpull -5 0 0 0\n",
	"# pushpull 2147483648 0 0 0\n",
	"# pushpull 4294967300 1 0 0\n",
	"# pushpull 4 1 0 0\n4294967297 2\n",
}

func TestReadEdgeListRejectsOutOfRange(t *testing.T) {
	for _, c := range []struct {
		body, want string
	}{
		{hostileEdgeLists[0], "line 1: vertex count -5 out of range"},
		{hostileEdgeLists[1], "line 1: vertex count 2147483648 out of range"},
		{hostileEdgeLists[2], "line 1: vertex count 4294967300 out of range"},
		{hostileEdgeLists[3], "line 2: vertex 4294967297 out of range [0,4)"},
		{"# pushpull 4 1 0 0\n0 -1\n", "line 2: vertex -1 out of range [0,4)"},
		{"# pushpull 4 2 1 0\n0 1 2\n# note\n3 4 1\n", "line 4: vertex 4 out of range [0,4)"},
		{"# pushpull 4 1 0 0\n0 99999999999999999999\n", "line 2: "},
	} {
		_, _, err := ReadEdgeListKind(strings.NewReader(c.body))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%q: err = %v, want one containing %q", c.body, err, c.want)
		}
	}
}

func TestBuildRejectsBadVertexCount(t *testing.T) {
	for _, n := range []int{-1, math.MaxInt32 + 1} {
		if _, err := NewBuilder(n).Build(); err == nil {
			t.Errorf("NewBuilder(%d).Build() succeeded", n)
		}
	}
}

// FuzzReadEdgeList: whatever the body, the reader either refuses it or
// yields a valid CSR that survives a write/read round trip unchanged.
func FuzzReadEdgeList(f *testing.F) {
	for _, body := range hostileEdgeLists {
		f.Add(body)
	}
	f.Add("# pushpull 3 2 0\n# comment\n\n0 1\n1 2\n")
	f.Add("# pushpull 4 3 1 1\n0 1 2.5\n1 0 3\n2 2 1\n")
	f.Add("# pushpull 3 2 1 0\n0 1 5\n0 1 7\n")
	f.Add("# pushpull 1 0 1 0\n0 0 0\n") // weighted, every edge a dropped self-loop
	f.Add("# pushpull 0 0")              // a header with no flags
	f.Fuzz(func(t *testing.T, body string) {
		if n, ok := headerCount(body); ok && n > 1<<16 {
			t.Skip("a valid header this large allocates O(n) before any edge")
		}
		g, directed, err := ReadEdgeListKind(strings.NewReader(body))
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("accepted body yields an invalid CSR: %v", err)
		}
		var buf bytes.Buffer
		if err := WriteEdgeListKind(&buf, g, directed); err != nil {
			t.Fatal(err)
		}
		back, backDirected, err := ReadEdgeListKind(&buf)
		if err != nil {
			t.Fatalf("re-reading the written list: %v\n%s", err, buf.String())
		}
		if backDirected != directed {
			t.Fatalf("directed %v → %v", directed, backDirected)
		}
		sameCSR(t, back, g)
	})
}

// headerCount is the vertex count a body's header declares, if it parses.
func headerCount(body string) (int, bool) {
	line, _, _ := strings.Cut(body, "\n")
	fields := strings.Fields(line)
	if len(fields) < 3 {
		return 0, false
	}
	n, err := strconv.Atoi(fields[2])
	return n, err == nil
}
