package graph

import (
	"math"
	"strings"
	"testing"

	"pushpull/internal/rng"
)

// TestCheckRejects is one CSR literal per fault Check reports. Each is
// refused by Check and by Validate, with an error naming the fault, and
// none is remembered as checked. Before Validate was built on Check, a
// negative vertex count made it panic.
func TestCheckRejects(t *testing.T) {
	for _, c := range []struct {
		name string
		g    *CSR
		want string
	}{
		{"negative vertex count", &CSR{NumV: -1}, "vertex count -1 is negative"},
		{"short offsets", &CSR{NumV: 3, Offsets: []int64{0, 1, 2}, Adj: []V{1, 0}}, "offsets length 3, want 4"},
		{"offsets not from 0", &CSR{NumV: 2, Offsets: []int64{1, 1, 2}, Adj: []V{1, 0}}, "offsets start at 1"},
		{"non-monotone offsets", &CSR{NumV: 3, Offsets: []int64{0, 2, 1, 3}, Adj: []V{1, 2, 0}}, "not monotone at vertex 1"},
		{"offsets past the arcs", &CSR{NumV: 2, Offsets: []int64{0, 1, 3}, Adj: []V{1, 0}}, "offsets end at 3, but there are 2 arcs"},
		{"offsets short of the arcs", &CSR{NumV: 2, Offsets: []int64{0, 1, 1}, Adj: []V{1, 0}}, "offsets end at 1, but there are 2 arcs"},
		{"arc past n", &CSR{NumV: 2, Offsets: []int64{0, 1, 2}, Adj: []V{1, 2}}, "arc 1 names vertex 2, the graph has 2 vertices"},
		{"negative arc", &CSR{NumV: 2, Offsets: []int64{0, 1, 2}, Adj: []V{-1, 0}}, "arc 0 names vertex -1"},
		{"weights length", &CSR{NumV: 2, Offsets: []int64{0, 1, 2}, Adj: []V{1, 0}, Weights: []float32{1}}, "1 weights for 2 arcs"},
	} {
		for name, check := range map[string]func() error{"Check": c.g.Check, "Validate": c.g.Validate} {
			err := check()
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("%s: %s = %v, want an error containing %q", c.name, name, err, c.want)
			}
		}
		if c.g.Checked() {
			t.Errorf("%s: a rejected graph is remembered as checked", c.name)
		}
	}
}

// TestValidateRejectsUnsortedRow: sorted rows are the one invariant
// Validate adds to Check; the kernels do not need it, so Check passes.
func TestValidateRejectsUnsortedRow(t *testing.T) {
	g := &CSR{NumV: 3, Offsets: []int64{0, 2, 3, 4}, Adj: []V{2, 1, 0, 0}}
	if err := g.Check(); err != nil {
		t.Fatalf("Check = %v, want nil", err)
	}
	if err := g.Validate(); err == nil || !strings.Contains(err.Error(), "adjacency of 0 not sorted") {
		t.Fatalf("Validate = %v, want the unsorted row named", err)
	}
}

// TestCheckRemembered: a pass is kept on the graph, so a second Check
// does not scan it again — shown by breaking the graph behind Check's
// back, which the contract forbids and this test alone may do.
func TestCheckRemembered(t *testing.T) {
	g := triangleGraph(t)
	if g.Checked() {
		t.Fatal("a built graph is checked before Check ran")
	}
	if err := g.Check(); err != nil || !g.Checked() {
		t.Fatalf("Check = %v, Checked = %v", err, g.Checked())
	}
	g.Adj[0] = g.NumV
	if err := g.Check(); err != nil {
		t.Fatalf("second Check scanned the graph again: %v", err)
	}
}

// TestUncheckedReadsMatchChecked holds Row, SumAt and AddAt to Neighbors
// and plain indexed loops, bit for bit, on rows of every shape: an empty
// middle and last row, self-loops, repeated arcs and a hub. Under
// -race, checkptr also checks every pointer the helpers form.
func TestUncheckedReadsMatchChecked(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		r := rng.New(seed)
		n := 2 + r.Intn(40)
		b := NewBuilder(n).Directed().KeepDuplicates().KeepSelfLoops()
		for i := 0; i < 3*n; i++ {
			u := V(r.Intn(n - 1)) // the last row stays empty
			if u == V(n/2) {
				continue // and so does a middle one
			}
			b.AddEdge(u, V(r.Intn(n)))
		}
		for i := 0; i < n; i++ {
			b.AddEdge(1, V(i)) // a hub
		}
		g := b.MustBuild()
		if err := g.Check(); err != nil {
			t.Fatal(err)
		}
		x := make([]float64, n)
		for i := range x {
			x[i] = r.Float64()
		}
		got, want := make([]float64, n), make([]float64, n)
		for v := V(0); v < g.NumV; v++ {
			row, nbrs := g.Row(v), g.Neighbors(v)
			if len(row) != len(nbrs) {
				t.Fatalf("seed %d: Row(%d) has %d arcs, Neighbors %d", seed, v, len(row), len(nbrs))
			}
			sum := 0.0
			for i, u := range nbrs {
				if row[i] != u {
					t.Fatalf("seed %d: Row(%d)[%d] = %d, want %d", seed, v, i, row[i], u)
				}
				sum += x[u]
				want[u] += x[v]
			}
			if s := SumAt(x, row); math.Float64bits(s) != math.Float64bits(sum) {
				t.Fatalf("seed %d: SumAt over row %d = %v, want %v", seed, v, s, sum)
			}
			AddAt(got, row, x[v])
		}
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("seed %d: AddAt left x[%d] = %v, want %v", seed, i, got[i], want[i])
			}
		}
	}
}
