package graph

import (
	"fmt"
	"runtime"
	"slices"
	"testing"
)

// oracleDegreePull is the degree-ordered pull view under the relabelling
// inv built one row at a time on one goroutine: directed, every arc v→u
// appended to row inv[u] as inv[v], g's rows walked in order; undirected,
// every row u of g copied to row inv[u] through inv.
func oracleDegreePull(g *CSR, directed bool, inv []V) *DegreePull {
	rows := make([][]V, g.N())
	for v := V(0); v < g.NumV; v++ {
		for _, u := range g.Neighbors(v) {
			if directed {
				rows[inv[u]] = append(rows[inv[u]], inv[v])
			} else {
				rows[inv[v]] = append(rows[inv[v]], inv[u])
			}
		}
	}
	in := &CSR{NumV: g.NumV, Offsets: make([]int64, g.N()+1), Adj: []V{}}
	for x, row := range rows {
		in.Adj = append(in.Adj, row...)
		in.Offsets[x+1] = int64(len(in.Adj))
	}
	dp := &DegreePull{In: in}
	if directed {
		dp.OutDeg = make([]uint32, g.N())
		for v := V(0); v < g.NumV; v++ {
			dp.OutDeg[inv[v]] = uint32(g.Degree(v))
		}
	}
	return dp
}

// sameDegreePull fails unless got and want hold the same rows and
// out-degrees, and got's rows passed Check.
func sameDegreePull(t *testing.T, what string, got, want *DegreePull) {
	t.Helper()
	switch {
	case got.In.NumV != want.In.NumV || !slices.Equal(got.In.Offsets, want.In.Offsets):
		t.Fatalf("%s: offsets differ", what)
	case !slices.Equal(got.In.Adj, want.In.Adj):
		t.Fatalf("%s: arcs differ", what)
	case got.In.Weights != nil:
		t.Fatalf("%s: the view carries weights", what)
	case (got.OutDeg == nil) != (want.OutDeg == nil) || !slices.Equal(got.OutDeg, want.OutDeg):
		t.Fatalf("%s: out-degrees differ", what)
	case !got.In.Checked():
		t.Fatalf("%s: the view was not checked", what)
	}
}

// TestDegreePullOracleAtAnyWorkers holds PullByDegree to the sequential
// oracle, bit for bit, at GOMAXPROCS 1, 2 and 7, through the worker count
// it picks and at that many workers forced, read as directed and as
// undirected. Besides the scatter fixtures it takes a CSR with unsorted,
// asymmetric rows, duplicates and a self-loop, which only its rows'
// order tells apart from the transpose.
func TestDegreePullOracleAtAnyWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	raw := &CSR{NumV: 5, Offsets: []int64{0, 4, 4, 7, 8, 9}, Adj: []V{3, 1, 3, 0, 4, 2, 0, 0, 1}}
	for _, procs := range []int{1, 2, 7} {
		runtime.GOMAXPROCS(procs)
		graphs := []struct {
			name string
			g    *CSR
		}{{"unsorted asymmetric", raw}}
		for _, fx := range scatterFixtures() {
			graphs = append(graphs, struct {
				name string
				g    *CSR
			}{fx.name, fx.build().MustBuild()})
		}
		for _, fx := range graphs {
			for _, directed := range []bool{true, false} {
				what := fmt.Sprintf("%s (directed %v) at GOMAXPROCS %d", fx.name, directed, procs)
				_, inv := DegreePerm(fx.g)
				want := oracleDegreePull(fx.g, directed, inv)
				got, err := PullByDegree(fx.g, directed, inv)
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				sameDegreePull(t, what, got, want)
				if got, err = pullByDegree(fx.g, directed, inv, procs); err != nil {
					t.Fatalf("%s forced: %v", what, err)
				}
				sameDegreePull(t, what+" forced", got, want)
			}
		}
	}
}

// TestDegreePullMemoryBill holds what PullByDegree allocates, under a
// relabelling the handle already holds, within 10 % of the bill its doc
// states: 4m + 8(n+1) bytes, plus 4n when directed, plus 8n of scatter
// cursors per worker. The relabelling's own 8n is not the view's to pay.
func TestDegreePullMemoryBill(t *testing.T) {
	g := randomCSR(t, 20_000, 150_000, true, true, 11)
	g.Check()
	_, inv := DegreePerm(g)
	n, m := uint64(g.N()), uint64(g.M())
	for _, directed := range []bool{true, false} {
		for _, workers := range []int{1, 2} {
			bill := 4*m + 8*(n+1) + 8*n*uint64(workers)
			if directed {
				bill += 4 * n
			}
			got := allocBytes(func() {
				if _, err := pullByDegree(g, directed, inv, workers); err != nil {
					t.Fatal(err)
				}
			})
			if got > bill+bill/10 || got < bill-bill/10 {
				t.Errorf("directed %v, %d workers: %d bytes allocated, the bill is %d", directed, workers, got, bill)
			}
		}
	}
}
