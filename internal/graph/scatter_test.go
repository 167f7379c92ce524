package graph

import (
	"cmp"
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"

	"pushpull/internal/rng"
)

// oracleTranspose is the sequential Transpose the scatter replaced: one
// count pass, one prefix sum and one fill pass over the rows in order.
func oracleTranspose(g *CSR) *CSR {
	n := g.NumV
	deg := make([]int64, n+1)
	for v := V(0); v < n; v++ {
		for _, w := range g.Neighbors(v) {
			deg[w+1]++
		}
	}
	for i := V(1); i <= n; i++ {
		deg[i] += deg[i-1]
	}
	t := &CSR{NumV: n, Offsets: deg, Adj: make([]V, g.M())}
	if g.Weights != nil {
		t.Weights = make([]float32, g.M())
	}
	cursor := make([]int64, n)
	copy(cursor, deg[:n])
	for v := V(0); v < n; v++ {
		ws := g.NeighborWeights(v)
		for i, w := range g.Neighbors(v) {
			c := cursor[w]
			t.Adj[c] = v
			if ws != nil {
				t.Weights[c] = ws[i]
			}
			cursor[w]++
		}
	}
	return t
}

// oracleBuild is the sequential Builder.Build the scatter replaced: a
// range check, a count and a fill of (endpoint, weight) arcs in the order
// the edges were added, then a stable sort and a merge of each row.
func oracleBuild(b *Builder) (*CSR, error) {
	if b.n < 0 || b.n > math.MaxInt32 {
		return nil, fmt.Errorf("graph: vertex count %d out of range [0,%d]", b.n, math.MaxInt32)
	}
	n := b.n
	parts := append(b.blocks[:len(b.blocks):len(b.blocks)], b.edges)
	for _, edges := range parts {
		for _, e := range edges {
			if e.U < 0 || int(e.U) >= n || e.V < 0 || int(e.V) >= n {
				return nil, fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", e.U, e.V, n)
			}
		}
	}
	deg := make([]int64, n+1)
	add := func(u V) { deg[u+1]++ }
	for _, edges := range parts {
		for _, e := range edges {
			if !b.keepLoops && e.U == e.V {
				continue
			}
			add(e.U)
			if b.undirected {
				add(e.V)
			}
		}
	}
	for i := 1; i <= n; i++ {
		deg[i] += deg[i-1]
	}
	arcs := make([]arc, deg[n])
	cursor := make([]int64, n)
	copy(cursor, deg[:n])
	put := func(u, v V, w float32) {
		arcs[cursor[u]] = arc{v: v, w: w}
		cursor[u]++
	}
	for _, edges := range parts {
		for _, e := range edges {
			if !b.keepLoops && e.U == e.V {
				continue
			}
			put(e.U, e.V, e.Weight)
			if b.undirected {
				put(e.V, e.U, e.Weight)
			}
		}
	}
	g := &CSR{NumV: V(n), Offsets: make([]int64, n+1)}
	adj := make([]V, 0, len(arcs))
	var wts []float32
	if b.weighted {
		wts = make([]float32, 0, len(arcs))
	}
	for v := 0; v < n; v++ {
		row := arcs[deg[v]:deg[v+1]]
		slices.SortStableFunc(row, func(a, b arc) int { return cmp.Compare(a.v, b.v) })
		for i, a := range row {
			if !b.keepDupes && i > 0 && row[i-1].v == a.v {
				continue
			}
			adj = append(adj, a.v)
			if b.weighted {
				wts = append(wts, a.w)
			}
		}
		g.Offsets[v+1] = int64(len(adj))
	}
	g.Adj = adj
	g.Weights = wts
	return g, nil
}

// oraclePA is the sequential BuildPA the scatter replaced: one pass
// counting each row's local and remote arcs into the two offset arrays,
// then one placing them through a cursor per row and side.
func oraclePA(g *CSR, part Partition) *PAGraph {
	n := g.NumV
	pa := &PAGraph{
		G:      g,
		Part:   part,
		LocOff: make([]int64, n+1),
		RemOff: make([]int64, n+1),
	}
	for v := V(0); v < n; v++ {
		ov := part.Owner(v)
		var loc, rem int64
		for _, u := range g.Neighbors(v) {
			if part.Owner(u) == ov {
				loc++
			} else {
				rem++
			}
		}
		pa.LocOff[v+1] = pa.LocOff[v] + loc
		pa.RemOff[v+1] = pa.RemOff[v] + rem
	}
	pa.LocAdj = make([]V, pa.LocOff[n])
	pa.RemAdj = make([]V, pa.RemOff[n])
	lc := make([]int64, n)
	rc := make([]int64, n)
	copy(lc, pa.LocOff[:n])
	copy(rc, pa.RemOff[:n])
	for v := V(0); v < n; v++ {
		ov := part.Owner(v)
		for _, u := range g.Neighbors(v) {
			if part.Owner(u) == ov {
				pa.LocAdj[lc[v]] = u
				lc[v]++
			} else {
				pa.RemAdj[rc[v]] = u
				rc[v]++
			}
		}
	}
	return pa
}

// identicalPA fails unless got and want split the same graph under the
// same partition into the same four arrays.
func identicalPA(t *testing.T, what string, got, want *PAGraph) {
	t.Helper()
	switch {
	case got.G != want.G || got.Part != want.Part:
		t.Fatalf("%s: graph or partition differs", what)
	case !slices.Equal(got.LocOff, want.LocOff):
		t.Fatalf("%s: local offsets differ", what)
	case !slices.Equal(got.LocAdj, want.LocAdj):
		t.Fatalf("%s: local arcs differ", what)
	case !slices.Equal(got.RemOff, want.RemOff):
		t.Fatalf("%s: remote offsets differ", what)
	case !slices.Equal(got.RemAdj, want.RemAdj):
		t.Fatalf("%s: remote arcs differ", what)
	}
}

// identical fails unless got and want hold the same offsets, arcs and
// weights, bit for bit, and agree on carrying weights at all.
func identical(t *testing.T, what string, got, want *CSR) {
	t.Helper()
	if got.NumV != want.NumV {
		t.Fatalf("%s: n = %d, want %d", what, got.NumV, want.NumV)
	}
	if !slices.Equal(got.Offsets, want.Offsets) {
		t.Fatalf("%s: offsets differ", what)
	}
	if !slices.Equal(got.Adj, want.Adj) {
		t.Fatalf("%s: arcs differ", what)
	}
	if (got.Weights == nil) != (want.Weights == nil) {
		t.Fatalf("%s: weighted %v, want %v", what, got.Weights != nil, want.Weights != nil)
	}
	if !slices.EqualFunc(got.Weights, want.Weights, func(a, b float32) bool { return math.Float32bits(a) == math.Float32bits(b) }) {
		t.Fatalf("%s: weights differ", what)
	}
}

// scatterFixture is a builder's edges and settings, as a function so
// each use starts from a fresh builder.
type scatterFixture struct {
	name  string
	build func() *Builder
}

// scatterFixtures cover the rows a scatter can meet: none at all, mostly
// empty ones, one row holding most arcs, rows that arrive unsorted with
// duplicates and self-loops, weighted and not, in one edge slice or in
// the reader's per-block slices, and an arc count small enough for one
// worker as well as one large enough for seven.
func scatterFixtures() []scatterFixture {
	random := func(n, m int, seed uint64, weighted bool) func() *Builder {
		return func() *Builder {
			b := NewBuilder(n).Directed()
			r := rng.New(seed)
			for i := 0; i < m; i++ {
				u, v := V(r.Intn(n)), V(r.Intn(n))
				if weighted {
					b.AddEdgeW(u, v, float32(r.Intn(64))/4)
				} else {
					b.AddEdge(u, v)
				}
			}
			return b
		}
	}
	undirected := func(f func() *Builder) func() *Builder {
		return func() *Builder { b := f(); b.undirected = true; return b }
	}
	return []scatterFixture{
		{"n=0", func() *Builder { return NewBuilder(0) }},
		{"n=0 weighted", func() *Builder { b := NewBuilder(0).Directed(); b.weighted = true; return b }},
		{"empty rows", func() *Builder {
			b := NewBuilder(1000).Directed()
			b.AddEdgeW(999, 3, 2)
			b.AddEdgeW(3, 999, 5)
			b.AddEdgeW(500, 3, 1)
			return b
		}},
		{"hub row", func() *Builder {
			b := NewBuilder(300).Directed()
			for v := V(299); v > 0; v-- {
				b.AddEdgeW(0, v, float32(v))
				b.AddEdgeW(v, 0, -float32(v))
			}
			b.AddEdge(7, 8)
			return b
		}},
		{"unsorted dupes loops directed weighted", random(40, 3000, 1, true)},
		{"unsorted dupes loops directed", random(40, 3000, 2, false)},
		{"unsorted dupes loops undirected weighted", undirected(random(40, 3000, 3, true))},
		{"unsorted dupes loops undirected", undirected(random(40, 3000, 4, false))},
		{"keep dupes and loops", func() *Builder {
			return random(30, 2000, 5, true)().KeepDuplicates().KeepSelfLoops()
		}},
		{"keep loops undirected", func() *Builder {
			return undirected(random(30, 2000, 6, true))().KeepSelfLoops()
		}},
		{"reader blocks", func() *Builder {
			b := random(50, 1500, 7, true)()
			b.blocks = [][]Edge{b.edges[:400], nil, b.edges[400:401], b.edges[401:1200]}
			b.edges = b.edges[1200:]
			return b
		}},
		{"small m", random(1<<12, 100, 8, true)},
		{"large m", random(2000, 120_000, 9, true)},
	}
}

// TestScatterMatchesOracle holds Build, Transpose and BuildPA to the
// sequential oracles, bit for bit, at GOMAXPROCS 1, 2 and 7, through the
// worker count each picks and at that many workers forced.
func TestScatterMatchesOracle(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 7} {
		runtime.GOMAXPROCS(procs)
		forced := func(int, int) int { return procs }
		for _, fx := range scatterFixtures() {
			what := fmt.Sprintf("%s at GOMAXPROCS %d", fx.name, procs)
			want, err := oracleBuild(fx.build())
			if err != nil {
				t.Fatal(err)
			}
			got, err := fx.build().Build()
			if err != nil {
				t.Fatal(err)
			}
			identical(t, what+": Build", got, want)
			got, err = fx.build().build(forced)
			if err != nil {
				t.Fatal(err)
			}
			identical(t, what+": Build forced", got, want)
			if err := got.Validate(); err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			tr := oracleTranspose(want)
			identical(t, what+": Transpose", want.Transpose(), tr)
			identical(t, what+": Transpose forced", want.transpose(procs), tr)
			for _, parts := range []int{2, 7} {
				part := NewPartition(want.N(), parts)
				pa := oraclePA(want, part)
				identicalPA(t, fmt.Sprintf("%s: BuildPA over %d parts", what, parts), BuildPA(want, part), pa)
				identicalPA(t, fmt.Sprintf("%s: BuildPA over %d parts forced", what, parts), buildPA(want, part, procs), pa)
			}
		}
	}
}

// TestTransposeMalformedPanicsOnCaller: an arc id outside [0, n) in a
// graph large enough for several workers panics on the caller, where it
// can be recovered, instead of in a worker, where it would end the
// process.
func TestTransposeMalformedPanicsOnCaller(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	runtime.GOMAXPROCS(2)
	const n, m = 100, 3 * scatterGrain
	g := &CSR{NumV: n, Offsets: make([]int64, n+1), Adj: make([]V, m)}
	for v := 1; v <= n; v++ {
		g.Offsets[v] = int64(v * m / n)
	}
	g.Adj[m-1] = n
	defer func() {
		if recover() == nil {
			t.Fatal("a transpose through an arc past n did not panic")
		}
	}()
	g.Transpose()
}

// TestScatterWorkers pins when the scatter runs on more than one worker:
// with enough arcs, and never with fewer arcs than rows.
func TestScatterWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	runtime.GOMAXPROCS(7)
	for _, c := range []struct{ n, arcs, want int }{
		{0, 0, 1},
		{1 << 12, 100, 1},             // small m
		{100, scatterGrain - 1, 1},    // under one grain
		{100, 3 * scatterGrain, 3},    // one worker per grain
		{2000, 200_000, 7},            // GOMAXPROCS
		{1 << 20, 3, 1},               // a huge header over a few arcs
		{1 << 20, 2 * (1 << 20), 1},   // two workers' cursors would outnumber the arcs
		{1 << 16, 960_000, 7},         // the upload graph
		{1 << 16, 4 * (1<<16 + 1), 4}, // arcs/(n+1) bounds it
	} {
		if got := scatterWorkers(c.n, c.arcs); got != c.want {
			t.Errorf("scatterWorkers(%d, %d) = %d, want %d", c.n, c.arcs, got, c.want)
		}
	}
}

// TestBuildRefusesFirstBadEdge: an out-of-range edge is refused, named as
// the first one in the order the edges were added, whichever worker met
// it.
func TestBuildRefusesFirstBadEdge(t *testing.T) {
	b := NewBuilder(10).Directed()
	for i := 0; i < 100; i++ {
		b.AddEdge(V(i%10), V((i+1)%10))
	}
	b.edges[40] = Edge{U: 3, V: 10}
	b.edges[90] = Edge{U: -1, V: 2}
	want := "graph: edge (3,10) out of range [0,10)"
	for _, workers := range []int{1, 2, 7} {
		_, err := b.build(func(int, int) int { return workers })
		if err == nil || err.Error() != want {
			t.Fatalf("%d workers: err = %v, want %q", workers, err, want)
		}
	}
}

// TestScatterAllocsWithHugeHeader: a header of n = 2^20 over three arcs
// costs Build and Transpose no more bytes than the sequential oracles
// (within 10 %), so the workers' cursors are never paid when m is small.
func TestScatterAllocsWithHugeHeader(t *testing.T) {
	const n = 1 << 20
	fresh := func() *Builder {
		b := NewBuilder(n).Directed()
		b.AddEdgeW(0, n-1, 1)
		b.AddEdgeW(n-1, 0, 2)
		b.AddEdgeW(5, 6, 3)
		return b
	}
	g := fresh().MustBuild()
	g.Check()
	for _, c := range []struct {
		name      string
		got, want func()
	}{
		{"Build", func() { fresh().MustBuild() }, func() { oracleBuild(fresh()) }},
		{"Transpose", func() { g.Transpose() }, func() { oracleTranspose(g) }},
	} {
		got, want := allocBytes(c.got), allocBytes(c.want)
		if got > want+want/10 {
			t.Errorf("%s allocates %d bytes, the sequential oracle %d", c.name, got, want)
		}
	}
}

// allocBytes is the bytes f allocates, the least of three calls.
func allocBytes(f func()) uint64 {
	least := uint64(math.MaxUint64)
	var before, after runtime.MemStats
	for range 3 {
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}
