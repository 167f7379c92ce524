// Package graph implements the graph representation of the paper (§2.2): a
// contiguous adjacency array ("CSR") occupying n + 2m cells, 1D vertex
// partitioning with an O(1) owner function t[v], and the partition-aware
// (PA) layout of §5 that splits each adjacency list into locally-owned and
// remotely-owned halves (2n + 2m cells) so that push-based algorithms can
// update local neighbors without atomics.
package graph

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync/atomic"

	"pushpull/internal/sched"
)

// V is a vertex identifier. int32 halves the memory traffic of the
// adjacency array relative to int64, which matters because the paper's
// push/pull gaps are largely memory-bound (§6).
type V = int32

// CSR is a graph in compressed sparse row form. For an undirected graph
// every edge {u, v} occupies two slots (one per direction), so Adj has 2m
// entries; with the n+1 offsets this is the paper's n + 2m cell layout.
//
// A CSR that passed Check must not change afterwards: Check remembers
// the pass on the graph, and the kernels that read rows without bounds
// checks rely on it.
type CSR struct {
	NumV    int32
	Offsets []int64   // len NumV+1; Offsets[v]..Offsets[v+1] indexes Adj
	Adj     []V       // neighbor array, sorted within each vertex
	Weights []float32 // nil for unweighted graphs; parallel to Adj

	checked atomic.Bool // set once Check has passed
}

// N returns the number of vertices.
func (g *CSR) N() int { return int(g.NumV) }

// M returns the number of directed edge slots (2m for undirected graphs).
func (g *CSR) M() int64 { return int64(len(g.Adj)) }

// UndirectedM returns m assuming the graph stores both directions.
func (g *CSR) UndirectedM() int64 { return g.M() / 2 }

// Degree returns the degree of v.
func (g *CSR) Degree(v V) int64 { return g.Offsets[v+1] - g.Offsets[v] }

// Neighbors returns the adjacency slice of v (not a copy).
func (g *CSR) Neighbors(v V) []V { return g.Adj[g.Offsets[v]:g.Offsets[v+1]] }

// NeighborWeights returns the edge weights parallel to Neighbors(v); it
// returns nil for unweighted graphs.
func (g *CSR) NeighborWeights(v V) []float32 {
	if g.Weights == nil {
		return nil
	}
	return g.Weights[g.Offsets[v]:g.Offsets[v+1]]
}

// Weighted reports whether edge weights are present.
func (g *CSR) Weighted() bool { return g.Weights != nil }

// HasEdge reports whether (u, v) is present, via binary search over u's
// sorted adjacency. This is the adj(w1, w2) oracle of the paper's triangle
// counting (Algorithm 2).
func (g *CSR) HasEdge(u, v V) bool {
	adj := g.Neighbors(u)
	i := sort.Search(len(adj), func(i int) bool { return adj[i] >= v })
	return i < len(adj) && adj[i] == v
}

// MaxDegree returns d̂, the maximum degree.
func (g *CSR) MaxDegree() int64 {
	var max int64
	for v := V(0); v < g.NumV; v++ {
		if d := g.Degree(v); d > max {
			max = d
		}
	}
	return max
}

// AvgDegree returns d̄ = (directed slots)/n, the paper's average degree of
// the stored representation divided by two for undirected graphs.
func (g *CSR) AvgDegree() float64 {
	if g.NumV == 0 {
		return 0
	}
	return float64(g.M()) / float64(g.NumV) / 2
}

// Check verifies what reading the graph without bounds checks needs: a
// vertex count of at least zero, n+1 monotone offsets from 0 to
// len(Adj), every arc id in [0, n), and a weight array, if any, parallel
// to Adj. It returns an error naming the first fault. A pass is
// remembered on the graph, so later calls cost one atomic load; a
// failure is not, so a fixed graph can pass.
func (g *CSR) Check() error {
	if g.checked.Load() {
		return nil
	}
	if err := g.check(); err != nil {
		return err
	}
	g.checked.Store(true)
	return nil
}

// Checked reports whether Check has passed on g.
func (g *CSR) Checked() bool { return g.checked.Load() }

func (g *CSR) check() error {
	n := g.N()
	if n < 0 {
		return fmt.Errorf("graph: vertex count %d is negative", n)
	}
	if len(g.Offsets) != n+1 {
		return fmt.Errorf("graph: offsets length %d, want %d", len(g.Offsets), n+1)
	}
	if g.Offsets[0] != 0 {
		return fmt.Errorf("graph: offsets start at %d, want 0", g.Offsets[0])
	}
	for v := 0; v < n; v++ {
		if g.Offsets[v] > g.Offsets[v+1] {
			return fmt.Errorf("graph: offsets not monotone at vertex %d (%d > %d)", v, g.Offsets[v], g.Offsets[v+1])
		}
	}
	if g.Offsets[n] != g.M() {
		return fmt.Errorf("graph: offsets end at %d, but there are %d arcs", g.Offsets[n], g.M())
	}
	for i, u := range g.Adj {
		if uint32(u) >= uint32(n) {
			return fmt.Errorf("graph: arc %d names vertex %d, the graph has %d vertices", i, u, n)
		}
	}
	if g.Weights != nil && len(g.Weights) != len(g.Adj) {
		return fmt.Errorf("graph: %d weights for %d arcs", len(g.Weights), len(g.Adj))
	}
	return nil
}

// Validate is Check plus sorted adjacency: every row ascending.
func (g *CSR) Validate() error {
	if err := g.Check(); err != nil {
		return err
	}
	for v := V(0); v < g.NumV; v++ {
		adj := g.Neighbors(v)
		for i := 1; i < len(adj); i++ {
			if adj[i-1] > adj[i] {
				return fmt.Errorf("graph: adjacency of %d not sorted", v)
			}
		}
	}
	return nil
}

// IsSymmetric reports whether every stored arc has its reverse (i.e. the
// CSR represents an undirected graph).
func (g *CSR) IsSymmetric() bool {
	for v := V(0); v < g.NumV; v++ {
		for _, w := range g.Neighbors(v) {
			if !g.HasEdge(w, v) {
				return false
			}
		}
	}
	return true
}

// Transpose returns the reverse graph (CSC view of the adjacency matrix;
// §7.1 uses it to realize the CSC/push formulation for directed inputs).
func (g *CSR) Transpose() *CSR {
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
	// Adjacency within each row of the transpose is already sorted because
	// source vertices were visited in increasing order.
	return t
}

// Edge is one (possibly weighted) edge used by builders and serialization.
type Edge struct {
	U, V   V
	Weight float32
}

// Builder accumulates edges and produces a CSR.
type Builder struct {
	n          int // checked against V's range by Build
	edges      []Edge
	undirected bool
	weighted   bool
	keepDupes  bool
	keepLoops  bool
}

// NewBuilder creates a builder for a graph with n vertices. By default the
// graph is undirected (each added edge stores both directions), duplicate
// edges are merged, and self-loops are dropped — matching the paper's graph
// model (§2.2: undirected, simple).
func NewBuilder(n int) *Builder {
	return &Builder{n: n, undirected: true}
}

// Directed makes the builder store only the given direction per edge.
func (b *Builder) Directed() *Builder { b.undirected = false; return b }

// KeepDuplicates disables duplicate-edge merging.
func (b *Builder) KeepDuplicates() *Builder { b.keepDupes = true; return b }

// KeepSelfLoops retains self-loops.
func (b *Builder) KeepSelfLoops() *Builder { b.keepLoops = true; return b }

// AddEdge adds an unweighted edge, which weighs 1 if the result carries
// weights.
func (b *Builder) AddEdge(u, v V) { b.edges = append(b.edges, Edge{U: u, V: v, Weight: 1}) }

// AddEdgeW adds a weighted edge; any weighted edge makes the result carry
// weights.
func (b *Builder) AddEdgeW(u, v V, w float32) {
	b.weighted = true
	b.edges = append(b.edges, Edge{U: u, V: v, Weight: w})
}

// Build produces the CSR. It returns an error for a vertex count outside
// [0, MaxInt32] and for out-of-range endpoints.
func (b *Builder) Build() (*CSR, error) {
	if b.n < 0 || b.n > math.MaxInt32 {
		return nil, fmt.Errorf("graph: vertex count %d out of range [0,%d]", b.n, math.MaxInt32)
	}
	n := b.n // an int: n+1 overflows V when n = MaxInt32
	for _, e := range b.edges {
		if e.U < 0 || int(e.U) >= n || e.V < 0 || int(e.V) >= n {
			return nil, fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", e.U, e.V, n)
		}
	}
	type arc struct {
		v V
		w float32
	}
	// Count, fill, sort per-vertex, dedup.
	deg := make([]int64, n+1)
	add := func(u V) { deg[u+1]++ }
	for _, e := range b.edges {
		if !b.keepLoops && e.U == e.V {
			continue
		}
		add(e.U)
		if b.undirected {
			add(e.V)
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
	for _, e := range b.edges {
		if !b.keepLoops && e.U == e.V {
			continue
		}
		put(e.U, e.V, e.Weight)
		if b.undirected {
			put(e.V, e.U, e.Weight)
		}
	}
	g := &CSR{NumV: V(n), Offsets: make([]int64, n+1)}
	adj := make([]V, 0, len(arcs))
	var wts []float32
	if b.weighted {
		wts = make([]float32, 0, len(arcs))
	}
	for v := 0; v < n; v++ {
		lo, hi := deg[v], deg[v+1]
		row := arcs[lo:hi]
		// A strictly increasing row, the form every row of a written edge
		// list arrives in, is already what the sort would make of it. The
		// sort is stable, so of duplicate arcs the first added is kept:
		// both rows of an undirected edge listed twice keep the same weight.
		for i := 1; i < len(row); i++ {
			if row[i-1].v >= row[i].v {
				slices.SortStableFunc(row, func(a, b arc) int { return cmp.Compare(a.v, b.v) })
				break
			}
		}
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

// MustBuild is Build panicking on error, for tests and fixtures.
func (b *Builder) MustBuild() *CSR {
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

// Partition is the 1D vertex decomposition of §2.2: P contiguous blocks of
// near-equal size. Owner is the paper's t[v].
type Partition struct {
	NumV int32
	P    int
}

// NewPartition decomposes n vertices over p threads.
func NewPartition(n, p int) Partition {
	if p < 1 {
		p = 1
	}
	return Partition{NumV: int32(n), P: p}
}

// Owner returns t[v], the thread owning vertex v.
func (p Partition) Owner(v V) int { return sched.OwnerOf(int(p.NumV), p.P, int(v)) }

// Range returns the vertex range [lo, hi) owned by thread w.
func (p Partition) Range(w int) (lo, hi V) {
	l, h := sched.BlockRange(int(p.NumV), p.P, w)
	return V(l), V(h)
}

// Border returns the border set B (§3.6): vertices with at least one
// neighbor owned by a different thread.
func (p Partition) Border(g *CSR) []V {
	var out []V
	for v := V(0); v < g.NumV; v++ {
		ov := p.Owner(v)
		for _, u := range g.Neighbors(v) {
			if p.Owner(u) != ov {
				out = append(out, v)
				break
			}
		}
	}
	return out
}
