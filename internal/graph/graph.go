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
	"iter"
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
	if err := checkOffsets(g.Offsets, g.M()); err != nil {
		return fmt.Errorf("graph: %w", err)
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

// checkOffsets reports the first fault of a CSR's n+1 offsets over m
// arcs: they must run monotone from 0 to m.
func checkOffsets(offsets []int64, m int64) error {
	if offsets[0] != 0 {
		return fmt.Errorf("offsets start at %d, want 0", offsets[0])
	}
	for v := 1; v < len(offsets); v++ {
		if offsets[v-1] > offsets[v] {
			return fmt.Errorf("offsets not monotone at vertex %d (%d > %d)", v-1, offsets[v-1], offsets[v])
		}
	}
	if end := offsets[len(offsets)-1]; end != m {
		return fmt.Errorf("offsets end at %d, but there are %d arcs", end, m)
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
// It is one scatter of g's rows, so each row of the transpose lists its
// sources in increasing order, sorted as a CSR's rows are. A graph that
// fails Check is transposed on the calling goroutine alone, so a fault
// it trips panics there, where the caller can recover, not in a worker.
func (g *CSR) Transpose() *CSR { return g.transpose(g.workersFor(g.N())) }

// transpose is Transpose on t scatter workers.
func (g *CSR) transpose(t int) *CSR {
	tr := &CSR{NumV: g.NumV, Adj: make([]V, g.M())}
	if g.Weights != nil {
		tr.Weights = make([]float32, g.M())
	}
	tr.Offsets, _ = scatter(g.N(), rowBounds(g, t), func(lo, hi int, cnt []int64) bool {
		for _, w := range g.Adj[g.Offsets[lo]:g.Offsets[hi]] {
			cnt[w]++
		}
		return true
	}, func(lo, hi int, cur []int64) {
		for v := V(lo); v < V(hi); v++ {
			ws := g.NeighborWeights(v)
			for i, w := range g.Neighbors(v) {
				c := cur[w]
				tr.Adj[c] = v
				if ws != nil {
					tr.Weights[c] = ws[i]
				}
				cur[w] = c + 1
			}
		}
	})
	return tr
}

// Edge is one (possibly weighted) edge used by builders and serialization.
type Edge struct {
	U, V   V
	Weight float32
}

// Builder accumulates edges and produces a CSR.
type Builder struct {
	n          int      // checked against V's range by Build
	blocks     [][]Edge // added ahead of edges: one slice per block the edge-list reader parsed
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
//
// The edges, the reader's blocks first, are scattered into their rows in
// the order they were added, on as many workers as scatterWorkers gives;
// then each row is sorted and its duplicates merged.
func (b *Builder) Build() (*CSR, error) { return b.build(scatterWorkers) }

// build is Build on workers(n, arcs) scatter workers.
func (b *Builder) build(workers func(n, arcs int) int) (*CSR, error) {
	if b.n < 0 || b.n > math.MaxInt32 {
		return nil, fmt.Errorf("graph: vertex count %d out of range [0,%d]", b.n, math.MaxInt32)
	}
	n := b.n // an int: n+1 overflows V when n = MaxInt32
	parts := append(b.blocks[:len(b.blocks):len(b.blocks)], b.edges)
	items := 0
	for _, edges := range parts {
		items += len(edges)
	}
	arcs := items
	if b.undirected {
		arcs *= 2
	}
	// Sized for every arc; a dropped self-loop or duplicate leaves its
	// slot unused.
	adj := make([]V, arcs)
	var wts []float32
	if b.weighted {
		wts = make([]float32, arcs)
	}
	offsets, ok := scatter(n, evenBounds(items, workers(n, arcs)), func(lo, hi int, cnt []int64) bool {
		for edges := range span(parts, lo, hi) {
			for _, e := range edges {
				if uint32(e.U) >= uint32(n) || uint32(e.V) >= uint32(n) {
					return false
				}
				if e.U == e.V && !b.keepLoops {
					continue
				}
				cnt[e.U]++
				if b.undirected {
					cnt[e.V]++
				}
			}
		}
		return true
	}, func(lo, hi int, cur []int64) {
		put := func(u, v V, w float32) {
			c := cur[u]
			adj[c] = v
			if wts != nil {
				wts[c] = w
			}
			cur[u] = c + 1
		}
		for edges := range span(parts, lo, hi) {
			for _, e := range edges {
				if e.U == e.V && !b.keepLoops {
					continue
				}
				put(e.U, e.V, e.Weight)
				if b.undirected {
					put(e.V, e.U, e.Weight)
				}
			}
		}
	})
	if !ok {
		for _, edges := range parts {
			for _, e := range edges {
				if uint32(e.U) >= uint32(n) || uint32(e.V) >= uint32(n) {
					return nil, fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", e.U, e.V, n)
				}
			}
		}
	}
	// Sort each row and merge its duplicates, moving the rows down over
	// the slots they free. A strictly increasing row, the form every row
	// of a written edge list arrives in, is already what the sort would
	// make of it, and stays where it is until a row before it shrinks.
	var scratch []arc
	var lo, out int64
	for v := 1; v <= n; v++ {
		hi := offsets[v]
		row := adj[lo:hi]
		i := 1
		for i < len(row) && row[i-1] < row[i] {
			i++
		}
		if i >= len(row) && out == lo {
			out = hi
		} else {
			if i < len(row) {
				scratch = sortRow(row, wts, lo, scratch)
			}
			// Of duplicate arcs the first added is kept, the sort being
			// stable: both rows of an undirected edge listed twice keep
			// the same weight.
			for j := lo; j < hi; j++ {
				if !b.keepDupes && j > lo && adj[j-1] == adj[j] {
					continue
				}
				adj[out] = adj[j]
				if wts != nil {
					wts[out] = wts[j]
				}
				out++
			}
		}
		offsets[v] = out
		lo = hi
	}
	g := &CSR{NumV: V(n), Offsets: offsets, Adj: adj[:out]}
	if wts != nil {
		g.Weights = wts[:out]
	}
	return g, nil
}

// An arc is a row entry with its weight, as sortRow sorts it.
type arc struct {
	v V
	w float32
}

// sortRow sorts row, adj[lo:lo+len(row)], stably by endpoint, carrying
// the weights in wts alongside when there are any, and returns the
// scratch it sorted weighted arcs in, for the next row.
func sortRow(row []V, wts []float32, lo int64, scratch []arc) []arc {
	if wts == nil {
		slices.Sort(row)
		return scratch
	}
	ws := wts[lo : lo+int64(len(row))]
	scratch = scratch[:0]
	for i, v := range row {
		scratch = append(scratch, arc{v: v, w: ws[i]})
	}
	slices.SortStableFunc(scratch, func(a, b arc) int { return cmp.Compare(a.v, b.v) })
	for i, a := range scratch {
		row[i], ws[i] = a.v, a.w
	}
	return scratch
}

// span yields the runs of parts that hold items [lo, hi) of their
// concatenation, in order.
func span(parts [][]Edge, lo, hi int) iter.Seq[[]Edge] {
	return func(yield func([]Edge) bool) {
		for _, edges := range parts {
			if hi <= 0 {
				return
			}
			if lo < len(edges) && !yield(edges[max(lo, 0):min(hi, len(edges))]) {
				return
			}
			lo, hi = lo-len(edges), hi-len(edges)
		}
	}
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
