package pushpull

// Public re-exports of the library's vocabulary types and graph-building
// surface. The implementation lives under internal/; these aliases are
// the supported way for external callers to name those types, build
// workloads, and read results without reaching into internal packages.

import (
	"io"

	"pushpull/internal/algo/bc"
	"pushpull/internal/algo/bfs"
	"pushpull/internal/algo/gc"
	"pushpull/internal/algo/mst"
	"pushpull/internal/algo/sssp"
	"pushpull/internal/algo/tc"
	"pushpull/internal/core"
	"pushpull/internal/counters"
	"pushpull/internal/gen"
	"pushpull/internal/graph"
	"pushpull/internal/sched"
)

// Core vocabulary.
type (
	// Graph is the CSR adjacency structure every algorithm consumes.
	Graph = graph.CSR
	// V is a vertex id.
	V = graph.V
	// Edge is one (possibly weighted) edge.
	Edge = graph.Edge
	// Builder accumulates edges and produces a Graph.
	Builder = graph.Builder
	// Partition is a 1D block partition of the vertex set over threads.
	Partition = graph.Partition
	// PAGraph is a Graph with the Partition-Awareness local/remote
	// adjacency split (§5, Algorithm 8).
	PAGraph = graph.PAGraph
	// DegreeSortedView is a Graph permuted by descending degree with the
	// permutation and its inverse (WithDegreeSorted).
	DegreeSortedView = graph.DegreeSorted
	// GraphStats carries the Table 2 statistics (n, m, d̄, d̂, D, ...).
	GraphStats = graph.Stats
	// RunStats captures what one run did: direction, iteration count and
	// timings, and whether the run was cancelled mid-way.
	RunStats = core.RunStats
	// Schedule selects the parallel-loop schedule.
	Schedule = sched.Schedule
	// SwitchPolicy decides when an adaptive run changes direction or
	// falls back to a sequential scheme.
	SwitchPolicy = core.SwitchPolicy
	// GenericSwitch flips push↔pull when conflicts dominate (§5).
	GenericSwitch = core.GenericSwitch
	// GreedySwitch falls back to the optimized sequential scheme once
	// fewer than Fraction·Total vertices remain uncolored (§5). Run fills
	// a Total <= 0 with the graph's vertex count, so
	// &GreedySwitch{Fraction: 0.1} is the paper's 0.1·n rule.
	GreedySwitch = core.GreedySwitch
	// NeverSwitch is the identity policy.
	NeverSwitch = core.NeverSwitch
	// CounterReport aggregates instrumented-run event counts.
	CounterReport = counters.Report
	// CounterEvent identifies one counted event class.
	CounterEvent = counters.Event
	// RMATParams parameterizes the RMAT generator.
	RMATParams = gen.RMATParams
	// SuiteGraph describes one workload of the Table 2 stand-in suite.
	SuiteGraph = gen.SuiteGraph
)

// Loop schedules.
const (
	// Static divides the index range into contiguous per-worker blocks.
	Static = sched.Static
	// Dynamic hands out chunks from a shared cursor (skew-balancing).
	Dynamic = sched.Dynamic
)

// Counter events readable from a CounterReport.
const (
	Atomics       = counters.Atomics
	Locks         = counters.Locks
	Reads         = counters.Reads
	Writes        = counters.Writes
	Messages      = counters.Messages
	RemoteReads   = counters.RemoteReads
	RemoteWrites  = counters.RemoteWrites
	RemoteAtomics = counters.RemoteAtomics
)

// Algorithm result payloads (Report.Result concrete types).
type (
	// BFSTree is the bfs payload: parent and level per vertex.
	BFSTree = bfs.Tree
	// SSSPResult is the sssp payload: distances and epoch/inner counts.
	SSSPResult = sssp.Result
	// ColoringResult is the gc payload: colors and iteration count.
	ColoringResult = gc.Result
	// BCResult is the bc payload: centrality scores and phase timings.
	BCResult = bc.Result
	// MSTResult is the mst payload: tree edges, weight, phase timings.
	MSTResult = mst.Result
)

// ---- graph construction ----

// NewBuilder returns an edge accumulator over n vertices (undirected,
// deduplicated by default; see Builder's modifiers).
func NewBuilder(n int) *Builder { return graph.NewBuilder(n) }

// NewPartition block-partitions n vertices over p owners.
func NewPartition(n, p int) Partition { return graph.NewPartition(n, p) }

// ComputeStats derives the Table 2 statistics of a graph.
func ComputeStats(g *Graph) GraphStats { return graph.ComputeStats(g) }

// WriteEdgeList writes g as a portable edge list. The header records the
// graph kind — directedness (detected with a weight-aware symmetry check)
// and weights — so directed and weighted graphs survive the round trip
// through ReadEdgeList. For a Workload, WriteWorkload skips the detection
// and uses the declared kind.
func WriteEdgeList(w io.Writer, g *Graph) error { return graph.WriteEdgeList(w, g) }

// ReadEdgeList parses an edge list written by WriteEdgeList, restoring
// the recorded directedness and weights; ReadWorkload additionally lifts
// the kind into a Workload handle.
func ReadEdgeList(r io.Reader) (*Graph, error) { return graph.ReadEdgeList(r) }

// ---- workload generators ----

// DefaultRMAT returns the standard RMAT parameterization.
func DefaultRMAT(scale, edgeFactor int, seed uint64) RMATParams {
	return gen.DefaultRMAT(scale, edgeFactor, seed)
}

// RMAT generates a power-law RMAT graph.
func RMAT(p RMATParams) (*Graph, error) { return gen.RMAT(p) }

// ErdosRenyi generates a uniform random graph with the given mean degree.
func ErdosRenyi(n int, avgDeg float64, seed uint64) (*Graph, error) {
	return gen.ErdosRenyi(n, avgDeg, seed)
}

// RoadGrid generates a road-network-like grid with missing segments.
func RoadGrid(rows, cols int, keep float64, seed uint64) (*Graph, error) {
	return gen.RoadGrid(rows, cols, keep, seed)
}

// Community generates a planted-community social graph.
func Community(n, c int, dIn, dOut float64, seed uint64) (*Graph, error) {
	return gen.Community(n, c, dIn, dOut, seed)
}

// PrefAttach generates a preferential-attachment graph.
func PrefAttach(n, k int, seed uint64) (*Graph, error) { return gen.PrefAttach(n, k, seed) }

// WithUniformWeights attaches uniform edge weights in [lo, hi).
func WithUniformWeights(g *Graph, lo, hi float32, seed uint64) *Graph {
	return gen.WithUniformWeights(g, lo, hi, seed)
}

// NamedGraph builds one of the Table 2 stand-in suite graphs by id
// (orc, pok, ljn, am, rca, rmat, er).
func NamedGraph(name string, scale float64, seed uint64) (*Graph, error) {
	return gen.Named(name, scale, seed)
}

// NamedWeightedGraph is NamedGraph with uniform edge weights attached.
func NamedWeightedGraph(name string, scale float64, seed uint64) (*Graph, error) {
	return gen.NamedWeighted(name, scale, seed)
}

// SuiteGraphs describes every suite workload.
func SuiteGraphs() []SuiteGraph { return gen.Suite() }

// ---- result helpers ----

// Human formats a count in the paper's human-readable style (1.2M, ...).
func Human(n int64) string { return counters.Human(n) }

// MaxDiff returns the largest absolute element difference between two
// float vectors, treating a pair of +Inf values (unreached vertices) as
// equal — the cross-validation metric used throughout.
func MaxDiff(a, b []float64) float64 { return sssp.MaxDiff(a, b) }

// SumFloats returns Σaᵢ (e.g. total rank mass, ≈1 for PageRank).
func SumFloats(a []float64) float64 {
	s := 0.0
	for _, v := range a {
		s += v
	}
	return s
}

// EqualCounts reports whether two count vectors match exactly.
func EqualCounts(a, b []int64) bool { return tc.Equal(a, b) }

// TriangleTotal returns the number of distinct triangles from per-vertex
// counts: Σ tc(v) / 3.
func TriangleTotal(counts []int64) int64 { return tc.Total(counts) }

// ValidateColoring errors on an uncolored vertex or monochromatic edge.
func ValidateColoring(g *Graph, colors []int32) error { return gc.Validate(g, colors) }

// CountColors returns the number of distinct colors used.
func CountColors(colors []int32) int { return gc.CountColors(colors) }
