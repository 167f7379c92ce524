// Package pushpull is the public engine facade of the push/pull graph-
// computation library, the reproduction of "To Push or To Pull: On
// Reducing Communication and Synchronization in Graph Computations"
// (HPDC'17).
//
// The paper's central claim is that push vs. pull is one dichotomy
// cutting across all iterative graph algorithms (§3.8). This package
// makes that uniform at the API level: every algorithm — PageRank,
// BFS, Δ-stepping SSSP, Boman coloring, triangle counting, betweenness
// centrality, Borůvka MST — runs through one entrypoint with direction,
// switching policy, scheduling and instrumentation as run options:
//
//	g, _ := pushpull.RMAT(pushpull.DefaultRMAT(12, 8, 1))
//	rep, err := pushpull.Run(ctx, g, "pr",
//		pushpull.WithDirection(pushpull.Pull),
//		pushpull.WithIterations(20))
//	ranks := rep.Ranks()
//
// Graph kind is first-class: Run accepts a bare *Graph (undirected) or
// a *Workload handle (NewWorkload, Directed, Weighted, Partitioned)
// declaring directedness, weights and partitioning. The handle lazily
// builds and memoizes the derived views repeated runs share — the
// transpose behind directed pull (§4.8), the Partition-Awareness split
// (§5), the Table 2 statistics — and every algorithm declares Caps()
// the engine validates up front, returning typed precondition errors
// (ErrNeedsWeights, ErrDirectedUnsupported, ...) before a worker starts:
//
//	w := pushpull.Directed(g) // g's rows are out-edges
//	rep, err := pushpull.Run(ctx, w, "pr",
//		pushpull.WithDirection(pushpull.Pull)) // gathers along w.Transpose()
//
// Runs are abortable: cancel ctx and the engine stops between
// iterations, returning the partial Report with Stats.Canceled set and
// the context's error. Instrumented runs (WithProbes) are the
// exception: they are deterministic measurement passes and always run
// to completion. Every shared-memory algorithm has an instrumented
// variant, so WithProbes works registry-wide.
//
// The §6.3 distributed simulations are registry algorithms too
// (dist-pr-push-rma, dist-pr-pull-rma, dist-pr-mp, dist-tc-push-rma,
// dist-tc-pull-rma, dist-tc-mp): they run on a simulated cluster of
// WithRanks(P) ranks and report the simulated makespan as Stats.Elapsed
// with the remote-operation counters attached.
package pushpull

import (
	"context"
	"fmt"
	"strings"

	"pushpull/internal/core"
)

// Report is the uniform result of one engine run: the algorithm's
// payload, timing statistics, the per-iteration direction trace, and —
// for instrumented runs — the aggregated event counters.
type Report struct {
	// Algorithm is the registry name the run resolved to.
	Algorithm string
	// Result is the algorithm payload: []float64 for pr, []int64 for tc,
	// *BFSTree, *SSSPResult, *ColoringResult, *BCResult, or *MSTResult.
	Result any
	// Stats carries direction, iteration count, per-iteration timings,
	// and the Canceled flag for context-aborted runs.
	Stats RunStats
	// Directions records the direction of every iteration — uniform for
	// fixed-direction runs, per-round for the switching traversals.
	Directions []Direction
	// Counters holds the aggregated event counts of an instrumented run
	// (WithProbes); nil otherwise.
	Counters *CounterReport

	// memo is the Engine result-cache entry's slot for a derived payload
	// encoding (see Encoding); nil on every report that is not a cache hit.
	memo *encodingMemo
}

// Ranks returns the payload as a float vector (pr ranks, bc scores,
// sssp distances, gathered dist-pr values), or nil when the payload has
// another shape.
func (r *Report) Ranks() []float64 {
	switch v := r.Result.(type) {
	case []float64:
		return v
	case *SSSPResult:
		return v.Dist
	case *BCResult:
		return v.BC
	case *DistResult:
		return v.Values
	default:
		return nil
	}
}

// Counts returns the payload as an integer count vector (tc, dist-tc),
// or nil.
func (r *Report) Counts() []int64 {
	switch v := r.Result.(type) {
	case []int64:
		return v
	case *DistResult:
		return v.Counts
	default:
		return nil
	}
}

// Colors returns the coloring payload (gc), or nil.
func (r *Report) Colors() []int32 {
	if v, ok := r.Result.(*ColoringResult); ok {
		return v.Colors
	}
	return nil
}

// Tree returns the traversal payload (bfs), or nil.
func (r *Report) Tree() *BFSTree {
	v, _ := r.Result.(*BFSTree)
	return v
}

// payloadBytes is what a result-cache entry holding r is charged when it
// is stored: the bytes of the slices behind the payload, the direction
// trace and the per-iteration timings. Struct headers are not counted, and
// a payload shape this package does not know (a third-party registered
// algorithm's) weighs nothing here — the entry cap still bounds those.
func (r *Report) payloadBytes() int64 {
	n := 8*(len(r.Ranks())+len(r.Counts())+len(r.Directions)+len(r.Stats.PerIteration)) + 4*len(r.Colors())
	if t := r.Tree(); t != nil {
		n += 4 * (len(t.Parent) + len(t.Level))
	}
	if m, ok := r.Result.(*MSTResult); ok {
		n += 12 * len(m.Edges) // two int32 endpoints and a float32 weight
	}
	return int64(n)
}

// Summary renders a one-line human-readable digest of the run.
func (r *Report) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %d iterations in %v (%s)", r.Algorithm,
		r.Stats.Iterations, r.Stats.Elapsed, r.directionDigest())
	if r.Stats.Canceled {
		b.WriteString(" [canceled: partial result]")
	}
	return b.String()
}

// directionDigest compresses the direction trace ("push", "pull", or
// e.g. "push×3, pull×9" for switching runs).
func (r *Report) directionDigest() string {
	var push, pull int
	for _, d := range r.Directions {
		if d == Pull {
			pull++
		} else {
			push++
		}
	}
	switch {
	case push > 0 && pull > 0:
		return fmt.Sprintf("push×%d, pull×%d", push, pull)
	case pull > 0:
		return "pull"
	case push > 0:
		return "push"
	default:
		return dirFromCore(r.Stats.Direction).String()
	}
}

// uniformTrace builds the direction trace of a fixed-direction run.
func uniformTrace(d core.Direction, iters int) []Direction {
	out := make([]Direction, iters)
	for i := range out {
		out[i] = dirFromCore(d)
	}
	return out
}

// Run executes the named algorithm on a Runnable — a bare *Graph
// (auto-wrapped into an undirected single-use Workload) or a *Workload
// handle declaring the graph kind — and returns its Report.
//
// Direction, thread count, schedule, switching policy, instrumentation
// and the per-algorithm knobs are all Options; see the With* functions.
// Before anything runs, the graph is checked (ErrMalformedGraph names
// a CSR fault; a graph that passed once is not scanned again, and must
// not change after), the options are range-checked (ErrBadOption for
// negative WithThreads/WithPartitions/WithRanks and a negative or
// non-finite WithDelta) and the algorithm's Caps are validated against the
// workload and options, so unsupported combinations fail fast with one of
// the typed precondition errors (ErrNeedsWeights, ErrDirectedUnsupported,
// ErrProbesUnsupported, ...) instead of deep in a kernel. When ctx is
// cancelled mid-run the engine stops between iterations and returns the
// partial Report together with ctx's error — callers that care about
// partial results must check the Report even on error.
//
// Run is a thin call on the lazily-initialized DefaultEngine, which is
// unbounded and uncached so every call executes its kernels for real. A
// serving layer that wants admission control and result caching builds
// its own Engine (NewEngine) and calls Engine.Run.
func Run(ctx context.Context, on Runnable, algorithm string, opts ...Option) (*Report, error) {
	return DefaultEngine().Run(ctx, on, algorithm, opts...)
}
