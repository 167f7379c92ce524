package pushpull

import (
	"context"
	"fmt"
	"strings"
	"time"

	"pushpull/internal/core"
	"pushpull/internal/sched"
)

// Direction selects the update direction of a run — the paper's central
// dichotomy, lifted to a run parameter instead of a per-package function
// choice. Auto lets the algorithm pick (or switch per iteration, for the
// traversal algorithms that support direction optimization).
type Direction int

const (
	// Auto lets the engine choose: direction-optimizing switching where
	// the algorithm supports it (bfs, sssp), otherwise the direction the
	// paper reports as the sane default for that algorithm.
	Auto Direction = iota
	// Push writes updates outward into vertices owned by other threads.
	Push
	// Pull reads neighbor state and updates only owned vertices.
	Pull
)

// String names the direction.
func (d Direction) String() string {
	switch d {
	case Auto:
		return "auto"
	case Push:
		return "push"
	case Pull:
		return "pull"
	default:
		return fmt.Sprintf("Direction(%d)", int(d))
	}
}

// dirFromCore lifts an internal direction into the public one.
func dirFromCore(d core.Direction) Direction {
	if d == core.Pull {
		return Pull
	}
	return Push
}

// Config is the resolved option set an Algorithm.Run receives. Zero
// values mean "algorithm default" throughout. Callers normally never
// build one directly — Run assembles it from functional options — but
// externally registered algorithms read it.
type Config struct {
	// Direction is the requested update direction (Auto, Push, Pull).
	Direction Direction
	// Threads is the worker count T (0: GOMAXPROCS; negative values are
	// rejected at Run entry with ErrBadOption).
	Threads int
	// Schedule picks the parallel-loop schedule (Static, Dynamic).
	Schedule Schedule
	// Switch, when set, is the adaptive policy (GenericSwitch /
	// GreedySwitch) steering direction changes or sequential fallback.
	Switch SwitchPolicy
	// Probes enables deterministic instrumented execution: the run's
	// memory events are aggregated into Report.Counters. Every shared-
	// memory registry algorithm has an instrumented variant; the dist-*
	// algorithms record their remote-operation counters unconditionally.
	Probes bool
	// Hook receives the wall time of every completed iteration.
	Hook func(iter int, elapsed time.Duration)
	// Source is the root/source vertex for traversal algorithms.
	Source V
	// Sources lists source vertices for multi-source algorithms (bc);
	// nil means all vertices.
	Sources []V
	// Iterations bounds iteration-count algorithms (pr); 0 = default.
	Iterations int
	// Damping is the PageRank damp factor when DampingSet is true;
	// otherwise the algorithm default (pr.DefaultDamping) applies.
	Damping    float64
	DampingSet bool
	// Delta is the Δ-stepping bucket width; 0 = heuristic.
	Delta float64
	// MaxIters bounds conflict-resolution iterations (gc); 0 = default.
	MaxIters int
	// Partitions is the partition count for partition-based algorithms
	// (gc, partition-aware pr/tc); 0 = the resolved thread count; negative
	// values are rejected at Run entry with ErrBadOption.
	Partitions int
	// PartitionAware requests the Partition-Awareness acceleration
	// (§5, Algorithm 8) for push-direction pr and tc.
	PartitionAware bool
	// Ranks is the simulated cluster size P for the dist-* algorithms
	// (0: Threads if set, else DefaultDistRanks; negative values are
	// rejected at Run entry with ErrBadOption). Shared-memory algorithms
	// ignore it.
	Ranks int
	// DegreeSorted requests the degree-sorted CSR layout: kernels run on
	// the workload's memoized degree-permuted graph and the report is
	// un-permuted at the boundary.
	DegreeSorted bool
	// OutOfCore requests the block-sequential out-of-core kernels: the run
	// streams adjacency from the workload's memoized block file instead of
	// in-memory arrays. A pure file handle is out-of-core by construction,
	// with or without the option.
	OutOfCore bool
}

// Option configures one Run call.
type Option func(*Config)

// WithDirection pins the update direction (Push, Pull) or restores the
// default Auto.
func WithDirection(d Direction) Option { return func(c *Config) { c.Direction = d } }

// WithThreads sets the worker count T (0 means GOMAXPROCS; a negative
// count fails the run with ErrBadOption).
func WithThreads(t int) Option { return func(c *Config) { c.Threads = t } }

// WithSchedule picks the parallel-loop schedule (Static or Dynamic).
func WithSchedule(s Schedule) Option { return func(c *Config) { c.Schedule = s } }

// WithSwitchPolicy installs an adaptive switching policy: a
// *GenericSwitch flips push↔pull when conflicts dominate progress, a
// *GreedySwitch abandons parallelism for the optimized sequential scheme
// on the small remainder (§5). The built-in policies are safe to reuse
// across Run calls (the engine re-instantiates them per run); a custom
// stateful policy must be treated as single-use and single-goroutine.
func WithSwitchPolicy(p SwitchPolicy) Option { return func(c *Config) { c.Switch = p } }

// WithProbes runs the deterministic instrumented variant and aggregates
// its event counts into Report.Counters. Every shared-memory registry
// algorithm supports it; instrumented passes always run to completion
// (they never poll ctx). The dist-* algorithms attach their counters
// whether or not probes are requested.
func WithProbes() Option { return func(c *Config) { c.Probes = true } }

// WithIterationHook receives each completed iteration's wall time — the
// hook behind the paper's per-iteration series.
func WithIterationHook(h func(iter int, elapsed time.Duration)) Option {
	return func(c *Config) { c.Hook = h }
}

// WithSource sets the root/source vertex for traversal algorithms.
func WithSource(v V) Option { return func(c *Config) { c.Source = v } }

// WithSources sets the source set for multi-source algorithms (bc).
func WithSources(vs []V) Option { return func(c *Config) { c.Sources = vs } }

// WithIterations bounds iteration-count algorithms (pr's L).
func WithIterations(n int) Option { return func(c *Config) { c.Iterations = n } }

// WithDamping pins the PageRank damp factor explicitly — including zero,
// which the default-detection can otherwise not distinguish.
func WithDamping(f float64) Option {
	return func(c *Config) { c.Damping, c.DampingSet = f, true }
}

// WithDelta sets the Δ-stepping bucket width (0 = heuristic).
func WithDelta(d float64) Option { return func(c *Config) { c.Delta = d } }

// WithMaxIters bounds conflict-resolution iterations (gc's L).
func WithMaxIters(n int) Option { return func(c *Config) { c.MaxIters = n } }

// WithPartitions sets the partition count for partition-based runs.
func WithPartitions(p int) Option { return func(c *Config) { c.Partitions = p } }

// WithPartitionAwareness enables the Partition-Awareness acceleration
// (§5) for push-direction pr and tc. pr's push kernel always runs it, so
// there the option only implies pushing, and under WithProbes it bills
// Algorithm 8 over the workload's memoized split instead of Algorithm 1.
func WithPartitionAwareness() Option { return func(c *Config) { c.PartitionAware = true } }

// WithRanks sets the simulated cluster size P for the dist-* algorithms.
func WithRanks(p int) Option { return func(c *Config) { c.Ranks = p } }

// WithDegreeSorted runs the kernels over the workload's memoized
// degree-sorted CSR permutation: vertex ids are renumbered by descending
// degree, which concentrates the hot (high-degree) rows at the front of
// every array. The report is un-permuted at the boundary, so the payload
// is identical to a plain-layout run.
func WithDegreeSorted() Option { return func(c *Config) { c.DegreeSorted = true } }

// WithOutOfCore runs the block-sequential out-of-core kernels: the
// pull-view adjacency streams from the workload's memoized block file
// (mmap-backed, or bounded buffers under AsBlockBuffered) in storage
// order, so the O(m) edge data never needs to be resident — only the
// O(n) vertex state does. Applies to algorithms whose Caps declare
// OutOfCore (pr, bfs); runs are forced to the pull direction (an
// explicit Push fails with ErrBadOption) and payloads are identical to
// in-memory runs up to the usual floating-point reassociation.
func WithOutOfCore() Option { return func(c *Config) { c.OutOfCore = true } }

// ---- helpers for algorithm adapters ----

// coreOptions lowers the shared fields into the internal option struct,
// carrying the cancellation context into the per-iteration loops.
func (c *Config) coreOptions(ctx context.Context) core.Options {
	return core.Options{Threads: c.Threads, Schedule: c.Schedule, OnIteration: c.Hook, Ctx: ctx}
}

// resolveDir maps the requested direction onto an internal one, using
// def when the caller left Auto.
func (c *Config) resolveDir(def core.Direction) core.Direction {
	switch c.Direction {
	case Push:
		return core.Push
	case Pull:
		return core.Pull
	default:
		return def
	}
}

// effectiveThreads resolves Threads against the runtime, capped by n.
func (c *Config) effectiveThreads(n int) int {
	if n < 1 {
		n = 1
	}
	return sched.Clamp(c.Threads, n)
}

// partitions resolves the partition count: an explicit WithPartitions
// wins, then the workload's AsPartitioned default, then the effective
// thread count.
func (c *Config) partitions(w *Workload) int {
	if c.Partitions > 0 {
		return c.Partitions
	}
	if p := w.DefaultPartitions(); p > 0 {
		return p
	}
	return c.effectiveThreads(w.N())
}

// fingerprint renders the configuration as a deterministic, canonical
// string — the options component of an Engine's result-cache key, reused
// verbatim as the single-flight dedup key (two concurrent requests
// coalesce exactly when a completed one could have answered the other
// from cache). Two configs produce the same fingerprint exactly when an
// identical run would compute the same report, so every result-shaping
// knob is folded in with a fixed field order.
//
// It returns ok=false for configs that must never be served from cache
// (and so never coalesce either):
// an iteration hook observes live per-iteration timings, probes produce
// a measurement pass the caller wants re-executed, and custom switch
// policies carry pointer-identified mutable state no canonical encoding
// can capture. The built-in policies (GenericSwitch, GreedySwitch,
// NeverSwitch) are value-parameterized and fingerprint by those
// parameters.
func (c *Config) fingerprint() (fp string, ok bool) {
	if c.Hook != nil || c.Probes {
		return "", false
	}
	sw := "-"
	switch p := c.Switch.(type) {
	case nil:
	case *core.GenericSwitch:
		sw = fmt.Sprintf("gs(%g)", p.Threshold)
	case *core.GreedySwitch:
		sw = fmt.Sprintf("grs(%g,%d)", p.Fraction, p.Total)
	case core.NeverSwitch, *core.NeverSwitch:
		sw = "never"
	default:
		return "", false
	}
	var b strings.Builder
	fmt.Fprintf(&b, "dir=%d;t=%d;sched=%d;sw=%s;src=%d;iters=%d;damp=",
		c.Direction, c.Threads, c.Schedule, sw, c.Source, c.Iterations)
	if c.DampingSet {
		fmt.Fprintf(&b, "%g", c.Damping)
	} else {
		b.WriteByte('-')
	}
	fmt.Fprintf(&b, ";delta=%g;maxit=%d;parts=%d;pa=%t;ranks=%d;ds=%t;ooc=%t;srcs=",
		c.Delta, c.MaxIters, c.Partitions, c.PartitionAware, c.Ranks,
		c.DegreeSorted, c.OutOfCore)
	// nil and empty Sources are distinct configurations (bc: all
	// vertices vs zero sources) and must not share a key.
	if c.Sources == nil {
		b.WriteByte('-')
	}
	for _, s := range c.Sources {
		fmt.Fprintf(&b, "%d,", s)
	}
	return b.String(), true
}
