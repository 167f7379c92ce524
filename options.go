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
	// Switch, when set, is the adaptive policy (GenericSwitch /
	// GreedySwitch) steering direction changes or sequential fallback.
	Switch SwitchPolicy
	// Probes enables deterministic instrumented execution: the run's
	// memory events are aggregated into Report.Counters. Every built-in
	// algorithm has an instrumented variant (Caps.Probes); a run of an
	// algorithm without one, or on a file handle, fails with
	// ErrProbesUnsupported.
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
	// DegreeSorted requests the degree relabelling (WithDegreeSorted):
	// kernels run on the workload's memoized relabelled views and the
	// report is un-permuted at the run boundary.
	DegreeSorted bool
}

// Option configures one Run call.
type Option func(*Config)

// WithDirection pins the update direction (Push, Pull) or restores the
// default Auto.
func WithDirection(d Direction) Option { return func(c *Config) { c.Direction = d } }

// WithThreads sets the worker count T (0 means GOMAXPROCS; a negative
// count fails the run with ErrBadOption).
func WithThreads(t int) Option { return func(c *Config) { c.Threads = t } }

// WithSwitchPolicy installs an adaptive switching policy: a
// *GenericSwitch flips push↔pull when conflicts dominate progress, a
// *GreedySwitch abandons parallelism for the optimized sequential scheme
// on the small remainder (§5). The built-in policies are safe to reuse
// across Run calls (the engine re-instantiates them per run); a custom
// stateful policy must be treated as single-use and single-goroutine.
func WithSwitchPolicy(p SwitchPolicy) Option { return func(c *Config) { c.Switch = p } }

// WithProbes runs the deterministic instrumented variant and aggregates
// its event counts into Report.Counters. Every registry algorithm
// supports it on an in-memory workload (a file handle's block kernels
// are uninstrumented: ErrProbesUnsupported); instrumented passes always
// run to completion (they never poll ctx).
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

// WithDelta sets the Δ-stepping bucket width (0 = heuristic). A negative
// or non-finite Δ fails at Run entry with ErrBadOption, and so does an
// sssp run whose Δ is too small for the graph's distances: a bucket index
// past n + M stops it.
func WithDelta(d float64) Option { return func(c *Config) { c.Delta = d } }

// WithMaxIters bounds conflict-resolution iterations (gc's L).
func WithMaxIters(n int) Option { return func(c *Config) { c.MaxIters = n } }

// WithDegreeSorted runs the kernels in the workload's degree relabelling:
// vertex ids are renumbered by descending degree, which concentrates the
// hot (high-degree) rows at the front of every array. The handle computes
// the relabelling once; a pr pull, probed or not, reads its
// degree-ordered pull view, the one an Engine's served handles pull
// through, and every other run its degree-sorted CSR. The payload is
// un-permuted at the run boundary, back to the graph's own ids: pr pull
// ranks equal the plain run's bit for bit, and a coloring stays proper,
// though iteration order may pick other colors than a plain run's.
func WithDegreeSorted() Option { return func(c *Config) { c.DegreeSorted = true } }

// ---- helpers for algorithm adapters ----

// coreOptions lowers the shared fields into the internal option struct,
// carrying the cancellation context into the per-iteration loops.
func (c *Config) coreOptions(ctx context.Context) core.Options {
	return core.Options{Threads: c.Threads, OnIteration: c.Hook, Ctx: ctx}
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
// parameters. n is the workload's vertex count: a GreedySwitch without a
// Total runs with n, so it renders as n and shares the explicit run's key.
func (c *Config) fingerprint(n int) (fp string, ok bool) {
	if c.Hook != nil || c.Probes {
		return "", false
	}
	sw := "-"
	switch p := c.Switch.(type) {
	case nil:
	case *core.GenericSwitch:
		sw = fmt.Sprintf("gs(%g)", p.Threshold)
	case *core.GreedySwitch:
		total := p.Total
		if total <= 0 {
			total = n
		}
		sw = fmt.Sprintf("grs(%g,%d)", p.Fraction, total)
	case core.NeverSwitch, *core.NeverSwitch:
		sw = "never"
	default:
		return "", false
	}
	var b strings.Builder
	fmt.Fprintf(&b, "dir=%d;t=%d;sw=%s;src=%d;iters=%d;damp=",
		c.Direction, c.Threads, sw, c.Source, c.Iterations)
	if c.DampingSet {
		fmt.Fprintf(&b, "%g", c.Damping)
	} else {
		b.WriteByte('-')
	}
	fmt.Fprintf(&b, ";delta=%g;maxit=%d;ds=%t;srcs=",
		c.Delta, c.MaxIters, c.DegreeSorted)
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
