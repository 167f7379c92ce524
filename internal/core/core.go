// Package core defines the shared vocabulary of the push-pull library: the
// update Direction (the paper's central dichotomy, §3.8), run options
// shared by every algorithm, per-run statistics, and the switching policies
// behind the Generic-Switch and Greedy-Switch acceleration strategies (§5).
//
// The formal characterization reproduced from §3.8: an algorithm *pushes*
// iff some thread t modifies a vertex it does not own (∃ t, v: t ⤳ v ∧
// t ≠ t[v]); it *pulls* iff every thread modifies only its own vertices
// (∀ t, v: t ⤳ v ⇒ t = t[v]). Pulling therefore needs no atomics or locks
// on vertex state, while pushing may touch any vertex and must synchronize.
package core

import (
	"context"
	"fmt"
	"time"

	"pushpull/internal/counters"
)

// Direction selects whether updates are pushed to shared state or pulled
// into owned state.
type Direction int

const (
	// Push writes updates outward into vertices owned by other threads.
	Push Direction = iota
	// Pull reads neighbor state and updates only owned vertices.
	Pull
)

// String names the direction as the paper's figures do.
func (d Direction) String() string {
	switch d {
	case Push:
		return "Pushing"
	case Pull:
		return "Pulling"
	default:
		return fmt.Sprintf("Direction(%d)", int(d))
	}
}

// Options configures one algorithm run. The zero value is usable: all
// threads, no instrumentation.
type Options struct {
	// Threads is the worker count T (≤ 0 means GOMAXPROCS).
	Threads int
	// OnIteration, when set, receives the wall time of each completed
	// iteration — the hook behind the per-iteration series of Figures 1,
	// 2 and 4.
	OnIteration func(iter int, elapsed time.Duration)
	// Ctx, when non-nil, is polled between iterations (and between work
	// chunks of single-pass algorithms): once it is cancelled the run
	// stops early and returns its partial result with RunStats.Canceled
	// set. A nil Ctx never cancels.
	Ctx context.Context
}

// Canceled reports whether the run's context has been cancelled.
func (o Options) Canceled() bool {
	return o.Ctx != nil && o.Ctx.Err() != nil
}

// Tick invokes OnIteration if set.
func (o Options) Tick(iter int, elapsed time.Duration) {
	if o.OnIteration != nil {
		o.OnIteration(iter, elapsed)
	}
}

// Profile configures a profiled (instrumented) run: one probe per simulated
// thread. Profiled variants execute deterministically (threads in order, see
// sched.SequentialFor), so event counts and cache misses are reproducible.
type Profile struct {
	Threads int
	Probes  []counters.Probe
}

// Validate checks that the probe set matches the thread count.
func (p Profile) Validate() error {
	if p.Threads < 1 {
		return fmt.Errorf("core: profile threads = %d, want >= 1", p.Threads)
	}
	if len(p.Probes) != p.Threads {
		return fmt.Errorf("core: %d probes for %d threads", len(p.Probes), p.Threads)
	}
	for i, pr := range p.Probes {
		if pr == nil {
			return fmt.Errorf("core: probe %d is nil", i)
		}
	}
	return nil
}

// CountingProfile builds a Profile of t plain counting probes plus the
// recorders to aggregate afterwards.
func CountingProfile(t int) (Profile, *counters.Group) {
	g := counters.NewGroup(t)
	probes := make([]counters.Probe, t)
	for i := 0; i < t; i++ {
		probes[i] = &counters.CountProbe{Rec: g.Recorder(i)}
	}
	return Profile{Threads: t, Probes: probes}, g
}

// RunStats captures what one algorithm run did.
type RunStats struct {
	Direction    Direction
	Iterations   int
	Elapsed      time.Duration
	PerIteration []time.Duration
	// Canceled marks a run stopped early by Options.Ctx; the result the
	// run returned is partial.
	Canceled bool
	// CacheHit marks a report served from an engine's result cache: no
	// kernel ran, and Elapsed/PerIteration describe the original run.
	CacheHit bool
	// Coalesced marks a report served by single-flight deduplication: the
	// request arrived while an identical run was already executing and was
	// answered from that run's result without executing anything itself.
	// Elapsed/PerIteration describe the run it coalesced onto.
	Coalesced bool
	// QueueWait is how long the run waited in the engine's admission
	// queue before a worker slot freed up (0 when admitted immediately
	// or served from cache).
	QueueWait time.Duration
}

// AvgIteration returns the mean per-iteration time.
func (s RunStats) AvgIteration() time.Duration {
	if s.Iterations == 0 {
		return 0
	}
	return s.Elapsed / time.Duration(s.Iterations)
}

// Reserve pre-sizes the per-iteration log so steady-state Record calls
// append into existing capacity — part of the zero-allocation contract of
// the kernels' iteration loops.
func (s *RunStats) Reserve(n int) {
	if cap(s.PerIteration)-len(s.PerIteration) < n {
		grown := make([]time.Duration, len(s.PerIteration), len(s.PerIteration)+n)
		copy(grown, s.PerIteration)
		s.PerIteration = grown
	}
}

// Record appends an iteration timing.
func (s *RunStats) Record(d time.Duration) {
	s.Iterations++
	s.Elapsed += d
	s.PerIteration = append(s.PerIteration, d)
}

// SwitchPolicy decides when an adaptive algorithm should change direction
// or fall back to a sequential scheme. Progress is algorithm-specific (for
// graph coloring: vertices successfully colored this iteration) as is
// conflicts (vertices that must be recolored).
type SwitchPolicy interface {
	// Decide returns the action to take before iteration iter, given the
	// previous iteration's progress and conflict counts and the remaining
	// work estimate.
	Decide(iter int, progress, conflicts, remaining int) Action
}

// Action is a switch decision.
type Action int

const (
	// Stay keeps the current direction.
	Stay Action = iota
	// SwitchDirection flips push↔pull (Generic-Switch, §5).
	SwitchDirection
	// GoSequential abandons parallelism for an optimized sequential scheme
	// (Greedy-Switch, §5).
	GoSequential
)

// String names the action.
func (a Action) String() string {
	switch a {
	case Stay:
		return "stay"
	case SwitchDirection:
		return "switch-direction"
	case GoSequential:
		return "go-sequential"
	default:
		return fmt.Sprintf("Action(%d)", int(a))
	}
}

// GenericSwitch implements the paper's Generic-Switch strategy: flip
// direction when the ratio of progress to conflicts drops below Threshold
// (conflicts dominate ⇒ the current direction is thrashing). It switches at
// most once.
type GenericSwitch struct {
	Threshold float64
	switched  bool
}

// Decide implements SwitchPolicy.
func (g *GenericSwitch) Decide(iter int, progress, conflicts, remaining int) Action {
	if g.switched || iter == 0 || conflicts == 0 {
		return Stay
	}
	if float64(progress)/float64(conflicts) < g.Threshold {
		g.switched = true
		return SwitchDirection
	}
	return Stay
}

// GreedySwitch implements the paper's Greedy-Switch strategy: once the
// remaining work drops below Fraction of the total (the paper observes
// < 0.1·n remaining vertices makes parallel coloring thrash), abandon the
// parallel scheme entirely for an optimized sequential one. Total is the
// work the Fraction is taken of; a policy with Total <= 0 never switches,
// so a kernel caller must set it. The public facade fills a Total <= 0
// with the graph's vertex count.
type GreedySwitch struct {
	Fraction float64
	Total    int
}

// Decide implements SwitchPolicy.
func (g *GreedySwitch) Decide(iter int, progress, conflicts, remaining int) Action {
	if g.Total <= 0 {
		return Stay
	}
	if float64(remaining) < g.Fraction*float64(g.Total) {
		return GoSequential
	}
	return Stay
}

// NeverSwitch is the identity policy (plain push or pull).
type NeverSwitch struct{}

// Decide implements SwitchPolicy.
func (NeverSwitch) Decide(int, int, int, int) Action { return Stay }
