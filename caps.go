package pushpull

// Capability declarations and the uniform precondition errors of the
// engine. Every Algorithm declares up front what it needs from a workload
// (weights, a source) and what kinds it supports (directed graphs,
// instrumented probes, layouts); Run validates the declared
// capabilities against the resolved Workload and Config before any
// goroutine spawns, so an unsupported combination fails with one typed
// error instead of an ad-hoc failure deep inside a kernel.

import (
	"errors"
	"fmt"
	"math"
)

// Caps declares what an algorithm needs and supports. The zero value is
// the most restrictive declaration: no weights consumed, no source, no
// directed graphs, no probes, no layouts beyond the plain CSR.
type Caps struct {
	// NeedsWeights marks algorithms that are meaningless without edge
	// weights (sssp, mst): Run fails with ErrNeedsWeights on an
	// unweighted workload.
	NeedsWeights bool
	// NeedsSource marks algorithms consuming WithSource/WithSources
	// (bfs, sssp, bc); the engine range-checks the configured sources
	// against the workload (ErrBadSource) before the algorithm runs.
	NeedsSource bool
	// Directed marks algorithms that run on directed workloads; others
	// fail with ErrDirectedUnsupported.
	Directed bool
	// Probes marks algorithms with a deterministic instrumented variant
	// (WithProbes); others fail with ErrProbesUnsupported.
	Probes bool
	// DegreeSort marks algorithms that can run over the degree-sorted CSR
	// permutation (WithDegreeSorted), un-permuting their report at the
	// boundary; WithDegreeSorted on others fails with
	// ErrDegreeSortUnsupported.
	DegreeSort bool
	// OutOfCore marks algorithms with block-sequential kernels that run on
	// a file handle (OpenOutOfCoreWorkload, or a DiskStore graph above its
	// block threshold). Any run of an unsupporting algorithm on a file
	// handle fails with ErrOutOfCoreUnsupported — there is no in-memory
	// graph to fall back to.
	OutOfCore bool
}

// String renders the capability set as a compact tag list.
func (c Caps) String() string {
	out := ""
	add := func(on bool, tag string) {
		if on {
			if out != "" {
				out += ","
			}
			out += tag
		}
	}
	add(c.NeedsWeights, "needs-weights")
	add(c.NeedsSource, "needs-source")
	add(c.Directed, "directed")
	add(c.Probes, "probes")
	add(c.DegreeSort, "degree-sort")
	add(c.OutOfCore, "out-of-core")
	if out == "" {
		return "-"
	}
	return out
}

// The uniform precondition errors. Run wraps them with the algorithm and
// workload context, so match with errors.Is.
var (
	// ErrNeedsWeights: the algorithm requires edge weights the workload
	// does not carry (or a Weighted workload was built over an unweighted
	// graph), or the workload carries a weight outside the algorithm's
	// domain (sssp: a negative or NaN weight).
	ErrNeedsWeights = errors.New("workload carries no usable edge weights")
	// ErrDirectedUnsupported: the algorithm does not run on directed
	// workloads.
	ErrDirectedUnsupported = errors.New("directed workloads unsupported")
	// ErrProbesUnsupported: the algorithm has no instrumented variant.
	ErrProbesUnsupported = errors.New("instrumented (WithProbes) runs unsupported")
	// ErrDegreeSortUnsupported: the algorithm cannot run over the
	// degree-sorted layout.
	ErrDegreeSortUnsupported = errors.New("degree-sorted (WithDegreeSorted) runs unsupported")
	// ErrOutOfCoreUnsupported: the workload is a file handle and the
	// algorithm has no block-sequential kernel to run on it.
	ErrOutOfCoreUnsupported = errors.New("out-of-core (file handle) runs unsupported")
	// ErrBadSource: a configured source vertex is outside the workload's
	// vertex range.
	ErrBadSource = errors.New("source vertex out of range")
	// ErrBadOption: an option carries a value outside its domain (negative
	// WithThreads, a negative, NaN or infinite
	// WithDelta, or a Δ so small that sssp would index more buckets than
	// its budget). Zero always means "use the default"; negatives used to
	// be clamped or to panic deep in a kernel and now fail at Run entry
	// instead.
	ErrBadOption = errors.New("option value out of range")
	// ErrMalformedGraph: a graph a run would walk fails graph.Check — a
	// negative vertex count, offsets that are short, do not start at 0,
	// decrease or disagree with the arc count, an arc id outside [0, n),
	// or a weight array of the wrong length. The error names the fault.
	ErrMalformedGraph = errors.New("malformed graph")
)

// checkGraphs runs each non-nil graph's Check, which a graph remembers
// once passed, so a graph is scanned once however many runs and
// workloads read it.
func checkGraphs(gs ...*Graph) error {
	for _, g := range gs {
		if g == nil {
			continue
		}
		if err := g.Check(); err != nil {
			return fmt.Errorf("pushpull: %w: %v", ErrMalformedGraph, err)
		}
	}
	return nil
}

// validateOptions rejects out-of-domain option values before capability
// checks or any kernel work: zero keeps each option's documented default,
// a negative count or a non-finite Δ is a caller bug surfaced as
// ErrBadOption.
func validateOptions(cfg *Config) error {
	switch {
	case cfg.Threads < 0:
		return fmt.Errorf("pushpull: WithThreads(%d): %w (0 means GOMAXPROCS)", cfg.Threads, ErrBadOption)
	case !(cfg.Delta >= 0 && cfg.Delta <= math.MaxFloat64):
		return fmt.Errorf("pushpull: WithDelta(%g): %w (delta must be finite and non-negative; 0 means the heuristic)", cfg.Delta, ErrBadOption)
	}
	return nil
}

// validateCaps checks the resolved workload and configuration against the
// algorithm's declared capabilities; it is the single precondition gate
// Run applies before handing control to the algorithm.
func validateCaps(a Algorithm, w *Workload, cfg *Config) error {
	caps := a.Caps()
	name := a.Name()
	if w.WeightsDeclared() && !w.HasWeights() {
		return fmt.Errorf("pushpull: %s on a Weighted workload whose graph has no weights: %w (attach weights, e.g. WithUniformWeights)", name, ErrNeedsWeights)
	}
	if caps.NeedsWeights && !w.HasWeights() {
		return fmt.Errorf("pushpull: %s requires a weighted workload: %w (attach weights, e.g. WithUniformWeights)", name, ErrNeedsWeights)
	}
	if w.IsDirected() && !caps.Directed {
		return fmt.Errorf("pushpull: %s on a directed workload: %w", name, ErrDirectedUnsupported)
	}
	if cfg.Probes && !caps.Probes {
		return fmt.Errorf("pushpull: %s with WithProbes: %w", name, ErrProbesUnsupported)
	}
	if cfg.DegreeSorted && !caps.DegreeSort {
		return fmt.Errorf("pushpull: %s with WithDegreeSorted: %w", name, ErrDegreeSortUnsupported)
	}
	if w.IsOutOfCore() {
		// A file handle runs the block kernels, which are pull-by-construction,
		// uninstrumented and stream the plain pull-view layout; what they
		// cannot honor fails loudly instead of being silently rewritten.
		switch {
		case !caps.OutOfCore:
			return fmt.Errorf("pushpull: %s on a file handle: %w (no in-memory graph to run on)", name, ErrOutOfCoreUnsupported)
		case cfg.Probes:
			return fmt.Errorf("pushpull: %s on a file handle with WithProbes: %w (the block kernels are uninstrumented)", name, ErrProbesUnsupported)
		case cfg.Direction == Push:
			return fmt.Errorf("pushpull: %s on a file handle with WithDirection(Push): %w (block kernels are pull-only)", name, ErrBadOption)
		case cfg.DegreeSorted:
			return fmt.Errorf("pushpull: %s on a file handle with WithDegreeSorted: %w (block kernels stream the plain pull layout)", name, ErrBadOption)
		}
	}
	if caps.NeedsSource {
		if n := w.N(); n > 0 {
			if int(cfg.Source) < 0 || int(cfg.Source) >= n {
				return fmt.Errorf("pushpull: %s source %d out of range [0,%d): %w", name, cfg.Source, n, ErrBadSource)
			}
			for _, s := range cfg.Sources {
				if int(s) < 0 || int(s) >= n {
					return fmt.Errorf("pushpull: %s source %d out of range [0,%d): %w", name, s, n, ErrBadSource)
				}
			}
		}
	}
	return nil
}
