package pushpull

// Capability declarations and the uniform precondition errors of the
// engine. Every Algorithm declares up front what it needs from a workload
// (weights, a source) and what kinds it supports (directed graphs,
// instrumented probes, Partition-Awareness); Run validates the declared
// capabilities against the resolved Workload and Config before any
// goroutine spawns, so an unsupported combination fails with one typed
// error instead of an ad-hoc failure deep inside a kernel.

import (
	"errors"
	"fmt"
)

// Caps declares what an algorithm needs and supports. The zero value is
// the most restrictive declaration: no weights consumed, no source, no
// directed graphs, no probes, no Partition-Awareness.
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
	// PartitionAware marks algorithms supporting the §5 Partition-
	// Awareness acceleration; others fail with ErrPartitionAwareUnsupported.
	PartitionAware bool
	// DegreeSort marks algorithms that can run over the degree-sorted CSR
	// permutation (WithDegreeSorted), un-permuting their report at the
	// boundary; WithDegreeSorted on others fails with
	// ErrDegreeSortUnsupported.
	DegreeSort bool
	// OutOfCore marks algorithms with block-sequential kernels over the
	// out-of-core block layout (WithOutOfCore, or a pure file handle).
	// WithOutOfCore on others fails with ErrOutOfCoreUnsupported, as does
	// ANY run of an unsupporting algorithm on a pure file handle — there
	// is no in-memory graph to fall back to.
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
	add(c.PartitionAware, "pa")
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
	// graph).
	ErrNeedsWeights = errors.New("workload carries no edge weights")
	// ErrDirectedUnsupported: the algorithm does not run on directed
	// workloads.
	ErrDirectedUnsupported = errors.New("directed workloads unsupported")
	// ErrProbesUnsupported: the algorithm has no instrumented variant.
	ErrProbesUnsupported = errors.New("instrumented (WithProbes) runs unsupported")
	// ErrPartitionAwareUnsupported: the algorithm has no Partition-
	// Awareness acceleration.
	ErrPartitionAwareUnsupported = errors.New("partition awareness unsupported")
	// ErrDegreeSortUnsupported: the algorithm cannot run over the
	// degree-sorted layout.
	ErrDegreeSortUnsupported = errors.New("degree-sorted (WithDegreeSorted) runs unsupported")
	// ErrOutOfCoreUnsupported: the algorithm has no block-sequential
	// out-of-core kernel (or the workload is a pure file handle no
	// in-memory kernel can serve).
	ErrOutOfCoreUnsupported = errors.New("out-of-core (WithOutOfCore) runs unsupported")
	// ErrBadSource: a configured source vertex is outside the workload's
	// vertex range.
	ErrBadSource = errors.New("source vertex out of range")
	// ErrBadOption: an option carries a value outside its domain (negative
	// WithThreads/WithPartitions/WithRanks). Zero always means "use the
	// default"; negatives used to be clamped or to panic deep in a kernel
	// and now fail at Run entry instead.
	ErrBadOption = errors.New("option value out of range")
)

// validateOptions rejects out-of-domain option values before capability
// checks or any kernel work: zero keeps each option's documented default,
// a negative count is a caller bug surfaced as ErrBadOption.
func validateOptions(cfg *Config) error {
	switch {
	case cfg.Threads < 0:
		return fmt.Errorf("pushpull: WithThreads(%d): %w (0 means GOMAXPROCS)", cfg.Threads, ErrBadOption)
	case cfg.Partitions < 0:
		return fmt.Errorf("pushpull: WithPartitions(%d): %w (0 means the resolved thread count)", cfg.Partitions, ErrBadOption)
	case cfg.Ranks < 0:
		return fmt.Errorf("pushpull: WithRanks(%d): %w (0 means the default cluster size)", cfg.Ranks, ErrBadOption)
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
	if cfg.PartitionAware && !caps.PartitionAware {
		return fmt.Errorf("pushpull: %s with WithPartitionAwareness: %w", name, ErrPartitionAwareUnsupported)
	}
	if cfg.DegreeSorted && !caps.DegreeSort {
		return fmt.Errorf("pushpull: %s with WithDegreeSorted: %w", name, ErrDegreeSortUnsupported)
	}
	if !caps.OutOfCore {
		if cfg.OutOfCore {
			return fmt.Errorf("pushpull: %s with WithOutOfCore: %w", name, ErrOutOfCoreUnsupported)
		}
		if w.Graph() == nil {
			return fmt.Errorf("pushpull: %s on a pure out-of-core workload: %w (no in-memory graph to run on)", name, ErrOutOfCoreUnsupported)
		}
	}
	if caps.OutOfCore && (cfg.OutOfCore || w.IsOutOfCore()) {
		// The block kernels are pull-by-construction and stream the plain
		// pull-view layout; directions and layouts that cannot be honored
		// fail loudly instead of being silently rewritten.
		if cfg.Direction == Push {
			return fmt.Errorf("pushpull: %s out-of-core with WithDirection(Push): %w (block kernels are pull-only)", name, ErrBadOption)
		}
		if cfg.DegreeSorted || cfg.PartitionAware {
			return fmt.Errorf("pushpull: %s: degree-sort/partition-awareness with WithOutOfCore: %w (block kernels stream the plain pull layout)", name, ErrBadOption)
		}
	}
	// The PA split is laid out over the plain graph, so a degree sort does
	// not compose with Partition-Awareness.
	if cfg.DegreeSorted && cfg.PartitionAware {
		return fmt.Errorf("pushpull: %s: degree-sort with WithPartitionAwareness: %w (the §5 split is defined over the plain layout)", name, ErrBadOption)
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
