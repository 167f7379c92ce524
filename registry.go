package pushpull

import (
	"context"
	"fmt"
	"sort"
	"sync"
)

// Algorithm is one engine-runnable graph computation. Implementations
// receive the resolved workload handle and option set and return a
// Report; they must honor ctx by stopping between iterations and
// returning the partial result.
//
// The built-in algorithms (pr, tc, bfs, sssp, gc, bc, mst and variants)
// register themselves at package init; external packages may Register
// additional algorithms under fresh names. Caps is validated by the
// engine before Run is invoked, so Run never sees a workload kind or
// option the declaration rejects.
type Algorithm interface {
	// Name is the registry key, lower-case and stable ("pr", "bfs", ...).
	Name() string
	// Describe summarizes the computation in one line.
	Describe() string
	// Caps declares what the algorithm needs from a workload and which
	// kinds and instrumentation modes it supports.
	Caps() Caps
	// Run executes the algorithm on w with the resolved configuration.
	Run(ctx context.Context, w *Workload, cfg *Config) (*Report, error)
}

var (
	regMu    sync.RWMutex
	registry = map[string]Algorithm{}
)

// Register adds an algorithm to the engine registry. Registering a nil
// algorithm, an empty name, or a name already taken is an error.
func Register(a Algorithm) error {
	if a == nil {
		return fmt.Errorf("pushpull: Register(nil)")
	}
	name := a.Name()
	if name == "" {
		return fmt.Errorf("pushpull: algorithm has empty name")
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[name]; dup {
		return fmt.Errorf("pushpull: algorithm %q already registered", name)
	}
	registry[name] = a
	return nil
}

// MustRegister is Register that panics on error; used by the built-ins.
func MustRegister(a Algorithm) {
	if err := Register(a); err != nil {
		panic(err)
	}
}

// Lookup resolves a registered algorithm by name.
func Lookup(name string) (Algorithm, error) {
	regMu.RLock()
	defer regMu.RUnlock()
	a, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("pushpull: unknown algorithm %q (registered: %v)", name, algorithmNamesLocked())
	}
	return a, nil
}

// Algorithms lists every registered algorithm name, sorted. The shared-
// memory built-ins use bare names (pr, bfs, ...); the distributed §6.3
// simulations follow the dist-<algo>-<mechanism> scheme (dist-pr-push-rma,
// dist-tc-mp, ...).
func Algorithms() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	return algorithmNamesLocked()
}

func algorithmNamesLocked() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
