package pushpull_test

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"pushpull"
)

// malformedGraphs is one CSR literal per fault graph.Check reports; each
// is small and, but for its fault, a well-formed 4-vertex cycle.
func malformedGraphs() map[string]*pushpull.Graph {
	cycle := func() *pushpull.Graph {
		return &pushpull.Graph{NumV: 4, Offsets: []int64{0, 2, 4, 6, 8}, Adj: []pushpull.V{1, 3, 0, 2, 1, 3, 0, 2},
			Weights: []float32{1, 1, 1, 1, 1, 1, 1, 1}}
	}
	bad := map[string]func(g *pushpull.Graph){
		"arc id past n":                func(g *pushpull.Graph) { g.Adj[5] = 4 },
		"arc id far past n":            func(g *pushpull.Graph) { g.Adj[5] = 1 << 30 },
		"negative arc id":              func(g *pushpull.Graph) { g.Adj[2] = -1 },
		"non-monotone offsets":         func(g *pushpull.Graph) { g.Offsets[2] = 1 },
		"offsets end past the arcs":    func(g *pushpull.Graph) { g.Offsets[4] = 9 },
		"offsets end short of arcs":    func(g *pushpull.Graph) { g.Offsets[4] = 7 },
		"offsets do not start at 0":    func(g *pushpull.Graph) { g.Offsets[0] = 1 },
		"short offsets":                func(g *pushpull.Graph) { g.Offsets = g.Offsets[:4] },
		"negative vertex count":        func(g *pushpull.Graph) { g.NumV = -1 },
		"vertex count past offsets":    func(g *pushpull.Graph) { g.NumV = 6 },
		"weights shorter than arcs":    func(g *pushpull.Graph) { g.Weights = g.Weights[:7] },
		"weights longer than the arcs": func(g *pushpull.Graph) { g.Weights = append(g.Weights, 1) },
	}
	out := map[string]*pushpull.Graph{}
	for name, breakIt := range bad {
		g := cycle()
		breakIt(g)
		out[name] = g
	}
	return out
}

// TestRunRejectsMalformedGraph runs every registered algorithm on every
// malformed graph at one and two threads, through the package-level Run
// on a bare graph and through a caching Engine on a Workload handle
// (directed too, where the algorithm runs on directed workloads). Each
// run must fail with ErrMalformedGraph before any kernel reads the graph.
// Without the check an out-of-range arc panics in a worker goroutine at
// t = 2, which no recover in the caller can catch: it ends the process.
func TestRunRejectsMalformedGraph(t *testing.T) {
	ctx := context.Background()
	eng := pushpull.NewEngine(pushpull.WithResultCache(8))
	for name, g := range malformedGraphs() {
		for _, algo := range pushpull.Algorithms() {
			a, err := pushpull.Lookup(algo)
			if err != nil {
				t.Fatal(err)
			}
			handles := map[string]pushpull.Runnable{"bare graph": g, "engine handle": pushpull.NewWorkload(g)}
			if a.Caps().Directed {
				handles["engine directed handle"] = pushpull.Directed(g)
			}
			for via, on := range handles {
				for _, threads := range []int{1, 2} {
					at := fmt.Sprintf("%s: %s via %s at t=%d", name, algo, via, threads)
					runOn := pushpull.Run
					if via != "bare graph" {
						runOn = eng.Run
					}
					rep, err := runOn(ctx, on, algo, pushpull.WithThreads(threads))
					if !errors.Is(err, pushpull.ErrMalformedGraph) {
						t.Errorf("%s: err = %v, want ErrMalformedGraph", at, err)
					}
					if rep != nil {
						t.Errorf("%s: a report came back with the error", at)
					}
				}
			}
		}
	}
}
