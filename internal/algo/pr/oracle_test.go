package pr

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"pushpull/internal/gen"
	"pushpull/internal/graph"
	"pushpull/internal/rng"
	"pushpull/internal/sched"
)

// pushOwnershipOracle is Push as it stood before every update went into a
// private accumulator. Each loop chunk [lo, hi) owned next[lo:hi]: the
// scatter reset the owned slots to the teleport term and tested every
// arc's target against the chunk's bounds, adding an owned target's update
// into next and any other into the worker's accumulator. The fold summed
// next[i] and the accumulators in worker order, and pr and next swapped.
func pushOwnershipOracle(vw Views, opt Options) []float64 {
	opt.defaults()
	g := vw.Out
	n := g.N()
	t := sched.Clamp(opt.Threads, n)
	pr, next := make([]float64, n), make([]float64, n)
	for i := range pr {
		pr[i] = 1 / float64(n)
	}
	priv := make([][]float64, t)
	for w := range priv {
		priv[w] = make([]float64, n)
	}
	base := (1 - opt.Damping) / float64(n)
	scatter := func(w, lo, hi int) {
		for i := lo; i < hi; i++ {
			next[i] = base
		}
		span := uint(hi - lo)
		for vi := lo; vi < hi; vi++ {
			d := g.Degree(graph.V(vi))
			if d == 0 {
				continue
			}
			c := opt.Damping * pr[vi] / float64(d)
			for _, u := range g.Neighbors(graph.V(vi)) {
				if uint(int(u)-lo) < span {
					next[u] += c
				} else {
					priv[w][u] += c
				}
			}
		}
	}
	fold := func(w, lo, hi int) {
		for i := lo; i < hi; i++ {
			s := next[i]
			for _, p := range priv {
				s += p[i]
				p[i] = 0
			}
			next[i] = s
		}
	}
	for l := 0; l < opt.Iterations; l++ {
		sched.ParallelFor(n, t, sched.Static, 0, scatter)
		sched.ParallelFor(n, t, sched.Static, 0, fold)
		pr, next = next, pr
	}
	return pr
}

// shuffleRows returns g with every row's neighbors in a random order:
// pushpull.Graph exposes its arrays, and nothing guarantees sorted rows.
func shuffleRows(t *testing.T, g *graph.CSR, seed uint64) *graph.CSR {
	t.Helper()
	s := &graph.CSR{NumV: g.NumV, Offsets: g.Offsets, Adj: slices.Clone(g.Adj)}
	r := rng.New(seed)
	sorted := 0
	for v := graph.V(0); v < g.NumV; v++ {
		row := s.Adj[g.Offsets[v]:g.Offsets[v+1]]
		for i := len(row) - 1; i > 0; i-- {
			j := r.Intn(i + 1)
			row[i], row[j] = row[j], row[i]
		}
		if slices.IsSorted(row) {
			sorted++
		}
	}
	if sorted == g.N() {
		t.Fatal("shuffle left every row sorted")
	}
	return s
}

// The scatter and the fold deal the same chunk to the same worker, so
// every slot adds the same terms in the same order as the
// ownership-testing kernel did: the bits must equal its bits at every
// thread count, on an undirected graph, a digraph and shuffled rows.
func TestPushMatchesOwnershipOracle(t *testing.T) {
	g := testGraph(t)
	for name, vw := range map[string]Views{
		"undirected": und(g),
		"directed":   directedFixture(t, 600, 4000, 11),
		"shuffled":   und(shuffleRows(t, g, 3)),
	} {
		opt := Options{Iterations: 10}
		for _, threads := range []int{2, 3, 4, 7} {
			opt.Threads = threads
			got, _ := Push(vw, opt)
			bitsEqual(t, fmt.Sprintf("%s t=%d", name, threads), got, pushOwnershipOracle(vw, opt))
		}
	}
}

// Push's scratch is its bill: the rank vector and one accumulator at one
// thread, 2·n·8 bytes, and the rank vector and t accumulators at t,
// (t+1)·n·8. Nothing else of size n may be allocated.
func TestPushScratchBytes(t *testing.T) {
	g, err := gen.RMAT(gen.DefaultRMAT(16, 4, 5))
	if err != nil {
		t.Fatal(err)
	}
	n := g.N()
	for _, threads := range []int{1, 2, 4} {
		opt := Options{Iterations: 3}
		opt.Threads = threads
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		Push(und(g), opt)
		runtime.ReadMemStats(&after)
		got := float64(after.TotalAlloc - before.TotalAlloc)
		want := float64((threads + 1) * n * 8)
		if got < 0.9*want || got > 1.1*want {
			t.Errorf("t=%d: push allocated %.0f bytes, want %.0f ± 10%%", threads, got, want)
		}
	}
}
