package sssp

import (
	"context"
	"fmt"
	"math"
	"testing"
	"time"

	"pushpull/internal/core"
	"pushpull/internal/counters"
	"pushpull/internal/graph"
	"pushpull/internal/rng"
)

// randomWeighted builds an undirected graph on n vertices with about 3n
// random edges of weight 1..20, self-loops and duplicate edges kept, and
// vertex n/2 left without any edge.
func randomWeighted(t testing.TB, n int, seed uint64) (g *graph.CSR, isolated graph.V) {
	t.Helper()
	isolated = graph.V(n / 2)
	r := rng.New(seed)
	b := graph.NewBuilder(n).KeepSelfLoops().KeepDuplicates()
	add := func(u, v graph.V) {
		if u != isolated && v != isolated {
			b.AddEdgeW(u, v, float32(1+r.Intn(20)))
		}
	}
	for i := 0; i < 3*n; i++ {
		u, v := graph.V(r.Intn(n)), graph.V(r.Intn(n))
		add(u, v)
		switch i % 16 {
		case 0:
			add(u, u)
		case 1:
			add(u, v)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g, isolated
}

// checkRun asserts what every mode and kernel owes its caller: Dijkstra's
// distances and a populated iteration log.
func checkRun(t *testing.T, name string, res *Result, want []float64) {
	t.Helper()
	if d := MaxDiff(res.Dist, want); d > tol {
		t.Errorf("%s: max diff vs dijkstra %g", name, d)
	}
	if res.Epochs < 1 || res.Inner < 1 || res.Stats.Iterations != res.Inner ||
		len(res.Stats.PerIteration) != res.Inner || res.Stats.Canceled {
		t.Errorf("%s: stats not populated: epochs %d, inner %d, %+v", name, res.Epochs, res.Inner, res.Stats)
	}
}

// Every mode against Dijkstra over the cases the bitmaps make
// interesting: vertex counts at and around a word boundary and one past a
// 64-word block, thread counts that do and do not divide the word count,
// a bucket per vertex / the heuristic / one bucket for everything, and
// sources in the first word, in the (partial) last word, and isolated.
// The epochs are the buckets the distances fall in, so every mode, thread
// count and PullProfiled count the same; forced pull runs PullProfiled's
// rounds, so at one thread, where the rounds' order is fixed, it also
// counts the same rounds; and every mode logs a direction per round, a
// forced one only its own.
func TestDifferentialTable(t *testing.T) {
	forced := map[Mode]core.Direction{ForcePush: core.Push, ForcePull: core.Pull}
	for _, n := range []int{1, 63, 64, 65, 4097} {
		g, isolated := randomWeighted(t, n, uint64(n))
		for _, src := range []graph.V{0, graph.V(n - 1), isolated} {
			want := Dijkstra(g, src)
			for _, delta := range []float64{0.75, 0, 1e9} {
				epochs := -1
				for _, threads := range []int{1, 2, 4, 7} {
					name := fmt.Sprintf("n=%d src=%d t=%d Δ=%v", n, src, threads, delta)
					opt := Options{Source: src, Delta: delta}
					opt.Threads = threads
					prof, grp := core.CountingProfile(threads)
					profiled, err := PullProfiled(g, opt, prof, nil)
					if err != nil {
						t.Fatal(err)
					}
					checkRun(t, name+" pull-profiled", profiled, want)
					if a := grp.Report().Get(counters.Atomics); a != 0 {
						t.Errorf("%s pull-profiled: %d atomics", name, a)
					}
					if epochs < 0 {
						epochs = profiled.Epochs
					}
					for _, m := range modes {
						res := runMode(g, opt, m.mode)
						checkRun(t, name+" "+m.name, res, want)
						if res.Epochs != epochs {
							t.Errorf("%s %s: %d epochs, want %d", name, m.name, res.Epochs, epochs)
						}
						if len(res.Dirs) != res.Inner {
							t.Errorf("%s %s: %d directions for %d rounds", name, m.name, len(res.Dirs), res.Inner)
						}
						if dir, ok := forced[m.mode]; ok {
							for i, d := range res.Dirs {
								if d != dir {
									t.Errorf("%s %s: round %d ran %v", name, m.name, i, d)
									break
								}
							}
						}
						if m.mode == ForcePull && threads == 1 && res.Inner != profiled.Inner {
							t.Errorf("%s pull: %d rounds, pull-profiled %d", name, res.Inner, profiled.Inner)
						}
					}
				}
			}
		}
	}
}

// A context canceled in the middle of an epoch stops the run at the next
// round with Stats.Canceled set, in every mode, and what it returns is a
// valid partial result: every distance is +Inf or an upper bound on the
// true one.
func TestCancelMidEpoch(t *testing.T) {
	g := pathGraph(t, 256, 200) // one bucket: a single epoch of ~200 rounds
	want := Dijkstra(g, 0)
	for _, m := range modes {
		name := m.name
		ctx, cancel := context.WithCancel(context.Background())
		opt := Options{Delta: 1e9}
		opt.Threads = 2
		opt.Ctx = ctx
		opt.OnIteration = func(iter int, _ time.Duration) {
			if iter == 9 {
				cancel()
			}
		}
		res := runMode(g, opt, m.mode)
		cancel()
		if !res.Stats.Canceled || res.Epochs != 1 || res.Inner != 10 || res.Stats.Iterations != 10 {
			t.Errorf("%s: canceled %v after %d epochs, %d rounds; want a stop after round 10 of epoch 1",
				name, res.Stats.Canceled, res.Epochs, res.Inner)
		}
		reached := 0
		for v, d := range res.Dist {
			switch {
			case math.IsInf(d, 1):
			case math.IsNaN(d) || d < want[v]:
				t.Fatalf("%s: partial dist[%d] = %v, true distance %v", name, v, d, want[v])
			default:
				reached++
			}
		}
		if reached == 0 || reached >= 200 {
			t.Errorf("%s: %d vertices reached; a run stopped mid-epoch reaches some, not all", name, reached)
		}
	}
}
