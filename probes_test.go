package pushpull_test

// Probe-parity tests: every shared-memory registry algorithm must support
// WithProbes, return non-trivial counters, and agree with its un-probed
// run; the switching traces must report what actually ran.

import (
	"testing"
	"time"

	"pushpull"
	"pushpull/internal/algo/gc"
	"pushpull/internal/algo/mst"
	"pushpull/internal/algo/sssp"
	"pushpull/internal/algo/tc"
)

// TestProbesAllAlgorithms is the acceptance sweep: WithProbes alone (plus
// the minimal per-algorithm knobs) succeeds for all nine shared-memory
// algorithms with a non-nil counter report and non-zero reads, and the
// probed payload matches the un-probed run wherever the algorithm is
// deterministic.
func TestProbesAllAlgorithms(t *testing.T) {
	plain := testGraph(t)
	weighted := weightedGraph(t)
	cases := []struct {
		algo string
		g    *pushpull.Graph
		opts []pushpull.Option
		// check compares the probed report against the un-probed one.
		check func(t *testing.T, probed, ref *pushpull.Report)
	}{
		{"pr", plain, []pushpull.Option{pushpull.WithIterations(3)},
			func(t *testing.T, probed, ref *pushpull.Report) {
				if d := pushpull.MaxDiff(probed.Ranks(), ref.Ranks()); d > 1e-12 {
					t.Errorf("probed pr diverges by %g", d)
				}
			}},
		{"tc", plain, nil,
			func(t *testing.T, probed, ref *pushpull.Report) {
				if !tc.Equal(probed.Counts(), ref.Counts()) {
					t.Error("probed tc counts diverge")
				}
			}},
		{"bfs", plain, []pushpull.Option{pushpull.WithSource(0)},
			func(t *testing.T, probed, ref *pushpull.Report) {
				pt, rt := probed.Tree(), ref.Tree()
				for v := range pt.Level {
					if pt.Level[v] != rt.Level[v] {
						t.Fatalf("probed bfs level[%d] = %d, want %d", v, pt.Level[v], rt.Level[v])
					}
				}
			}},
		{"sssp", weighted, []pushpull.Option{pushpull.WithSource(0)},
			func(t *testing.T, probed, ref *pushpull.Report) {
				// Auto probes run the push baseline; both compute exact
				// Δ-stepping distances.
				want := sssp.Dijkstra(weighted, 0)
				if d := pushpull.MaxDiff(probed.Ranks(), want); d > 1e-9 {
					t.Errorf("probed sssp diverges from Dijkstra by %g", d)
				}
			}},
		{"bc", plain, []pushpull.Option{pushpull.WithSources([]pushpull.V{0, 1, 2, 3})},
			func(t *testing.T, probed, ref *pushpull.Report) {
				if d := pushpull.MaxDiff(probed.Ranks(), ref.Ranks()); d > 1e-6 {
					t.Errorf("probed bc diverges by %g", d)
				}
			}},
		{"gc", plain, nil,
			func(t *testing.T, probed, ref *pushpull.Report) {
				if err := gc.Validate(plain, probed.Colors()); err != nil {
					t.Errorf("probed gc coloring invalid: %v", err)
				}
			}},
		{"gc-fe", plain, []pushpull.Option{pushpull.WithMaxIters(4096)},
			func(t *testing.T, probed, ref *pushpull.Report) {
				if err := gc.Validate(plain, probed.Colors()); err != nil {
					t.Errorf("probed gc-fe coloring invalid: %v", err)
				}
				// FE resolves candidates in canonical order, so probed and
				// plain colorings match exactly.
				pc, rc := probed.Colors(), ref.Colors()
				for v := range pc {
					if pc[v] != rc[v] {
						t.Fatalf("probed gc-fe color[%d] = %d, want %d", v, pc[v], rc[v])
					}
				}
			}},
		{"gc-cr", plain, nil,
			func(t *testing.T, probed, ref *pushpull.Report) {
				if err := gc.Validate(plain, probed.Colors()); err != nil {
					t.Errorf("probed gc-cr coloring invalid: %v", err)
				}
				// CR is deterministic: probed equals plain exactly.
				pc, rc := probed.Colors(), ref.Colors()
				for v := range pc {
					if pc[v] != rc[v] {
						t.Fatalf("probed gc-cr color[%d] = %d, want %d", v, pc[v], rc[v])
					}
				}
			}},
		{"mst", weighted, nil,
			func(t *testing.T, probed, ref *pushpull.Report) {
				pres := probed.Result.(*pushpull.MSTResult)
				rres := ref.Result.(*pushpull.MSTResult)
				if !mst.SameTree(pres, rres) {
					t.Error("probed mst tree differs from plain run")
				}
			}},
	}
	for _, c := range cases {
		c := c
		t.Run(c.algo, func(t *testing.T) {
			opts := append([]pushpull.Option{pushpull.WithThreads(2)}, c.opts...)
			probed := run(t, c.g, c.algo, append(opts, pushpull.WithProbes())...)
			if probed.Counters == nil {
				t.Fatal("probed run has nil Counters")
			}
			if probed.Counters.Get(pushpull.Reads) == 0 {
				t.Error("probed run recorded zero reads")
			}
			if probed.Stats.Iterations <= 0 {
				t.Error("probed run recorded no iterations")
			}
			if len(probed.Directions) != probed.Stats.Iterations {
				t.Errorf("probed trace has %d entries for %d iterations",
					len(probed.Directions), probed.Stats.Iterations)
			}
			ref := run(t, c.g, c.algo, opts...)
			c.check(t, probed, ref)
		})
	}
}

// TestProbesDirectionAsymmetry spot-checks the §4 accounting on the new
// kernels: push charges synchronization (atomics/locks) that pull avoids.
func TestProbesDirectionAsymmetry(t *testing.T) {
	g := testGraph(t)
	w := weightedGraph(t)
	for _, c := range []struct {
		algo  string
		g     *pushpull.Graph
		event pushpull.CounterEvent
		opts  []pushpull.Option
	}{
		{"bfs", g, pushpull.Atomics, []pushpull.Option{pushpull.WithSource(0)}},
		{"bc", g, pushpull.Atomics, []pushpull.Option{pushpull.WithSources([]pushpull.V{0, 1})}},
		{"mst", w, pushpull.Locks, nil},
	} {
		base := append([]pushpull.Option{pushpull.WithThreads(2), pushpull.WithProbes()}, c.opts...)
		push := run(t, c.g, c.algo, append(base, pushpull.WithDirection(pushpull.Push))...)
		pull := run(t, c.g, c.algo, append(base, pushpull.WithDirection(pushpull.Pull))...)
		if got := push.Counters.Get(c.event); got == 0 {
			t.Errorf("%s push issued no %v", c.algo, c.event)
		}
		if got := pull.Counters.Get(c.event); got != 0 {
			t.Errorf("%s pull issued %d %v, want 0", c.algo, got, c.event)
		}
	}
}

// TestFrontierExploitMaxItersStillValid guards the one-color-per-round FE
// against MaxIters truncation: a clique needs n rounds, far beyond the
// default bound, so the run must greedy-finish the remainder instead of
// returning uncolored vertices without error.
func TestFrontierExploitMaxItersStillValid(t *testing.T) {
	const n = 100
	b := pushpull.NewBuilder(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			b.AddEdge(pushpull.V(i), pushpull.V(j))
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	plain := run(t, g, "gc-fe") // default MaxIters
	if err := gc.Validate(g, plain.Colors()); err != nil {
		t.Fatalf("MaxIters-bounded FE returned an invalid coloring: %v", err)
	}
	probed := run(t, g, "gc-fe", pushpull.WithProbes())
	if err := gc.Validate(g, probed.Colors()); err != nil {
		t.Fatalf("probed MaxIters-bounded FE returned an invalid coloring: %v", err)
	}
	if len(plain.Directions) != plain.Stats.Iterations {
		t.Errorf("greedy-finish iteration missing from trace: %d entries, %d iterations",
			len(plain.Directions), plain.Stats.Iterations)
	}
}

// TestGenericSwitchFlipInTrace asserts the satellite bugfix: a mid-run
// Generic-Switch direction flip shows up in Report.Directions instead of
// the trace claiming the starting direction throughout.
func TestGenericSwitchFlipInTrace(t *testing.T) {
	g := testGraph(t)
	// An enormous threshold makes the policy flip at the first iteration
	// whose predecessor saw any conflict.
	rep := run(t, g, "gc-fe", pushpull.WithDirection(pushpull.Push),
		pushpull.WithMaxIters(4096), pushpull.WithThreads(2),
		pushpull.WithSwitchPolicy(&pushpull.GenericSwitch{Threshold: 1e18}))
	if len(rep.Directions) != rep.Stats.Iterations {
		t.Fatalf("trace has %d entries for %d iterations", len(rep.Directions), rep.Stats.Iterations)
	}
	var push, pull int
	for _, d := range rep.Directions {
		if d == pushpull.Pull {
			pull++
		} else {
			push++
		}
	}
	if push == 0 || pull == 0 {
		t.Fatalf("GenericSwitch flip not visible in trace: push×%d, pull×%d (iterations: %d)",
			push, pull, rep.Stats.Iterations)
	}
	if rep.Directions[0] != pushpull.Push {
		t.Errorf("trace starts with %v, want the requested push", rep.Directions[0])
	}
}

// TestProfiledIterationHook asserts the satellite bugfix: probed runs
// invoke WithIterationHook between instrumented iterations with the same
// contract as plain runs.
func TestProfiledIterationHook(t *testing.T) {
	g := testGraph(t)
	w := weightedGraph(t)
	for _, c := range []struct {
		algo  string
		g     *pushpull.Graph
		opts  []pushpull.Option
		exact int // -1: just require > 0 ticks matching Stats.Iterations
	}{
		{"pr", g, []pushpull.Option{pushpull.WithIterations(4)}, 4},
		{"gc", g, nil, -1},
		{"gc-fe", g, []pushpull.Option{pushpull.WithMaxIters(4096)}, -1},
		{"bfs", g, []pushpull.Option{pushpull.WithSource(0)}, -1},
		{"sssp", w, []pushpull.Option{pushpull.WithSource(0), pushpull.WithDirection(pushpull.Push)}, -1},
		{"mst", w, nil, -1},
	} {
		ticks := 0
		rep := run(t, c.g, c.algo, append(c.opts, pushpull.WithProbes(), pushpull.WithThreads(2),
			pushpull.WithIterationHook(func(int, time.Duration) { ticks++ }))...)
		want := c.exact
		if want < 0 {
			want = rep.Stats.Iterations
		}
		if ticks != want {
			t.Errorf("%s: probed hook fired %d times, want %d", c.algo, ticks, want)
		}
		if ticks == 0 {
			t.Errorf("%s: probed run never invoked the iteration hook", c.algo)
		}
	}
}
