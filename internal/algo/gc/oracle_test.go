package gc

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"testing"

	"pushpull/internal/core"
	"pushpull/internal/gen"
	"pushpull/internal/graph"
	"pushpull/internal/rng"
	"pushpull/internal/sched"
)

// frontierExploitOracle is Frontier-Exploit as it stood before resolution
// moved into the candidate bitmap. Round 0 scans every vertex's row for a
// neighbor already in the independent set. Each later round collects the
// candidate set, then walks it in increasing id: a candidate whose
// blocked stamp carries the round's color defers, any other wins and
// stamps the round's color on every neighbor. Its outcome does not depend
// on the thread count, so it runs on one.
func frontierExploitOracle(g *graph.CSR, opt Options, dir core.Direction, policy core.SwitchPolicy) *Result {
	opt.defaults()
	n := g.N()
	res := &Result{Colors: make([]int32, n)}
	colors := res.Colors
	for i := range colors {
		colors[i] = -1
	}
	inF := make([]bool, n)
	var f []graph.V
	for v := graph.V(0); v < g.NumV; v++ {
		ok := true
		for _, u := range g.Neighbors(v) {
			if inF[u] {
				ok = false
				break
			}
		}
		if ok {
			inF[v], colors[v] = true, 0
			f = append(f, v)
		}
	}
	colored := len(f)
	res.Iterations = 1
	res.Dirs = append(res.Dirs, dir)
	progress, conflicts := colored, 0
	blocked := make([]int32, n)
	cand := make([]bool, n)
	ci := int32(1)
	for colored < n && res.Iterations < opt.MaxIters {
		switch policy.Decide(res.Iterations, progress, conflicts, n-colored) {
		case core.SwitchDirection:
			if dir == core.Push {
				dir = core.Pull
			} else {
				dir = core.Push
			}
		case core.GoSequential:
			greedyColorSubset(g, colors, nil)
			colored = n
			res.Iterations++
			res.Dirs = append(res.Dirs, dir)
			continue
		}
		clear(cand)
		if dir == core.Push {
			for _, v := range f {
				for _, u := range g.Neighbors(v) {
					cand[u] = cand[u] || colors[u] < 0
				}
			}
		} else {
			for v := range cand {
				cand[v] = colors[v] < 0 && slices.ContainsFunc(g.Neighbors(graph.V(v)), func(u graph.V) bool { return inF[u] })
			}
		}
		clear(inF)
		f, conflicts = f[:0], 0
		for v, ok := range cand {
			switch {
			case !ok:
			case blocked[v] == ci:
				conflicts++
			default:
				colors[v], inF[v] = ci, true
				f = append(f, graph.V(v))
				for _, u := range g.Neighbors(graph.V(v)) {
					blocked[u] = ci
				}
			}
		}
		ci++
		colored += len(f)
		progress = len(f)
		res.Iterations++
		res.Dirs = append(res.Dirs, dir)
		if progress == 0 {
			greedyColorSubset(g, colors, nil)
			colored = n
		}
	}
	if colored < n {
		greedyColorSubset(g, colors, nil)
		res.Iterations++
		res.Dirs = append(res.Dirs, dir)
	}
	res.NumColors = CountColors(colors)
	return res
}

// shuffleRows returns g with every row's neighbors in a random order: the
// same graph, with nothing that may assume sorted rows left to assume.
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

// The bitmap resolution must reach the oracle's coloring, iteration count
// and direction trace on every graph, with sorted and shuffled rows, in
// both starting directions, at every thread count and under all three
// policies. A resolution that trusted sorted rows (clearing only the
// higher-id neighbors it finds by binary search) fails the shuffled copies.
func TestFrontierExploitMatchesOracle(t *testing.T) {
	grid, err := gen.RoadGrid(30, 30, 0.8, 5)
	if err != nil {
		t.Fatal(err)
	}
	graphs := map[string]*graph.CSR{"rmat": rmat(t, 10, 8, 21), "grid": grid, "k100": gen.Complete(100)}
	for _, name := range []string{"rmat", "grid", "k100"} {
		graphs[name+"-shuffled"] = shuffleRows(t, graphs[name], 9)
	}
	policies := map[string]func(n int) core.SwitchPolicy{
		"never":   func(int) core.SwitchPolicy { return core.NeverSwitch{} },
		"generic": func(int) core.SwitchPolicy { return &core.GenericSwitch{Threshold: 1} },
		"greedy":  func(n int) core.SwitchPolicy { return &core.GreedySwitch{Fraction: 0.1, Total: n} },
	}
	// A push round after a pull round has no pushed round's marks to take
	// and runs the pull discovery instead; the generic cases must run
	// through both flips for that path to be checked at all.
	flips := map[[2]core.Direction]bool{}
	for name, g := range graphs {
		for _, dir := range []core.Direction{core.Push, core.Pull} {
			for pname, policy := range policies {
				want := frontierExploitOracle(g, Options{}, dir, policy(g.N()))
				if pname == "generic" {
					for i := 1; i < len(want.Dirs); i++ {
						flips[[2]core.Direction{want.Dirs[i-1], want.Dirs[i]}] = true
					}
				}
				for _, th := range []int{1, 2, 7} {
					at := fmt.Sprintf("%s/%v/%s/t%d", name, dir, pname, th)
					got := FrontierExploit(g, Options{Options: core.Options{Threads: th}}, dir, policy(g.N()))
					if got.Iterations != want.Iterations || !slices.Equal(got.Dirs, want.Dirs) {
						t.Errorf("%s: %d iterations %v, oracle %d %v", at, got.Iterations, got.Dirs, want.Iterations, want.Dirs)
					}
					if !slices.Equal(got.Colors, want.Colors) {
						t.Errorf("%s: colors differ from the oracle's", at)
					}
				}
			}
		}
	}
	for _, flip := range [][2]core.Direction{{core.Pull, core.Push}, {core.Push, core.Pull}} {
		if !flips[flip] {
			t.Errorf("no generic-switch case flips %v → %v", flip[0], flip[1])
		}
	}
}

// Beside the returned colors, Frontier-Exploit's scratch is its bill: four
// n-bit bitmaps (frontier, candidates, next candidates, colored), 4·n/8
// bytes at every thread count. Nothing per worker may be allocated. A
// pulled round's one parallel phase pays what sched.ParallelFor allocates
// to start its workers, measured here on an empty body; that is not
// scratch, so each iteration is allowed it. A round that starts its
// workers before the last round's have exited needs more goroutines than
// the runtime keeps for reuse, and a new one is allocated on the heap; so
// the free list is first filled with more exited goroutines than any run
// has alive at once, and each figure is the least of three runs.
func TestFrontierExploitScratchBytes(t *testing.T) {
	g := rmat(t, 16, 4, 5)
	n := g.N()
	var alive sync.WaitGroup
	gate := make(chan struct{})
	for range 256 {
		alive.Add(1)
		go func() {
			defer alive.Done()
			<-gate
		}()
	}
	close(gate)
	alive.Wait()
	allocated := func(run func()) float64 {
		least := math.Inf(1)
		for range 3 {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			run()
			runtime.ReadMemStats(&after)
			least = min(least, float64(after.TotalAlloc-before.TotalAlloc))
		}
		return least
	}
	for _, dir := range []core.Direction{core.Push, core.Pull} {
		for _, threads := range []int{1, 2, 4} {
			opt := Options{Options: core.Options{Threads: threads}}
			var res *Result
			got := allocated(func() { res = FrontierExploit(g, opt, dir, core.NeverSwitch{}) })
			got -= float64(4 * len(res.Colors))
			if dir == core.Pull {
				const calls = 100
				spawn := allocated(func() {
					for range calls {
						sched.ParallelFor(n/64, threads, sched.Dynamic, chunkWords, func(int, int, int) {})
					}
				})
				got -= spawn / calls * float64(res.Iterations)
			}
			want := float64(4 * n / 8)
			if got < 0.9*want || got > 1.1*want {
				t.Errorf("%v t=%d: allocated %.0f bytes beside the colors, want %.0f ± 10%%", dir, threads, got, want)
			}
		}
	}
}

func BenchmarkFrontierExploitPush(b *testing.B) { benchFrontierExploit(b, core.Push) }

func BenchmarkFrontierExploitPull(b *testing.B) { benchFrontierExploit(b, core.Pull) }

func benchFrontierExploit(b *testing.B, dir core.Direction) {
	g := rmat(b, 16, 8, 1)
	opt := Options{Options: core.Options{Threads: 2}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FrontierExploit(g, opt, dir, core.NeverSwitch{})
	}
}
