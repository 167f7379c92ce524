package gc

import (
	"fmt"
	"slices"
	"testing"

	"pushpull/internal/core"
	"pushpull/internal/gen"
	"pushpull/internal/graph"
	"pushpull/internal/rng"
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
	for name, g := range graphs {
		for _, dir := range []core.Direction{core.Push, core.Pull} {
			for pname, policy := range policies {
				want := frontierExploitOracle(g, Options{}, dir, policy(g.N()))
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
}
