package pushpull_test

// Schedule independence. The pull kernels deal rows, blocks and frontier
// vertices to their workers in chunks from a shared cursor, so which
// worker computes which row changes from run to run. No payload whose
// definition does not name a worker may change with it. Every cell below
// runs at 1, 2 and 7 threads and is held to an oracle in this file that
// splits the rows as the static schedule does, one contiguous block per
// worker (sched.SequentialFor). pr push does name a worker — the
// accumulator a term lands in — so it deals its rows in a fixed deal
// instead, and its ranks at 2 and 7 threads are held to a replay of that
// deal, run after run and at GOMAXPROCS 1, 2 and 4.

import (
	"fmt"
	"runtime"
	"sort"
	"testing"

	"pushpull"
	"pushpull/internal/algo/sssp"
	"pushpull/internal/sched"
)

const schedIters = 10

// schedDamping is a variable, not a constant, so that 1 − f rounds at run
// time as it does in the kernels.
var schedDamping = 0.85

// staticShare is the share of g's arcs in the rows the static schedule
// hands worker 0 of t.
func staticShare(g *pushpull.Graph, t int) float64 {
	_, hi := sched.BlockRange(g.N(), t, 0)
	return float64(g.Offsets[hi]) / float64(g.M())
}

// staticPR is the pull PageRank oracle: each iteration scales every rank
// by its out-degree, then gathers each row of the pull view (g, or g's
// transpose when directed) in row order, worker by worker over the
// static split.
func staticPR(g *pushpull.Graph, directed bool, t int) []float64 {
	n := g.N()
	in := g
	if directed {
		in = g.Transpose()
	}
	pr, next, contrib := make([]float64, n), make([]float64, n), make([]float64, n)
	for v := range pr {
		pr[v] = 1 / float64(n)
	}
	base := (1 - schedDamping) / float64(n)
	for l := 0; l < schedIters; l++ {
		for v := range contrib {
			contrib[v] = 0
			if d := g.Degree(pushpull.V(v)); d > 0 {
				contrib[v] = pr[v] / float64(d)
			}
		}
		sched.SequentialFor(n, t, func(_, lo, hi int) {
			for v := lo; v < hi; v++ {
				sum := 0.0
				for _, u := range in.Neighbors(pushpull.V(v)) {
					sum += contrib[u]
				}
				next[v] = base + schedDamping*sum
			}
		})
		pr, next = next, pr
	}
	return pr
}

// dealOwners is pr push's deal of g's rows over t ≥ 2 workers: chunks of
// min(1024, n/(2t)) rows (at least one), ordered by arc count, heaviest
// first and ties by index, handed out boustrophedon — workers 0…t−1, then
// t−1…0, and so on. It returns each chunk's worker and the chunk size.
func dealOwners(g *pushpull.Graph, t int) (owner []int, grain int) {
	n := g.N()
	grain = max(1, min(1024, n/(2*t)))
	arcs := func(c int) int64 { return g.Offsets[min((c+1)*grain, n)] - g.Offsets[c*grain] }
	byArcs := make([]int, (n+grain-1)/grain)
	for c := range byArcs {
		byArcs[c] = c
	}
	sort.SliceStable(byArcs, func(i, k int) bool { return arcs(byArcs[i]) > arcs(byArcs[k]) })
	owner = make([]int, len(byArcs))
	for k, c := range byArcs {
		w := k % t
		if (k/t)%2 == 1 {
			w = t - 1 - w
		}
		owner[c] = w
	}
	return owner, grain
}

// dealFills counts the workers whose dealt chunks of g's rows hold an arc.
func dealFills(g *pushpull.Graph, t int) int {
	owner, grain := dealOwners(g, t)
	filled := map[int]bool{}
	for c, w := range owner {
		if g.Offsets[min((c+1)*grain, g.N())] > g.Offsets[c*grain] {
			filled[w] = true
		}
	}
	return len(filled)
}

// dealPR is the push PageRank oracle at t ≥ 2 threads: each iteration,
// worker after worker, adds f·pr[v]/d(v) along every out-arc of the rows
// its dealt chunks hold, in increasing chunk and row order, into its own
// accumulator; then every rank starts from the teleport term and adds
// the accumulators in worker order.
func dealPR(g *pushpull.Graph, t int) []float64 {
	n := g.N()
	owner, grain := dealOwners(g, t)
	pr := make([]float64, n)
	for v := range pr {
		pr[v] = 1 / float64(n)
	}
	acc := make([][]float64, t)
	for w := range acc {
		acc[w] = make([]float64, n)
	}
	base := (1 - schedDamping) / float64(n)
	for l := 0; l < schedIters; l++ {
		for w := range acc {
			for c, o := range owner {
				if o != w {
					continue
				}
				for v := c * grain; v < min((c+1)*grain, n); v++ {
					d := g.Degree(pushpull.V(v))
					if d == 0 {
						continue
					}
					x := schedDamping * pr[v] / float64(d)
					for _, u := range g.Neighbors(pushpull.V(v)) {
						acc[w][u] += x
					}
				}
			}
		}
		for v := range pr {
			s := base
			for _, a := range acc {
				s += a[v]
				a[v] = 0
			}
			pr[v] = s
		}
	}
	return pr
}

// atProcs runs f with GOMAXPROCS set to procs, and restores it after.
func atProcs(procs int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	f()
}

// staticPullBFS is the bottom-up BFS oracle: each round, every unreached
// vertex, worker by worker over the static split, takes the first
// neighbor in row order that the round's frontier holds as its parent.
func staticPullBFS(g *pushpull.Graph, root pushpull.V, t int) (parent []pushpull.V, level []int32) {
	n := g.N()
	parent, level = make([]pushpull.V, n), make([]int32, n)
	for v := range level {
		parent[v], level[v] = -1, -1
	}
	parent[root], level[root] = root, 0
	for round, grew := int32(0), true; grew; round++ {
		grew = false
		sched.SequentialFor(n, t, func(_, lo, hi int) {
			for v := lo; v < hi; v++ {
				if level[v] >= 0 {
					continue
				}
				for _, u := range g.Neighbors(pushpull.V(v)) {
					if level[u] == round {
						parent[v], level[v], grew = u, round+1, true
						break
					}
				}
			}
		})
	}
	return parent, level
}

// scheduleFixture is weighted rmat(13, 8), whose hubs hold the low ids:
// the static split at two threads hands worker 0 at least 70 % of the
// arcs. Weights are small integers, so every path length is exact.
func scheduleFixture(t *testing.T) *pushpull.Graph {
	t.Helper()
	g, err := pushpull.RMAT(pushpull.DefaultRMAT(13, 8, 42))
	if err != nil {
		t.Fatal(err)
	}
	b := pushpull.NewBuilder(g.N())
	for v := pushpull.V(0); int(v) < g.N(); v++ {
		for _, u := range g.Neighbors(v) {
			if v < u {
				b.AddEdgeW(v, u, float32(1+(7*int(v)+13*int(u))%20))
			}
		}
	}
	return b.MustBuild()
}

// sameTree fails unless tree has exactly the given parents and levels.
func sameTree(t *testing.T, what string, tree *pushpull.BFSTree, parent []pushpull.V, level []int32) {
	t.Helper()
	for v := range level {
		if tree.Level[v] != level[v] || tree.Parent[v] != parent[v] {
			t.Fatalf("%s: vertex %d has parent %d at level %d, want %d at %d",
				what, v, tree.Parent[v], tree.Level[v], parent[v], level[v])
		}
	}
}

func TestScheduleIndependence(t *testing.T) {
	skewed := scheduleFixture(t)
	directed := directedSkewedGraph(t, 8192, 7)
	if s := staticShare(skewed, 2); s < 0.70 {
		t.Fatalf("fixture not skewed: the static split gives worker 0 %.2f of the arcs", s)
	}
	const root = 0
	dist := sssp.Dijkstra(skewed, root)
	wantParent, wantLevel := staticPullBFS(skewed, root, 2)
	fixtures := []struct {
		name     string
		w        *pushpull.Workload
		g        *pushpull.Graph
		directed bool
	}{
		{"skewed", pushpull.NewWorkload(skewed, pushpull.AsWeighted()), skewed, false},
		{"directed", pushpull.Directed(directed), directed, true},
	}
	ssspDirs := []pushpull.Direction{pushpull.Push, pushpull.Pull, pushpull.Auto}
	ssspRounds := map[pushpull.Direction]int{}
	for _, dir := range ssspDirs {
		rep := run(t, fixtures[0].w, "sssp", pushpull.WithThreads(1), pushpull.WithSource(root), pushpull.WithDirection(dir))
		ssspRounds[dir] = rep.Stats.Iterations
	}
	for _, f := range fixtures {
		handles := fileHandles(t, f.w)
		for _, threads := range []int{1, 2, 7} {
			t.Run(fmt.Sprintf("%s/t%d", f.name, threads), func(t *testing.T) {
				opts := []pushpull.Option{pushpull.WithThreads(threads), pushpull.WithSource(root),
					pushpull.WithIterations(schedIters), pushpull.WithDamping(schedDamping)}
				pull := append(opts, pushpull.WithDirection(pushpull.Pull))
				push := append(opts, pushpull.WithDirection(pushpull.Push))

				want := staticPR(f.g, f.directed, threads)
				sameRankBits(t, "pr pull", ranksOf(t, run(t, f.w, "pr", pull...)), want)
				for name, h := range handles {
					sameRankBits(t, "pr "+name, ranksOf(t, run(t, h, "pr", pull...)), want)
				}
				if threads > 1 {
					if filled := dealFills(f.g, threads); filled < 2 {
						t.Fatalf("pr push deal fills %d accumulator(s)", filled)
					}
					wantPush := dealPR(f.g, threads)
					for _, procs := range []int{1, 2, 4} {
						atProcs(procs, func() {
							for rerun := 1; rerun <= 2; rerun++ {
								what := fmt.Sprintf("pr push at GOMAXPROCS %d, run %d", procs, rerun)
								sameRankBits(t, what, ranksOf(t, run(t, f.w, "pr", push...)), wantPush)
							}
						})
					}
				}
				if f.directed {
					return // bfs and sssp take undirected graphs only
				}

				tree := run(t, f.w, "bfs", pull...).Tree()
				sameTree(t, "bfs pull", tree, wantParent, wantLevel)
				for name, h := range handles {
					sameTree(t, "bfs "+name, run(t, h, "bfs", pull...).Tree(), wantParent, wantLevel)
				}
				checkBFSTree(t, skewed, root, run(t, f.w, "bfs", push...).Tree(), wantLevel)

				for _, dir := range ssspDirs {
					rep := run(t, f.w, "sssp", append(opts, pushpull.WithDirection(dir))...)
					for v, d := range rep.Ranks() {
						if d != dist[v] {
							t.Fatalf("sssp %v: dist[%d] = %v, want %v", dir, v, d, dist[v])
						}
					}
					if rep.Stats.Iterations != ssspRounds[dir] {
						t.Errorf("sssp %v: %d rounds, %d at one thread", dir, rep.Stats.Iterations, ssspRounds[dir])
					}
				}
			})
		}
	}
}
