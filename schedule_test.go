package pushpull_test

// Schedule independence. The pull kernels deal rows, blocks and frontier
// vertices to their workers in chunks from a shared cursor, so which
// worker computes which row changes from run to run. No payload whose
// definition does not name a worker may change with it. Every cell below
// runs at 1, 2 and 7 threads and is held to an oracle in this file that
// splits the rows as the static schedule does, one contiguous block per
// worker (sched.SequentialFor).

import (
	"fmt"
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
