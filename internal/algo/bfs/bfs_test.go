package bfs

import (
	"fmt"
	"sync"
	"testing"
	"testing/quick"

	"pushpull/internal/core"
	"pushpull/internal/gen"
	"pushpull/internal/graph"
)

// refLevels computes BFS levels with a simple sequential queue.
func refLevels(g *graph.CSR, root graph.V) []int32 {
	n := g.N()
	lv := make([]int32, n)
	for i := range lv {
		lv[i] = -1
	}
	if n == 0 {
		return lv
	}
	lv[root] = 0
	q := []graph.V{root}
	for len(q) > 0 {
		v := q[0]
		q = q[1:]
		for _, u := range g.Neighbors(v) {
			if lv[u] < 0 {
				lv[u] = lv[v] + 1
				q = append(q, u)
			}
		}
	}
	return lv
}

func checkTree(t *testing.T, g *graph.CSR, root graph.V, tree *Tree, want []int32) {
	t.Helper()
	for v := 0; v < g.N(); v++ {
		if tree.Level[v] != want[v] {
			t.Fatalf("level[%d] = %d, want %d", v, tree.Level[v], want[v])
		}
		if want[v] <= 0 {
			continue
		}
		// Parent must be a neighbor one level up.
		p := tree.Parent[v]
		if p < 0 || tree.Level[p] != want[v]-1 {
			t.Fatalf("parent[%d] = %d at level %d", v, p, tree.Level[p])
		}
		if !g.HasEdge(p, graph.V(v)) {
			t.Fatalf("parent[%d] = %d is not adjacent", v, p)
		}
	}
	if tree.Parent[root] != root || tree.Level[root] != 0 {
		t.Fatal("root not its own parent at level 0")
	}
}

func modes() []Mode { return []Mode{ForcePush, ForcePull, Auto} }

func TestTraverseAllModes(t *testing.T) {
	g, err := gen.RMAT(gen.DefaultRMAT(10, 8, 17))
	if err != nil {
		t.Fatal(err)
	}
	want := refLevels(g, 0)
	for _, m := range modes() {
		opt := core.Options{Threads: 4}
		tree, _, stats := TraverseFrom(g, 0, m, opt)
		checkTree(t, g, 0, tree, want)
		if stats.Iterations == 0 {
			t.Fatalf("mode %v: no rounds recorded", m)
		}
	}
}

func TestTraversePath(t *testing.T) {
	g := gen.Path(100)
	want := refLevels(g, 0)
	for _, m := range modes() {
		tree, _, _ := TraverseFrom(g, 0, m, core.Options{Threads: 2})
		checkTree(t, g, 0, tree, want)
		if tree.Level[99] != 99 {
			t.Fatalf("mode %v: end level %d", m, tree.Level[99])
		}
	}
}

// TraverseFrom's push rounds claim in one pass: the decrement that takes a
// ready counter to zero wins the vertex and sets its parent. In K(64, 64)
// every frontier vertex of the second round races for every target, so
// exactly one claim per target must land, on a true neighbor one level up.
func TestTraverseClaimRound(t *testing.T) {
	rmat, err := gen.RMAT(gen.DefaultRMAT(10, 8, 17))
	if err != nil {
		t.Fatal(err)
	}
	for name, g := range map[string]*graph.CSR{"rmat": rmat, "k64x64": gen.BipartiteFull(64, 64)} {
		want := refLevels(g, 0)
		for _, m := range []Mode{ForcePush, Auto} {
			for _, threads := range []int{1, 2, 4, 7} {
				t.Run(fmt.Sprintf("%s/%v/t%d", name, m, threads), func(t *testing.T) {
					tree, _, _ := TraverseFrom(g, 0, m, core.Options{Threads: threads})
					checkTree(t, g, 0, tree, want)
				})
			}
		}
	}
}

// At one thread a push round relaxes its frontier in id order, so each
// vertex is claimed by its least-id frontier neighbour: the one a pull
// round finds first in the vertex's sorted row. Forced push, forced pull
// and Auto then build the same tree.
func TestPushPullParentsAgreeAtOneThread(t *testing.T) {
	rmat, err := gen.RMAT(gen.DefaultRMAT(10, 8, 17))
	if err != nil {
		t.Fatal(err)
	}
	road, err := gen.RoadGrid(30, 30, 0.8, 5)
	if err != nil {
		t.Fatal(err)
	}
	er, err := gen.ErdosRenyi(500, 4, 9)
	if err != nil {
		t.Fatal(err)
	}
	for name, g := range map[string]*graph.CSR{"rmat": rmat, "road": road, "er": er, "k64x64": gen.BipartiteFull(64, 64)} {
		for _, root := range []graph.V{0, graph.V(g.N() / 2)} {
			pull, _, _ := TraverseFrom(g, root, ForcePull, core.Options{Threads: 1})
			for _, m := range []Mode{ForcePush, Auto} {
				tree, _, _ := TraverseFrom(g, root, m, core.Options{Threads: 1})
				for v := range pull.Parent {
					if tree.Parent[v] != pull.Parent[v] {
						t.Fatalf("%s root %d %v: parent[%d] = %d, pull's is %d", name, root, m, v, tree.Parent[v], pull.Parent[v])
					}
				}
			}
		}
	}
}

func TestTraverseDisconnected(t *testing.T) {
	b := graph.NewBuilder(6)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(4, 5) // separate component
	g := b.MustBuild()
	for _, m := range modes() {
		tree, _, _ := TraverseFrom(g, 0, m, core.Options{})
		if tree.Reached() != 3 {
			t.Fatalf("mode %v: reached %d, want 3", m, tree.Reached())
		}
		if tree.Level[4] != -1 || tree.Level[3] != -1 {
			t.Fatalf("mode %v: unreachable vertex visited", m)
		}
	}
}

func TestAutoSwitchesOnSocialGraph(t *testing.T) {
	// On a low-diameter power-law graph the frontier explodes; Auto must
	// use pull for at least one middle round and push for the first.
	g, err := gen.RMAT(gen.DefaultRMAT(12, 16, 5))
	if err != nil {
		t.Fatal(err)
	}
	n := g.N()
	ready := make([]int32, n)
	for i := range ready {
		ready[i] = 1
	}
	ready[0] = 0
	ops := &treeOps{parent: make([]int32, n), level: make([]int32, n)}
	for i := range ops.parent {
		ops.parent[i] = -1
	}
	ops.parent[0] = 0
	cfg := &Config{Ready: ready, Mode: Auto}
	cfg.Threads = 2
	_, dirs, _ := Run(g, cfg, ops)
	if len(dirs) < 2 {
		t.Fatalf("only %d rounds", len(dirs))
	}
	if dirs[0] != core.Push {
		t.Fatal("first round should push (tiny frontier)")
	}
	sawPull := false
	for _, d := range dirs {
		if d == core.Pull {
			sawPull = true
		}
	}
	if !sawPull {
		t.Fatal("direction optimization never engaged on a dense social graph")
	}
}

func TestGeneralizedReadyCounters(t *testing.T) {
	// Diamond: 0—1, 0—2, 1—3, 2—3. With ready[3] = 2, vertex 3 must only
	// enter the frontier after BOTH 1 and 2 notified it (round 3), not in
	// round 2 like plain BFS.
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(0, 2)
	b.AddEdge(1, 3)
	b.AddEdge(2, 3)
	g := b.MustBuild()

	for _, m := range []Mode{ForcePush, ForcePull} {
		var entered []int
		ready := []int32{0, 1, 1, 2}
		ops := &recordingOps{entered: map[graph.V]int{}}
		cfg := &Config{Ready: ready, Mode: m}
		rounds, _, _ := Run(g, cfg, ops)
		_ = entered
		// Rounds: {0}, {1,2}, {3} — vertex 3 enters the frontier only in
		// the third round because it waits for two notifications.
		if rounds != 3 {
			t.Fatalf("mode %v: rounds = %d, want 3", m, rounds)
		}
		// Vertex 3 received exactly two combines (from 1 and from 2).
		if ops.entered[3] != 2 {
			t.Fatalf("mode %v: vertex 3 combined %d times, want 2", m, ops.entered[3])
		}
	}
}

// recordingOps counts combine applications per target vertex.
type recordingOps struct {
	mu      sync.Mutex
	entered map[graph.V]int
}

func (r *recordingOps) PushCombine(w, v graph.V) {
	r.mu.Lock()
	r.entered[w]++
	r.mu.Unlock()
}
func (r *recordingOps) PullCombine(v, w graph.V) {
	r.mu.Lock()
	r.entered[v]++
	r.mu.Unlock()
}

func TestEdgeFilter(t *testing.T) {
	// Filter out the direct edge 0→2 in a triangle: levels become 0,1,2.
	b := graph.NewBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(0, 2)
	g := b.MustBuild()
	for _, m := range []Mode{ForcePush, ForcePull} {
		n := g.N()
		ops := &treeOps{parent: make([]int32, n), level: make([]int32, n)}
		for i := range ops.parent {
			ops.parent[i] = -1
			ops.level[i] = -1
		}
		ops.parent[0] = 0
		ops.level[0] = 0
		ready := []int32{0, 1, 1}
		cfg := &Config{Ready: ready, Mode: m,
			Filter: func(from, to graph.V) bool {
				return !(from == 0 && to == 2) && !(from == 2 && to == 0)
			}}
		Run(g, cfg, ops)
		if ops.level[2] != 2 {
			t.Fatalf("mode %v: level[2] = %d, want 2 (filtered)", m, ops.level[2])
		}
	}
}

func TestEmptyAndMismatchedConfig(t *testing.T) {
	g := gen.Ring(8)
	cfg := &Config{Ready: make([]int32, 3)} // wrong length
	rounds, _, _ := Run(g, cfg, &treeOps{})
	if rounds != 0 {
		t.Fatal("mismatched ready accepted")
	}
	empty := graph.NewBuilder(0).MustBuild()
	tree, _, _ := TraverseFrom(empty, 0, Auto, core.Options{})
	if tree.Reached() != 0 {
		t.Fatal("empty graph reached vertices")
	}
}

// Property: push and pull produce identical level assignments on random
// graphs (the BFS tree may differ; levels may not).
func TestPushPullLevelsAgree(t *testing.T) {
	f := func(seed uint64) bool {
		g, err := gen.ErdosRenyi(150, 3, seed)
		if err != nil {
			return false
		}
		want := refLevels(g, 0)
		for _, m := range modes() {
			tree, _, _ := TraverseFrom(g, 0, m, core.Options{Threads: 3})
			for v := range want {
				if tree.Level[v] != want[v] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestModeString(t *testing.T) {
	if Auto.String() != "auto" || ForcePush.String() != "push" || ForcePull.String() != "pull" {
		t.Fatal("mode names")
	}
	if Mode(9).String() != "unknown" {
		t.Fatal("unknown mode name")
	}
}

func BenchmarkBFSPush(b *testing.B) {
	g, _ := gen.RMAT(gen.DefaultRMAT(12, 8, 1))
	for i := 0; i < b.N; i++ {
		TraverseFrom(g, 0, ForcePush, core.Options{})
	}
}

func BenchmarkBFSPull(b *testing.B) {
	g, _ := gen.RMAT(gen.DefaultRMAT(12, 8, 1))
	for i := 0; i < b.N; i++ {
		TraverseFrom(g, 0, ForcePull, core.Options{})
	}
}

func BenchmarkBFSAuto(b *testing.B) {
	g, _ := gen.RMAT(gen.DefaultRMAT(12, 8, 1))
	for i := 0; i < b.N; i++ {
		TraverseFrom(g, 0, Auto, core.Options{})
	}
}
