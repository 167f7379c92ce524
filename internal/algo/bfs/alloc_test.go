package bfs

import (
	"testing"

	"pushpull/internal/core"
	"pushpull/internal/graph"
)

// pathGraph builds a path 0–1–…–(length-1) padded with isolated vertices
// up to n, so two graphs of different path length have identical vertex
// counts — and therefore identical setup allocations — while differing in
// round count.
func pathGraph(t testing.TB, n, length int) *graph.CSR {
	t.Helper()
	b := graph.NewBuilder(n)
	for i := 0; i < length-1; i++ {
		b.AddEdge(graph.V(i), graph.V(i+1))
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// Steady-state zero-allocation proof for the push traversal: each round
// of a path traversal does identical work (a one-vertex frontier), so
// doubling the round count must not change the allocation count. Run at
// Threads 1 so the round loop executes inline.
func TestPushSteadyStateAllocs(t *testing.T) {
	const n = 1024
	short := pathGraph(t, n, 20)
	long := pathGraph(t, n, 40)
	opt := core.Options{Threads: 1}
	a20 := testing.AllocsPerRun(5, func() { TraverseFrom(short, 0, ForcePush, opt) })
	a40 := testing.AllocsPerRun(5, func() { TraverseFrom(long, 0, ForcePush, opt) })
	if a20 != a40 {
		t.Errorf("push rounds allocate: %.0f allocs over 20 rounds vs %.0f over 40", a20, a40)
	}
}

// The pull rounds share the hoisted bodies, so the same invariant holds
// bottom-up.
func TestPullSteadyStateAllocs(t *testing.T) {
	const n = 1024
	short := pathGraph(t, n, 20)
	long := pathGraph(t, n, 40)
	opt := core.Options{Threads: 1}
	a20 := testing.AllocsPerRun(5, func() { TraverseFrom(short, 0, ForcePull, opt) })
	a40 := testing.AllocsPerRun(5, func() { TraverseFrom(long, 0, ForcePull, opt) })
	if a20 != a40 {
		t.Errorf("pull rounds allocate: %.0f allocs over 20 rounds vs %.0f over 40", a20, a40)
	}
}
