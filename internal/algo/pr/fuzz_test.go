package pr

import (
	"fmt"
	"testing"

	"pushpull/internal/graph"
)

// FuzzCheckCSR holds graph.Check to what Push and Pull assume of a graph
// it passes: for an arbitrary small CSR (offsets and arc ids one signed
// byte each, weights present or not), either Check refuses it, or both
// kernels run at one and two threads without a fault, Push at one
// thread equals Sequential bit for bit, and Pull's ranks do not depend
// on the thread count. Pull through the graph's degree-ordered pull view
// (graph.PullByDegree), un-permuted, equals the plain Pull bit for bit,
// with the graph read as directed (pulled along its transpose) and as
// undirected (pulled along its own rows).
func FuzzCheckCSR(f *testing.F) {
	f.Add(int8(3), []byte{0, 2, 3, 4}, []byte{1, 2, 0, 0}, int8(-1)) // a valid digraph
	f.Add(int8(3), []byte{0, 2, 3, 3}, []byte{1, 2, 0}, int8(3))     // valid, weighted, empty last row
	f.Add(int8(2), []byte{0, 1, 2}, []byte{1, 2}, int8(-1))          // an arc past n
	f.Add(int8(2), []byte{0, 1, 2}, []byte{0xff, 0}, int8(-1))       // a negative arc
	f.Add(int8(3), []byte{0, 2, 1, 3}, []byte{1, 2, 0}, int8(-1))    // offsets going back
	f.Add(int8(2), []byte{0, 1}, []byte{1}, int8(-1))                // short offsets
	f.Add(int8(-1), []byte{0}, []byte{}, int8(-1))                   // a negative vertex count
	f.Add(int8(2), []byte{0, 1, 2}, []byte{1, 0}, int8(1))           // one weight for two arcs
	f.Add(int8(1), []byte{0, 3}, []byte{0, 0, 0}, int8(-1))          // self-loops only
	f.Fuzz(func(t *testing.T, n int8, offs, adj []byte, weights int8) {
		g := &graph.CSR{NumV: int32(n), Offsets: make([]int64, len(offs)), Adj: make([]graph.V, len(adj))}
		for i, o := range offs {
			g.Offsets[i] = int64(int8(o))
		}
		for i, u := range adj {
			g.Adj[i] = graph.V(int8(u))
		}
		if weights >= 0 {
			g.Weights = make([]float32, weights)
		}
		if g.Check() != nil {
			return
		}
		in := g.Transpose()
		if err := in.Check(); err != nil {
			t.Fatalf("the transpose of a checked graph fails Check: %v", err)
		}
		vw := Views{Out: g, In: in}
		perm, inv := graph.DegreePerm(g)
		directed, err := graph.PullByDegree(g, true, inv)
		if err != nil {
			t.Fatalf("the degree-ordered pull view of a checked graph: %v", err)
		}
		undirected, err := graph.PullByDegree(g, false, inv)
		if err != nil {
			t.Fatalf("the undirected degree-ordered pull view of a checked graph: %v", err)
		}
		opt := Options{Iterations: 3}
		var pull1 []float64
		for _, threads := range []int{1, 2} {
			opt.Threads = threads
			push, _ := Push(vw, opt)
			pull, _ := Pull(vw, opt)
			bitsEqual(t, fmt.Sprintf("directed degree-ordered pull at t=%d", threads),
				pullDegreeOrdered(directed, perm, opt), pull)
			plain, _ := Pull(Views{Out: g, In: g}, opt)
			bitsEqual(t, fmt.Sprintf("undirected degree-ordered pull at t=%d", threads),
				pullDegreeOrdered(undirected, perm, opt), plain)
			if threads == 1 {
				bitsEqual(t, "push at t=1", push, Sequential(vw, opt))
				pull1 = pull
				continue
			}
			bitsEqual(t, fmt.Sprintf("pull at t=%d", threads), pull, pull1)
		}
	})
}

// pullDegreeOrdered runs Pull over a degree-ordered pull view built under
// the relabelling perm and returns the ranks under the original ids.
func pullDegreeOrdered(dp *graph.DegreePull, perm []graph.V, opt Options) []float64 {
	vw := Views{In: dp.In, OutDeg: dp.OutDeg}
	if dp.OutDeg == nil {
		vw.Out = dp.In
	}
	ranks, _ := Pull(vw, opt)
	out := make([]float64, len(ranks))
	for x, v := range perm {
		out[v] = ranks[x]
	}
	return out
}
