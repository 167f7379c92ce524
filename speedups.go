package pushpull

// Facade wiring of the degree-sorted CSR permutation (WithDegreeSorted):
// the algorithm adapters hand the permuted view to the kernels and
// un-permute the payload at the report boundary — so callers observe
// identical results and only the run's memory behavior changes.

import (
	"pushpull/internal/algo/bfs"
	"pushpull/internal/algo/gc"
	"pushpull/internal/graph"
)

// sortedView returns the workload's memoized degree-sorted view when the
// run asks for it, nil for the identity layout.
func sortedView(w *Workload, cfg *Config) *DegreeSortedView {
	if cfg.DegreeSorted {
		return w.DegreeSorted()
	}
	return nil
}

// unpermuteFloats lifts a permuted-layout vector back to original vertex
// ids: out[perm[new]] = in[new].
func unpermuteFloats(perm []graph.V, in []float64) []float64 {
	out := make([]float64, len(in))
	for nw, old := range perm {
		out[old] = in[nw]
	}
	return out
}

// unpermuteColors lifts a permuted-layout coloring back to original ids.
func unpermuteColors(ds *DegreeSortedView, in []int32) []int32 {
	out := make([]int32, len(in))
	for nw, old := range ds.Perm {
		out[old] = in[nw]
	}
	return out
}

// unpermuteTree lifts a BFS tree computed on the permuted graph back to
// original ids: levels move with the vertex, parent ids (which are
// permuted-space vertex ids) map through Perm; the -1 of an unreached
// vertex is preserved.
func unpermuteTree(ds *DegreeSortedView, t *bfs.Tree) *bfs.Tree {
	out := &bfs.Tree{Parent: make([]graph.V, len(t.Parent)), Level: make([]int32, len(t.Level))}
	for nw, old := range ds.Perm {
		out.Level[old] = t.Level[nw]
		if p := t.Parent[nw]; p >= 0 {
			out.Parent[old] = ds.Perm[p]
		} else {
			out.Parent[old] = p
		}
	}
	return out
}

// unpermuteColoring rebuilds a gc result with original vertex ids.
func unpermuteColoring(ds *DegreeSortedView, res *gc.Result) *gc.Result {
	out := *res
	out.Colors = unpermuteColors(ds, res.Colors)
	return &out
}
