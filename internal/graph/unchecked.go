package graph

import "unsafe"

// Reads without bounds checks, for the PageRank gather and scatter. Go
// checks every index of contrib[u] and every re-slice of Adj by a row's
// offsets; a graph that passed Check has every offset and arc id in
// range, so those checks can never fail there (BenchmarkGatherProbeForms
// in internal/algo/pr times the loop with and without them). These
// helpers, block.go's casts and io.go's aliasString (a field handed to
// strconv without a copy) are the tree's only uses of package unsafe;
// each caller of these must hold a checked graph (or a block whose ids
// Load checked) and vectors of length N. The pointer arithmetic is
// written as unsafe.Pointer(uintptr(p) + off), the form -race's checkptr
// instruments.

// Row returns v's arcs, like Neighbors, without bounds checks. g must
// have passed Check and v must lie in [0, N).
func (g *CSR) Row(v V) []V {
	lo := *(*int64)(unsafe.Pointer(uintptr(unsafe.Pointer(unsafe.SliceData(g.Offsets))) + uintptr(v)*8))
	hi := *(*int64)(unsafe.Pointer(uintptr(unsafe.Pointer(unsafe.SliceData(g.Offsets))) + uintptr(v)*8 + 8))
	if lo == hi {
		// An empty last row would point one past the end of Adj, which
		// the garbage collector must not be shown.
		return nil
	}
	return unsafe.Slice((*V)(unsafe.Pointer(uintptr(unsafe.Pointer(unsafe.SliceData(g.Adj)))+uintptr(lo)*4)), hi-lo)
}

// SumAt returns x[ids[0]] + x[ids[1]] + ..., added in order from 0,
// without bounds checks. Every id must lie in [0, len(x)).
func SumAt(x []float64, ids []V) float64 {
	s := 0.0
	for _, u := range ids {
		s += *(*float64)(unsafe.Pointer(uintptr(unsafe.Pointer(unsafe.SliceData(x))) + uintptr(u)*8))
	}
	return s
}

// AddAt adds c to x[u] for every u in ids, in order, without bounds
// checks. Every id must lie in [0, len(x)).
func AddAt(x []float64, ids []V, c float64) {
	for _, u := range ids {
		*(*float64)(unsafe.Pointer(uintptr(unsafe.Pointer(unsafe.SliceData(x))) + uintptr(u)*8)) += c
	}
}
