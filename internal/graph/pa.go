package graph

// PAGraph is the Partition-Aware representation of §5: each vertex's
// adjacency array is split into a *local* part (neighbors owned by the same
// thread as v) and a *remote* part (neighbors owned by other threads). The
// two parts live in separate contiguous arrays with their own offsets, so
// the representation grows from n + 2m to 2n + 2m cells — the price for
// being able to update local neighbors with plain stores and only remote
// neighbors with atomics (Algorithm 8).
type PAGraph struct {
	G    *CSR // the original graph (weights, degrees)
	Part Partition

	LocOff []int64 // len n+1
	LocAdj []V
	RemOff []int64 // len n+1
	RemAdj []V
}

// BuildPA splits g's adjacency arrays under the given partition.
func BuildPA(g *CSR, part Partition) *PAGraph {
	n := g.NumV
	pa := &PAGraph{
		G:      g,
		Part:   part,
		LocOff: make([]int64, n+1),
		RemOff: make([]int64, n+1),
	}
	// First pass: count local/remote per vertex.
	for v := V(0); v < n; v++ {
		ov := part.Owner(v)
		var loc, rem int64
		for _, u := range g.Neighbors(v) {
			if part.Owner(u) == ov {
				loc++
			} else {
				rem++
			}
		}
		pa.LocOff[v+1] = pa.LocOff[v] + loc
		pa.RemOff[v+1] = pa.RemOff[v] + rem
	}
	pa.LocAdj = make([]V, pa.LocOff[n])
	pa.RemAdj = make([]V, pa.RemOff[n])
	lc := make([]int64, n)
	rc := make([]int64, n)
	copy(lc, pa.LocOff[:n])
	copy(rc, pa.RemOff[:n])
	for v := V(0); v < n; v++ {
		ov := part.Owner(v)
		for _, u := range g.Neighbors(v) {
			if part.Owner(u) == ov {
				pa.LocAdj[lc[v]] = u
				lc[v]++
			} else {
				pa.RemAdj[rc[v]] = u
				rc[v]++
			}
		}
	}
	return pa
}

// Local returns the same-owner neighbors of v.
func (pa *PAGraph) Local(v V) []V { return pa.LocAdj[pa.LocOff[v]:pa.LocOff[v+1]] }

// Remote returns the other-owner neighbors of v.
func (pa *PAGraph) Remote(v V) []V { return pa.RemAdj[pa.RemOff[v]:pa.RemOff[v+1]] }

// RemoteEdges returns the total number of remote adjacency slots — the
// exact number of atomics a PA push iteration issues (§5 bounds it by 0 for
// a bipartite split and 2m when every edge is thread-internal).
func (pa *PAGraph) RemoteEdges() int64 { return pa.RemOff[pa.G.NumV] }
