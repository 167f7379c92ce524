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

// BuildPA splits g's adjacency arrays under the given partition with one
// scatter of g's rows into 2n rows: row v takes v's local arcs and row n+v
// its remote ones, each in g's order, so one arc array holds LocAdj and
// then RemAdj. Its cursors take t·2n·8 bytes, at most 8 per arc.
func BuildPA(g *CSR, part Partition) *PAGraph { return buildPA(g, part, g.workersFor(2*g.N())) }

// buildPA is BuildPA on t scatter workers. An arc v→u is local when u
// lies in the range of vertices that v's owner owns.
func buildPA(g *CSR, part Partition, t int) *PAGraph {
	n := g.N()
	adj := make([]V, g.M())
	off, _ := scatter(2*n, rowBounds(g, t), func(lo, hi int, cnt []int64) bool {
		for v := V(lo); v < V(hi); v++ {
			l, h := part.Range(part.Owner(v))
			for _, u := range g.Neighbors(v) {
				if l <= u && u < h {
					cnt[v]++
				}
			}
			cnt[n+int(v)] = g.Degree(v) - cnt[v]
		}
		return true
	}, func(lo, hi int, cur []int64) {
		for v := V(lo); v < V(hi); v++ {
			l, h := part.Range(part.Owner(v))
			for _, u := range g.Neighbors(v) {
				r := n + int(v)
				if l <= u && u < h {
					r = int(v)
				}
				adj[cur[r]] = u
				cur[r]++
			}
		}
	})
	// Copied out, so that the view does not keep all 2n+1 offsets.
	pa := &PAGraph{G: g, Part: part, LocOff: make([]int64, n+1), RemOff: make([]int64, n+1)}
	for v := range pa.LocOff {
		pa.LocOff[v], pa.RemOff[v] = off[v], off[n+v]-off[n]
	}
	pa.LocAdj, pa.RemAdj = adj[:off[n]:off[n]], adj[off[n]:]
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
