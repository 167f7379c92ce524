// Package gen provides deterministic graph generators for the families
// evaluated in the paper (§6, Table 2): power-law Kronecker (R-MAT) graphs,
// Erdős–Rényi graphs, and synthetic stand-ins for the real-world datasets
// (social networks with high d̄ and low diameter, purchase networks with low
// d̄ and low diameter, road networks with very low d̄ and large diameter).
//
// The real SNAP datasets (orkut, pokec, livejournal, amazon, roadNet-CA)
// are not redistributable and exceed this environment's memory, so each is
// replaced by a generator producing the same sparsity class at configurable
// scale; DESIGN.md documents the substitution. All generators are seeded
// and deterministic.
package gen

import (
	"fmt"

	"pushpull/internal/graph"
	"pushpull/internal/rng"
)

// RMATParams configures the recursive Kronecker edge sampler of Leskovec
// et al. [36]; (A, B, C, D) are the quadrant probabilities.
type RMATParams struct {
	Scale      int     // n = 2^Scale vertices
	EdgeFactor int     // edges sampled = EdgeFactor * n
	A, B, C, D float64 // must sum to 1
	Seed       uint64
}

// DefaultRMAT returns the Graph500 parameter set (0.57, 0.19, 0.19, 0.05).
func DefaultRMAT(scale, edgeFactor int, seed uint64) RMATParams {
	return RMATParams{Scale: scale, EdgeFactor: edgeFactor, A: 0.57, B: 0.19, C: 0.19, D: 0.05, Seed: seed}
}

// RMAT generates an undirected power-law graph. Duplicate edges and
// self-loops are removed by the builder, so the final m is slightly below
// EdgeFactor·n, just as with the Graph500 generator.
func RMAT(p RMATParams) (*graph.CSR, error) {
	if p.Scale < 0 || p.Scale > 30 {
		return nil, fmt.Errorf("gen: rmat scale %d out of range [0,30]", p.Scale)
	}
	if p.EdgeFactor < 1 {
		return nil, fmt.Errorf("gen: rmat edge factor %d < 1", p.EdgeFactor)
	}
	if s := p.A + p.B + p.C + p.D; s < 0.999 || s > 1.001 {
		return nil, fmt.Errorf("gen: rmat probabilities sum to %v, want 1", s)
	}
	n := 1 << p.Scale
	r := rng.New(p.Seed)
	b := graph.NewBuilder(n)
	edges := p.EdgeFactor * n
	for i := 0; i < edges; i++ {
		u, v := 0, 0
		for bit := 0; bit < p.Scale; bit++ {
			x := r.Float64()
			switch {
			case x < p.A:
				// top-left: no bits set
			case x < p.A+p.B:
				v |= 1 << bit
			case x < p.A+p.B+p.C:
				u |= 1 << bit
			default:
				u |= 1 << bit
				v |= 1 << bit
			}
		}
		b.AddEdge(graph.V(u), graph.V(v))
	}
	return b.Build()
}

// ErdosRenyi generates a G(n, m) graph with m ≈ avgDeg·n sampled edges.
// avgDeg follows the paper's Table 2 convention d̄ = m/n.
func ErdosRenyi(n int, avgDeg float64, seed uint64) (*graph.CSR, error) {
	if n < 1 {
		return nil, fmt.Errorf("gen: erdos-renyi n = %d < 1", n)
	}
	if avgDeg < 0 || avgDeg > float64(n-1)/2 {
		return nil, fmt.Errorf("gen: erdos-renyi average degree %v out of range", avgDeg)
	}
	r := rng.New(seed)
	b := graph.NewBuilder(n)
	m := int(avgDeg * float64(n))
	for i := 0; i < m; i++ {
		b.AddEdge(graph.V(r.Intn(n)), graph.V(r.Intn(n)))
	}
	return b.Build()
}

// RoadGrid generates a road-network-like graph: a rows×cols 2D lattice with
// each lattice edge kept with probability keep, mimicking the very low
// average degree (rca: d̄ = 1.4) and large diameter (D = 849) of road
// networks in Table 2.
func RoadGrid(rows, cols int, keep float64, seed uint64) (*graph.CSR, error) {
	if rows < 1 || cols < 1 {
		return nil, fmt.Errorf("gen: roadgrid %dx%d invalid", rows, cols)
	}
	if keep < 0 || keep > 1 {
		return nil, fmt.Errorf("gen: roadgrid keep probability %v out of [0,1]", keep)
	}
	r := rng.New(seed)
	n := rows * cols
	b := graph.NewBuilder(n)
	id := func(i, j int) graph.V { return graph.V(i*cols + j) }
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if j+1 < cols && r.Bool(keep) {
				b.AddEdge(id(i, j), id(i, j+1))
			}
			if i+1 < rows && r.Bool(keep) {
				b.AddEdge(id(i, j), id(i+1, j))
			}
		}
	}
	return b.Build()
}

// PrefAttach generates a Barabási–Albert preferential-attachment graph:
// each new vertex attaches to k earlier vertices chosen proportionally to
// degree — the purchase-network stand-in (low d̄, low diameter, skewed
// degrees).
func PrefAttach(n, k int, seed uint64) (*graph.CSR, error) {
	if n < 2 || k < 1 || k >= n {
		return nil, fmt.Errorf("gen: prefattach n=%d k=%d invalid", n, k)
	}
	r := rng.New(seed)
	b := graph.NewBuilder(n)
	// targets holds one entry per edge endpoint; sampling uniformly from it
	// implements degree-proportional attachment.
	targets := make([]graph.V, 0, 2*k*n)
	targets = append(targets, 0)
	chosen := map[graph.V]bool{}
	picks := make([]graph.V, 0, k)
	for v := 1; v < n; v++ {
		attach := k
		if v < k {
			attach = v
		}
		clear(chosen)
		picks = picks[:0]
		for len(picks) < attach {
			t := targets[r.Intn(len(targets))]
			if t != graph.V(v) && !chosen[t] {
				chosen[t] = true
				picks = append(picks, t)
			}
		}
		// Attach in draw order, not map order: later draws sample
		// targets, so its order is part of the seeded output.
		for _, t := range picks {
			b.AddEdge(graph.V(v), t)
			targets = append(targets, t)
		}
		targets = append(targets, graph.V(v))
	}
	return b.Build()
}

// Community generates a planted-partition graph with c communities:
// within-community edges with average internal degree dIn and cross edges
// with average external degree dOut (both in the paper's d̄ = m/n
// convention) — the ground-truth-community stand-in for livejournal-like
// inputs.
func Community(n, c int, dIn, dOut float64, seed uint64) (*graph.CSR, error) {
	if n < 1 || c < 1 || c > n {
		return nil, fmt.Errorf("gen: community n=%d c=%d invalid", n, c)
	}
	r := rng.New(seed)
	b := graph.NewBuilder(n)
	size := n / c
	if size < 1 {
		size = 1
	}
	comm := func(v int) int { return v / size }
	mIn := int(dIn * float64(n))
	for i := 0; i < mIn; i++ {
		u := r.Intn(n)
		base := comm(u) * size
		span := size
		if base+span > n {
			span = n - base
		}
		v := base + r.Intn(span)
		b.AddEdge(graph.V(u), graph.V(v))
	}
	mOut := int(dOut * float64(n))
	for i := 0; i < mOut; i++ {
		b.AddEdge(graph.V(r.Intn(n)), graph.V(r.Intn(n)))
	}
	return b.Build()
}

// Path returns the path 0—1—…—(n−1).
func Path(n int) *graph.CSR {
	b := graph.NewBuilder(n)
	for i := 0; i+1 < n; i++ {
		b.AddEdge(graph.V(i), graph.V(i+1))
	}
	return b.MustBuild()
}

// Ring returns the cycle on n vertices.
func Ring(n int) *graph.CSR {
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		b.AddEdge(graph.V(i), graph.V((i+1)%n))
	}
	return b.MustBuild()
}

// Star returns the star with center 0 and n−1 leaves.
func Star(n int) *graph.CSR {
	b := graph.NewBuilder(n)
	for i := 1; i < n; i++ {
		b.AddEdge(0, graph.V(i))
	}
	return b.MustBuild()
}

// Complete returns K_n.
func Complete(n int) *graph.CSR {
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			b.AddEdge(graph.V(i), graph.V(j))
		}
	}
	return b.MustBuild()
}

// BipartiteFull returns K_{a,b}: the extreme case of §5 where a bipartite
// ownership split makes PA pushing issue zero non-atomic local updates.
func BipartiteFull(a, b int) *graph.CSR {
	bl := graph.NewBuilder(a + b)
	for i := 0; i < a; i++ {
		for j := 0; j < b; j++ {
			bl.AddEdge(graph.V(i), graph.V(a+j))
		}
	}
	return bl.MustBuild()
}

// WithUniformWeights returns a copy of g carrying symmetric uniform weights
// in [lo, hi). The weight of {u, v} is derived by hashing (min, max, seed),
// so both directions of an undirected edge always agree.
func WithUniformWeights(g *graph.CSR, lo, hi float32, seed uint64) *graph.CSR {
	out := &graph.CSR{
		NumV:    g.NumV,
		Offsets: g.Offsets,
		Adj:     g.Adj,
		Weights: make([]float32, len(g.Adj)),
	}
	span := hi - lo
	for v := graph.V(0); v < g.NumV; v++ {
		offs := g.Offsets[v]
		for i, u := range g.Neighbors(v) {
			a, b := v, u
			if a > b {
				a, b = b, a
			}
			h := rng.Mix64(seed ^ (uint64(uint32(a))<<32 | uint64(uint32(b))))
			frac := float32(h>>11) / float32(1<<53)
			out.Weights[offs+int64(i)] = lo + span*frac
		}
	}
	return out
}
