// Package pram reproduces the paper's theoretical analysis (§2.1, §4): the
// PRAM machine variants (EREW, CREW, Combining-CRCW), the k-relaxation
// cost primitive, the closed-form time/work bounds of §4.1–§4.7, and an
// *executable* step-synchronous PRAM machine that validates the primitive
// bounds and the concurrent-access rules of each model.
package pram

import (
	"fmt"
	"math"

	"pushpull/internal/core"
)

// Model is a PRAM variant with specific concurrent-access rules.
type Model int

const (
	// EREW forbids any concurrent access to a cell.
	EREW Model = iota
	// CREW allows concurrent reads, exclusive writes.
	CREW
	// CRCWCB allows concurrent writes, combined with an associative and
	// commutative operator (the Combining CRCW of Harris [30]).
	CRCWCB
)

// String names the model.
func (m Model) String() string {
	switch m {
	case EREW:
		return "EREW"
	case CREW:
		return "CREW"
	case CRCWCB:
		return "CRCW-CB"
	default:
		return fmt.Sprintf("Model(%d)", int(m))
	}
}

// Cost is an asymptotic (time, work) pair; values are the Θ-expressions of
// §4 with constants 1, useful for comparing variants and validating
// monotonicity, not for wall-clock prediction.
type Cost struct {
	Time float64
	Work float64
}

// Add returns the sum of two costs (sequential composition).
func (c Cost) Add(d Cost) Cost { return Cost{c.Time + d.Time, c.Work + d.Work} }

// Scale multiplies both components by f (loop repetition).
func (c Cost) Scale(f float64) Cost { return Cost{c.Time * f, c.Work * f} }

func kbar(k, p float64) float64 { return math.Max(1, k/p) }

func log2(x float64) float64 {
	if x < 2 {
		return 1
	}
	return math.Log2(x)
}

// KRelaxation is the cost of simultaneously propagating updates from/to k
// vertices to/from one of their neighbors (§4, "Cost Derivations").
// Pulling always costs O(k̄) time and O(k) work. Pushing matches that under
// CRCW-CB; under CREW the conflicting writes are resolved with incomplete
// binary merge-trees of height O(log d̂), inflating both time and work.
func KRelaxation(k, p, dhat float64, m Model, dir core.Direction) Cost {
	base := Cost{Time: kbar(k, p), Work: math.Max(k, 1)}
	if dir == core.Pull {
		return base
	}
	switch m {
	case CRCWCB:
		return base
	default: // CREW and EREW pay the merge-tree factor
		f := log2(dhat)
		return Cost{Time: base.Time * f, Work: base.Work * f}
	}
}

// AlgorithmParams carries the quantities the §4 bounds depend on.
type AlgorithmParams struct {
	N    float64 // vertices
	M    float64 // edges
	Dhat float64 // maximum degree d̂
	P    float64 // processors
	L    float64 // iterations (PR, BGC) or max weighted distance (SSSP)
	D    float64 // diameter (BFS, BC)
	// SSSP-specific:
	Delta  float64 // bucket width Δ
	LDelta float64 // l_Δ: inner iterations per epoch
}

// PageRank returns the §4.1 bounds: pulling O(L(m/P + d̂)) time and O(Lm)
// work; pushing the same in CRCW-CB and a log(d̂) factor more in CREW.
func PageRank(p AlgorithmParams, m Model, dir core.Direction) Cost {
	c := Cost{Time: p.M/p.P + p.Dhat, Work: p.M}
	if dir == core.Push && m != CRCWCB {
		f := log2(p.Dhat)
		c = Cost{Time: c.Time * f, Work: c.Work * f}
	}
	return c.Scale(math.Max(p.L, 1))
}

// TriangleCount returns the §4.2 bounds: O(d̂(m/P + d̂)) time and O(m·d̂)
// work pulling or pushing in CRCW-CB; a log(d̂) factor more pushing in
// CREW.
func TriangleCount(p AlgorithmParams, m Model, dir core.Direction) Cost {
	c := Cost{Time: p.Dhat * (p.M/p.P + p.Dhat), Work: p.M * p.Dhat}
	if dir == core.Push && m != CRCWCB {
		f := log2(p.Dhat)
		c = Cost{Time: c.Time * f, Work: c.Work * f}
	}
	return c
}

// BFS returns the §4.3 bounds: pulling O(D(m/P + d̂)) time and O(Dm) work;
// pushing O(m/P + D(d̂ + log P)) time and O(m) work in CRCW-CB, a log(d̂)
// factor more in CREW.
func BFS(p AlgorithmParams, m Model, dir core.Direction) Cost {
	d := math.Max(p.D, 1)
	if dir == core.Pull {
		return Cost{Time: d * (p.M/p.P + p.Dhat), Work: d * p.M}
	}
	c := Cost{Time: p.M/p.P + d*(p.Dhat+log2(p.P)), Work: p.M}
	if m != CRCWCB {
		f := log2(p.Dhat)
		c = Cost{Time: c.Time * f, Work: c.Work * f}
	}
	return c
}

// SSSPDelta returns the §4.4 bounds with E = L/Δ epochs: pulling
// O(E·l_Δ(m/P + d̂)) time and O(E·m·l_Δ) work; pushing O(m·l_Δ/P +
// E·l_Δ·d̂) time and O(m·l_Δ) work in CRCW-CB (log(d̂) more in CREW).
// Pushing is cheaper because each vertex's edges are relaxed in only one
// epoch.
func SSSPDelta(p AlgorithmParams, m Model, dir core.Direction) Cost {
	epochs := math.Max(p.L/math.Max(p.Delta, 1), 1)
	ld := math.Max(p.LDelta, 1)
	if dir == core.Pull {
		return Cost{Time: epochs * ld * (p.M/p.P + p.Dhat), Work: epochs * p.M * ld}
	}
	c := Cost{Time: p.M*ld/p.P + epochs*ld*p.Dhat, Work: p.M * ld}
	if m != CRCWCB {
		f := log2(p.Dhat)
		c = Cost{Time: c.Time * f, Work: c.Work * f}
	}
	return c
}

// BC returns the §4.5 bounds: 2n BFS invocations dominate parallel
// Brandes.
func BC(p AlgorithmParams, m Model, dir core.Direction) Cost {
	return BFS(p, m, dir).Scale(2 * p.N)
}

// BGC returns the §4.6 bounds: O(L(m/P + d̂)) time and O(Lm) work in both
// directions under CRCW-CB; a log(d̂) factor more pushing in CREW.
func BGC(p AlgorithmParams, m Model, dir core.Direction) Cost {
	c := Cost{Time: p.M/p.P + p.Dhat, Work: p.M}
	if dir == core.Push && m != CRCWCB {
		f := log2(p.Dhat)
		c = Cost{Time: c.Time * f, Work: c.Work * f}
	}
	return c.Scale(math.Max(p.L, 1))
}

// MST returns the §4.7 Borůvka bounds: O(n²/P) time and O(n²) work, a
// log(n) factor more pushing in CREW.
func MST(p AlgorithmParams, m Model, dir core.Direction) Cost {
	c := Cost{Time: p.N * p.N / p.P, Work: p.N * p.N}
	if dir == core.Push && m != CRCWCB {
		f := log2(p.N)
		c = Cost{Time: c.Time * f, Work: c.Work * f}
	}
	return c
}

// ConflictSummary mirrors §4.9: how many read/write conflicts each variant
// incurs and what synchronization resolves them.
type ConflictSummary struct {
	Algorithm      string
	WriteConflicts string // pushing
	ReadConflicts  string // pulling
	PushSync       string // atomics/locks used when pushing
	PullSync       string
}

// Summaries returns the §4.9 table for all seven algorithms.
func Summaries() []ConflictSummary {
	return []ConflictSummary{
		{"PageRank", "O(Lm) float", "O(Lm)", "O(Lm) CAS-float (no CPU float atomics)", "none"},
		{"TriangleCount", "O(m·d̂) int", "O(m·d̂)", "O(m·d̂) FAA", "none"},
		{"BFS", "O(m) int", "O(Dm)", "O(m) CAS", "none"},
		{"SSSP-Δ", "O(m·l_Δ)", "O((L/Δ)m·l_Δ)", "O(m·l_Δ) CAS", "none"},
		{"BC", "floats (phase 2)", "ints", "locks (float accumulation)", "atomics on ints"},
		{"BGC", "O(Lm) int", "O(Lm)", "O(Lm) CAS", "O(Lm) CAS"},
		{"MST", "O(n²) int", "O(n²)", "O(n²) CAS", "none"},
	}
}
