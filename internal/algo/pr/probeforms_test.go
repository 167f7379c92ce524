package pr

import (
	"testing"

	"pushpull/internal/counters"
	"pushpull/internal/graph"
	"pushpull/internal/rng"
)

// Why the *Profiled twins are kept by hand: the two ways of writing a
// kernel once and getting both the fast and the counted form out of it
// were measured, and neither is free when the probe is switched off. This
// benchmark is that measurement, kept so it can be repeated on a newer
// toolchain (CONTRIBUTING.md says when to): one pull gather pass over
// 2^18 rows of 15 edges, written three ways.
//
//	shipped         the loop Pull runs
//	type-param-nop  the same loop with the probe events PullProfiled issues,
//	                over a probe type parameter instantiated with the no-op
//	hoisted-guard   the same events behind an `if probed` tested per event,
//	                probed false
//
// On go1.24.0 the type-parameter form ran 26.4–27.3 ms a pass against the
// shipped loop's 4.7–4.9 ms (a method call on a type parameter goes through
// the dictionary and is not inlined, no-op or not), and the guard 6.0–6.5 ms.
// The twins can go when type-param-nop is within noise of shipped.
func BenchmarkGatherProbeForms(b *testing.B) {
	const rows, deg = 1 << 18, 15
	in := &graph.CSR{NumV: rows, Offsets: make([]int64, rows+1), Adj: make([]graph.V, rows*deg)}
	for v := range in.Offsets {
		in.Offsets[v] = int64(v) * deg
	}
	r := rng.New(1)
	for i := range in.Adj {
		in.Adj[i] = graph.V(r.Intn(rows))
	}
	a := modelArrays(Views{in, in}, nil)
	contrib := make([]float64, rows)
	for i := range contrib {
		contrib[i] = 1 / float64(rows*deg)
	}
	next := make([]float64, rows)
	const base, damping = 0.15 / rows, 0.85

	forms := []struct {
		name string
		pass func()
	}{
		{"shipped", func() { gatherShipped(in, contrib, next, base, damping) }},
		{"type-param-nop", func() { gatherTypeParam(counters.NopProbe{}, in, a, contrib, next, base, damping) }},
		{"hoisted-guard", func() { gatherGuarded(false, counters.NopProbe{}, in, a, contrib, next, base, damping) }},
	}
	for _, f := range forms {
		b.Run(f.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				f.pass()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(rows*deg), "ns/edge")
		})
	}
}

func gatherShipped(in *graph.CSR, contrib, next []float64, base, damping float64) {
	for vi := 0; vi < in.N(); vi++ {
		sum := 0.0
		for _, u := range in.Neighbors(graph.V(vi)) {
			sum += contrib[u]
		}
		next[vi] = base + damping*sum
	}
}

func gatherTypeParam[P counters.Probe](p P, in *graph.CSR, a arrays, contrib, next []float64, base, damping float64) {
	p.Exec(regionPullGather)
	for vi := 0; vi < in.N(); vi++ {
		v := graph.V(vi)
		p.Read(a.inOff.Addr(int64(vi)), 8)
		sum := 0.0
		offs := in.Offsets[v]
		for i, u := range in.Neighbors(v) {
			p.Branch(true)
			p.Read(a.inAdj.Addr(offs+int64(i)), 4)
			p.Read(a.contrib.Addr(int64(u)), 8)
			sum += contrib[u]
		}
		p.Write(a.next.Addr(int64(vi)), 8)
		next[vi] = base + damping*sum
	}
}

func gatherGuarded(probed bool, p counters.Probe, in *graph.CSR, a arrays, contrib, next []float64, base, damping float64) {
	if probed {
		p.Exec(regionPullGather)
	}
	for vi := 0; vi < in.N(); vi++ {
		v := graph.V(vi)
		if probed {
			p.Read(a.inOff.Addr(int64(vi)), 8)
		}
		sum := 0.0
		offs := in.Offsets[v]
		for i, u := range in.Neighbors(v) {
			if probed {
				p.Branch(true)
				p.Read(a.inAdj.Addr(offs+int64(i)), 4)
				p.Read(a.contrib.Addr(int64(u)), 8)
			}
			sum += contrib[u]
		}
		if probed {
			p.Write(a.next.Addr(int64(vi)), 8)
		}
		next[vi] = base + damping*sum
	}
}
