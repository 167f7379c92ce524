package graph_test

import (
	"bytes"
	"io"
	"testing"

	"pushpull/internal/gen"
	"pushpull/internal/graph"
)

// edgeListBody is the weighted rmat graph at suite scale 1 (n = 2^16,
// ≈0.96 M arcs, the graph every upload carries) as a directed edge list.
func edgeListBody(b *testing.B) (*graph.CSR, []byte) {
	g, err := gen.NamedWeighted("rmat", 1, 1)
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := graph.WriteEdgeListKind(&buf, g, true); err != nil {
		b.Fatal(err)
	}
	return g, buf.Bytes()
}

func BenchmarkReadEdgeList(b *testing.B) {
	_, body := edgeListBody(b)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := graph.ReadEdgeListKind(bytes.NewReader(body)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWriteEdgeList(b *testing.B) {
	g, body := edgeListBody(b)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := graph.WriteEdgeListKind(io.Discard, g, true); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTranspose transposes the upload graph, as an upload's first
// pull run does: on a graph that has passed Check, as a run's has.
func BenchmarkTranspose(b *testing.B) {
	g, _ := edgeListBody(b)
	if err := g.Check(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		g.Transpose()
	}
}

// BenchmarkBuild builds the upload graph from its arcs as a directed
// weighted edge list, as the reader's Build does.
func BenchmarkBuild(b *testing.B) {
	g, _ := edgeListBody(b)
	bld := graph.NewBuilder(g.N()).Directed()
	for v := graph.V(0); v < g.NumV; v++ {
		ws := g.NeighborWeights(v)
		for i, u := range g.Neighbors(v) {
			bld.AddEdgeW(v, u, ws[i])
		}
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := bld.Build(); err != nil {
			b.Fatal(err)
		}
	}
}
