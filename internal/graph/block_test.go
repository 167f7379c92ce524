package graph

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pushpull/internal/rng"
)

// writeBlockFile serializes pull to a temp file and returns its path.
func writeBlockFile(t testing.TB, pull *CSR, outDeg []int64, blockVerts int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.blk")
	if err := WriteBlockFile(path, pull, outDeg, blockVerts); err != nil {
		t.Fatal(err)
	}
	return path
}

// checkBlockMatchesCSR compares every row of bg against the pull-view CSR
// it was written from, via per-block cursors, and every block's weights
// via VisitBlocks.
func checkBlockMatchesCSR(t *testing.T, bg *BlockCSR, pull *CSR) {
	t.Helper()
	if bg.N() != pull.N() || bg.M() != pull.M() {
		t.Fatalf("shape: block %d/%d, csr %d/%d", bg.N(), bg.M(), pull.N(), pull.M())
	}
	var cur BlockCursor
	for bi := 0; bi < bg.NumBlocks(); bi++ {
		if err := bg.Load(bi, &cur); err != nil {
			t.Fatal(err)
		}
		lo, hi := bg.BlockRange(bi)
		for v := lo; v < hi; v++ {
			want := pull.Neighbors(v)
			got := cur.Row(v)
			if len(got) != len(want) {
				t.Fatalf("vertex %d: row length %d, want %d", v, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("vertex %d edge %d: %d, want %d", v, i, got[i], want[i])
				}
			}
		}
	}
	bi := 0
	err := bg.VisitBlocks(func(_ []V, gw []float32) error {
		lo, hi := bg.BlockRange(bi)
		bi++
		if !pull.Weighted() {
			if gw != nil {
				t.Fatalf("block of vertex %d: weights on an unweighted file", lo)
			}
			return nil
		}
		ww := pull.Weights[pull.Offsets[lo]:pull.Offsets[hi]]
		if len(gw) != len(ww) {
			t.Fatalf("block of vertex %d: weight length %d, want %d", lo, len(gw), len(ww))
		}
		for i := range ww {
			if gw[i] != ww[i] {
				t.Fatalf("block of vertex %d weight %d: %g, want %g", lo, i, gw[i], ww[i])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBlockRoundTripUndirected(t *testing.T) {
	g := randomCSR(t, 700, 4200, false, false, 3)
	path := writeBlockFile(t, g, nil, 64)
	for _, tc := range []struct {
		name string
		opts []BlockOpt
	}{
		{"default", nil},
		{"buffered", []BlockOpt{Buffered()}},
	} {
		bg, err := OpenBlockCSR(path, tc.opts...)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(tc.opts) > 0 && bg.Mmapped() {
			t.Fatalf("%s: Buffered() still mmapped", tc.name)
		}
		if bg.Directed() || bg.Weighted() {
			t.Fatalf("%s: flags directed=%v weighted=%v", tc.name, bg.Directed(), bg.Weighted())
		}
		if bg.BlockVerts != 64 || bg.NumBlocks() != (g.N()+63)/64 {
			t.Fatalf("%s: blockVerts=%d numBlocks=%d", tc.name, bg.BlockVerts, bg.NumBlocks())
		}
		checkBlockMatchesCSR(t, bg, g)
		// Undirected: contribution degree is the plain degree.
		for v := V(0); v < bg.NumV; v++ {
			if bg.ContribDegree(v) != bg.Degree(v) {
				t.Fatalf("%s: vertex %d contrib %d != degree %d", tc.name, v, bg.ContribDegree(v), bg.Degree(v))
			}
		}
		if err := bg.Close(); err != nil {
			t.Fatalf("%s: close: %v", tc.name, err)
		}
	}
}

func TestBlockRoundTripDirectedWeighted(t *testing.T) {
	// A directed file stores the pull view (the transpose) plus the
	// out-degree sidecar of the forward graph.
	r := rng.New(9)
	const n = 300
	fwd := NewBuilder(n).Directed().KeepDuplicates()
	rev := NewBuilder(n).Directed().KeepDuplicates()
	for i := 0; i < 2000; i++ {
		u := V(r.Uint64() % n)
		v := V(r.Uint64() % n)
		w := float32(i%17) + 0.5
		fwd.AddEdgeW(u, v, w)
		rev.AddEdgeW(v, u, w)
	}
	g, err := fwd.Build()
	if err != nil {
		t.Fatal(err)
	}
	pull, err := rev.Build()
	if err != nil {
		t.Fatal(err)
	}
	outDeg := make([]int64, n)
	for v := V(0); v < n; v++ {
		outDeg[v] = int64(len(g.Neighbors(v)))
	}
	path := writeBlockFile(t, pull, outDeg, 64)
	bg, err := OpenBlockCSR(path)
	if err != nil {
		t.Fatal(err)
	}
	defer bg.Close()
	if !bg.Directed() || !bg.Weighted() {
		t.Fatalf("flags directed=%v weighted=%v", bg.Directed(), bg.Weighted())
	}
	checkBlockMatchesCSR(t, bg, pull)
	for v := V(0); v < n; v++ {
		if bg.ContribDegree(v) != outDeg[v] {
			t.Fatalf("vertex %d: contrib %d, out-degree %d", v, bg.ContribDegree(v), outDeg[v])
		}
	}
}

func TestBlockOutDegLengthMismatch(t *testing.T) {
	g := randomCSR(t, 64, 200, false, false, 5)
	if err := WriteBlock(&bytes.Buffer{}, g, make([]int64, 10), 64); err == nil {
		t.Fatal("short outDeg accepted")
	}
}

func TestBlockVertsRounding(t *testing.T) {
	g := randomCSR(t, 500, 2500, false, false, 7)
	// 100 rounds up to the next multiple of 64; <=0 selects the default.
	bg, err := OpenBlockCSR(writeBlockFile(t, g, nil, 100))
	if err != nil {
		t.Fatal(err)
	}
	if bg.BlockVerts != 128 {
		t.Fatalf("blockVerts = %d, want 128", bg.BlockVerts)
	}
	bg.Close()
	bg, err = OpenBlockCSR(writeBlockFile(t, g, nil, 0))
	if err != nil {
		t.Fatal(err)
	}
	if bg.BlockVerts != DefaultBlockVerts {
		t.Fatalf("blockVerts = %d, want default %d", bg.BlockVerts, DefaultBlockVerts)
	}
	bg.Close()
}

func TestBlockVisitBlocksStreamsAllArcs(t *testing.T) {
	g := randomCSR(t, 400, 3000, true, false, 11)
	bg, err := OpenBlockCSR(writeBlockFile(t, g, nil, 64), Buffered())
	if err != nil {
		t.Fatal(err)
	}
	defer bg.Close()
	var adj []V
	var ws []float32
	if err := bg.VisitBlocks(func(a []V, w []float32) error {
		adj = append(adj, a...)
		ws = append(ws, w...)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if int64(len(adj)) != g.M() || int64(len(ws)) != g.M() {
		t.Fatalf("streamed %d arcs / %d weights, want %d", len(adj), len(ws), g.M())
	}
	for i, v := range g.Adj {
		if adj[i] != v || ws[i] != g.Weights[i] {
			t.Fatalf("arc %d: (%d, %g), want (%d, %g)", i, adj[i], ws[i], v, g.Weights[i])
		}
	}
}

func TestBlockEmptyGraph(t *testing.T) {
	g, err := NewBuilder(0).Build()
	if err != nil {
		t.Fatal(err)
	}
	bg, err := OpenBlockCSR(writeBlockFile(t, g, nil, 64))
	if err != nil {
		t.Fatal(err)
	}
	defer bg.Close()
	if bg.N() != 0 || bg.M() != 0 || bg.NumBlocks() != 0 {
		t.Fatalf("empty graph opened as n=%d m=%d blocks=%d", bg.N(), bg.M(), bg.NumBlocks())
	}
}

// Corruption must fail at open, loudly, never serve a wrong graph.
func TestBlockCorruptionRejected(t *testing.T) {
	g := randomCSR(t, 500, 3000, false, false, 13)
	path := writeBlockFile(t, g, nil, 64)
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	openMutated := func(t *testing.T, mutate func(b []byte) []byte) error {
		t.Helper()
		b := mutate(append([]byte(nil), good...))
		p := filepath.Join(dir, "bad.blk")
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		bg, err := OpenBlockCSR(p)
		if err == nil {
			bg.Close()
		}
		return err
	}
	cases := []struct {
		name    string
		wantSub string
		mutate  func(b []byte) []byte
	}{
		{"bad-magic", "bad magic", func(b []byte) []byte { b[0] ^= 0xff; return b }},
		{"future-version", "version", func(b []byte) []byte { b[4] = 99; return b }},
		{"unknown-flags", "unknown flag", func(b []byte) []byte { b[8] |= 0x80; return b }},
		{"bad-block-size", "multiple of 64", func(b []byte) []byte { b[12] = 65; b[13] = 0; return b }},
		{"truncated-header", "truncated header", func(b []byte) []byte { return b[:16] }},
		{"truncated-offsets", "truncated offsets", func(b []byte) []byte { return b[:blockHeaderBytes+40] }},
		{"truncated-segments", "truncated file", func(b []byte) []byte { return b[:len(b)-64] }},
		{"flipped-block-index", "block index entry", func(b []byte) []byte {
			// First block-index entry sits right after header + offsets.
			idx := blockHeaderBytes + (g.N()+1)*8
			b[idx] ^= 0x01
			return b
		}},
		{"flipped-offset", "", func(b []byte) []byte {
			// Corrupting an interior offset breaks monotonicity or the
			// index revalidation — either way, open must fail.
			b[blockHeaderBytes+8*10] ^= 0xf0
			return b
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := openMutated(t, tc.mutate)
			if err == nil {
				t.Fatal("corrupt file opened cleanly")
			}
			if tc.wantSub != "" && !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}
}
