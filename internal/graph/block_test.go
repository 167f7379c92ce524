package graph

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"pushpull/internal/rng"
)

// writeBlockFile writes pull as a pull-view file in a temp directory and
// returns its path.
func writeBlockFile(t testing.TB, pull *CSR, outDeg []int64) string {
	t.Helper()
	var buf bytes.Buffer
	if err := WritePullView(&buf, pull, outDeg); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "g.csr")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// visitAll collects what VisitArcs streams.
func visitAll(t *testing.T, bg *BlockCSR) (adj []V, ws []float32) {
	t.Helper()
	err := bg.VisitArcs(func(a []V, w []float32) {
		if a != nil && w != nil {
			t.Fatal("one VisitArcs call carries both arcs and weights")
		}
		if w != nil && int64(len(adj)) != bg.M() {
			t.Fatalf("weights streamed after %d of %d arcs", len(adj), bg.M())
		}
		adj = append(adj, a...)
		ws = append(ws, w...)
	})
	if err != nil {
		t.Fatal(err)
	}
	return adj, ws
}

// checkBlockMatchesCSR compares every row of bg against the pull-view CSR
// it was written from, via per-block cursors, and the streamed arcs and
// weights via VisitArcs.
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
	adj, ws := visitAll(t, bg)
	if !slices.Equal(adj, pull.Adj) {
		t.Fatal("VisitArcs streams other arcs than the CSR's")
	}
	if !slices.Equal(ws, pull.Weights) || (ws == nil) != (pull.Weights == nil || pull.M() == 0) {
		t.Fatalf("VisitArcs streams %d weights, the CSR has %d", len(ws), len(pull.Weights))
	}
}

func TestBlockRoundTripUndirected(t *testing.T) {
	g := randomCSR(t, 700, 4200, false, false, 3)
	path := writeBlockFile(t, g, nil)
	for _, tc := range []struct {
		name     string
		buffered bool
	}{
		{"default", false},
		{"buffered", true},
	} {
		bg, err := OpenBlockCSR(path, tc.buffered)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if tc.buffered && bg.Mmapped() {
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
	path := writeBlockFile(t, pull, outDeg)
	bg, err := OpenBlockCSR(path, false)
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
	if err := WritePullView(&bytes.Buffer{}, g, make([]int64, 10)); err == nil {
		t.Fatal("short outDeg accepted")
	}
}

// The block size is derived from n, never stored: ⌈n/64⌉ rounded up to a
// multiple of 64, within [64, 4096].
func TestBlockVertsRounding(t *testing.T) {
	for _, c := range []struct{ n, want int }{
		{0, 64}, {1, 64}, {500, 64}, {4096, 64}, {4097, 128},
		{100000, 1600}, {262144, 4096}, {1 << 20, 4096}, {math.MaxInt32, 4096},
	} {
		if got := blockVertsFor(c.n); int(got) != c.want {
			t.Errorf("blockVertsFor(%d) = %d, want %d", c.n, got, c.want)
		}
	}
	g := randomCSR(t, 5000, 20000, false, false, 7)
	bg, err := OpenBlockCSR(writeBlockFile(t, g, nil), false)
	if err != nil {
		t.Fatal(err)
	}
	defer bg.Close()
	if bg.BlockVerts != 128 || bg.NumBlocks() != 40 {
		t.Fatalf("5000 vertices: blockVerts %d in %d blocks, want 128 in 40", bg.BlockVerts, bg.NumBlocks())
	}
	checkBlockMatchesCSR(t, bg, g)
}

func TestBlockVisitBlocksStreamsAllArcs(t *testing.T) {
	g := randomCSR(t, 400, 3000, true, false, 11)
	bg, err := OpenBlockCSR(writeBlockFile(t, g, nil), true)
	if err != nil {
		t.Fatal(err)
	}
	defer bg.Close()
	adj, ws := visitAll(t, bg)
	if int64(len(adj)) != g.M() || int64(len(ws)) != g.M() {
		t.Fatalf("streamed %d arcs / %d weights, want %d", len(adj), len(ws), g.M())
	}
	for i, v := range g.Adj {
		if adj[i] != v || ws[i] != g.Weights[i] {
			t.Fatalf("arc %d: (%d, %g), want (%d, %g)", i, adj[i], ws[i], v, g.Weights[i])
		}
	}
}

// A kernel's Load reads only a block's arcs, 4 bytes per arc, even where
// the file carries weights (8 bytes per arc on disk).
func TestBlockLoadReadsAdjacencyOnly(t *testing.T) {
	g := randomCSR(t, 400, 3000, true, false, 11)
	path := writeBlockFile(t, g, nil)
	for _, buffered := range []bool{false, true} {
		bg, err := OpenBlockCSR(path, buffered)
		if err != nil {
			t.Fatal(err)
		}
		var cur BlockCursor
		for bi := 0; bi < bg.NumBlocks(); bi++ {
			if err := bg.Load(bi, &cur); err != nil {
				t.Fatal(err)
			}
			lo, hi := bg.BlockRange(bi)
			if got, want := int64(len(cur.seg)), 4*(bg.Offsets[hi]-bg.Offsets[lo]); got != want {
				t.Fatalf("mmapped=%v block %d: loaded %d bytes, want %d", bg.Mmapped(), bi, got, want)
			}
		}
		checkBlockMatchesCSR(t, bg, g)
		bg.Close()
	}
}

// An arc id at or past n passes open (which reads no arc) but fails
// every Load of its block, mmapped and buffered; the other blocks load,
// and each block's ids are checked on its first Load only.
func TestBlockLoadRejectsOutOfRangeID(t *testing.T) {
	g := randomCSR(t, 300, 2000, true, false, 5)
	good, err := os.ReadFile(writeBlockFile(t, g, nil))
	if err != nil {
		t.Fatal(err)
	}
	probe, err := OpenBlockCSR(writeBlockFile(t, g, nil), false)
	if err != nil {
		t.Fatal(err)
	}
	const bad = 2
	_, hi := probe.BlockRange(bad)
	arc := probe.arcAt(probe.Offsets[hi] - 1) // the block's last arc
	probe.Close()
	for _, id := range []uint32{uint32(g.N()), 1 << 31, ^uint32(0)} {
		b := append([]byte(nil), good...)
		binary.LittleEndian.PutUint32(b[arc:], id)
		path := filepath.Join(t.TempDir(), "bad.csr")
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, buffered := range []bool{false, true} {
			bg, err := OpenBlockCSR(path, buffered)
			if err != nil {
				t.Fatalf("id %d: open: %v", id, err)
			}
			var cur BlockCursor
			for round := 0; round < 2; round++ {
				for bi := 0; bi < bg.NumBlocks(); bi++ {
					err := bg.Load(bi, &cur)
					if bi != bad {
						if err != nil {
							t.Fatalf("id %d block %d: %v", id, bi, err)
						}
						if !bg.checked[bi].Load() {
							t.Fatalf("id %d block %d: loaded but not marked checked", id, bi)
						}
						continue
					}
					if err == nil || !strings.Contains(err.Error(), "names vertex") {
						t.Fatalf("id %d mmapped=%v round %d: Load = %v, want an arc-id error", id, bg.Mmapped(), round, err)
					}
					if bg.checked[bi].Load() {
						t.Fatalf("id %d: the bad block is marked checked", id)
					}
				}
			}
			bg.Close()
		}
	}
}

func TestBlockEmptyGraph(t *testing.T) {
	g, err := NewBuilder(0).Build()
	if err != nil {
		t.Fatal(err)
	}
	bg, err := OpenBlockCSR(writeBlockFile(t, g, nil), false)
	if err != nil {
		t.Fatal(err)
	}
	defer bg.Close()
	if bg.N() != 0 || bg.M() != 0 || bg.NumBlocks() != 0 {
		t.Fatalf("empty graph opened as n=%d m=%d blocks=%d", bg.N(), bg.M(), bg.NumBlocks())
	}
}

// blockCorruption is one way to damage a valid pull-view file of an
// undirected, unweighted graph with n > 10 vertices.
type blockCorruption struct {
	name    string
	wantSub string
	mutate  func(b []byte) []byte
}

func blockCorruptions(n int) []blockCorruption {
	return []blockCorruption{
		{"bad-magic", "bad magic", func(b []byte) []byte { b[0] ^= 0xff; return b }},
		{"future-version", "version", func(b []byte) []byte { b[4] = 99; return b }},
		{"unknown-flags", "unknown flag", func(b []byte) []byte { b[8] |= 0x80; return b }},
		{"not-pull-view", "not a pull view", func(b []byte) []byte { b[8] &^= csrFlagPullView; return b }},
		{"truncated-header", "truncated header", func(b []byte) []byte { return b[:16] }},
		{"truncated-offsets", "truncated or corrupt", func(b []byte) []byte { return b[:csrHeaderBytes+40] }},
		{"truncated-segments", "truncated or corrupt", func(b []byte) []byte { return b[:len(b)-64] }},
		{"trailing-bytes", "truncated or corrupt", func(b []byte) []byte { return append(b, 0, 0, 0, 0) }},
		{"flipped-offset", "", func(b []byte) []byte {
			// Corrupting an interior offset breaks monotonicity or the
			// endpoints — either way, open must fail.
			b[csrHeaderBytes+8*10] ^= 0xf0
			return b
		}},
		{"huge-header", "truncated or corrupt", func(b []byte) []byte {
			// A bare header claiming 2^27 vertices: 1 GiB of offsets
			// the 24-byte file cannot hold.
			b = b[:csrHeaderBytes]
			binary.LittleEndian.PutUint32(b[12:], 1<<27)
			return b
		}},
	}
}

// Corruption must fail at open, loudly, never serve a wrong graph, and
// never allocate from a count the file cannot back.
func TestBlockCorruptionRejected(t *testing.T) {
	g := randomCSR(t, 500, 3000, false, false, 13)
	path := writeBlockFile(t, g, nil)
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, tc := range blockCorruptions(g.N()) {
		t.Run(tc.name, func(t *testing.T) {
			b := tc.mutate(append([]byte(nil), good...))
			p := filepath.Join(dir, "bad.csr")
			if err := os.WriteFile(p, b, 0o644); err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			bg, err := OpenBlockCSR(p, false)
			runtime.ReadMemStats(&after)
			if err == nil {
				bg.Close()
				t.Fatal("corrupt file opened cleanly")
			}
			if tc.wantSub != "" && !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not mention %q", err, tc.wantSub)
			}
			if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
				t.Fatalf("rejecting a %d-byte file allocated %d bytes", len(b), alloc)
			}
		})
	}
}

// FuzzOpenBlockFile feeds arbitrary bytes to OpenBlockCSR, mmap-backed
// and buffered. A file it accepts must stream through VisitArcs and
// serve every block whose arc ids are all vertices, refuse the others,
// and serve rows as long as the offsets say with ids below n, all
// without a panic. The seeds are two-block files under a kilobyte: Go's
// minimizer is quadratic in input length.
func FuzzOpenBlockFile(f *testing.F) {
	g := randomCSR(f, 65, 30, false, false, 13)
	good, err := os.ReadFile(writeBlockFile(f, g, nil))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	for _, c := range blockCorruptions(g.N()) {
		f.Add(c.mutate(append([]byte(nil), good...)))
	}
	dw := randomCSR(f, 65, 30, true, true, 17)
	outDeg := make([]int64, dw.N())
	for v := range outDeg {
		outDeg[v] = int64(len(dw.Neighbors(V(v))))
	}
	directed, err := os.ReadFile(writeBlockFile(f, dw, outDeg))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(directed)
	// A worker process runs one input at a time, so one path serves all.
	path := filepath.Join(f.TempDir(), "f.csr")
	f.Fuzz(func(t *testing.T, b []byte) {
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, buffered := range []bool{false, true} {
			bg, err := OpenBlockCSR(path, buffered)
			if err != nil {
				continue
			}
			walkBlockFile(t, bg)
			if err := bg.Close(); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// walkBlockFile streams an opened file through VisitArcs, then loads
// every block: a Load must fail exactly where the streamed block names a
// vertex at or past n, and every row it serves must have the degree's
// length and ids below n.
func walkBlockFile(t *testing.T, bg *BlockCSR) {
	t.Helper()
	adj, ws := visitAll(t, bg)
	if int64(len(adj)) != bg.M() {
		t.Fatalf("visited %d arcs, file holds %d", len(adj), bg.M())
	}
	if bg.Weighted() && len(ws) != len(adj) {
		t.Fatalf("%d arcs carry %d weights", len(adj), len(ws))
	}
	var cur BlockCursor
	for bi := 0; bi < bg.NumBlocks(); bi++ {
		lo, hi := bg.BlockRange(bi)
		bad := slices.ContainsFunc(adj[bg.Offsets[lo]:bg.Offsets[hi]], func(u V) bool { return u < 0 || u >= bg.NumV })
		if err := bg.Load(bi, &cur); (err != nil) != bad {
			t.Fatalf("block %d: Load = %v, block names a non-vertex: %v", bi, err, bad)
		} else if err != nil {
			continue
		}
		for v := lo; v < hi; v++ {
			row := cur.Row(v)
			if got := int64(len(row)); got != bg.Degree(v) {
				t.Fatalf("vertex %d: row of %d arcs, degree %d", v, got, bg.Degree(v))
			}
			for _, u := range row {
				if u < 0 || u >= bg.NumV {
					t.Fatalf("vertex %d: served neighbour %d of %d vertices", v, u, bg.NumV)
				}
			}
		}
	}
}
