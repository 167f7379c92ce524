package pushpull_test

// Out-of-core facade tests. Out-of-core is what a handle is: a DiskStore
// above its block threshold writes the graph's pull view, and
// OpenOutOfCoreWorkload opens that file mmap-backed or, under
// AsBlockBuffered, through bounded buffers. The block kernels on such a
// handle must reproduce the in-memory results (blocked pull PageRank adds
// the same contributions in the same order; bfs levels are unique), the
// capability gate must reject what the block kernels cannot honor, and a
// file handle's identity must stay apart from the in-memory handle's.

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"pushpull"
	"pushpull/internal/graph"
)

// writePullViewFile writes in, a graph's pull view, to path.
func writePullViewFile(t testing.TB, path string, in *graph.CSR, outDeg []int64) {
	t.Helper()
	var buf bytes.Buffer
	if err := graph.WritePullView(&buf, in, outDeg); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// fileHandles persists w through a DiskStore whose threshold sends every
// graph out of core, then opens the file both ways.
func fileHandles(t *testing.T, w *pushpull.Workload) map[string]*pushpull.Workload {
	t.Helper()
	dir := t.TempDir()
	store, err := pushpull.NewDiskStore(dir, pushpull.WithBlockThreshold(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Put("g", w); err != nil {
		t.Fatal(err)
	}
	handles := map[string]*pushpull.Workload{}
	for name, opts := range map[string][]pushpull.WorkloadOption{
		"mmap":     nil,
		"buffered": {pushpull.AsBlockBuffered()},
	} {
		h, err := pushpull.OpenOutOfCoreWorkload(filepath.Join(dir, "g.csr"), opts...)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		t.Cleanup(func() { h.Close() })
		if !h.IsOutOfCore() {
			t.Fatalf("%s: file handle does not report out-of-core", name)
		}
		handles[name] = h
	}
	return handles
}

func TestOutOfCorePRCrossValidate(t *testing.T) {
	for _, tc := range []struct {
		name string
		w    *pushpull.Workload
	}{
		{"undirected", pushpull.NewWorkload(skewedGraph(t))},
		{"directed", pushpull.Directed(directedSkewedGraph(t, 600, 29))},
	} {
		want := run(t, tc.w, "pr", pushpull.WithDirection(pushpull.Pull)).Result.([]float64)
		for name, h := range fileHandles(t, tc.w) {
			got := run(t, h, "pr", pushpull.WithThreads(4)).Result.([]float64)
			if d := pushpull.MaxDiff(got, want); d > 1e-9 {
				t.Errorf("%s/%s: blocked pr diverges from plain pull: max diff %g", tc.name, name, d)
			}
		}
	}
}

// A pure file handle has no in-memory graph to derive views from: each
// in-memory view returns nil (Stats the zero statistics) instead of
// panicking, and nothing is built. The block view and the ID still work.
func TestOutOfCoreHandleViewsNil(t *testing.T) {
	for _, tc := range []struct {
		name string
		w    *pushpull.Workload
	}{
		{"undirected", pushpull.NewWorkload(skewedGraph(t))},
		{"directed", pushpull.Directed(directedSkewedGraph(t, 600, 29))},
	} {
		for name, h := range fileHandles(t, tc.w) {
			t.Run(tc.name+"/"+name, func(t *testing.T) {
				if h.Transpose() != nil {
					t.Error("Transpose() != nil")
				}
				if h.DegreeSorted() != nil {
					t.Error("DegreeSorted() != nil")
				}
				if h.SortedTranspose() != nil {
					t.Error("SortedTranspose() != nil")
				}
				if h.PA(2) != nil {
					t.Error("PA(2) != nil")
				}
				if s := h.Stats(); s != (pushpull.GraphStats{}) {
					t.Errorf("Stats() = %+v, want the zero statistics", s)
				}
				if blk, err := h.OutOfCore(); err != nil || blk == nil {
					t.Errorf("OutOfCore() = %v, %v; want the open block view", blk, err)
				}
				if h.ID() == "" {
					t.Error("ID() is empty")
				}
				if b := h.Builds(); b != (pushpull.WorkloadBuilds{}) {
					t.Errorf("Builds() = %+v, want nothing built", b)
				}
			})
		}
	}
}

// A buffered file handle keeps the O(n) vertex state and one block per
// worker resident, never the adjacency: a 20-iteration pull pr over 64
// blocks must allocate less than the 4·m bytes of the adjacency alone,
// and still reproduce the in-memory ranks. Blocks are dealt to workers
// from a shared cursor, so any worker may load the largest block; each
// worker's read buffer is sized for it once. Beyond what the same run
// allocates over the mapped file (its vectors and bookkeeping), the
// buffered run may hold t buffers of the largest block, each rounded up
// to the allocator's 8 KiB pages, and no buffer that grew block by block.
func TestOutOfCorePRResidency(t *testing.T) {
	g, err := pushpull.RMAT(pushpull.DefaultRMAT(13, 16, 42))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "g.csr")
	writePullViewFile(t, path, g, nil)
	const threads = 2
	opts := []pushpull.Option{pushpull.WithDirection(pushpull.Pull), pushpull.WithIterations(20), pushpull.WithThreads(threads)}
	want := run(t, pushpull.NewWorkload(g), "pr", opts...).Ranks()
	allocated := func(h *pushpull.Workload) (uint64, []float64) {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		ranks := run(t, h, "pr", opts...).Ranks()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc, ranks
	}
	mapped, err := pushpull.OpenOutOfCoreWorkload(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	h, err := pushpull.OpenOutOfCoreWorkload(path, pushpull.AsBlockBuffered())
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	base, _ := allocated(mapped)
	alloc, got := allocated(h)
	adjacency := 4 * uint64(g.M())
	if alloc >= adjacency {
		t.Errorf("pr over %d blocks allocated %d bytes, the adjacency is %d", g.N()/128, alloc, adjacency)
	}
	blk, err := h.OutOfCore()
	if err != nil {
		t.Fatal(err)
	}
	var largest uint64
	for bi := 0; bi < blk.NumBlocks(); bi++ {
		lo, hi := blk.BlockRange(bi)
		largest = max(largest, 4*uint64(blk.Offsets[hi]-blk.Offsets[lo]))
	}
	const page, noise = 8 << 10, 16 << 10
	buffers := threads * ((largest + page - 1) / page * page)
	if beyond := alloc - min(alloc, base); beyond > buffers+noise {
		t.Errorf("the buffered run allocated %d bytes beyond the mapped run's %d; %d workers' buffers of the largest block (%d bytes) come to %d",
			beyond, base, threads, largest, buffers)
	}
	if d := pushpull.MaxDiff(want, got); d > 1e-9 {
		t.Errorf("buffered pr diverges from in-memory pull: max diff %g", d)
	}
}

func TestOutOfCoreBFSCrossValidate(t *testing.T) {
	g := skewedGraph(t)
	w := pushpull.NewWorkload(g)
	want := run(t, w, "bfs",
		pushpull.WithSource(0), pushpull.WithDirection(pushpull.Pull)).Result.(*pushpull.BFSTree).Level
	for name, h := range fileHandles(t, w) {
		rep := run(t, h, "bfs", pushpull.WithSource(0), pushpull.WithThreads(4))
		checkBFSTree(t, g, 0, rep.Result.(*pushpull.BFSTree), want)
		for i, d := range rep.Directions {
			if d != pushpull.Pull {
				t.Fatalf("%s: round %d ran %v, want pull", name, i, d)
			}
		}
	}
}

// A pull-view file whose arc names a vertex at or past n opens (open reads
// no arc), but pr and bfs on it must fail with an error, mmapped and
// buffered, not index past their arrays in a worker goroutine.
func TestOutOfCoreCorruptArcIDIsAnError(t *testing.T) {
	g := skewedGraph(t)
	path := filepath.Join(t.TempDir(), "g.csr")
	writePullViewFile(t, path, g, nil)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// The first arc follows the 24-byte header and the n+1 offsets.
	binary.LittleEndian.PutUint32(b[24+8*(g.N()+1):], uint32(g.N()))
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	for name, opts := range map[string][]pushpull.WorkloadOption{
		"mmap":     nil,
		"buffered": {pushpull.AsBlockBuffered()},
	} {
		h, err := pushpull.OpenOutOfCoreWorkload(path, opts...)
		if err != nil {
			t.Fatalf("%s: open: %v", name, err)
		}
		for _, alg := range []string{"pr", "bfs"} {
			_, err := pushpull.Run(context.Background(), h, alg, pushpull.WithSource(0), pushpull.WithThreads(2))
			if err == nil || !strings.Contains(err.Error(), "names vertex") {
				t.Errorf("%s %s: Run = %v, want the arc-id error", name, alg, err)
			}
		}
		h.Close()
	}
}

func TestOutOfCoreCapsErrors(t *testing.T) {
	ctx := context.Background()
	h := fileHandles(t, pushpull.NewWorkload(skewedGraph(t)))["mmap"]
	// No block kernel: the file handle has no in-memory graph to fall back to.
	if _, err := pushpull.Run(ctx, h, "tc"); !errors.Is(err, pushpull.ErrOutOfCoreUnsupported) {
		t.Fatalf("tc on a file handle: %v, want ErrOutOfCoreUnsupported", err)
	}
	// The block kernels are uninstrumented.
	for _, algo := range []string{"pr", "bfs"} {
		if _, err := pushpull.Run(ctx, h, algo, pushpull.WithProbes()); !errors.Is(err, pushpull.ErrProbesUnsupported) {
			t.Fatalf("probed %s on a file handle: %v, want ErrProbesUnsupported", algo, err)
		}
	}
	// Block kernels are pull-only over the plain layout.
	for name, opt := range map[string]pushpull.Option{
		"push":        pushpull.WithDirection(pushpull.Push),
		"degree-sort": pushpull.WithDegreeSorted(),
	} {
		if _, err := pushpull.Run(ctx, h, "pr", opt); !errors.Is(err, pushpull.ErrBadOption) {
			t.Fatalf("pr on a file handle with %s: %v, want ErrBadOption", name, err)
		}
	}
}

func TestOutOfCoreHandleCacheKeyAndID(t *testing.T) {
	w := pushpull.NewWorkload(undirectedGraph(t, 400, 5))
	// A file handle is out-of-core by what it is, and its ID says so: it
	// never shares the in-memory handle's cache entries.
	file := fileHandles(t, w)["mmap"]
	if w.ID() == file.ID() {
		t.Fatal("a file handle shares the in-memory handle's content ID")
	}
	e := pushpull.NewEngine()
	runE := func(on *pushpull.Workload) *pushpull.Report {
		t.Helper()
		rep, err := e.Run(context.Background(), on, "pr")
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	if rep := runE(file); rep.Stats.CacheHit {
		t.Fatal("first file-handle run cannot be a cache hit")
	}
	if rep := runE(file); !rep.Stats.CacheHit {
		t.Fatal("identical file-handle run must hit the cache")
	}
	if rep := runE(w); rep.Stats.CacheHit {
		t.Fatal("in-memory run must not share the file handle's key")
	}
}
