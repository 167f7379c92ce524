package pushpull

// Workload handles: the per-graph object that makes graph *kind* —
// undirected vs directed, weighted vs not, in memory vs on file —
// first-class in the engine API, and that owns the expensive derived views
// every run otherwise recomputes or cannot reach at all.
//
// The paper's §4.8 observation motivates the design: pushing iterates the
// out-edges of a subset of vertices while pulling iterates the in-edges of
// all of them, so a directed graph needs *both* adjacency views and the
// cost bounds split into d̂out vs d̂in. That is all a directed workload
// changes: the kernels are the same, handed a different pair of views
// (Graph and Transpose, which for an undirected workload are one CSR). The
// transpose (in-CSR) realizing the pull view, the Partition-Awareness
// split of §5, and the Table 2 graph statistics are all O(n + m)
// constructions worth exactly one build per graph — so the Workload builds
// them lazily and memoizes them for every subsequent Run, the
// engine-owned-view pattern of pull-frontier systems.
//
// A handle declares what the graph is and where it lives, never how a run
// should lay it out: the degree-sorted permutation is asked for per run
// (WithDegreeSorted) and memoized here. Out-of-core is where the graph
// lives, so only a file handle (OpenOutOfCoreWorkload, a DiskStore graph
// above its block threshold) runs the block kernels.

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"sync"

	"pushpull/internal/algo/sssp"
	"pushpull/internal/graph"
)

// Runnable is what Run executes an algorithm on: either a bare *Graph
// (auto-wrapped into a single-use undirected Workload) or a *Workload
// handle that declares the graph kind and memoizes derived views across
// runs. No other type is accepted; Run rejects anything else at runtime.
type Runnable interface {
	// N returns the vertex count of the underlying graph.
	N() int
	// M returns the number of stored directed edge slots.
	M() int64
}

// Workload binds a graph to its declared kind (directed, weighted) and
// lazily builds + memoizes the derived state repeated runs share: the
// transpose (in-CSR) powering directed pull, the Partition-Awareness split
// per partition count (§5), the Table 2 statistics, and sssp's heuristic
// Δ with its light view. A Workload is safe for concurrent Runs.
type Workload struct {
	g        *Graph
	directed bool
	// weightsDeclared records a Weighted(...)/AsWeighted() claim, checked
	// against the graph at Run time so a mismatch fails fast and typed.
	weightsDeclared bool
	// blockBuffered forces the buffered ReadAt reader over mmap — a
	// machine-local I/O choice (it bounds the resident set to one block per
	// worker), deliberately NOT part of the content identity.
	blockBuffered bool

	mu          sync.Mutex
	transpose   *Graph
	ds          *DegreeSortedView
	dsTranspose *Graph
	stats       *GraphStats
	pa          map[int]*PAGraph
	sssp        *sssp.View
	blk         *graph.BlockCSR
	builds      WorkloadBuilds
	id          string
}

// WorkloadBuilds counts the derived-view constructions a Workload has
// performed — the observable behind memoization tests: a second Run on the
// same handle must not increase these.
type WorkloadBuilds struct {
	// Transposes counts in-CSR (transpose) builds.
	Transposes int
	// PASplits counts Partition-Awareness layout builds (one per distinct
	// partition count).
	PASplits int
	// Stats counts Table 2 statistics computations.
	Stats int
	// DegreeSorts counts degree-sorted CSR permutation builds.
	DegreeSorts int
	// BlockBuilds counts out-of-core block-view constructions (write the
	// block file, reopen it mmap/buffered).
	BlockBuilds int
	// LightViews counts Δ-stepping light-view builds (the arcs lighter
	// than Δ as a CSR): at most one, by the first sssp run at the
	// heuristic Δ that reads it. A run with an explicit WithDelta builds
	// its own and leaves this count alone, so requests with distinct Δ
	// values cannot grow the handle's memory.
	LightViews int
}

// WorkloadOption declares one aspect of a workload's kind at construction.
type WorkloadOption func(*Workload)

// AsDirected declares the graph directed: its CSR rows are out-edges, the
// memoized transpose supplies in-edges, and only algorithms whose Caps
// report Directed support will run.
func AsDirected() WorkloadOption { return func(w *Workload) { w.directed = true } }

// AsWeighted declares that the workload requires edge weights. A graph
// without weights then fails every Run fast with ErrNeedsWeights instead
// of computing over silently-assumed unit weights.
func AsWeighted() WorkloadOption { return func(w *Workload) { w.weightsDeclared = true } }

// AsBlockBuffered forces the out-of-core block view to read segments
// through per-worker buffers (os.File ReadAt) instead of mmap, bounding
// the resident set to one block per worker. It is machine-local I/O
// tuning, not part of the content identity.
func AsBlockBuffered() WorkloadOption { return func(w *Workload) { w.blockBuffered = true } }

// NewWorkload wraps g in a Workload handle. Without options the workload
// is undirected and unweighted-tolerant — exactly what Run's bare-*Graph
// auto-wrapping produces, except that the handle persists its memoized
// views across runs.
func NewWorkload(g *Graph, opts ...WorkloadOption) *Workload {
	w := &Workload{g: g}
	for _, opt := range opts {
		opt(w)
	}
	return w
}

// Directed is NewWorkload(g, AsDirected(), opts...): a handle for a
// directed graph whose CSR rows are out-edges.
func Directed(g *Graph, opts ...WorkloadOption) *Workload {
	return NewWorkload(g, append([]WorkloadOption{AsDirected()}, opts...)...)
}

// Weighted is NewWorkload(g, AsWeighted(), opts...): a handle that
// requires edge weights and fails fast (ErrNeedsWeights) when g has none.
func Weighted(g *Graph, opts ...WorkloadOption) *Workload {
	return NewWorkload(g, append([]WorkloadOption{AsWeighted()}, opts...)...)
}

// OpenOutOfCoreWorkload opens a block-format file (written by
// graph.WriteBlockFile or a DiskStore) as a pure out-of-core handle: no
// in-memory CSR is materialized, ever — Graph() returns nil, the graph
// kind comes from the file header, and only algorithms whose Caps report
// OutOfCore support will run. The handle holds the file open (and
// mmapped, unless AsBlockBuffered); Close releases it.
func OpenOutOfCoreWorkload(path string, opts ...WorkloadOption) (*Workload, error) {
	w := &Workload{}
	for _, opt := range opts {
		opt(w)
	}
	var bopts []graph.BlockOpt
	if w.blockBuffered {
		bopts = append(bopts, graph.Buffered())
	}
	blk, err := graph.OpenBlockCSR(path, bopts...)
	if err != nil {
		return nil, err
	}
	w.blk = blk
	w.directed = blk.Directed()
	w.weightsDeclared = blk.Weighted()
	return w, nil
}

// Graph returns the underlying graph (out-edges, for directed
// workloads), or nil for a pure out-of-core handle that never
// materializes one.
func (w *Workload) Graph() *Graph { return w.g }

// N returns the vertex count (satisfying Runnable).
func (w *Workload) N() int {
	if w.g == nil {
		return w.blk.N()
	}
	return w.g.N()
}

// M returns the stored directed edge-slot count (satisfying Runnable).
func (w *Workload) M() int64 {
	if w.g == nil {
		return w.blk.M()
	}
	return w.g.M()
}

// IsDirected reports whether the workload was declared directed.
func (w *Workload) IsDirected() bool { return w.directed }

// HasWeights reports whether the underlying graph carries edge weights.
func (w *Workload) HasWeights() bool {
	if w.g == nil {
		return w.blk.Weighted()
	}
	return w.g.Weighted()
}

// WeightsDeclared reports whether the workload was constructed with
// Weighted/AsWeighted — i.e. whether it promises weights to every run.
func (w *Workload) WeightsDeclared() bool { return w.weightsDeclared }

// IsOutOfCore reports whether the handle is a file handle
// (OpenOutOfCoreWorkload, a DiskStore graph above its block threshold)
// with no in-memory graph at all, which every run streams through the
// block kernels.
func (w *Workload) IsOutOfCore() bool { return w.g == nil }

// hasGraph reports whether the handle has anything to run on: an
// in-memory graph or, for a pure file handle, its open block view.
func (w *Workload) hasGraph() bool {
	if w.g != nil {
		return true
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.blk != nil
}

// Close releases the memoized out-of-core block view (the open file and
// its mapping), if any. The workload must not Run afterwards. Handles
// that never touched the out-of-core path close as a no-op.
func (w *Workload) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.blk == nil {
		return nil
	}
	blk := w.blk
	w.blk = nil
	return blk.Close()
}

// Transpose returns the in-edge view (the reverse CSR), building it on
// first use and memoizing it for every later call. For an undirected
// workload the adjacency is symmetric, so the graph itself is returned
// without building anything.
func (w *Workload) Transpose() *Graph {
	if !w.directed {
		return w.g
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.transposeLocked()
}

func (w *Workload) transposeLocked() *Graph {
	if !w.directed {
		return w.g
	}
	if w.transpose == nil {
		w.transpose = w.g.Transpose()
		w.builds.Transposes++
	}
	return w.transpose
}

// DegreeSorted returns the memoized degree-sorted view of the graph:
// the CSR permuted so vertex ids descend by degree, plus the permutation
// and its inverse for un-permuting results at the report boundary. Built
// on first use, like the transpose.
func (w *Workload) DegreeSorted() *DegreeSortedView {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.degreeSortedLocked()
}

func (w *Workload) degreeSortedLocked() *DegreeSortedView {
	if w.ds == nil {
		w.ds = graph.SortByDegree(w.g)
		w.builds.DegreeSorts++
	}
	return w.ds
}

// SortedTranspose returns the in-edge view of the degree-sorted graph —
// the pull view of a directed degree-sorted run — memoized like the plain
// transpose. For an undirected workload it is the degree-sorted graph
// itself.
func (w *Workload) SortedTranspose() *Graph {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.sortedTransposeLocked()
}

func (w *Workload) sortedTransposeLocked() *Graph {
	ds := w.degreeSortedLocked()
	if !w.directed {
		return ds.G
	}
	if w.dsTranspose == nil {
		w.dsTranspose = ds.G.Transpose()
		w.builds.Transposes++
	}
	return w.dsTranspose
}

// PA returns the Partition-Awareness split (§5, Algorithm 8) of the graph
// over parts partitions, building it on first use per distinct count and
// memoizing it for every later call.
func (w *Workload) PA(parts int) *PAGraph {
	if parts < 1 {
		parts = 1
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.pa == nil {
		w.pa = map[int]*PAGraph{}
	}
	pa, ok := w.pa[parts]
	if !ok {
		pa = graph.BuildPA(w.g, graph.NewPartition(w.g.N(), parts))
		w.pa[parts] = pa
		w.builds.PASplits++
	}
	return pa
}

// ssspView returns the memoized Δ-stepping view of the graph: the
// heuristic Δ, computed here, and its light view, built by the first run
// that reads it.
func (w *Workload) ssspView() *sssp.View {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.sssp == nil {
		w.sssp = sssp.NewView(w.g)
	}
	return w.sssp
}

// Stats returns the memoized Table 2 statistics of the graph. A pure
// out-of-core handle has no in-memory CSR to scan and returns the zero
// statistics.
func (w *Workload) Stats() GraphStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.g == nil {
		return GraphStats{}
	}
	if w.stats == nil {
		s := graph.ComputeStats(w.g)
		w.stats = &s
		w.builds.Stats++
	}
	return *w.stats
}

// OutOfCore returns the memoized block view the out-of-core kernels run
// over, building it on first use: the pull-view CSR (the graph itself,
// or the transpose for directed workloads) is serialized to a temporary
// block file, reopened mmap-backed (or buffered, per AsBlockBuffered),
// and immediately unlinked so the kernel-visible file lives exactly as
// long as the handle. A pure file handle returns its already-open view.
func (w *Workload) OutOfCore() (*graph.BlockCSR, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	//pushpull:allow lockheld first-build memoization under the handle lock by design: concurrent runs must share one block view, not race to write two temp files
	return w.outOfCoreLocked()
}

func (w *Workload) outOfCoreLocked() (*graph.BlockCSR, error) {
	if w.blk != nil {
		return w.blk, nil
	}
	if w.g == nil {
		return nil, fmt.Errorf("pushpull: out-of-core workload has no open block view")
	}
	f, err := os.CreateTemp("", "pushpull-blk-*")
	if err != nil {
		return nil, fmt.Errorf("pushpull: building block view: %w", err)
	}
	path := f.Name()
	werr := w.writeBlockLocked(f)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		os.Remove(path)
		return nil, fmt.Errorf("pushpull: building block view: %w", werr)
	}
	var bopts []graph.BlockOpt
	if w.blockBuffered {
		bopts = append(bopts, graph.Buffered())
	}
	blk, err := graph.OpenBlockCSR(path, bopts...)
	if err != nil {
		os.Remove(path)
		return nil, err
	}
	// Unlink-while-open: the open fd (and mapping) keeps the data alive,
	// and nothing is left behind when the process dies.
	os.Remove(path)
	w.blk = blk
	w.builds.BlockBuilds++
	return blk, nil
}

// writeBlockTo serializes the workload's pull view in the on-disk block
// format (the layout OpenOutOfCoreWorkload reads back). DiskStore uses it
// to persist graphs above its block threshold directly in the out-of-core
// layout, so a restore never has to materialize them.
func (w *Workload) writeBlockTo(dst io.Writer) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.g == nil {
		return fmt.Errorf("pushpull: pure out-of-core workload has no in-memory graph to serialize")
	}
	return w.writeBlockLocked(dst)
}

// writeBlockLocked writes what the block format stores: the pull view
// (the graph itself, or the transpose for directed workloads) and, for
// directed workloads, the out-degree sidecar the pull kernels divide by.
func (w *Workload) writeBlockLocked(dst io.Writer) error {
	if !w.directed {
		return graph.WriteBlock(dst, w.g, nil, 0)
	}
	outDeg := make([]int64, w.g.N())
	for v := range outDeg {
		outDeg[v] = w.g.Degree(graph.V(v))
	}
	return graph.WriteBlock(dst, w.transposeLocked(), outDeg, 0)
}

// ID returns the workload's stable content identity: a digest of the
// adjacency structure, the edge weights, and the declared kind (directed,
// weighted). Two handles over equal content share the
// ID — it is what an Engine's result cache and single-flight dedup key
// on, and what cluster placement hashes, so cached reports (and replica
// placement) survive re-wrapping or re-loading the same graph, including a
// restore from a GraphStore after a restart. The digest is an O(n + m)
// pass computed once per handle and memoized.
func (w *Workload) ID() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.id == "" {
		w.id = w.contentID()
	}
	return w.id
}

// contentID hashes the CSR arrays and the kind flags (FNV-1a, 64-bit). A
// pure file handle hashes what its block file stores — the PULL view (the
// graph itself when undirected, the transpose when directed).
func (w *Workload) contentID() string {
	h := fnv.New64a()
	var buf [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	if g := w.g; g != nil {
		put(uint64(g.N()))
		put(uint64(g.M()))
		for _, o := range g.Offsets {
			put(uint64(o))
		}
		for _, v := range g.Adj {
			put(uint64(v))
		}
		for _, wt := range g.Weights {
			put(uint64(math.Float32bits(wt)))
		}
	} else {
		// Stream the adjacency block-sequentially (two passes when weighted,
		// matching the all-adj-then-all-weights hash order of the in-memory
		// path). The file was validated at open; a read failure here
		// degrades the digest, not correctness.
		blk := w.blk
		put(uint64(blk.N()))
		put(uint64(blk.M()))
		for _, o := range blk.Offsets {
			put(uint64(o))
		}
		_ = blk.VisitBlocks(func(adj []graph.V, _ []float32) error {
			for _, v := range adj {
				put(uint64(v))
			}
			return nil
		})
		if blk.Weighted() {
			_ = blk.VisitBlocks(func(_ []graph.V, ws []float32) error {
				for _, wt := range ws {
					put(uint64(math.Float32bits(wt)))
				}
				return nil
			})
		}
	}
	// The declared kind changes what a run computes (directed dispatch,
	// the weights check), so it is part of the identity.
	var kind uint64
	if w.directed {
		kind |= 1
	}
	if w.weightsDeclared {
		kind |= 2
	}
	if w.HasWeights() {
		kind |= 4
	}
	put(kind)
	// A file handle's identity carries one more word, so it never collides
	// with an in-memory handle over the same arrays (an undirected graph's
	// pull view IS its CSR), whose runs default to other kernels. In-memory
	// handles fold nothing here, and the word keeps the value earlier
	// releases folded (bits 0 and 34): every ID a DiskStore, cache or
	// router catalog has seen keeps its value.
	if w.g == nil {
		put(1 | 1<<34)
	}
	return fmt.Sprintf("w%016x-n%d", h.Sum64(), w.N())
}

// Builds reports how many derived-view constructions this workload has
// performed so far — the memoization observable: repeated runs on the same
// handle must not increase the counts.
func (w *Workload) Builds() WorkloadBuilds {
	w.mu.Lock()
	defer w.mu.Unlock()
	b := w.builds
	if w.sssp != nil {
		b.LightViews = w.sssp.Builds()
	}
	return b
}

// Kind renders the declared kind ("undirected", "directed weighted", ...)
// for error messages and summaries.
func (w *Workload) Kind() string {
	k := "undirected"
	if w.directed {
		k = "directed"
	}
	if w.weightsDeclared || w.HasWeights() {
		k += " weighted"
	}
	if w.IsOutOfCore() {
		k += " out-of-core"
	}
	return k
}

// resolveWorkload lowers a Runnable onto the Workload handle the engine
// dispatches on: a *Workload passes through, a bare *Graph auto-wraps
// into a fresh undirected handle, anything else is rejected.
func resolveWorkload(on Runnable) (*Workload, error) {
	switch v := on.(type) {
	case *Workload:
		if v == nil {
			return nil, fmt.Errorf("pushpull: Run on nil workload")
		}
		if !v.hasGraph() {
			return nil, fmt.Errorf("pushpull: Run on workload with nil graph")
		}
		return v, nil
	case *Graph:
		if v == nil {
			return nil, fmt.Errorf("pushpull: Run on nil graph")
		}
		return NewWorkload(v), nil
	case nil:
		return nil, fmt.Errorf("pushpull: Run on nil graph")
	default:
		return nil, fmt.Errorf("pushpull: Run accepts *Graph or *Workload, got %T", on)
	}
}

// ---- workload serialization ----

// WriteWorkload serializes the workload as a portable edge list whose
// header records the graph kind, so directedness and weights survive the
// round trip through ReadWorkload.
func WriteWorkload(dst io.Writer, w *Workload) error {
	if w.g == nil {
		return fmt.Errorf("pushpull: cannot serialize a pure out-of-core workload as an edge list (it lives in its block file)")
	}
	return graph.WriteEdgeListKind(dst, w.g, w.directed)
}

// ReadWorkload parses an edge list written by WriteWorkload (or
// WriteEdgeList), restoring the recorded graph kind: the returned handle
// is directed and/or weighted exactly as the written one was.
func ReadWorkload(src io.Reader) (*Workload, error) {
	g, directed, err := graph.ReadEdgeListKind(src)
	if err != nil {
		return nil, err
	}
	var opts []WorkloadOption
	if directed {
		opts = append(opts, AsDirected())
	}
	if g.Weighted() {
		opts = append(opts, AsWeighted())
	}
	return NewWorkload(g, opts...), nil
}
