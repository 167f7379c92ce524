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
// them lazily, each once under its own key in one view table, and reuses
// them in every later Run: the engine-owned-view pattern of pull-frontier
// systems. A build of one view never waits for the build of another.
//
// A handle declares what the graph is and where it lives, never how a run
// should lay it out: the degree-sorted permutation is asked for per run
// (WithDegreeSorted) and memoized here. Out-of-core is where the graph
// lives, so only a file handle (OpenOutOfCoreWorkload, a DiskStore graph
// above its block threshold) runs the block kernels.

import (
	"fmt"
	"io"
	"math"
	"os"
	"sync"
	"sync/atomic"

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
// transpose (in-CSR) powering directed pull, the degree-sorted CSR and its
// transpose, the Partition-Awareness split per partition count (§5), the
// Table 2 statistics, sssp's heuristic Δ with its light view, the block
// view and the content ID. Each view is built once under its own key, and
// views with different keys build concurrently. A Workload is safe for
// concurrent Runs.
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

	mu    sync.Mutex      // guards blk and the views map, never a build
	blk   *graph.BlockCSR // a file handle's, opened by OpenOutOfCoreWorkload
	views map[viewKey]*viewEntry
}

// viewKind names one kind of derived view in a Workload's table.
type viewKind uint8

const (
	viewTranspose viewKind = iota
	viewDegreeSorted
	viewSortedTranspose
	viewPA
	viewStats
	viewSSSP
	viewBlock
	viewID
)

// viewKey keys the view table: the kind, plus the partition count for PA
// (zero for every other kind).
type viewKey struct {
	kind  viewKind
	parts int
}

// viewEntry memoizes one key's view. Only that key's build holds its mutex,
// so other keys build alongside it. Only a build that succeeded stores val,
// so the next caller retries a failed one.
type viewEntry struct {
	mu  sync.Mutex
	val atomic.Value
}

// view returns w's view under key, building it on first use; w.mu is held
// only to find or insert the entry.
func view[T any](w *Workload, key viewKey, build func() (T, error)) (T, error) {
	w.mu.Lock()
	e := w.views[key]
	if e == nil {
		e = &viewEntry{}
		w.views[key] = e
	}
	w.mu.Unlock()
	if v := e.val.Load(); v != nil {
		return v.(T), nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if v := e.val.Load(); v != nil {
		return v.(T), nil
	}
	v, err := build()
	if err == nil {
		e.val.Store(v)
	}
	return v, err
}

// memo is view for a build that cannot fail.
func memo[T any](w *Workload, key viewKey, build func() T) T {
	v, _ := view(w, key, func() (T, error) { return build(), nil })
	return v
}

// WorkloadBuilds counts the derived-view constructions a Workload has
// performed — the observable behind memoization tests: a second Run on the
// same handle must not increase these.
type WorkloadBuilds struct {
	// Transposes counts in-CSR builds, of the graph and the sorted graph.
	Transposes int
	// PASplits counts Partition-Awareness splits, one per partition count.
	PASplits int
	// Stats counts Table 2 statistics computations.
	Stats int
	// DegreeSorts counts degree-sorted CSR permutation builds.
	DegreeSorts int
	// BlockBuilds counts block views OutOfCore wrote and reopened.
	BlockBuilds int
	// LightViews counts Δ-stepping light-view builds (the arcs lighter
	// than Δ as a CSR): at most one, by the first sssp run at the
	// heuristic Δ. A run with an explicit WithDelta builds its own, so
	// requests with distinct Δ values cannot grow the handle's memory.
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
	w := &Workload{g: g, views: map[viewKey]*viewEntry{}}
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
	w := NewWorkload(nil, opts...)
	blk, err := w.openBlock(path)
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
// (OpenOutOfCoreWorkload, a DiskStore graph above its block threshold):
// no in-memory graph, every run streamed through the block kernels.
func (w *Workload) IsOutOfCore() bool { return w.g == nil }

// hasGraph reports whether the handle has anything to run on: an
// in-memory graph or, for a pure file handle, its open block view.
func (w *Workload) hasGraph() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.g != nil || w.blk != nil
}

// Close releases the block view (the open file and its mapping) a file
// handle opened or OutOfCore built, if any. The workload must not Run
// afterwards.
func (w *Workload) Close() error {
	key := viewKey{kind: viewBlock}
	w.mu.Lock()
	blk := w.blk
	w.blk = nil
	if e := w.views[key]; e != nil {
		blk, _ = e.val.Load().(*graph.BlockCSR)
	}
	delete(w.views, key)
	w.mu.Unlock()
	if blk == nil {
		return nil
	}
	return blk.Close()
}

// Transpose returns the memoized in-edge view (the reverse CSR). For an
// undirected workload the adjacency is symmetric, so the graph itself is
// returned without building anything. A pure out-of-core handle returns
// nil.
func (w *Workload) Transpose() *Graph {
	if !w.directed || w.g == nil {
		return w.g
	}
	return memo(w, viewKey{kind: viewTranspose}, w.g.Transpose)
}

// DegreeSorted returns the memoized degree-sorted view of the graph:
// the CSR permuted so vertex ids descend by degree, plus the permutation
// and its inverse for un-permuting results at the report boundary. A pure
// out-of-core handle returns nil.
func (w *Workload) DegreeSorted() *DegreeSortedView {
	if w.g == nil {
		return nil
	}
	return memo(w, viewKey{kind: viewDegreeSorted}, func() *DegreeSortedView { return graph.SortByDegree(w.g) })
}

// SortedTranspose returns the in-edge view of the degree-sorted graph —
// the pull view of a directed degree-sorted run — memoized like the plain
// transpose. For an undirected workload it is the degree-sorted graph
// itself. A pure out-of-core handle returns nil.
func (w *Workload) SortedTranspose() *Graph {
	ds := w.DegreeSorted()
	if ds == nil {
		return nil
	}
	if !w.directed {
		return ds.G
	}
	return memo(w, viewKey{kind: viewSortedTranspose}, ds.G.Transpose)
}

// PA returns the Partition-Awareness split (§5, Algorithm 8) of the graph
// over parts partitions, memoized per distinct count. A pure out-of-core
// handle returns nil.
func (w *Workload) PA(parts int) *PAGraph {
	if w.g == nil {
		return nil
	}
	parts = max(parts, 1)
	return memo(w, viewKey{kind: viewPA, parts: parts}, func() *PAGraph {
		return graph.BuildPA(w.g, graph.NewPartition(w.g.N(), parts))
	})
}

// ssspView returns the memoized Δ-stepping view of the graph: the
// heuristic Δ, and its light view once a run has read it.
func (w *Workload) ssspView() *sssp.View {
	return memo(w, viewKey{kind: viewSSSP}, func() *sssp.View { return sssp.NewView(w.g) })
}

// Stats returns the memoized Table 2 statistics of the graph. A pure
// out-of-core handle has no in-memory CSR to scan and returns the zero
// statistics.
func (w *Workload) Stats() GraphStats {
	if w.g == nil {
		return GraphStats{}
	}
	return memo(w, viewKey{kind: viewStats}, func() GraphStats { return graph.ComputeStats(w.g) })
}

// OutOfCore returns the memoized block view the out-of-core kernels run
// over, building it on first use: the pull-view CSR (the graph itself,
// or the transpose for directed workloads) is serialized to a temporary
// block file, reopened mmap-backed (or buffered, per AsBlockBuffered),
// and immediately unlinked so the kernel-visible file lives exactly as
// long as the handle; a failed build is retried by the next call. A pure
// file handle returns its already-open view.
func (w *Workload) OutOfCore() (*graph.BlockCSR, error) {
	if w.g == nil {
		w.mu.Lock()
		defer w.mu.Unlock()
		if w.blk == nil {
			return nil, fmt.Errorf("pushpull: out-of-core workload has no open block view")
		}
		return w.blk, nil
	}
	return view(w, viewKey{kind: viewBlock}, w.buildBlock)
}

// buildBlock writes, reopens and unlinks OutOfCore's block file.
func (w *Workload) buildBlock() (*graph.BlockCSR, error) {
	f, err := os.CreateTemp("", "pushpull-blk-*")
	if err != nil {
		return nil, fmt.Errorf("pushpull: building block view: %w", err)
	}
	path := f.Name()
	// Unlink-while-open: the open fd (and mapping) keeps the data alive,
	// and nothing is left behind when the process dies.
	defer os.Remove(path)
	werr := w.writeBlock(f)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return nil, fmt.Errorf("pushpull: building block view: %w", werr)
	}
	return w.openBlock(path)
}

// openBlock opens a block file mmap-backed, or buffered per AsBlockBuffered.
func (w *Workload) openBlock(path string) (*graph.BlockCSR, error) {
	if w.blockBuffered {
		return graph.OpenBlockCSR(path, graph.Buffered())
	}
	return graph.OpenBlockCSR(path)
}

// writeBlockTo serializes the workload's pull view in the on-disk block
// format (the layout OpenOutOfCoreWorkload reads back). DiskStore uses it
// to persist graphs above its block threshold directly in the out-of-core
// layout, so a restore never has to materialize them.
func (w *Workload) writeBlockTo(dst io.Writer) error {
	if w.g == nil {
		return fmt.Errorf("pushpull: pure out-of-core workload has no in-memory graph to serialize")
	}
	return w.writeBlock(dst)
}

// writeBlock writes what the block format stores: the pull view (the
// graph itself, or the transpose for directed workloads) and, for
// directed workloads, the out-degree sidecar the pull kernels divide by.
func (w *Workload) writeBlock(dst io.Writer) error {
	if !w.directed {
		return graph.WriteBlock(dst, w.g, nil, 0)
	}
	outDeg := make([]int64, w.g.N())
	for v := range outDeg {
		outDeg[v] = w.g.Degree(graph.V(v))
	}
	return graph.WriteBlock(dst, w.Transpose(), outDeg, 0)
}

// ID returns the workload's stable content identity: a digest of the
// adjacency structure, the edge weights, and the declared kind (directed,
// weighted). Two handles over equal content share the ID — it is what an
// Engine's result cache and single-flight dedup key on, and what cluster
// placement hashes, so cached reports (and replica placement) survive
// re-wrapping or re-loading the same graph, including a restore from a
// GraphStore after a restart. The O(n + m) digest is memoized.
func (w *Workload) ID() string { return memo(w, viewKey{kind: viewID}, w.contentID) }

// contentID hashes the CSR arrays and the kind flags (FNV-1a, 64-bit). A
// pure file handle hashes what its block file stores — the PULL view (the
// graph itself when undirected, the transpose when directed).
func (w *Workload) contentID() string {
	h := uint64(fnvOffset)
	if g := w.g; g != nil {
		h = fnvWord(h, uint64(g.N()))
		h = fnvWord(h, uint64(g.M()))
		for _, o := range g.Offsets {
			h = fnvWord(h, uint64(o))
		}
		for _, v := range g.Adj {
			h = fnvWord(h, uint64(v))
		}
		for _, wt := range g.Weights {
			h = fnvWord(h, uint64(math.Float32bits(wt)))
		}
	} else {
		// Stream the adjacency block-sequentially (two passes when weighted,
		// matching the all-adj-then-all-weights hash order of the in-memory
		// path). The file was validated at open; a read failure here
		// degrades the digest, not correctness. The visitors fold into
		// their own copy of h, so no closure captures h, which then stays
		// in a register in the in-memory loops above.
		blk, hb := w.blk, h
		hb = fnvWord(hb, uint64(blk.N()))
		hb = fnvWord(hb, uint64(blk.M()))
		for _, o := range blk.Offsets {
			hb = fnvWord(hb, uint64(o))
		}
		_ = blk.VisitBlocks(func(adj []graph.V, _ []float32) error {
			for _, v := range adj {
				hb = fnvWord(hb, uint64(v))
			}
			return nil
		})
		if blk.Weighted() {
			_ = blk.VisitBlocks(func(_ []graph.V, ws []float32) error {
				for _, wt := range ws {
					hb = fnvWord(hb, uint64(math.Float32bits(wt)))
				}
				return nil
			})
		}
		h = hb
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
	h = fnvWord(h, kind)
	// A file handle's identity carries one more word, so it never collides
	// with an in-memory handle over the same arrays (an undirected graph's
	// pull view IS its CSR), whose runs default to other kernels. In-memory
	// handles fold nothing here, and the word keeps the value earlier
	// releases folded (bits 0 and 34): every ID a DiskStore, cache or
	// router catalog has seen keeps its value.
	if w.g == nil {
		h = fnvWord(h, 1|1<<34)
	}
	return fmt.Sprintf("w%016x-n%d", h, w.N())
}

// FNV-1a, 64-bit (hash/fnv's New64a), over 8-byte little-endian words.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
	// fnvPrime4 is what folding four zero bytes multiplies by: xoring a
	// zero byte changes nothing, so each of the four is one multiply.
	fnvPrime4 = fnvPrime * fnvPrime * fnvPrime * fnvPrime % (1 << 64)
)

// fnvWord folds x's eight little-endian bytes into h. A word whose high
// four bytes are zero, as is every id, float32's bits and offset below
// 2³², costs four byte steps and one multiply.
func fnvWord(h, x uint64) uint64 {
	if x>>32 != 0 {
		for i := 0; i < 64; i += 8 {
			h = (h ^ x>>i&0xff) * fnvPrime
		}
		return h
	}
	h = (h ^ x&0xff) * fnvPrime
	h = (h ^ x>>8&0xff) * fnvPrime
	h = (h ^ x>>16&0xff) * fnvPrime
	h = (h ^ x>>24) * fnvPrime
	return h * fnvPrime4
}

// Builds counts the views this workload has built so far, from its view
// table: repeated runs on the same handle must not increase the counts.
func (w *Workload) Builds() WorkloadBuilds {
	var b WorkloadBuilds
	w.mu.Lock()
	defer w.mu.Unlock()
	for key, e := range w.views {
		v := e.val.Load()
		if v == nil {
			continue
		}
		switch key.kind {
		case viewTranspose, viewSortedTranspose:
			b.Transposes++
		case viewDegreeSorted:
			b.DegreeSorts++
		case viewPA:
			b.PASplits++
		case viewStats:
			b.Stats++
		case viewSSSP:
			b.LightViews = v.(*sssp.View).Builds()
		case viewBlock:
			b.BlockBuilds++
		}
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
	return readKind(graph.ReadEdgeListKind(src))
}

// WriteWorkloadCSR serializes the workload in the binary CSR format
// (graph.WriteCSR): its arrays as they are, with the kind in the header.
// It refuses a graph the text reader could not have produced — one with
// a self-loop, an unsorted or duplicated arc or a NaN weight, or an
// undirected one that differs from its transpose.
func WriteWorkloadCSR(dst io.Writer, w *Workload) error {
	if w.g == nil {
		return fmt.Errorf("pushpull: cannot serialize a pure out-of-core workload as a CSR (it lives in its block file)")
	}
	return graph.WriteCSR(dst, w.g, w.directed)
}

// ReadWorkloadCSR reads a workload written by WriteWorkloadCSR, refusing
// a header whose sections need more than limit bytes before allocating
// them. The handle has the kind, and so the content ID, that
// ReadWorkload gives the same graph as text.
func ReadWorkloadCSR(src io.Reader, limit int64) (*Workload, error) {
	return readKind(graph.ReadCSR(src, limit))
}

// readKind wraps a graph read with its recorded kind.
func readKind(g *graph.CSR, directed bool, err error) (*Workload, error) {
	if err != nil {
		return nil, err
	}
	w := NewWorkload(g)
	w.directed, w.weightsDeclared = directed, g.Weighted()
	return w, nil
}
