package pushpull

// GraphStore: the persistence layer behind an Engine's named-workload
// registry. PR 4's serving front kept uploaded graphs in process memory,
// so a restart forgot every PUT /graphs; a store attached to the Engine
// (AttachStore) makes the registry durable — every RegisterWorkload is
// written through, every DropWorkload deleted, and a fresh Engine
// attaching the same store restores the full name→Workload map before it
// serves its first request.
//
// Two implementations ship: MemStore (a map — the write-through contract
// without durability, for tests and composition) and DiskStore (one
// binary CSR file per graph, the WriteWorkloadCSR format, so a restart
// restores a graph by reading its arrays back instead of parsing text).

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"pushpull/internal/graph"
)

// ErrStore marks a graph-store failure (I/O, corrupt persisted graph).
// Engine methods wrap store errors with it so serving fronts can map them
// to server-side failures instead of client mistakes.
var ErrStore = errors.New("pushpull: graph store failure")

// GraphStore persists named workloads for an Engine. Implementations must
// be safe for concurrent use; names are arbitrary non-empty strings (the
// serving front passes URL path segments through verbatim).
type GraphStore interface {
	// Names lists every persisted workload name.
	Names() ([]string, error)
	// Get loads the workload persisted under name. A missing name is an
	// error (the Engine only asks for names the store listed).
	Get(name string) (*Workload, error)
	// Put persists w under name, replacing any previous content.
	Put(name string, w *Workload) error
	// Delete removes name. Deleting a name that was never persisted is
	// not an error — the Engine may drop graphs registered before the
	// store was attached.
	Delete(name string) error
}

// ---- in-memory store ----

// MemStore is a map-backed GraphStore: the write-through contract without
// durability. It is what tests compose against, and a building block for
// wrapping stores (e.g. a write-behind cache over a remote store).
type MemStore struct {
	mu     sync.Mutex
	graphs map[string]*Workload
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{graphs: map[string]*Workload{}}
}

// Names implements GraphStore.
func (s *MemStore) Names() ([]string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.graphs))
	for n := range s.graphs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names, nil
}

// Get implements GraphStore.
func (s *MemStore) Get(name string) (*Workload, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	w, ok := s.graphs[name]
	if !ok {
		return nil, fmt.Errorf("memstore: %q: %w", name, fs.ErrNotExist)
	}
	return w, nil
}

// Put implements GraphStore.
func (s *MemStore) Put(name string, w *Workload) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.graphs[name] = w
	return nil
}

// Delete implements GraphStore.
func (s *MemStore) Delete(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.graphs, name)
	return nil
}

// ---- on-disk store ----

// DiskStore persists each workload as one file under a directory:
// <url.PathEscape(name)>.csr in the binary CSR format of
// WriteWorkloadCSR, whose header records the graph kind (directedness,
// weights), so a restored workload matches what the uploader registered —
// same content ID, same capability validation — and any cached result
// computed before the restart stays valid for it. Restoring a graph
// reads its arrays back and checks them (graph.ReadCSR); nothing is
// parsed. The caveat is the format's: an AsWeighted claim on a weightless
// graph is not serialized, so a handle registered programmatically with
// it restores without it — and with the correspondingly different
// content ID. Workloads that arrived through ReadWorkload or
// ReadWorkloadCSR (every HTTP upload) round-trip exactly. A graph the
// format refuses (a self-loop, a duplicated arc, an undirected graph
// that differs from its transpose) fails Put instead of being persisted
// as a different graph. Writes are atomic (temp file + rename): a crash
// mid-Put leaves the previous content intact.
//
// With WithBlockThreshold, a graph above the threshold is persisted as
// its pull view instead (the same .csr file, with the header's pull-view
// flag) and restores as a pure out-of-core handle — see Put and Get.
//
// Stores written before the CSR format hold <name>.el text edge lists in
// the WriteWorkload format. Get still restores them, and the next Put of
// the name replaces the file with a .csr one. Stores written before the
// pull-view flag hold out-of-core graphs in the retired v1 block format
// (graph.LegacyBlockExt); the first Get of such a name converts the file,
// once, to a pull-view .csr.
type DiskStore struct {
	dir string
	// blockThreshold: a Put whose estimated in-memory CSR footprint
	// exceeds this many bytes is persisted as its pull view (out-of-core)
	// instead of as the graph; ≤ 0 never converts.
	blockThreshold int64
	// blockBuffered opens restored out-of-core handles in buffered
	// (ReadAt) mode instead of mmap.
	blockBuffered bool
	// mu serializes writers per store; readers go straight to the
	// filesystem (rename makes each file's content atomic).
	mu sync.Mutex
}

// csrExt is the suffix of every file Put writes. textExt is the suffix of
// the text edge lists stores held before the CSR format, which Get still
// reads and Put replaces.
const (
	csrExt  = ".csr"
	textExt = ".el"
)

// storeExts are every suffix a persisted name can have, in the order Get
// looks for them.
var storeExts = []string{graph.LegacyBlockExt, csrExt, textExt}

// DiskOption configures NewDiskStore.
type DiskOption func(*DiskStore)

// WithBlockThreshold makes Put persist any workload whose estimated
// in-memory CSR footprint (offsets + adjacency + weights) exceeds bytes
// as its pull view (graph.WritePullView) instead of as the graph. A graph
// persisted that way restores as a pure out-of-core handle
// (OpenOutOfCoreWorkload): OutOfCore-capable algorithms stream it
// block-sequentially off disk, and the process never materializes the
// full CSR. bytes ≤ 0 (the default) disables the conversion.
func WithBlockThreshold(bytes int64) DiskOption {
	return func(s *DiskStore) { s.blockThreshold = bytes }
}

// WithBufferedBlocks makes restored out-of-core handles read through a
// plain file descriptor (ReadAt) instead of an mmap, trading zero-copy
// block access for a resident set that stays bounded by the cursor
// buffers.
func WithBufferedBlocks() DiskOption {
	return func(s *DiskStore) { s.blockBuffered = true }
}

// NewDiskStore opens (creating if needed) a graph store rooted at dir.
func NewDiskStore(dir string, opts ...DiskOption) (*DiskStore, error) {
	if dir == "" {
		return nil, fmt.Errorf("diskstore: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("diskstore: %w", err)
	}
	s := &DiskStore{dir: dir}
	for _, opt := range opts {
		opt(s)
	}
	return s, nil
}

// Dir returns the store's root directory.
func (s *DiskStore) Dir() string { return s.dir }

// pathExt maps a graph name onto its file with suffix ext. PathEscape
// makes the mapping injective and filesystem-safe: separators and every
// other reserved byte arrive percent-encoded, so no name can escape the
// store directory. A leading dot is escaped by hand (PathEscape leaves
// it alone): dotfiles are reserved for the store's own temp files, and a
// graph named ".hidden" must not be mistaken for one and dropped by
// Names.
func (s *DiskStore) pathExt(name, ext string) string {
	esc := url.PathEscape(name)
	if strings.HasPrefix(esc, ".") {
		esc = "%2E" + esc[1:]
	}
	return filepath.Join(s.dir, esc+ext)
}

// Names implements GraphStore.
func (s *DiskStore) Names() ([]string, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("diskstore: %w", err)
	}
	var names []string
	seen := map[string]bool{}
	for _, e := range entries {
		var base string
		ok := false
		for _, ext := range storeExts {
			if base, ok = strings.CutSuffix(e.Name(), ext); ok {
				break
			}
		}
		if !ok || e.IsDir() || strings.HasPrefix(base, ".") {
			// Temp files and foreign droppings. Persisted names never
			// produce a dotfile: path() escapes a leading dot.
			continue
		}
		name, err := url.PathUnescape(base)
		if err != nil {
			return nil, fmt.Errorf("diskstore: undecodable file %q: %w", e.Name(), err)
		}
		if seen[name] {
			continue // two formats present (interrupted Put): list once
		}
		seen[name] = true
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// Get implements GraphStore. A name persisted as a pull view comes back
// as a pure out-of-core handle — the full CSR is never materialized,
// which is the point of WithBlockThreshold: a restart restores the big
// graphs at the cost of an open fd each, not their memory. Otherwise the
// .csr file is read, or, for a name no Put has rewritten since stores
// held text, the legacy .el edge list. A name still in the v1 block
// format is converted first (migrateLegacyBlock).
func (s *DiskStore) Get(name string) (*Workload, error) {
	if err := s.migrateLegacyBlock(name); err != nil {
		return nil, err
	}
	read := func(f *os.File) (*Workload, error) {
		st, err := f.Stat()
		if err != nil {
			return nil, err
		}
		w, err := ReadWorkloadCSR(f, st.Size())
		if errors.Is(err, graph.ErrPullView) {
			return OpenOutOfCoreWorkload(f.Name(), s.blockOpts()...)
		}
		return w, err
	}
	f, err := os.Open(s.pathExt(name, csrExt))
	if errors.Is(err, fs.ErrNotExist) {
		read = func(f *os.File) (*Workload, error) { return ReadWorkload(f) }
		f, err = os.Open(s.pathExt(name, textExt))
	}
	if err != nil {
		return nil, fmt.Errorf("diskstore: %w", err)
	}
	defer f.Close()
	w, err := read(f)
	if err != nil {
		return nil, fmt.Errorf("diskstore: %q: %w", name, err)
	}
	return w, nil
}

// OutOfCoreHandle reopens name as a pure out-of-core handle if (and only
// if) it is persisted as a pull view. The Engine probes this after a
// write-through Put so it can swap the registry binding from the
// uploaded in-memory workload to the on-disk view and let the upload's
// CSR be collected.
func (s *DiskStore) OutOfCoreHandle(name string) (*Workload, bool, error) {
	if err := s.migrateLegacyBlock(name); err != nil {
		return nil, false, err
	}
	w, err := OpenOutOfCoreWorkload(s.pathExt(name, csrExt), s.blockOpts()...)
	switch {
	case errors.Is(err, fs.ErrNotExist), errors.Is(err, graph.ErrNotPullView):
		return nil, false, nil
	case err != nil:
		return nil, false, fmt.Errorf("diskstore: %q: %w", name, err)
	}
	return w, true, nil
}

func (s *DiskStore) blockOpts() []WorkloadOption {
	if s.blockBuffered {
		return []WorkloadOption{AsBlockBuffered()}
	}
	return nil
}

// migrateLegacyBlock converts name's v1 block file, if it has one, to a
// pull-view .csr: streamed into a temp file outside the store lock, as
// Put's write is, and published only if the v1 file is still there, so
// a Put or Delete that ran meanwhile wins. A v1 file the converter
// refuses stays where it is, and the error names it.
func (s *DiskStore) migrateLegacyBlock(name string) error {
	legacy := s.pathExt(name, graph.LegacyBlockExt)
	if !fileExists(legacy) {
		return nil
	}
	tmp, err := s.writeTemp(func(f io.Writer) error { return graph.ConvertLegacyBlock(f, legacy) })
	switch {
	case errors.Is(err, fs.ErrNotExist):
		return nil // converted or deleted meanwhile
	case err != nil:
		return fmt.Errorf("diskstore: %q: %w", name, err)
	}
	return s.publish(name, tmp, legacy)
}

func fileExists(path string) bool {
	st, err := os.Stat(path)
	return err == nil && !st.IsDir()
}

// Put implements GraphStore. The whole-graph serialization happens
// before the store lock is taken — it writes every arc, and
// holding the lock across it would stall every concurrent Get/Delete
// behind one large upload. Only the atomic rename that publishes the
// temp file runs under the lock, so concurrent Puts of one name still
// serialize into complete, last-write-wins files.
//
// With WithBlockThreshold set, a workload whose estimated CSR footprint
// exceeds the threshold is written as its pull view instead; the rename
// also removes the name's stale files of older formats, so a name is
// always stored exactly one way. A pure out-of-core handle has no graph
// to write: putting one is a no-op when the name's stored file holds the
// same graph (the handle this store restored, registered again), and an
// error otherwise.
func (s *DiskStore) Put(name string, w *Workload) error {
	if w == nil {
		return fmt.Errorf("diskstore: %q: nil workload", name)
	}
	if w.g == nil {
		stored, ok, err := s.OutOfCoreHandle(name)
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("diskstore: %q: cannot persist a pure out-of-core workload: the store holds no out-of-core file of the name", name)
		}
		defer stored.Close()
		if stored.ID() != w.ID() {
			return fmt.Errorf("diskstore: %q: cannot persist a pure out-of-core workload of %s over the stored %s", name, w.ID(), stored.ID())
		}
		return nil
	}
	write := func(f io.Writer) error { return WriteWorkloadCSR(f, w) }
	if s.blockThreshold > 0 && estimatedCSRBytes(w) > s.blockThreshold {
		write = w.writePullView
	}
	tmp, err := s.writeTemp(write)
	if err != nil {
		return fmt.Errorf("diskstore: %q: %w", name, err)
	}
	return s.publish(name, tmp, "")
}

// writeTemp writes a temp file in the store directory with write and
// returns its path; a failed write leaves no file behind.
func (s *DiskStore) writeTemp(write func(io.Writer) error) (string, error) {
	f, err := os.CreateTemp(s.dir, ".put-*")
	if err != nil {
		return "", err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(f.Name())
	}
	return f.Name(), err
}

// publish renames tmp to name's .csr file and removes the name's files
// in every other format, under the store lock. A non-empty unless names a
// file whose removal meanwhile cancels the publish.
func (s *DiskStore) publish(name, tmp, unless string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if unless != "" && !fileExists(unless) {
		return os.Remove(tmp)
	}
	if err := os.Rename(tmp, s.pathExt(name, csrExt)); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("diskstore: %q: %w", name, err)
	}
	for _, stale := range []string{graph.LegacyBlockExt, textExt} {
		if err := os.Remove(s.pathExt(name, stale)); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return fmt.Errorf("diskstore: %q: dropping stale %s: %w", name, stale, err)
		}
	}
	return nil
}

// estimatedCSRBytes approximates the in-memory CSR footprint Put's
// block-threshold decision compares against: offsets (8 bytes a vertex)
// plus adjacency (4 bytes an edge slot) plus weights when present.
func estimatedCSRBytes(w *Workload) int64 {
	n, m := int64(w.N()), w.M()
	b := 8*(n+1) + 4*m
	if w.HasWeights() {
		b += 4 * m
	}
	return b
}

// Delete implements GraphStore. Every format is removed.
func (s *DiskStore) Delete(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, ext := range storeExts {
		if err := os.Remove(s.pathExt(name, ext)); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return fmt.Errorf("diskstore: %q: %w", name, err)
		}
	}
	return nil
}
