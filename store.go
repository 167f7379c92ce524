package pushpull

// GraphStore: the persistence layer behind an Engine's named-workload
// registry. A store attached to the Engine (AttachStore) makes the
// registry durable — every RegisterWorkload is written through, every
// DropWorkload deleted, and a fresh Engine attaching the same store
// restores the full name→Workload map before it serves its first
// request.
//
// DiskStore is the implementation that ships: one binary CSR file per
// graph, the WriteWorkloadCSR format, so a restart restores a graph by
// reading its arrays back instead of parsing text. A test can substitute
// its own GraphStore.

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

	"pushpull/internal/atomicfile"
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
// as a different graph.
//
// Every file is replaced whole (internal/atomicfile), so a process
// killed mid-Put leaves the old content or the new, and one killed
// mid-Delete the content or none; NewDiskStore removes the temp a killed
// writer left. Nothing is fsynced, so a power loss is not covered. One
// process owns a store directory.
//
// With WithBlockThreshold, a graph above the threshold is persisted as
// its pull view instead (the same .csr file, with the header's pull-view
// flag) and restores as a pure out-of-core handle — see Put and Get.
//
// A directory written by an older release may hold text <name>.el edge
// lists or v1 .blk block files. NewDiskStore rewrites them as .csr files
// once, when it opens the directory (migrateLegacy), so every other
// method knows one file a name: <name>.csr.
type DiskStore struct {
	dir string
	// blockThreshold: a Put whose estimated in-memory CSR footprint
	// exceeds this many bytes is persisted as its pull view (out-of-core)
	// instead of as the graph; ≤ 0 never converts.
	blockThreshold int64
	// blockBuffered opens restored out-of-core handles in buffered
	// (ReadAt) mode instead of mmap.
	blockBuffered bool
	// mu serializes the renames and removals of writers; readers go
	// straight to the filesystem.
	mu sync.Mutex
}

// csrExt is the suffix of every file the store holds.
const csrExt = ".csr"

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

// NewDiskStore opens (creating if needed) a graph store rooted at dir,
// removing the temps a killed writer left there and migrating the files
// of older formats (migrateLegacy).
func NewDiskStore(dir string, opts ...DiskOption) (*DiskStore, error) {
	if dir == "" {
		return nil, fmt.Errorf("diskstore: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("diskstore: %w", err)
	}
	if err := atomicfile.Sweep(dir); err != nil {
		return nil, fmt.Errorf("diskstore: %w", err)
	}
	s := &DiskStore{dir: dir}
	for _, opt := range opts {
		opt(s)
	}
	if err := s.migrateLegacy(); err != nil {
		return nil, fmt.Errorf("diskstore: %w", err)
	}
	return s, nil
}

// migrateLegacy rewrites each file of an older format in the store
// directory as the name's .csr: a text <x>.el edge list as the graph it
// holds (the content ID the text gives it), a v1 <x>.blk block file as
// its pull view. Each rewrite replaces the .csr whole, then the legacy
// file is removed; a legacy file that already has a .csr beside it is
// only removed, since that is what a process killed between the two
// leaves, and the .csr is newer. Entries come in name order and <x>.blk
// sorts before <x>.el, so a name held both ways keeps the block file's
// content. A file the converter refuses stays, and the error names it.
func (s *DiskStore) migrateLegacy() error {
	const textExt = ".el" // the WriteWorkload text format
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if e.IsDir() || atomicfile.Hidden(e.Name()) {
			continue
		}
		convert := graph.ConvertLegacyBlock
		base, ok := strings.CutSuffix(e.Name(), graph.LegacyBlockExt)
		if !ok {
			convert = convertEdgeList
			if base, ok = strings.CutSuffix(e.Name(), textExt); !ok {
				continue
			}
		}
		legacy, target := filepath.Join(s.dir, e.Name()), filepath.Join(s.dir, base+csrExt)
		if _, err := os.Stat(target); errors.Is(err, fs.ErrNotExist) {
			err = atomicfile.Replace(s.dir, target, &s.mu, func(w io.Writer) error { return convert(w, legacy) })
			if err != nil {
				return err
			}
		} else if err != nil {
			return err
		}
		if err := atomicfile.Remove(legacy); err != nil {
			return err
		}
	}
	return nil
}

// convertEdgeList writes the text edge list at path to w in the binary
// CSR format, or fails with an error naming the file.
func convertEdgeList(w io.Writer, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	wl, err := ReadWorkload(f)
	if err == nil {
		err = WriteWorkloadCSR(w, wl)
	}
	if err != nil {
		return fmt.Errorf("text edge list %s: %w", path, err)
	}
	return nil
}

// path maps a graph name onto its file. PathEscape makes the mapping
// injective and filesystem-safe: separators and every other reserved
// byte arrive percent-encoded, so no name can escape the store
// directory. A leading dot is escaped by hand (PathEscape leaves it
// alone): dotfiles are never entries (atomicfile.Hidden), and a graph
// named ".hidden" must not be mistaken for one and dropped by Names.
func (s *DiskStore) path(name string) string {
	esc := url.PathEscape(name)
	if strings.HasPrefix(esc, ".") {
		esc = "%2E" + esc[1:]
	}
	return filepath.Join(s.dir, esc+csrExt)
}

// Names implements GraphStore.
func (s *DiskStore) Names() ([]string, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("diskstore: %w", err)
	}
	var names []string
	for _, e := range entries {
		base, ok := strings.CutSuffix(e.Name(), csrExt)
		if !ok || e.IsDir() || atomicfile.Hidden(e.Name()) {
			continue
		}
		name, err := url.PathUnescape(base)
		if err != nil {
			return nil, fmt.Errorf("diskstore: undecodable file %q: %w", e.Name(), err)
		}
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// Get implements GraphStore. A name persisted as a pull view comes back
// as a pure out-of-core handle — the full CSR is never materialized,
// which is the point of WithBlockThreshold: a restart restores the big
// graphs at the cost of an open fd each, not their memory. Otherwise the
// graph's arrays are read back.
func (s *DiskStore) Get(name string) (*Workload, error) {
	f, err := os.Open(s.path(name))
	if err != nil {
		return nil, fmt.Errorf("diskstore: %w", err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("diskstore: %w", err)
	}
	w, err := ReadWorkloadCSR(f, st.Size())
	if errors.Is(err, graph.ErrPullView) {
		w, err = OpenOutOfCoreWorkload(f.Name(), s.blockOpts()...)
	}
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
	w, err := OpenOutOfCoreWorkload(s.path(name), s.blockOpts()...)
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

// Put implements GraphStore. The whole-graph serialization happens
// before the store lock is taken — it writes every arc, and holding the
// lock across it would stall every concurrent Get/Delete behind one
// large upload. Only the atomic rename that publishes the temp file runs
// under the lock, so concurrent Puts of one name still serialize into
// complete, last-write-wins files.
//
// With WithBlockThreshold set, a workload whose estimated CSR footprint
// exceeds the threshold is written as its pull view instead. A pure
// out-of-core handle has no graph to write: putting one is a no-op when
// the name's stored file holds the same graph (the handle this store
// restored, registered again), and an error otherwise.
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
	if err := atomicfile.Replace(s.dir, s.path(name), &s.mu, write); err != nil {
		return fmt.Errorf("diskstore: %q: %w", name, err)
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

// Delete implements GraphStore.
func (s *DiskStore) Delete(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := atomicfile.Remove(s.path(name)); err != nil {
		return fmt.Errorf("diskstore: %q: %w", name, err)
	}
	return nil
}
