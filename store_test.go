package pushpull_test

// GraphStore tests: the persistence layer behind the serving registry.
// Both implementations round-trip name, content and kind; the disk store
// survives a simulated restart (a fresh Engine attaching the same
// directory restores every graph with the same content identity, so
// cached results computed before the restart stay valid), and deletions
// propagate.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"pushpull"
	"pushpull/internal/algo/pr"
)

// storeRoundTrip drives the GraphStore contract shared by every
// implementation.
func storeRoundTrip(t *testing.T, s pushpull.GraphStore) {
	t.Helper()
	if names, err := s.Names(); err != nil || len(names) != 0 {
		t.Fatalf("fresh store: Names() = %v, %v", names, err)
	}
	plain := pushpull.NewWorkload(undirectedGraph(t, 200, 41))
	dw := pushpull.Directed(directedGraph(t, 100, true), pushpull.AsWeighted())
	// Names are arbitrary URL path segments: separators, spaces, percent
	// signs and a leading dot (regression: DiskStore used to drop
	// dot-prefixed names on restore, mistaking them for temp files) must
	// all survive.
	if err := s.Put("plain", plain); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("team a/road net 10%", dw); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(".hidden", plain); err != nil {
		t.Fatal(err)
	}
	names, err := s.Names()
	if err != nil || len(names) != 3 || names[0] != ".hidden" || names[1] != "plain" || names[2] != "team a/road net 10%" {
		t.Fatalf("Names() = %v, %v", names, err)
	}
	if got, err := s.Get(".hidden"); err != nil || got.ID() != plain.ID() {
		t.Fatalf("dot-prefixed name did not round-trip: %v, %v", got, err)
	}
	if err := s.Delete(".hidden"); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get("team a/road net 10%")
	if err != nil {
		t.Fatal(err)
	}
	if !got.IsDirected() || !got.HasWeights() {
		t.Errorf("restored kind %q lost directedness or weights", got.Kind())
	}
	if got.ID() != dw.ID() {
		t.Errorf("restored content identity %s != stored %s", got.ID(), dw.ID())
	}
	// Overwrite replaces content.
	if err := s.Put("plain", dw); err != nil {
		t.Fatal(err)
	}
	if got, err := s.Get("plain"); err != nil || got.ID() != dw.ID() {
		t.Errorf("overwrite not visible: %v, %v", got, err)
	}
	// Delete removes; deleting a never-stored name is not an error.
	if err := s.Delete("plain"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("plain"); err == nil {
		t.Error("Get after Delete succeeded")
	}
	if err := s.Delete("never-stored"); err != nil {
		t.Errorf("Delete of unknown name: %v", err)
	}
	if names, _ := s.Names(); len(names) != 1 {
		t.Errorf("Names() after delete = %v, want one entry", names)
	}
}

func TestMemStore(t *testing.T) { storeRoundTrip(t, pushpull.NewMemStore()) }

func TestDiskStore(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "graphs")
	s, err := pushpull.NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	storeRoundTrip(t, s)
	// The persisted form is one sanitized binary CSR file per graph: no
	// name can smuggle a path separator past the escaping.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() || strings.ContainsAny(e.Name(), "/ ") || !strings.HasSuffix(e.Name(), ".csr") {
			t.Errorf("store file %q is not a flat sanitized .csr file", e.Name())
		}
	}
}

// TestDiskStoreIgnoresForeignFiles: temp files and unrelated droppings in
// the store directory do not surface as graphs.
func TestDiskStoreIgnoresForeignFiles(t *testing.T) {
	dir := t.TempDir()
	s, err := pushpull.NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("g", pushpull.NewWorkload(undirectedGraph(t, 50, 43))); err != nil {
		t.Fatal(err)
	}
	for _, junk := range []string{".put-orphan", "README.md", ".hidden.el"} {
		if err := os.WriteFile(filepath.Join(dir, junk), []byte("junk"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	names, err := s.Names()
	if err != nil || len(names) != 1 || names[0] != "g" {
		t.Fatalf("Names() = %v, %v, want exactly [g]", names, err)
	}
}

// TestEngineAttachStoreRestart: the zero→restart path of the persistent
// registry. Engine 1 registers graphs through an attached DiskStore;
// engine 2 (the "restarted server") attaches the same directory and sees
// them all, with identical content IDs — so its result cache keys line up
// with pre-restart runs. Drops propagate to later restarts too.
func TestEngineAttachStoreRestart(t *testing.T) {
	dir := t.TempDir()
	open := func() *pushpull.DiskStore {
		s, err := pushpull.NewDiskStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	eng1 := pushpull.NewEngine()
	if err := eng1.AttachStore(open()); err != nil {
		t.Fatal(err)
	}
	g := pushpull.NewWorkload(undirectedGraph(t, 300, 47))
	h := pushpull.Directed(directedGraph(t, 150, false))
	if err := eng1.RegisterWorkload("g", g); err != nil {
		t.Fatal(err)
	}
	if err := eng1.RegisterWorkload("h", h); err != nil {
		t.Fatal(err)
	}

	eng2 := pushpull.NewEngine()
	if err := eng2.AttachStore(open()); err != nil {
		t.Fatal(err)
	}
	names := eng2.WorkloadNames()
	if len(names) != 2 || names[0] != "g" || names[1] != "h" {
		t.Fatalf("restarted engine sees %v, want [g h]", names)
	}
	rg, _ := eng2.Workload("g")
	rh, _ := eng2.Workload("h")
	if rg.ID() != g.ID() || rh.ID() != h.ID() {
		t.Errorf("restart changed content identity: g %s→%s, h %s→%s", g.ID(), rg.ID(), h.ID(), rh.ID())
	}
	if !rh.IsDirected() {
		t.Error("restart lost h's directedness")
	}

	if ok, err := eng2.DropWorkload("g"); !ok || err != nil {
		t.Fatalf("drop on restarted engine: %v, %v", ok, err)
	}
	eng3 := pushpull.NewEngine()
	if err := eng3.AttachStore(open()); err != nil {
		t.Fatal(err)
	}
	if names := eng3.WorkloadNames(); len(names) != 1 || names[0] != "h" {
		t.Errorf("second restart sees %v, want [h] after the drop", names)
	}
}

// TestEngineStoreWriteThrough: registrations before AttachStore are not
// persisted (the store is the durable truth from attach onward), ones
// after are.
func TestEngineStoreWriteThrough(t *testing.T) {
	dir := t.TempDir()
	s, err := pushpull.NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	eng := pushpull.NewEngine()
	if err := eng.RegisterWorkload("ephemeral", pushpull.NewWorkload(undirectedGraph(t, 50, 53))); err != nil {
		t.Fatal(err)
	}
	if err := eng.AttachStore(s); err != nil {
		t.Fatal(err)
	}
	if err := eng.RegisterWorkload("durable", pushpull.NewWorkload(undirectedGraph(t, 50, 59))); err != nil {
		t.Fatal(err)
	}
	names, err := s.Names()
	if err != nil || len(names) != 1 || names[0] != "durable" {
		t.Fatalf("persisted names = %v, %v, want exactly [durable]", names, err)
	}
	// Both are registered in memory regardless.
	if got := eng.WorkloadNames(); len(got) != 2 {
		t.Errorf("registry = %v, want both graphs", got)
	}
}

// TestDiskStoreConcurrentPutDelete hammers one name with interleaved
// Put/Delete/Get from many goroutines: no operation may error (Delete is
// idempotent, Put is atomic tmp+rename), and a concurrent Get must see
// either absence or one COMPLETE stored workload — never a torn file.
func TestDiskStoreConcurrentPutDelete(t *testing.T) {
	dir := t.TempDir()
	s, err := pushpull.NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	w1 := pushpull.NewWorkload(undirectedGraph(t, 60, 61))
	w2 := pushpull.NewWorkload(undirectedGraph(t, 80, 67))
	valid := map[string]bool{w1.ID(): true, w2.ID(): true}

	const goroutines, opsEach = 8, 25
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < opsEach; i++ {
				switch (g + i) % 4 {
				case 0:
					if err := s.Put("contended", w1); err != nil {
						t.Errorf("Put w1: %v", err)
					}
				case 1:
					if err := s.Put("contended", w2); err != nil {
						t.Errorf("Put w2: %v", err)
					}
				case 2:
					if err := s.Delete("contended"); err != nil {
						t.Errorf("Delete: %v", err)
					}
				default:
					got, err := s.Get("contended")
					switch {
					case err == nil:
						if !valid[got.ID()] {
							t.Errorf("Get returned a workload that was never stored: %s", got.ID())
						}
					case errors.Is(err, fs.ErrNotExist):
						// Deleted at read time — legal under this interleaving.
					default:
						t.Errorf("Get observed a torn or corrupt file: %v", err)
					}
				}
			}
		}(g)
	}
	wg.Wait()

	// The store is still fully functional and the directory holds no
	// leaked temp files from the churn.
	if err := s.Put("contended", w1); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get("contended")
	if err != nil || got.ID() != w1.ID() {
		t.Fatalf("final round-trip: %v, %v", got, err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".put-") {
			t.Errorf("leaked temp file %s", e.Name())
		}
	}
	names, err := s.Names()
	if err != nil || len(names) != 1 || names[0] != "contended" {
		t.Fatalf("Names() after churn = %v, %v", names, err)
	}
}

// storedAs reports how dir holds name: "pull view" or "graph" for a .csr
// file with or without the header's pull-view flag, "" for no file. Any
// other file of the name fails the test: a store keeps one file a name.
func storedAs(t *testing.T, dir, name string) string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if base, _, _ := strings.Cut(e.Name(), "."); base == name && e.Name() != name+".csr" {
			t.Fatalf("the store holds %s", e.Name())
		}
	}
	b, err := os.ReadFile(filepath.Join(dir, name+".csr"))
	switch {
	case errors.Is(err, fs.ErrNotExist):
		return ""
	case err != nil:
		t.Fatal(err)
	case len(b) < 12:
		t.Fatalf("%s.csr is %d bytes", name, len(b))
	}
	if b[8]&4 != 0 {
		return "pull view"
	}
	return "graph"
}

// TestDiskStoreBlockThreshold: a store with a memory budget persists
// large graphs as their pull views and serves them back as pure
// out-of-core handles; small graphs are stored as themselves; an
// overwrite that crosses the threshold in either direction leaves
// exactly one file per name.
func TestDiskStoreBlockThreshold(t *testing.T) {
	dir := t.TempDir()
	s, err := pushpull.NewDiskStore(dir, pushpull.WithBlockThreshold(2048))
	if err != nil {
		t.Fatal(err)
	}
	bigG := undirectedGraph(t, 500, 61)
	big := pushpull.NewWorkload(bigG)
	small := pushpull.NewWorkload(undirectedGraph(t, 10, 63))
	if err := s.Put("big", big); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("small", small); err != nil {
		t.Fatal(err)
	}
	mustHold := func(name, want string) {
		t.Helper()
		if got := storedAs(t, dir, name); got != want {
			t.Fatalf("%s is stored as %q, want %q", name, got, want)
		}
	}
	mustHold("big", "pull view")
	mustHold("small", "graph")

	names, err := s.Names()
	if err != nil || len(names) != 2 || names[0] != "big" || names[1] != "small" {
		t.Fatalf("Names() = %v, %v", names, err)
	}

	// The reopened handle is pure out-of-core, carries a file handle's
	// content ID (stable across reopens, distinct from the in-memory
	// handle's), and computes the same ranks.
	got, err := s.Get("big")
	if err != nil {
		t.Fatal(err)
	}
	if !got.IsOutOfCore() {
		t.Fatal("past-threshold graph did not come back out-of-core")
	}
	again, err := s.Get("big")
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	if again.ID() != got.ID() || got.ID() == big.ID() {
		t.Fatalf("reopened handle ID %s: second reopen has %s, the in-memory handle %s", got.ID(), again.ID(), big.ID())
	}
	want := run(t, pushpull.NewWorkload(bigG), "pr", pushpull.WithDirection(pushpull.Pull)).Result.([]float64)
	ranks := run(t, got, "pr").Result.([]float64)
	if d := pr.MaxDiff(ranks, want); d > 1e-9 {
		t.Fatalf("reopened block graph pr diverges: %g", d)
	}

	// OutOfCoreHandle: present for block-backed names only.
	if _, ok, err := s.OutOfCoreHandle("big"); err != nil || !ok {
		t.Fatalf("OutOfCoreHandle(big) = %v, %v", ok, err)
	}
	if _, ok, err := s.OutOfCoreHandle("small"); err != nil || ok {
		t.Fatalf("OutOfCoreHandle(small) = %v, %v", ok, err)
	}

	if sg, err := s.Get("small"); err != nil || sg.IsOutOfCore() {
		t.Fatalf("below-threshold graph: %v, ooc=%v", err, err == nil && sg.IsOutOfCore())
	}

	// Overwrites cross the threshold both ways; the stale format is gone.
	if err := s.Put("big", small); err != nil {
		t.Fatal(err)
	}
	mustHold("big", "graph")
	if err := s.Put("small", big); err != nil {
		t.Fatal(err)
	}
	mustHold("small", "pull view")
	if names, err = s.Names(); err != nil || len(names) != 2 {
		t.Fatalf("Names() after overwrites = %v, %v", names, err)
	}
	if err := s.Delete("small"); err != nil {
		t.Fatal(err)
	}
	mustHold("small", "")
	if _, err := s.Get("small"); err == nil {
		t.Fatal("Get after Delete succeeded")
	}
}

// TestDiskStoreBufferedBlocks: WithBufferedBlocks pins reopened handles
// to the bounded-RSS ReadAt reader.
func TestDiskStoreBufferedBlocks(t *testing.T) {
	s, err := pushpull.NewDiskStore(t.TempDir(),
		pushpull.WithBlockThreshold(1), pushpull.WithBufferedBlocks())
	if err != nil {
		t.Fatal(err)
	}
	g := undirectedGraph(t, 300, 67)
	if err := s.Put("g", pushpull.NewWorkload(g)); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get("g")
	if err != nil {
		t.Fatal(err)
	}
	bg, err := got.OutOfCore()
	if err != nil {
		t.Fatal(err)
	}
	if bg.Mmapped() {
		t.Fatal("buffered store served an mmapped handle")
	}
	want := run(t, pushpull.NewWorkload(g), "pr", pushpull.WithDirection(pushpull.Pull)).Result.([]float64)
	if d := pr.MaxDiff(run(t, got, "pr").Result.([]float64), want); d > 1e-9 {
		t.Fatalf("buffered block graph pr diverges: %g", d)
	}
}

// TestEngineOutOfCoreSwapAndRestore: registering a past-budget graph
// swaps the in-memory binding for the store's block-backed handle — the
// uploaded CSR becomes collectable — and a restart restores the same
// out-of-core identity.
func TestEngineOutOfCoreSwapAndRestore(t *testing.T) {
	dir := t.TempDir()
	open := func() *pushpull.DiskStore {
		t.Helper()
		s, err := pushpull.NewDiskStore(dir, pushpull.WithBlockThreshold(2048))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	g := undirectedGraph(t, 400, 71)
	want := run(t, pushpull.NewWorkload(g), "pr", pushpull.WithDirection(pushpull.Pull)).Result.([]float64)

	eng1 := pushpull.NewEngine()
	if err := eng1.AttachStore(open()); err != nil {
		t.Fatal(err)
	}
	if err := eng1.RegisterWorkload("big", pushpull.NewWorkload(g)); err != nil {
		t.Fatal(err)
	}
	served, ok := eng1.Workload("big")
	if !ok || !served.IsOutOfCore() {
		t.Fatalf("registered binding: ok=%v, ooc=%v — engine did not swap to the block handle", ok, ok && served.IsOutOfCore())
	}
	rep, err := eng1.Run(context.Background(), served, "pr")
	if err != nil {
		t.Fatal(err)
	}
	if d := pr.MaxDiff(rep.Result.([]float64), want); d > 1e-9 {
		t.Fatalf("swapped handle pr diverges: %g", d)
	}

	eng2 := pushpull.NewEngine()
	if err := eng2.AttachStore(open()); err != nil {
		t.Fatal(err)
	}
	restored, ok := eng2.Workload("big")
	if !ok || !restored.IsOutOfCore() {
		t.Fatal("restart lost the out-of-core binding")
	}
	if restored.ID() != served.ID() {
		t.Fatalf("restart changed content identity: %s → %s", served.ID(), restored.ID())
	}
	rep, err = eng2.Run(context.Background(), restored, "pr")
	if err != nil {
		t.Fatal(err)
	}
	if d := pr.MaxDiff(rep.Result.([]float64), want); d > 1e-9 {
		t.Fatalf("restored handle pr diverges: %g", d)
	}
	// Algorithms without block kernels reject the pure file handle loudly.
	if _, err := eng2.Run(context.Background(), restored, "tc"); !errors.Is(err, pushpull.ErrOutOfCoreUnsupported) {
		t.Fatalf("tc on pure ooc handle: %v, want ErrOutOfCoreUnsupported", err)
	}
	if ok, err := eng2.DropWorkload("big"); !ok || err != nil {
		t.Fatalf("drop: %v, %v", ok, err)
	}
}

// TestDiskStoreRestoresLegacyEdgeList: a store written before the binary
// CSR format holds <name>.el text edge lists. Get restores one with the ID
// the text has always had, and the next Put of the name replaces it with
// a .csr file, leaving the name listed once.
func TestDiskStoreRestoresLegacyEdgeList(t *testing.T) {
	const wantID = "w1223537e2a0c835e-n6"
	fixture, err := os.ReadFile(filepath.Join("testdata", "legacy.el"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "legacy.el"), fixture, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := pushpull.NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if names, err := s.Names(); err != nil || len(names) != 1 || names[0] != "legacy" {
		t.Fatalf("Names() = %v, %v, want [legacy]", names, err)
	}
	w, err := s.Get("legacy")
	if err != nil {
		t.Fatal(err)
	}
	if w.ID() != wantID || !w.IsDirected() || !w.HasWeights() {
		t.Fatalf("legacy graph restored as %s %s, want directed weighted %s", w.Kind(), w.ID(), wantID)
	}
	if err := s.Put("legacy", w); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "legacy.el")); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("re-Put left the legacy .el file: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "legacy.csr")); err != nil {
		t.Fatalf("re-Put wrote no .csr file: %v", err)
	}
	if names, err := s.Names(); err != nil || len(names) != 1 {
		t.Fatalf("Names() after re-Put = %v, %v, want one entry", names, err)
	}
	if again, err := s.Get("legacy"); err != nil || again.ID() != wantID {
		t.Fatalf("re-put graph restored as %v, %v, want %s", again, err, wantID)
	}
}

// TestDiskStoreMigratesLegacyBlock: a store written before the pull-view
// flag holds out-of-core graphs as <name>.blk files in the retired v1
// block format. testdata/legacy.blk is directedGraph(200, weighted) in
// that format, in four 64-vertex blocks. Get converts it once to a
// pull-view .csr, which restores with the ID the v1 file had and runs pr
// and bfs as the in-memory graph does (bfs refuses a directed graph
// either way); a damaged v1 file is refused and left where it is.
func TestDiskStoreMigratesLegacyBlock(t *testing.T) {
	const wantID = "w6892f17a95e00015-n200"
	fixture, err := os.ReadFile(filepath.Join("testdata", "legacy.blk"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "legacy.blk"), fixture, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := pushpull.NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if names, err := s.Names(); err != nil || len(names) != 1 || names[0] != "legacy" {
		t.Fatalf("Names() = %v, %v, want [legacy]", names, err)
	}
	h, err := s.Get("legacy")
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if !h.IsOutOfCore() || h.ID() != wantID {
		t.Fatalf("legacy block graph restored as out-of-core=%v %s, want an out-of-core %s", h.IsOutOfCore(), h.ID(), wantID)
	}
	if got := storedAs(t, dir, "legacy"); got != "pull view" {
		t.Fatalf("after Get the store holds the name as %q, want one pull-view .csr", got)
	}
	mem := pushpull.Directed(directedGraph(t, 200, true), pushpull.AsWeighted())
	want := run(t, mem, "pr", pushpull.WithDirection(pushpull.Pull)).Ranks()
	if d := pushpull.MaxDiff(run(t, h, "pr").Ranks(), want); d > 1e-9 {
		t.Errorf("pr over the converted file diverges from in-memory pull: max diff %g", d)
	}
	// bfs runs on undirected graphs only, in memory and out of core alike.
	for _, w := range []*pushpull.Workload{mem, h} {
		if _, err := pushpull.Run(context.Background(), w, "bfs"); !errors.Is(err, pushpull.ErrDirectedUnsupported) {
			t.Errorf("bfs on the directed graph (out-of-core=%v): %v, want ErrDirectedUnsupported", w.IsOutOfCore(), err)
		}
	}
	if again, err := s.Get("legacy"); err != nil || again.ID() != wantID {
		t.Fatalf("second Get: %v, %v, want %s", again, err, wantID)
	} else {
		again.Close()
	}

	// The block size field, in the header's fourth word, set to 65.
	bad := append([]byte(nil), fixture...)
	bad[12] = 65
	if err := os.WriteFile(filepath.Join(dir, "bad.blk"), bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if w, err := s.Get("bad"); err == nil || !strings.Contains(err.Error(), "block size 65") {
		t.Fatalf("damaged v1 file: Get = %v, %v, want a refusal naming the block size", w, err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var files []string
	for _, e := range entries {
		files = append(files, e.Name())
	}
	if fmt.Sprint(files) != "[bad.blk legacy.csr]" {
		t.Fatalf("after the refusal the store holds %v, want [bad.blk legacy.csr]", files)
	}
}

// TestDiskStoreMigratesLegacyBlockConcurrently: Gets racing to convert
// one v1 file each restore the graph, and the store ends with one
// pull-view .csr and no temp file.
func TestDiskStoreMigratesLegacyBlockConcurrently(t *testing.T) {
	fixture, err := os.ReadFile(filepath.Join("testdata", "legacy.blk"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "legacy.blk"), fixture, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := pushpull.NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w, err := s.Get("legacy")
			if err != nil {
				t.Error(err)
				return
			}
			defer w.Close()
			if w.ID() != "w6892f17a95e00015-n200" {
				t.Errorf("restored as %s", w.ID())
			}
		}()
	}
	wg.Wait()
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 1 || entries[0].Name() != "legacy.csr" {
		t.Fatalf("the store holds %v, %v, want only legacy.csr", entries, err)
	}
}

// TestDiskStorePutFileHandle: a pure file handle has no graph to write.
// Putting one over the name's stored file of the same graph is a no-op;
// over a different graph it is an error, and the store keeps what it
// held, so a restart restores the graph the Engine was told about or
// reports that it could not be stored.
func TestDiskStorePutFileHandle(t *testing.T) {
	s, err := pushpull.NewDiskStore(t.TempDir(), pushpull.WithBlockThreshold(1))
	if err != nil {
		t.Fatal(err)
	}
	for name, g := range map[string]*pushpull.Graph{"a": undirectedGraph(t, 300, 71), "b": undirectedGraph(t, 300, 73)} {
		if err := s.Put(name, pushpull.NewWorkload(g)); err != nil {
			t.Fatal(err)
		}
	}
	a, err := s.Get("a")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := s.Get("b")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := s.Put("a", a); err != nil {
		t.Fatalf("re-putting the handle the store restored: %v", err)
	}
	if err := s.Put("a", b); err == nil {
		t.Fatal("putting b's file handle over a succeeded")
	}
	if err := s.Put("c", b); err == nil {
		t.Fatal("putting a file handle under a name with no file succeeded")
	}
	got, err := s.Get("a")
	if err != nil {
		t.Fatal(err)
	}
	defer got.Close()
	if got.ID() != a.ID() {
		t.Fatalf("a restores as %s after the refused Put, want %s", got.ID(), a.ID())
	}
}

// TestDiskStorePutNil: Put of a nil workload is an error, not a panic,
// and leaves no temp file behind.
func TestDiskStorePutNil(t *testing.T) {
	dir := t.TempDir()
	s, err := pushpull.NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("g", nil); err == nil {
		t.Fatal("Put of a nil workload succeeded")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("Put of a nil workload left %s", entries[0].Name())
	}
}

// TestDiskStoreKeepsIDOfDuplicatedUndirectedEdge: an undirected edge
// listed twice with different weights, in a row long enough that the
// builder's sort is not an insertion sort, used to read back asymmetric,
// so a store round trip changed the graph's content ID and a restored
// worker disagreed with the router's catalog.
func TestDiskStoreKeepsIDOfDuplicatedUndirectedEdge(t *testing.T) {
	var text strings.Builder
	text.WriteString("# pushpull 40 78 1 0\n")
	for pass := 0; pass < 2; pass++ {
		for v := 39; v >= 2; v-- {
			fmt.Fprintf(&text, "0 %d 1\n", v)
		}
	}
	text.WriteString("0 1 2\n1 0 3\n")
	w, err := pushpull.ReadWorkload(strings.NewReader(text.String()))
	if err != nil {
		t.Fatal(err)
	}
	s, err := pushpull.NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("dup", w); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get("dup")
	if err != nil {
		t.Fatal(err)
	}
	if got.ID() != w.ID() {
		t.Fatalf("store round trip changed the ID: %s → %s", w.ID(), got.ID())
	}
}

// TestWorkloadCSRKeepsID: the binary form restores every kind with the
// content ID the text form gives, and refuses a graph the text reader
// could not have produced instead of writing it.
func TestWorkloadCSRKeepsID(t *testing.T) {
	for _, w := range []*pushpull.Workload{
		pushpull.NewWorkload(undirectedGraph(t, 200, 41)),
		pushpull.Directed(directedGraph(t, 100, true), pushpull.AsWeighted()),
		pushpull.Directed(directedGraph(t, 100, false)),
	} {
		var text, bin bytes.Buffer
		if err := pushpull.WriteWorkload(&text, w); err != nil {
			t.Fatal(err)
		}
		if err := pushpull.WriteWorkloadCSR(&bin, w); err != nil {
			t.Fatal(err)
		}
		fromText, err := pushpull.ReadWorkload(&text)
		if err != nil {
			t.Fatal(err)
		}
		fromBin, err := pushpull.ReadWorkloadCSR(&bin, int64(bin.Len()))
		if err != nil {
			t.Fatal(err)
		}
		if fromBin.ID() != w.ID() || fromBin.ID() != fromText.ID() || fromBin.Kind() != w.Kind() {
			t.Fatalf("%s %s: binary gives %s %s, text %s", w.Kind(), w.ID(), fromBin.Kind(), fromBin.ID(), fromText.ID())
		}
	}
	loops := pushpull.NewBuilder(3).KeepSelfLoops()
	loops.AddEdge(1, 1)
	if err := pushpull.WriteWorkloadCSR(io.Discard, pushpull.Directed(loops.MustBuild())); err == nil ||
		!strings.Contains(err.Error(), "self-loop") {
		t.Fatalf("WriteWorkloadCSR of a self-loop: %v", err)
	}
}
