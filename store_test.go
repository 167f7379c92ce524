package pushpull_test

// GraphStore tests: the persistence layer behind the serving registry.
// Both implementations round-trip name, content and kind; the disk store
// survives a simulated restart (a fresh Engine attaching the same
// directory restores every graph with the same content identity, so
// cached results computed before the restart stay valid), and deletions
// propagate.

import (
	"context"
	"errors"
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
	s, err := pushpull.NewDiskStore(filepath.Join(t.TempDir(), "graphs"))
	if err != nil {
		t.Fatal(err)
	}
	storeRoundTrip(t, s)
	// The persisted form is one sanitized edge-list file per graph: no
	// name can smuggle a path separator past the escaping.
	entries, err := os.ReadDir(s.Dir())
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() || strings.ContainsAny(e.Name(), "/ ") || !strings.HasSuffix(e.Name(), ".el") {
			t.Errorf("store file %q is not a flat sanitized .el file", e.Name())
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

// TestDiskStoreBlockThreshold: a store with a memory budget persists
// large graphs in the block format and serves them back as pure
// out-of-core handles; small graphs keep the edge-list format; an
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
	mustExist := func(name string, want bool) {
		t.Helper()
		_, err := os.Stat(filepath.Join(dir, name))
		if got := err == nil; got != want {
			t.Fatalf("%s exists=%v, want %v", name, got, want)
		}
	}
	mustExist("big.blk", true)
	mustExist("big.el", false)
	mustExist("small.el", true)
	mustExist("small.blk", false)

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
	mustExist("big.el", true)
	mustExist("big.blk", false)
	if err := s.Put("small", big); err != nil {
		t.Fatal(err)
	}
	mustExist("small.blk", true)
	mustExist("small.el", false)
	if names, err = s.Names(); err != nil || len(names) != 2 {
		t.Fatalf("Names() after overwrites = %v, %v", names, err)
	}
	if err := s.Delete("small"); err != nil {
		t.Fatal(err)
	}
	mustExist("small.blk", false)
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
