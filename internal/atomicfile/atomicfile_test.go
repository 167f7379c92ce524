package atomicfile_test

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"pushpull/internal/atomicfile"
)

// temps lists the .put-* entries at dir's top level.
func temps(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".put-") {
			out = append(out, e.Name())
		}
	}
	return out
}

// TestReplace: a replacement publishes the whole new content, and a
// failed write leaves the old content and no temp behind.
func TestReplace(t *testing.T) {
	dir := t.TempDir()
	target := filepath.Join(dir, "f")
	var mu sync.Mutex
	write := func(s string) func(io.Writer) error {
		return func(w io.Writer) error { _, err := io.WriteString(w, s); return err }
	}
	if err := atomicfile.Replace(dir, target, &mu, write("old")); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	err := atomicfile.Replace(dir, target, &mu, func(w io.Writer) error {
		io.WriteString(w, "half")
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("failed write: err = %v, want %v", err, boom)
	}
	if b, err := os.ReadFile(target); err != nil || string(b) != "old" {
		t.Fatalf("after a failed write the target holds %q, %v; want the old content", b, err)
	}
	if err := atomicfile.Replace(dir, target, &mu, write("new")); err != nil {
		t.Fatal(err)
	}
	if b, err := os.ReadFile(target); err != nil || string(b) != "new" {
		t.Fatalf("target holds %q, %v; want the new content", b, err)
	}
	tmp, err := atomicfile.Write(dir, write("discarded"))
	if err != nil {
		t.Fatal(err)
	}
	tmp.Discard()
	if err := atomicfile.Temp(filepath.Join(dir, ".put-gone")).Rename(filepath.Join(dir, "missing", "f")); err == nil {
		t.Fatal("renaming a temp that is not there succeeded")
	}
	if left := temps(t, dir); len(left) != 0 {
		t.Fatalf("temps left behind: %v", left)
	}
	if err := atomicfile.Remove(target); err != nil {
		t.Fatal(err)
	}
	if err := atomicfile.Remove(target); err != nil {
		t.Fatalf("removing a missing file: %v", err)
	}
}

// TestSweep: only the package's own temps at the top level go.
func TestSweep(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{".put-1", ".put-x", ".keep", "entry", "sub/.put-2"} {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Mkdir(filepath.Join(dir, ".put-dir"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := atomicfile.Sweep(dir); err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]bool{".put-1": false, ".put-x": false, ".keep": true, "entry": true, "sub/.put-2": true, ".put-dir": true} {
		if _, err := os.Stat(filepath.Join(dir, name)); (err == nil) != want {
			t.Errorf("%s: present = %v after the sweep, want %v", name, err == nil, want)
		}
	}
	if !atomicfile.Hidden(".put-1") || !atomicfile.Hidden(".keep") || atomicfile.Hidden("entry") {
		t.Error("Hidden must take every dotfile, and only dotfiles, for a non-entry")
	}
}
