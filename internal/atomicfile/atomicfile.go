// Package atomicfile replaces a file whole, the one way the graph store
// (pushpull.DiskStore) and the job store (jobs.DiskJobStore) publish
// what they persist: a reader, or a process started after a writer was
// killed, finds a file's old content or its new, never a torn write.
// Write fills a temp (a .put-* dotfile in the store's directory) outside
// any lock, Temp.Rename puts it over the target under the caller's lock,
// and Sweep reclaims the temps a killed writer left. Nothing is fsynced:
// the promise holds across a killed process, not across a power loss.
package atomicfile

import (
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

const tempPrefix = ".put-"

// hook is called with "write" after each chunk a temp takes, "closed"
// once it is whole and closed, "renamed" once it has replaced its target,
// and "removed" once Remove has removed a file. Only the package's tests
// replace it, to stop a process at a step.
var hook = func(step string) {}

// Temp is a written and closed temp, waiting to replace its target.
type Temp string

// Write creates a temp in dir, fills it with write and closes it. A
// failed write or close removes it.
func Write(dir string, write func(io.Writer) error) (Temp, error) {
	f, err := os.CreateTemp(dir, tempPrefix+"*")
	if err != nil {
		return "", err
	}
	err = write(hookedWriter{f})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(f.Name())
		return "", err
	}
	hook("closed")
	return Temp(f.Name()), nil
}

// Rename replaces target with t, or removes t if it cannot. The caller
// holds the lock its writers of target serialize on, so concurrent
// replacements end last-write-wins.
func (t Temp) Rename(target string) error {
	if err := os.Rename(string(t), target); err != nil {
		os.Remove(string(t))
		return err
	}
	hook("renamed")
	return nil
}

// Discard removes t instead of publishing it.
func (t Temp) Discard() { os.Remove(string(t)) }

// Replace is Write in dir, then Rename over target holding mu.
func Replace(dir, target string, mu sync.Locker, write func(io.Writer) error) error {
	t, err := Write(dir, write)
	if err != nil {
		return err
	}
	mu.Lock()
	defer mu.Unlock()
	return t.Rename(target)
}

// Remove removes path; a path that is not there is not an error.
func Remove(path string) error {
	err := os.Remove(path)
	if err == nil {
		hook("removed")
	}
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	return nil
}

// Hidden reports whether a directory entry is never a store entry: a
// temp, or any other dotfile. The stores name no entry with a leading
// dot (the graph store escapes one, job IDs are hex).
func Hidden(name string) bool { return strings.HasPrefix(name, ".") }

// Sweep removes the temps at dir's top level, touching no subdirectory
// and no other dotfile. A store sweeps its directory when it opens, so
// one process owns a store directory: a second one would remove the
// first one's temps in flight.
func Sweep(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.IsDir() && strings.HasPrefix(e.Name(), tempPrefix) {
			if err := Remove(filepath.Join(dir, e.Name())); err != nil {
				return err
			}
		}
	}
	return nil
}

type hookedWriter struct{ f *os.File }

func (h hookedWriter) Write(p []byte) (int, error) {
	defer hook("write")
	return h.f.Write(p)
}
