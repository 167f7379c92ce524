package jobs

// JobStore: the persistence layer behind a Manager. The in-memory job
// map is the runtime truth; every state transition writes through, so
// the store always holds the last state each job durably reached and a
// restarted Manager can pick the queue back up (NewManager recovers:
// queued jobs re-queue, running jobs become interrupted).
//
// A store holds two kinds of thing: job records, small and rewritten at
// every transition, and result payloads, large, immutable and named by
// their content hash so that any number of records can point at one.
// The Manager counts the references and deletes a payload with its last
// referrer; the store just keeps what it is given.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// JobStore persists job records for a Manager. Implementations must be
// safe for concurrent use.
type JobStore interface {
	// List loads every persisted job, in no particular order.
	List() ([]*Job, error)
	// Put persists j (keyed by j.ID), replacing any previous record.
	Put(j *Job) error
	// Delete removes a job record. Deleting an unknown ID is not an
	// error.
	Delete(id string) error

	// PutPayload stores data under its content hash. The store may keep
	// data itself, which the caller must not modify afterwards.
	PutPayload(hash string, data []byte) error
	// OpenPayload opens a stored payload for reading and reports its
	// length; the error for an unknown hash wraps fs.ErrNotExist.
	OpenPayload(hash string) (io.ReadCloser, int64, error)
	// DeletePayload removes a payload. Deleting an unknown hash is not an
	// error.
	DeletePayload(hash string) error
	// Payloads lists the stored payloads: hash → length.
	Payloads() (map[string]int64, error)
}

// ---- in-memory store ----

// MemJobStore is a map-backed JobStore: the write-through contract
// without durability, for tests and for Managers that don't need to
// survive a restart.
type MemJobStore struct {
	mu       sync.Mutex
	jobs     map[string]*Job
	payloads map[string][]byte
}

// NewMemJobStore returns an empty in-memory job store.
func NewMemJobStore() *MemJobStore {
	return &MemJobStore{jobs: map[string]*Job{}, payloads: map[string][]byte{}}
}

// List implements JobStore.
func (s *MemJobStore) List() ([]*Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		cp := *j
		out = append(out, &cp)
	}
	return out, nil
}

// Put implements JobStore.
func (s *MemJobStore) Put(j *Job) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	cp := *j
	s.jobs[j.ID] = &cp
	return nil
}

// Delete implements JobStore.
func (s *MemJobStore) Delete(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.jobs, id)
	return nil
}

// PutPayload implements JobStore; it keeps data, not a copy.
func (s *MemJobStore) PutPayload(hash string, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.payloads[hash] = data
	return nil
}

// OpenPayload implements JobStore.
func (s *MemJobStore) OpenPayload(hash string) (io.ReadCloser, int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	data, ok := s.payloads[hash]
	if !ok {
		return nil, 0, fmt.Errorf("jobstore: payload %q: %w", hash, fs.ErrNotExist)
	}
	return io.NopCloser(bytes.NewReader(data)), int64(len(data)), nil
}

// DeletePayload implements JobStore.
func (s *MemJobStore) DeletePayload(hash string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.payloads, hash)
	return nil
}

// Payloads implements JobStore.
func (s *MemJobStore) Payloads() (map[string]int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]int64, len(s.payloads))
	for hash, data := range s.payloads {
		out[hash] = int64(len(data))
	}
	return out, nil
}

// ---- on-disk store ----

// DiskJobStore persists each job as one JSON file under a directory:
// <id>.job, written atomically (temp file + rename, the DiskStore
// idiom) so a crash mid-Put leaves the previous record intact — the job
// store can never hold a half-written record, only the last state the
// job durably reached. Job IDs are generated hex ([a-z0-9-]), so the
// filename mapping is the identity. Payloads are one file each under
// payloads/, named by their hash and written the same way.
type DiskJobStore struct {
	dir string
	// mu serializes writers; readers go straight to the filesystem
	// (rename makes each file's content atomic).
	mu sync.Mutex
}

// jobExt is the persisted-file suffix; payloadDir the subdirectory the
// payload files live in.
const (
	jobExt     = ".job"
	payloadDir = "payloads"
)

// NewDiskJobStore opens (creating if needed) a job store rooted at dir.
func NewDiskJobStore(dir string) (*DiskJobStore, error) {
	if dir == "" {
		return nil, fmt.Errorf("jobstore: empty directory")
	}
	if err := os.MkdirAll(filepath.Join(dir, payloadDir), 0o755); err != nil {
		return nil, fmt.Errorf("jobstore: %w", err)
	}
	return &DiskJobStore{dir: dir}, nil
}

// Dir returns the store's root directory.
func (s *DiskJobStore) Dir() string { return s.dir }

func (s *DiskJobStore) path(id string) string {
	return filepath.Join(s.dir, id+jobExt)
}

// List implements JobStore.
func (s *DiskJobStore) List() ([]*Job, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("jobstore: %w", err)
	}
	var out []*Job
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), jobExt) || strings.HasPrefix(e.Name(), ".") {
			// Temp files and foreign droppings.
			continue
		}
		buf, err := os.ReadFile(filepath.Join(s.dir, e.Name()))
		if err != nil {
			return nil, fmt.Errorf("jobstore: %w", err)
		}
		var j Job
		if err := json.Unmarshal(buf, &j); err != nil {
			return nil, fmt.Errorf("jobstore: corrupt record %q: %w", e.Name(), err)
		}
		out = append(out, &j)
	}
	return out, nil
}

// Put implements JobStore.
func (s *DiskJobStore) Put(j *Job) error {
	return s.writeFile(s.path(j.ID), func(f *os.File) error {
		// Encode appends the newline a record ends with.
		return json.NewEncoder(f).Encode(j)
	})
}

// writeFile publishes a file atomically: write fills a temp file in the
// store's root (same filesystem as every destination), and only the
// rename that publishes it runs under the store lock, so concurrent
// writers of one path still serialize into complete, last-write-wins
// files.
func (s *DiskJobStore) writeFile(path string, write func(*os.File) error) error {
	tmp, err := os.CreateTemp(s.dir, ".put-*")
	if err != nil {
		return fmt.Errorf("jobstore: %w", err)
	}
	err = write(tmp)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		s.mu.Lock()
		err = os.Rename(tmp.Name(), path)
		s.mu.Unlock()
	}
	if err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("jobstore: %q: %w", filepath.Base(path), err)
	}
	return nil
}

// Delete implements JobStore.
func (s *DiskJobStore) Delete(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := os.Remove(s.path(id)); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("jobstore: %q: %w", id, err)
	}
	return nil
}

// payloadPath maps a content hash to its file. Hashes reach here from
// records read off disk, so anything but plain hex — a path separator, a
// dot — is refused rather than joined into a path.
func (s *DiskJobStore) payloadPath(hash string) (string, error) {
	if hash == "" {
		return "", fmt.Errorf("jobstore: empty payload hash")
	}
	for i := 0; i < len(hash); i++ {
		if c := hash[i]; !('0' <= c && c <= '9' || 'a' <= c && c <= 'f') {
			return "", fmt.Errorf("jobstore: bad payload hash %q", hash)
		}
	}
	return filepath.Join(s.dir, payloadDir, hash), nil
}

// PutPayload implements JobStore.
func (s *DiskJobStore) PutPayload(hash string, data []byte) error {
	path, err := s.payloadPath(hash)
	if err != nil {
		return err
	}
	return s.writeFile(path, func(f *os.File) error {
		_, err := f.Write(data)
		return err
	})
}

// OpenPayload implements JobStore.
func (s *DiskJobStore) OpenPayload(hash string) (io.ReadCloser, int64, error) {
	path, err := s.payloadPath(hash)
	if err != nil {
		return nil, 0, err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, fmt.Errorf("jobstore: payload: %w", err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, 0, fmt.Errorf("jobstore: payload: %w", err)
	}
	return f, fi.Size(), nil
}

// DeletePayload implements JobStore.
func (s *DiskJobStore) DeletePayload(hash string) error {
	path, err := s.payloadPath(hash)
	if err != nil {
		return err
	}
	if err := os.Remove(path); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("jobstore: payload: %w", err)
	}
	return nil
}

// Payloads implements JobStore.
func (s *DiskJobStore) Payloads() (map[string]int64, error) {
	entries, err := os.ReadDir(filepath.Join(s.dir, payloadDir))
	if err != nil {
		return nil, fmt.Errorf("jobstore: %w", err)
	}
	out := make(map[string]int64, len(entries))
	for _, e := range entries {
		if fi, err := e.Info(); err == nil && fi.Mode().IsRegular() {
			out[e.Name()] = fi.Size()
		}
	}
	return out, nil
}
