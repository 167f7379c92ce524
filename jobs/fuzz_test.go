package jobs_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"pushpull"
	"pushpull/jobs"
)

// FuzzJobRecord holds recovery to whatever bytes a .job file holds: the
// fuzzer's bytes become the one record of a DiskJobStore, and NewManager
// over it either returns an error or recovers, never panics. Every job
// the recovered manager reports done must open to a non-empty result or
// fail to open with an error; none is served as an empty document.
func FuzzJobRecord(f *testing.F) {
	for _, seed := range []string{
		`{"id":"j-fuzz","spec":{"graph":"g","algorithm":"pr"},"state":"done","submitted_ms":1,"finished_ms":99999999999999}`,
		`{"id":"j-fuzz","spec":{"graph":"g","algorithm":"pr"},"state":"done","head":"{","payload":"ab12","finished_ms":99999999999999}`,
		`{"id":"j-fuzz","spec":{"graph":"g","algorithm":"pr"},"state":"done","result":{"ranks":[1]},"finished_ms":99999999999999}`,
		`{"id":"j-fuzz","spec":{"graph":"g","algorithm":"pr"},"state":"running","started_ms":5}`,
		`{"id":"j-fuzz","spec":{"graph":"g","algorithm":"pr","priority":"high"},"state":"queued","deadline_unix_ms":1}`,
		`{"id":"j-fuzz","spec":{"graph":"g","algorithm":"dist-pr-mp","options":{"ranks":1024}},"state":"queued"}`,
		`{"id":"j-fuzz","state":"failed","error":"boom","finished_ms":-1}`,
		`{"id":"../j-fuzz","state":"running"}`,
		`{"id":"j-fuzz","state":"what"}`,
		`not json`,
	} {
		f.Add([]byte(seed))
	}
	// No graph is registered, so a recovered queued job fails at once
	// instead of running.
	eng := pushpull.NewEngine()
	f.Fuzz(func(t *testing.T, record []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "j-fuzz.job"), record, 0o644); err != nil {
			t.Fatal(err)
		}
		store, err := jobs.NewDiskJobStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		m, err := jobs.NewManager(eng, jobs.WithStore(store))
		if err != nil {
			return
		}
		defer m.Close()
		done, err := m.List(jobs.StateDone, "")
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range done {
			body, err := m.OpenResult(j.ID)
			if err != nil {
				continue
			}
			var buf bytes.Buffer
			_, err = body.WriteTo(&buf)
			body.Close()
			if err == nil && buf.Len() == 0 {
				t.Errorf("done job %q opens to an empty result", j.ID)
			}
		}
	})
}
