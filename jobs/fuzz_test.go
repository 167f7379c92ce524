package jobs_test

import (
	"bytes"
	"encoding/json"
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

// FuzzPriority holds the priority decoder to its four names: a JSON
// string "low", "normal", "high" or "" decodes (the empty one as normal)
// and re-encodes to its name, which decodes back to the same priority;
// any other document is an error. null, which encoding/json hands a
// field's decoder for an explicit null, is normal, as an absent field is.
func FuzzPriority(f *testing.F) {
	for _, seed := range []string{`"low"`, `"normal"`, `"high"`, `""`, `null`, `"Low"`, `"urgent"`,
		`1`, `"\u006cow"`, ` "high" `, `"high"x`, `["low"]`, `"`, ``} {
		f.Add([]byte(seed))
	}
	want := map[string]jobs.Priority{"low": jobs.Low, "normal": jobs.Normal, "": jobs.Normal, "high": jobs.High}
	f.Fuzz(func(t *testing.T, doc []byte) {
		var p jobs.Priority
		err := p.UnmarshalJSON(doc)
		var v any
		if json.Unmarshal(doc, &v) != nil {
			if err == nil {
				t.Fatalf("%q is not JSON but decoded as %v", doc, p)
			}
			return
		}
		name, isString := v.(string)
		wantP, known := want[name]
		switch {
		case v == nil:
			if err != nil || p != jobs.Normal {
				t.Fatalf("null: got %v, %v; want normal", p, err)
			}
			return
		case !isString || !known:
			if err == nil {
				t.Fatalf("%q decoded as %v, want an error", doc, p)
			}
			return
		case err != nil || p != wantP:
			t.Fatalf("%q: got %v, %v; want %v", doc, p, err, wantP)
		}
		out, err := p.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		var back jobs.Priority
		if string(out) != `"`+wantP.String()+`"` || back.UnmarshalJSON(out) != nil || back != p {
			t.Fatalf("%v re-encodes as %s, which decodes as %v", p, out, back)
		}
	})
}

// FuzzPayloadPath holds payload file names to plain content hashes: a
// name that is not non-empty lowercase hex is refused, and every path
// given out is a direct child of <dir>/payloads named by the hash.
func FuzzPayloadPath(f *testing.F) {
	for _, seed := range []string{"ab12", "0123456789abcdef", "", "..", "../x", "a/b", "AB12", "ab12\x00", "ab.12", "/"} {
		f.Add(seed)
	}
	dir := f.TempDir()
	store, err := jobs.NewDiskJobStore(dir)
	if err != nil {
		f.Fatal(err)
	}
	payloads := filepath.Join(dir, "payloads")
	f.Fuzz(func(t *testing.T, hash string) {
		path, err := jobs.PayloadPath(store, hash)
		hex := hash != ""
		for _, c := range []byte(hash) {
			hex = hex && ('0' <= c && c <= '9' || 'a' <= c && c <= 'f')
		}
		switch {
		case !hex && err == nil:
			t.Fatalf("hash %q accepted as %q", hash, path)
		case hex && err != nil:
			t.Fatalf("hash %q refused: %v", hash, err)
		case hex && (filepath.Dir(path) != payloads || filepath.Base(path) != hash):
			t.Fatalf("hash %q maps to %q, not a file of %q", hash, path, payloads)
		}
	})
}
