package serve_test

// One encoded payload per result, seen from HTTP: a cached POST /run and
// every job over the same cache entry serve the same tail bytes, with a
// declared length, and /stats shows the sharing and the retention.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"pushpull"
	"pushpull/api"
	"pushpull/jobs"
	"pushpull/serve"
)

func TestServeEncodedPayloadShared(t *testing.T) {
	const keep = 2
	eng := pushpull.NewEngine()
	if err := eng.RegisterWorkload("demo", pushpull.NewWorkload(smallGraph(t))); err != nil {
		t.Fatal(err)
	}
	mgr, err := jobs.NewManager(eng, jobs.WithRetention(keep, time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mgr.Close)
	ts := httptest.NewServer(serve.New(eng, serve.WithJobManager(mgr)))
	t.Cleanup(ts.Close)

	const req = `{"graph":"demo","algorithm":"pr","options":{"direction":"pull","iterations":3}}`
	tailOf := func(body []byte) []byte {
		t.Helper()
		i := bytes.Index(body, []byte(`,"directions":`))
		if i < 0 {
			t.Fatalf("reply has no payload tail: %s", body)
		}
		return body[i:]
	}
	post := func(wantHit bool) []byte {
		t.Helper()
		status, body, header := httpJob(t, http.MethodPost, ts.URL+"/run", req)
		if status != http.StatusOK {
			t.Fatalf("POST /run: %d: %s", status, body)
		}
		if got := header.Get("Content-Length"); got != strconv.Itoa(len(body)) {
			t.Errorf("POST /run: Content-Length %q for a %d-byte body", got, len(body))
		}
		var resp api.RunResponse
		if err := json.Unmarshal(body, &resp); err != nil || resp.Stats.CacheHit != wantHit || len(resp.Ranks) == 0 {
			t.Fatalf("POST /run: %v, cache_hit=%v (want %v), %d ranks", err, resp.Stats.CacheHit, wantHit, len(resp.Ranks))
		}
		return body
	}
	miss, hit := post(false), post(true)
	if !bytes.Equal(tailOf(miss), tailOf(hit)) {
		t.Error("hit and miss replies carry different payloads")
	}
	if again := post(true); !bytes.Equal(again, hit) {
		t.Error("two hits of one entry are not byte-equal")
	}

	// Three jobs over the same entry: each result is the hit reply, and
	// with keep = 2 the first is collected while its payload lives on.
	var ids []string
	for i := 0; i < keep+1; i++ {
		status, body, _ := httpJob(t, http.MethodPost, ts.URL+"/jobs", req)
		if status != http.StatusAccepted {
			t.Fatalf("POST /jobs: %d: %s", status, body)
		}
		var j jobs.Job
		if err := json.Unmarshal(body, &j); err != nil {
			t.Fatal(err)
		}
		waitJobState(t, ts.URL, j.ID, jobs.StateDone)
		status, body, header := httpJob(t, http.MethodGet, ts.URL+"/jobs/"+j.ID+"/result", "")
		if status != http.StatusOK || !bytes.Equal(body, hit) {
			t.Errorf("job %d result: status %d, equal to the POST /run hit: %v", i, status, bytes.Equal(body, hit))
		}
		if got := header.Get("Content-Length"); got != strconv.Itoa(len(body)) {
			t.Errorf("job %d result: Content-Length %q for a %d-byte body", i, got, len(body))
		}
		ids = append(ids, j.ID)
	}
	for _, path := range []string{"", "/result"} {
		if status, body, _ := httpJob(t, http.MethodGet, ts.URL+"/jobs/"+ids[0]+path, ""); status != http.StatusNotFound {
			t.Errorf("GET /jobs/{collected}%s: %d (%s), want 404", path, status, body)
		}
	}

	_, raw, _ := httpJob(t, http.MethodGet, ts.URL+"/stats", "")
	var st serve.EngineStats
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	tail := int64(len(tailOf(hit)) - 1) // the reply's newline is not payload
	// Five replies came off the entry's memo after the first hit built it.
	if st.EncodedHits != 4 || st.EncodedBytes != tail {
		t.Errorf("stats: encoded_hits=%d encoded_bytes=%d, want 4 and %d", st.EncodedHits, st.EncodedBytes, tail)
	}
	if st.Jobs == nil || st.Jobs.Retained != keep || st.Jobs.Evicted != 1 || st.Jobs.PayloadFiles != 1 || st.Jobs.PayloadBytes != tail {
		t.Errorf("stats.jobs = %+v, want %d retained, 1 evicted, 1 payload of %d bytes", st.Jobs, keep, tail)
	}
	// One entry is cached: its charge is the payload plus the memoized tail,
	// inside the default budget.
	if st.CacheBytes <= st.EncodedBytes || st.CacheBytes > st.CacheBudgetBytes || st.CacheBudgetBytes != pushpull.DefaultCacheBytes {
		t.Errorf("stats: cache_bytes=%d cache_budget_bytes=%d with %d encoded bytes", st.CacheBytes, st.CacheBudgetBytes, st.EncodedBytes)
	}
	for _, field := range []string{"retained", "evicted", "payload_files", "payload_bytes", "encoded_hits", "encoded_bytes", "cache_bytes", "cache_budget_bytes"} {
		if !bytes.Contains(raw, []byte(fmt.Sprintf("%q:", field))) {
			t.Errorf("/stats body lacks %q: %s", field, raw)
		}
	}
}
