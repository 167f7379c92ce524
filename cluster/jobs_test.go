package cluster_test

// Async-tier router tests: job submission routes like a run (replica
// placement, failover counters), but accepted jobs pin to the worker
// that took them — the affinity table is what these exercise, along
// with batch atomicity (one worker runs the whole batch or the router
// refuses it).

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"pushpull/cluster"
	"pushpull/jobs"
	"pushpull/serve"
)

// postJSON sends body to base+path and returns (status, body, worker
// header).
func postJSON(t *testing.T, base, path, body string) (int, []byte, string) {
	t.Helper()
	resp, err := http.Post(base+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, raw, resp.Header.Get(cluster.WorkerHeader)
}

func getJSON(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, raw
}

// waitJobDone polls the router's status endpoint until the job reaches
// a terminal state, failing the test if that is not StateDone.
func waitJobDone(t *testing.T, base, id string) jobs.Job {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		status, raw := getJSON(t, base+"/jobs/"+id)
		if status != http.StatusOK {
			t.Fatalf("GET /jobs/%s: status %d: %s", id, status, raw)
		}
		var j jobs.Job
		if err := json.Unmarshal(raw, &j); err != nil {
			t.Fatalf("parsing job status %q: %v", raw, err)
		}
		if j.State.Terminal() {
			if j.State != jobs.StateDone {
				t.Fatalf("job %s ended %s (%s), want done", id, j.State, j.Error)
			}
			return j
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s after 10s", id, j.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRouterJobSubmitPollResult: a job submitted through the router
// lands on a replica of its graph, gets an affinity entry, and its
// status and result polls are answered through the router — the result
// body being the same RunResponse a synchronous routed run returns.
func TestRouterJobSubmitPollResult(t *testing.T) {
	fleet := newFleet(t, 3)
	ts, rt := newRouter(t, fleet)
	pl := putGraph(t, ts.URL, "demo", testGraph(t, 400, 17), http.StatusCreated)
	isReplica := map[string]bool{}
	for _, r := range pl.Replicas {
		isReplica[r] = true
	}

	status, raw, served := postJSON(t, ts.URL, "/jobs",
		`{"graph": "demo", "algorithm": "pr", "options": {"iterations": 5}}`)
	if status != http.StatusAccepted {
		t.Fatalf("POST /jobs: status %d, want 202: %s", status, raw)
	}
	var j jobs.Job
	if err := json.Unmarshal(raw, &j); err != nil || j.ID == "" {
		t.Fatalf("submission reply %q: %v", raw, err)
	}
	if !isReplica[served] {
		t.Errorf("job accepted by %s, not a replica of %v", served, pl.Replicas)
	}
	if wkr, ok := rt.Catalog().JobWorker(j.ID); !ok || wkr != served {
		t.Errorf("affinity for %s = (%q, %v), want %q", j.ID, wkr, ok, served)
	}

	waitJobDone(t, ts.URL, j.ID)
	rstatus, rbody := getJSON(t, ts.URL+"/jobs/"+j.ID+"/result")
	if rstatus != http.StatusOK {
		t.Fatalf("GET result: status %d: %s", rstatus, rbody)
	}
	var rr serve.RunResponse
	if err := json.Unmarshal(rbody, &rr); err != nil {
		t.Fatal(err)
	}
	if len(rr.Ranks) != 400 {
		t.Errorf("job result has %d ranks, want 400", len(rr.Ranks))
	}

	// The router-level list merges worker lists and carries the job.
	lstatus, lraw := getJSON(t, ts.URL+"/jobs")
	if lstatus != http.StatusOK {
		t.Fatalf("GET /jobs: status %d: %s", lstatus, lraw)
	}
	var list []jobs.Job
	if err := json.Unmarshal(lraw, &list); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, lj := range list {
		found = found || lj.ID == j.ID
	}
	if !found {
		t.Errorf("router job list %s does not carry %s", lraw, j.ID)
	}

	st := routerStats(t, ts.URL)
	if st.Jobs == 0 {
		t.Errorf("router stats report %d tracked jobs, want > 0", st.Jobs)
	}
}

// TestRouterBatchOneWorker: a batch submitted through the router lands
// whole on one worker — every job of the batch shares that affinity —
// and a batch-filtered list through the router returns exactly its
// jobs.
func TestRouterBatchOneWorker(t *testing.T) {
	fleet := newFleet(t, 3)
	ts, rt := newRouter(t, fleet)
	putGraph(t, ts.URL, "demo", testGraph(t, 400, 17), http.StatusCreated)

	status, raw, served := postJSON(t, ts.URL, "/jobs", `{"batch": [
		{"graph": "demo", "algorithm": "pr", "options": {"iterations": 3}},
		{"graph": "demo", "algorithm": "bfs", "options": {"source": 0}},
		{"graph": "demo", "algorithm": "tc"}
	]}`)
	if status != http.StatusAccepted {
		t.Fatalf("POST /jobs batch: status %d: %s", status, raw)
	}
	var br serve.BatchResponse
	if err := json.Unmarshal(raw, &br); err != nil {
		t.Fatal(err)
	}
	if br.BatchID == "" || len(br.Jobs) != 3 {
		t.Fatalf("batch reply %+v: want a batch ID and 3 jobs", br)
	}
	if wkr, ok := rt.Catalog().JobWorker(br.BatchID); !ok || wkr != served {
		t.Errorf("batch affinity = (%q, %v), want %q", wkr, ok, served)
	}
	for _, j := range br.Jobs {
		if wkr, ok := rt.Catalog().JobWorker(j.ID); !ok || wkr != served {
			t.Errorf("job %s affinity = (%q, %v), want the batch's worker %q", j.ID, wkr, ok, served)
		}
		waitJobDone(t, ts.URL, j.ID)
	}

	lstatus, lraw := getJSON(t, ts.URL+"/jobs?batch="+br.BatchID)
	if lstatus != http.StatusOK {
		t.Fatalf("GET /jobs?batch=: status %d: %s", lstatus, lraw)
	}
	var list []jobs.Job
	if err := json.Unmarshal(lraw, &list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 3 {
		t.Errorf("batch-filtered list has %d jobs, want 3: %s", len(list), lraw)
	}
}

// TestRouterBatchDisjointReplicas: with R=1 every graph lives on
// exactly one worker; a batch spanning two graphs placed on different
// workers cannot run under one batch ID and must be refused with 409,
// not silently split.
func TestRouterBatchDisjointReplicas(t *testing.T) {
	fleet := newFleet(t, 2)
	ts, rt := newRouter(t, fleet, func(c *cluster.Config) { c.Replicas = 1 })

	// Rendezvous placement hashes content IDs, so distinct seeds spread
	// over the fleet; find two graphs on different workers.
	var names []string
	workers := map[string]string{}
	for seed := uint64(1); seed <= 16 && len(workers) < 2; seed++ {
		name := fmt.Sprintf("g%d", seed)
		pl := putGraph(t, ts.URL, name, testGraph(t, 100, seed), http.StatusCreated)
		if len(pl.Replicas) != 1 {
			t.Fatalf("graph %s placed on %d replicas, want 1", name, len(pl.Replicas))
		}
		if _, seen := workers[pl.Replicas[0]]; !seen {
			workers[pl.Replicas[0]] = name
			names = append(names, name)
		}
	}
	if len(names) < 2 {
		t.Skip("placement put every probe graph on one worker")
	}

	status, raw, _ := postJSON(t, ts.URL, "/jobs", fmt.Sprintf(`{"batch": [
		{"graph": %q, "algorithm": "pr", "options": {"iterations": 2}},
		{"graph": %q, "algorithm": "pr", "options": {"iterations": 2}}
	]}`, names[0], names[1]))
	if status != http.StatusConflict {
		t.Fatalf("cross-worker batch: status %d, want 409: %s", status, raw)
	}

	// The same two specs submitted separately both land fine.
	for _, n := range names[:2] {
		status, raw, _ := postJSON(t, ts.URL, "/jobs",
			fmt.Sprintf(`{"graph": %q, "algorithm": "pr", "options": {"iterations": 2}}`, n))
		if status != http.StatusAccepted {
			t.Fatalf("single job on %s: status %d: %s", n, status, raw)
		}
	}
	_ = rt
}

// TestRouterJobValidationAndAffinityPin: router-local validation 400s/
// 404s without touching a worker; polls for unknown jobs 404; and a
// poll whose affinity worker died is a truthful 502, never a phantom
// answer from another replica.
func TestRouterJobValidationAndAffinityPin(t *testing.T) {
	fleet := newFleet(t, 3)
	ts, _ := newRouter(t, fleet)
	putGraph(t, ts.URL, "demo", testGraph(t, 400, 17), http.StatusCreated)

	cases := []struct {
		body string
		want int
	}{
		{`{"graph": "nope", "algorithm": "pr"}`, http.StatusNotFound},
		{`{"graph": "demo", "algorithm": "nope"}`, http.StatusNotFound},
		{`{}`, http.StatusBadRequest},
		{`{"graph": "demo", "algorithm": "pr", "batch": [{"graph": "demo", "algorithm": "pr"}]}`, http.StatusBadRequest},
		{`{"batch": [{"graph": "demo", "algorithm": "pr"}, {"graph": "nope", "algorithm": "pr"}]}`, http.StatusNotFound},
	}
	for _, c := range cases {
		if status, raw, _ := postJSON(t, ts.URL, "/jobs", c.body); status != c.want {
			t.Errorf("POST /jobs %s: status %d, want %d: %s", c.body, status, c.want, raw)
		}
	}
	if status, raw := getJSON(t, ts.URL+"/jobs/j-nope"); status != http.StatusNotFound {
		t.Errorf("unknown job status poll: %d, want 404: %s", status, raw)
	}
	if status, raw := getJSON(t, ts.URL+"/jobs?state=bogus"); status != http.StatusBadRequest {
		t.Errorf("bad state filter: %d, want 400: %s", status, raw)
	}

	// Submit, finish, then kill the affinity worker: the poll must not
	// fail over (no other worker knows the job) — 502.
	status, raw, served := postJSON(t, ts.URL, "/jobs",
		`{"graph": "demo", "algorithm": "pr", "options": {"iterations": 4}}`)
	if status != http.StatusAccepted {
		t.Fatalf("POST /jobs: status %d: %s", status, raw)
	}
	var j jobs.Job
	if err := json.Unmarshal(raw, &j); err != nil {
		t.Fatal(err)
	}
	waitJobDone(t, ts.URL, j.ID)
	for _, w := range fleet {
		if w.URL() == served {
			w.kill()
		}
	}
	if status, raw := getJSON(t, ts.URL+"/jobs/"+j.ID); status != http.StatusBadGateway {
		t.Errorf("poll with dead affinity worker: status %d, want 502: %s", status, raw)
	}
}

// TestRouterOptionRanges: a vertex id past 32 bits or an overflowing
// timeout_ms reaches the client through the router as the worker's 400,
// on POST /run and POST /jobs alike.
func TestRouterOptionRanges(t *testing.T) {
	fleet := newFleet(t, 2)
	ts, _ := newRouter(t, fleet)
	putGraph(t, ts.URL, "demo", testGraph(t, 200, 23), http.StatusCreated)
	for _, c := range []struct{ algorithm, options, field string }{
		{"bfs", `{"source": 4294967296}`, "source"},
		{"bc", `{"sources": [4294967296]}`, "sources[0]"},
		{"pr", `{"timeout_ms": 9223372036855}`, "timeout_ms"},
	} {
		body := fmt.Sprintf(`{"graph": "demo", "algorithm": %q, "options": %s}`, c.algorithm, c.options)
		for _, path := range []string{"/run", "/jobs"} {
			if status, raw, _ := postJSON(t, ts.URL, path, body); status != http.StatusBadRequest || !strings.Contains(string(raw), c.field) {
				t.Errorf("POST %s %s via the router: %d %s, want 400 naming %q", path, body, status, raw, c.field)
			}
		}
	}
}
