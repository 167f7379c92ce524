package cluster_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"pushpull/jobs"
	"pushpull/serve"
)

// payloadOf is a run reply's fields but stats and summary, each as the
// bytes it was sent as: the part of a job's result that is the same
// bytes as a POST /run reply (stats and summary quote timings).
func payloadOf(t *testing.T, body []byte) map[string]json.RawMessage {
	t.Helper()
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(body, &fields); err != nil {
		t.Fatalf("parsing run reply %q: %v", body, err)
	}
	delete(fields, "stats")
	delete(fields, "summary")
	return fields
}

// TestJobPollsSurviveRouterRestart: jobs submitted through one router —
// one job, and a batch of 8 — are polled to done, and their results
// fetched, through a second router built fresh over the same worker
// list, with nothing passed between the two: a job's ID names its
// worker. Each result carries the same payload bytes as the POST /run
// reply for its spec.
func TestJobPollsSurviveRouterRestart(t *testing.T) {
	fleet := newFleet(t, 3)
	tsA, _ := newRouter(t, fleet)
	putGraph(t, tsA.URL, "demo", testGraph(t, 400, 17), http.StatusCreated)

	specs := []string{
		`{"graph": "demo", "algorithm": "pr", "options": {"iterations": 9}}`,
		`{"graph": "demo", "algorithm": "pr", "options": {"iterations": 3}}`,
		`{"graph": "demo", "algorithm": "pr", "options": {"iterations": 4, "direction": "push"}}`,
		`{"graph": "demo", "algorithm": "bfs", "options": {"source": 0}}`,
		`{"graph": "demo", "algorithm": "bfs", "options": {"source": 7, "direction": "pull"}}`,
		`{"graph": "demo", "algorithm": "tc"}`,
		`{"graph": "demo", "algorithm": "bc", "options": {"sources": [1, 2]}}`,
		`{"graph": "demo", "algorithm": "pr", "options": {"iterations": 6, "damping": 0.9}}`,
		`{"graph": "demo", "algorithm": "bfs", "options": {"source": 3, "direction": "push"}}`,
	}
	status, raw, _ := postJSON(t, tsA.URL, "/jobs", specs[0])
	var single jobs.Job
	if status != http.StatusAccepted || json.Unmarshal(raw, &single) != nil {
		t.Fatalf("POST /jobs through router A: status %d: %s", status, raw)
	}
	status, raw, _ = postJSON(t, tsA.URL, "/jobs", `{"batch": [`+strings.Join(specs[1:], ", ")+`]}`)
	var batch serve.BatchResponse
	if status != http.StatusAccepted || json.Unmarshal(raw, &batch) != nil || len(batch.Jobs) != 8 {
		t.Fatalf("POST /jobs batch of 8 through router A: status %d: %s", status, raw)
	}
	ids := []string{single.ID}
	for _, j := range batch.Jobs {
		ids = append(ids, j.ID)
	}
	want := make([][]byte, len(specs))
	for i, spec := range specs {
		if status, want[i], _ = postJSON(t, tsA.URL, "/run", spec); status != http.StatusOK {
			t.Fatalf("POST /run %s: status %d: %s", spec, status, want[i])
		}
	}

	tsB, _ := newRouter(t, fleet)
	for i, id := range ids {
		waitJobDone(t, tsB.URL, id)
		status, body := getJSON(t, tsB.URL+"/jobs/"+id+"/result")
		if status != http.StatusOK {
			t.Fatalf("GET result of %s through router B: status %d: %s", id, status, body)
		}
		got, ref := payloadOf(t, body), payloadOf(t, want[i])
		if len(got) != len(ref) {
			t.Errorf("job %d (%s): result fields %d, POST /run's %d", i, specs[i], len(got), len(ref))
		}
		for k, v := range ref {
			if !bytes.Equal(got[k], v) {
				t.Errorf("job %d (%s): %q differs from the POST /run reply's", i, specs[i], k)
			}
		}
	}
	status, raw = getJSON(t, tsB.URL+"/jobs?batch="+batch.BatchID)
	var listed []jobs.Job
	if status != http.StatusOK || json.Unmarshal(raw, &listed) != nil || len(listed) != 8 {
		t.Errorf("GET /jobs?batch= through router B: status %d, want the 8 jobs: %s", status, raw)
	}
}
