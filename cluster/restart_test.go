package cluster_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"slices"
	"strings"
	"testing"

	"pushpull"
	"pushpull/cluster"
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

// TestFreshRouterReplacesAndDeletes: a router built fresh over the
// workers an earlier router placed a graph on — the earlier one having
// mutated it twice — can replace that graph (201, every worker holding
// the new content) and then delete it (204, gone from every worker):
// its epochs come from the clock, so they pass the fence the workers
// recorded for the name. Every worker is a replica: the fresh router
// knows nothing of where the earlier one put the old content.
func TestFreshRouterReplacesAndDeletes(t *testing.T) {
	fleet := newFleet(t, 3)
	everyWorker := func(c *cluster.Config) { c.Replicas = len(fleet) }
	tsA, _ := newRouter(t, fleet, everyWorker)
	putGraph(t, tsA.URL, "demo", testGraph(t, 300, 5), http.StatusCreated)
	plA := putGraph(t, tsA.URL, "demo", testGraph(t, 300, 6), http.StatusCreated)

	tsB, _ := newRouter(t, fleet, everyWorker)
	plB := putGraph(t, tsB.URL, "demo", testGraph(t, 300, 7), http.StatusCreated)
	if plB.Epoch <= plA.Epoch || plB.ContentID == plA.ContentID {
		t.Fatalf("router B's placement %+v does not supersede router A's %+v", plB, plA)
	}
	for _, w := range fleet {
		if got := workerGraphs(t, w); len(got) != 1 || got[0].ID != plB.ContentID {
			t.Errorf("worker %s holds %+v, want demo as router B's %s", w.URL(), got, plB.ContentID)
		}
	}

	req, err := http.NewRequest(http.MethodDelete, tsB.URL+"/graphs/demo", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("DELETE through router B: status %d, want 204", resp.StatusCode)
	}
	for _, w := range fleet {
		if n := len(workerGraphs(t, w)); n != 0 {
			t.Errorf("worker %s still holds %d graph(s) after router B's delete", w.URL(), n)
		}
	}
}

// TestFreshRouterClearsExReplicas: 2 replicas over 3 workers. Router A
// places demo on one pair; a router built fresh over the same workers
// replaces it with content that places on another pair, so the worker
// only A chose holds a copy the fresh router's catalog knows nothing of.
// After the fresh router's PUT every worker holds its content or
// nothing. Its DELETE then reaches every worker, not only its replicas:
// a copy planted directly on the third worker, as one that was down
// during the PUT would keep, is gone too.
func TestFreshRouterClearsExReplicas(t *testing.T) {
	fleet := newFleet(t, 3)
	tsA, _ := newRouter(t, fleet)
	plA := putGraph(t, tsA.URL, "demo", testGraph(t, 300, 5), http.StatusCreated)

	sameSet := func(a, b []string) bool {
		return len(a) == len(b) && !slices.ContainsFunc(a, func(w string) bool { return !slices.Contains(b, w) })
	}
	placer := cluster.NewPlacer(2)
	var g *pushpull.Graph
	for seed := uint64(6); g == nil; seed++ {
		c := testGraph(t, 300, seed)
		if !sameSet(placer.Place(pushpull.NewWorkload(c).ID(), urls(fleet)), plA.Replicas) {
			g = c
		}
	}
	tsB, _ := newRouter(t, fleet)
	plB := putGraph(t, tsB.URL, "demo", g, http.StatusCreated)
	if sameSet(plB.Replicas, plA.Replicas) {
		t.Fatalf("router B placed demo on %v, router A's replicas too", plB.Replicas)
	}
	var other *worker
	for _, w := range fleet {
		got := workerGraphs(t, w)
		if len(got) > 1 || len(got) == 1 && got[0].ID != plB.ContentID {
			t.Errorf("worker %s holds %+v after router B's PUT, want nothing or demo as %s", w.URL(), got, plB.ContentID)
		}
		if !slices.Contains(plB.Replicas, w.URL()) {
			other = w
		}
	}

	putGraph(t, other.URL(), "demo", testGraph(t, 300, 5), http.StatusCreated)
	req, err := http.NewRequest(http.MethodDelete, tsB.URL+"/graphs/demo", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("DELETE through router B: status %d, want 204", resp.StatusCode)
	}
	for _, w := range fleet {
		if got := workerGraphs(t, w); len(got) != 0 {
			t.Errorf("worker %s holds %+v after router B's DELETE", w.URL(), got)
		}
	}
}
