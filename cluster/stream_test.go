package cluster_test

// The router relays run replies and job results as streams. These tests
// pin what must not change with that — the failover decision is made on
// the status line, before any byte of any body reaches the client — and
// what is new: a worker that dies mid-body leaves a short reply, counted
// and blamed, never a hang.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"pushpull/api"
	"pushpull/cluster"
	"pushpull/jobs"
)

// fleetOf returns the fleet member with the given URL.
func fleetOf(t *testing.T, ws []*worker, url string) *worker {
	t.Helper()
	for _, w := range ws {
		if w.URL() == url {
			return w
		}
	}
	t.Fatalf("no worker %s in the fleet", url)
	return nil
}

// answer scripts a worker: requests matching method and path prefix get
// respond, everything else the real server.
func answer(w *worker, method, prefix string, respond func(http.ResponseWriter)) {
	f := func(rw http.ResponseWriter, r *http.Request) bool {
		if r.Method != method || !strings.HasPrefix(r.URL.Path, prefix) {
			return false
		}
		respond(rw)
		return true
	}
	w.intercept.Store(&f)
}

// dieMidBody declares a megabyte, sends 64 KiB of it and aborts the
// connection: a worker process killed while writing a result.
func dieMidBody(rw http.ResponseWriter) {
	rw.Header().Set("Content-Type", "application/json")
	rw.Header().Set("Content-Length", "1048576")
	rw.WriteHeader(http.StatusOK)
	rw.Write([]byte(`{"ranks":[` + strings.Repeat("1,", 32<<10)))
	rw.(http.Flusher).Flush()
	panic(http.ErrAbortHandler)
}

// TestRouterStreamFailsOverBeforeFirstByte: a primary answering 429, 5xx
// or 404 is failed over exactly as when replies were buffered — the
// client sees one clean 200 from the secondary and nothing of the
// primary's error body.
func TestRouterStreamFailsOverBeforeFirstByte(t *testing.T) {
	ws := newFleet(t, 2)
	ts, _ := newRouter(t, ws)
	pl := putGraph(t, ts.URL, "g", testGraph(t, 300, 1), http.StatusCreated)
	primary := fleetOf(t, ws, pl.Replicas[0])
	for i, status := range []int{http.StatusTooManyRequests, http.StatusInternalServerError, http.StatusServiceUnavailable, http.StatusNotFound} {
		answer(primary, http.MethodPost, "/run", func(rw http.ResponseWriter) {
			rw.Header().Set("Content-Type", "application/json")
			rw.WriteHeader(status)
			fmt.Fprintf(rw, `{"error":"scripted %d"}`+"\n", status)
		})
		resp, err := http.Post(ts.URL+"/run", "application/json",
			strings.NewReader(fmt.Sprintf(`{"graph":"g","algorithm":"pr","options":{"iterations":%d}}`, i+1)))
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("primary answering %d: routed run status %d, read error %v: %.200s", status, resp.StatusCode, err, raw)
		}
		if got := resp.Header.Get(cluster.WorkerHeader); got != pl.Replicas[1] {
			t.Errorf("primary answering %d: served by %s, want the secondary %s", status, got, pl.Replicas[1])
		}
		if resp.ContentLength != int64(len(raw)) {
			t.Errorf("primary answering %d: Content-Length %d for a %d-byte body", status, resp.ContentLength, len(raw))
		}
		var rr api.RunResponse
		if err := json.Unmarshal(raw, &rr); err != nil || len(rr.Ranks) != 300 || strings.Contains(string(raw), "scripted") {
			t.Errorf("primary answering %d: body is not the secondary's reply alone (%v): %.200s", status, err, raw)
		}
	}
	if st := routerStats(t, ts.URL); st.FailedOver != 4 || st.Retried != 4 || st.Failed != 0 {
		t.Errorf("stats %+v, want 4 failed over, 4 retried, none failed", st)
	}
}

// TestRouterWorkerDiesMidBody: on both streamed paths, a worker that
// drops the connection part-way through a body gives the client a short
// reply and an error — promptly — and the router counts the request
// failed and marks the worker down.
func TestRouterWorkerDiesMidBody(t *testing.T) {
	ws := newFleet(t, 2)
	ts, rt := newRouter(t, ws)
	pl := putGraph(t, ts.URL, "g", testGraph(t, 300, 1), http.StatusCreated)
	client := &http.Client{Timeout: 10 * time.Second}

	// short fetches url and requires a 200 whose body ends early.
	short := func(req *http.Request) {
		t.Helper()
		resp, err := client.Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v (want a 200, then a broken body)", req.Method, req.URL.Path, err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK || err == nil || len(raw) >= 1<<20 {
			t.Fatalf("%s %s: status %d, %d bytes, read error %v; want 200 and a body cut short", req.Method, req.URL.Path, resp.StatusCode, len(raw), err)
		}
	}

	// A job result: the job lives on one worker, which dies serving it.
	status, raw, wkr := postJSON(t, ts.URL, "/jobs", `{"graph":"g","algorithm":"pr"}`)
	if status != http.StatusAccepted {
		t.Fatalf("POST /jobs: status %d: %s", status, raw)
	}
	var j jobs.Job
	if err := json.Unmarshal(raw, &j); err != nil {
		t.Fatal(err)
	}
	waitJobDone(t, ts.URL, j.ID)
	holder := fleetOf(t, ws, wkr)
	answer(holder, http.MethodGet, "/jobs/"+j.ID+"/result", dieMidBody)
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/jobs/"+j.ID+"/result", nil)
	short(req)
	if st := routerStats(t, ts.URL); st.Failed != 1 {
		t.Errorf("after the broken result fetch: failed = %d, want 1", st.Failed)
	}
	if rt.Health().IsUp(wkr) {
		t.Errorf("worker %s died mid-body and is still marked up", wkr)
	}
	holder.intercept.Store(nil)
	rt.Health().Check(t.Context())

	// A run: the primary dies mid-body. Too late to fail over — the
	// status line is out — so the client gets the short reply.
	answer(fleetOf(t, ws, pl.Replicas[0]), http.MethodPost, "/run", dieMidBody)
	req, _ = http.NewRequest(http.MethodPost, ts.URL+"/run", strings.NewReader(`{"graph":"g","algorithm":"pr"}`))
	short(req)
	if st := routerStats(t, ts.URL); st.Failed != 2 || st.FailedOver != 0 {
		t.Errorf("after the broken run: %+v, want 2 failed, none failed over", st)
	}
	if rt.Health().IsUp(pl.Replicas[0]) {
		t.Errorf("primary %s died mid-body and is still marked up", pl.Replicas[0])
	}
}

// TestRouterRelaysJobGone: a job's worker answering that the job is gone
// (collected: 404) or will never have a result (410) is relayed as it
// is, poll after poll, and changes nothing at the router: once the worker
// answers for the job again, so does the router.
func TestRouterRelaysJobGone(t *testing.T) {
	ws := newFleet(t, 2)
	ts, _ := newRouter(t, ws)
	putGraph(t, ts.URL, "g", testGraph(t, 300, 1), http.StatusCreated)
	for _, gone := range []int{http.StatusNotFound, http.StatusGone} {
		status, raw, wkr := postJSON(t, ts.URL, "/jobs", `{"graph":"g","algorithm":"pr"}`)
		if status != http.StatusAccepted {
			t.Fatalf("POST /jobs: status %d: %s", status, raw)
		}
		var j jobs.Job
		if err := json.Unmarshal(raw, &j); err != nil {
			t.Fatal(err)
		}
		waitJobDone(t, ts.URL, j.ID)
		holder := fleetOf(t, ws, wkr)
		answer(holder, http.MethodGet, "/jobs/"+j.ID, func(rw http.ResponseWriter) {
			rw.Header().Set("Content-Type", "application/json")
			rw.WriteHeader(gone)
			io.WriteString(rw, `{"error":"scripted: gone"}`+"\n")
		})
		for _, path := range []string{"/jobs/" + j.ID + "/result", "/jobs/" + j.ID} {
			if status, raw := getJSON(t, ts.URL+path); status != gone || !strings.Contains(string(raw), "scripted") {
				t.Errorf("GET %s while the worker answers %d: status %d (%s), want the worker's answer", path, gone, status, raw)
			}
		}
		holder.intercept.Store(nil)
		waitJobDone(t, ts.URL, j.ID)
	}
}
