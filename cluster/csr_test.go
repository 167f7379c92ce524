package cluster_test

// The router parses an upload once and replicates it as a binary CSR
// stamped with its content ID; the workers hold, persist and restore the
// graph under that same ID.

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"pushpull"
	"pushpull/cluster"
	"pushpull/serve"
)

// putText uploads w through base as a text edge list.
func putText(t *testing.T, base, name string, w *pushpull.Workload) cluster.Placement {
	t.Helper()
	var buf bytes.Buffer
	if err := pushpull.WriteWorkload(&buf, w); err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPut, base+"/graphs/"+name, &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("PUT %s: status %d: %s", name, resp.StatusCode, body)
	}
	var pl cluster.Placement
	if err := json.Unmarshal(body, &pl); err != nil {
		t.Fatal(err)
	}
	return pl
}

// TestRouterReplicatesBinaryCSR: every replica PUT carries the binary
// type and the content ID the router returns to the client, and its body
// decodes to that ID.
func TestRouterReplicatesBinaryCSR(t *testing.T) {
	fleet := newFleet(t, 3)
	type put struct{ worker, contentType, id, bodyID string }
	var mu sync.Mutex
	var puts []put
	for _, w := range fleet {
		url := w.URL()
		record := func(rw http.ResponseWriter, r *http.Request) bool {
			if r.Method != http.MethodPut {
				return false
			}
			body, err := io.ReadAll(r.Body)
			if err != nil {
				t.Error(err)
			}
			p := put{worker: url, contentType: r.Header.Get("Content-Type"), id: r.Header.Get(serve.ContentIDHeader)}
			if wl, err := pushpull.ReadWorkloadCSR(bytes.NewReader(body), int64(len(body))); err == nil {
				p.bodyID = wl.ID()
			}
			mu.Lock()
			puts = append(puts, p)
			mu.Unlock()
			r.Body = io.NopCloser(bytes.NewReader(body))
			return false
		}
		w.intercept.Store(&record)
	}
	ts, _ := newRouter(t, fleet)
	w := pushpull.Directed(pushpull.WithUniformWeights(testGraph(t, 300, 5), 1, 9, 5), pushpull.AsWeighted())
	pl := putText(t, ts.URL, "g", w)
	if pl.ContentID != w.ID() {
		t.Fatalf("router placed content %s, the graph is %s", pl.ContentID, w.ID())
	}
	if len(puts) != len(pl.Replicas) {
		t.Fatalf("%d replica PUTs for %d replicas", len(puts), len(pl.Replicas))
	}
	for _, p := range puts {
		if p.contentType != serve.CSRContentType || p.id != pl.ContentID || p.bodyID != pl.ContentID {
			t.Errorf("PUT to %s: type %q, %s %q, body %q; want %q and %s",
				p.worker, p.contentType, serve.ContentIDHeader, p.id, p.bodyID, serve.CSRContentType, pl.ContentID)
		}
	}
	for _, wk := range fleet {
		for _, g := range workerGraphs(t, wk) {
			if g.ID != pl.ContentID || g.Kind != w.Kind() {
				t.Errorf("worker %s holds %s %s, the router placed %s %s", wk.URL(), g.Kind, g.ID, w.Kind(), pl.ContentID)
			}
		}
	}
}

// storedWorker serves an Engine restored from a DiskStore at dir.
func storedWorker(t *testing.T, dir string) *httptest.Server {
	t.Helper()
	store, err := pushpull.NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	eng := pushpull.NewEngine()
	if err := eng.AttachStore(store); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(serve.New(eng))
	t.Cleanup(ts.Close)
	return ts
}

func graphsAt(t *testing.T, base string) []serve.GraphInfo {
	t.Helper()
	resp, err := http.Get(base + "/graphs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out []serve.GraphInfo
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestRouterContentIDSurvivesWorkerRestart: two store-backed workers hold
// an upload under the router's content ID, and a worker restarted over
// its store restores it under the same ID.
func TestRouterContentIDSurvivesWorkerRestart(t *testing.T) {
	dirs := []string{t.TempDir(), t.TempDir()}
	workers := []*httptest.Server{storedWorker(t, dirs[0]), storedWorker(t, dirs[1])}
	rt, err := cluster.New(cluster.Config{
		Workers:        []string{workers[0].URL, workers[1].URL},
		Replicas:       2,
		HealthInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.Start(t.Context())
	t.Cleanup(rt.Close)
	ts := httptest.NewServer(rt)
	t.Cleanup(ts.Close)

	w := pushpull.Directed(pushpull.WithUniformWeights(testGraph(t, 300, 7), 1, 9, 7), pushpull.AsWeighted())
	pl := putText(t, ts.URL, "g", w)
	if len(pl.Replicas) != 2 {
		t.Fatalf("placed on %v, want both workers", pl.Replicas)
	}
	for i, base := range []string{workers[0].URL, workers[1].URL} {
		gs := graphsAt(t, base)
		if len(gs) != 1 || gs[0].ID != pl.ContentID {
			t.Fatalf("worker %d holds %+v, the router placed %s", i, gs, pl.ContentID)
		}
	}
	workers[0].Close()
	restarted := storedWorker(t, dirs[0])
	if gs := graphsAt(t, restarted.URL); len(gs) != 1 || gs[0].Name != "g" || gs[0].ID != pl.ContentID {
		t.Fatalf("restarted worker holds %+v, the router placed %s", gs, pl.ContentID)
	}
}
