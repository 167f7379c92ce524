package cluster_test

// Cluster-tier tests over httptest fleets: real pushpull/serve workers
// behind a Router, with a kill switch per worker (the handler aborts the
// connection, the same failure shape as a dead process) to exercise
// replication, failover, epoch fencing and cross-process invalidation.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pushpull"
	"pushpull/cluster"
	"pushpull/jobs"
	"pushpull/serve"
)

// worker is one fleet member: a real serve.Server over its own Engine,
// with a switch that makes every subsequent request abort its connection
// — indistinguishable, from the router's side, from a killed process.
type worker struct {
	ts   *httptest.Server
	eng  *pushpull.Engine
	dead atomic.Bool
	// intercept, when set, sees every request first and reports whether
	// it answered it: how a test scripts one endpoint's misbehaviour.
	intercept atomic.Pointer[func(http.ResponseWriter, *http.Request) bool]
}

func (w *worker) URL() string { return w.ts.URL }
func (w *worker) kill()       { w.dead.Store(true) }

func newWorker(t *testing.T) *worker {
	t.Helper()
	w := &worker{eng: pushpull.NewEngine()}
	mgr, err := jobs.NewManager(w.eng)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mgr.Close)
	h := serve.New(w.eng, serve.WithJobManager(mgr))
	w.ts = httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if w.dead.Load() {
			panic(http.ErrAbortHandler)
		}
		if f := w.intercept.Load(); f != nil && (*f)(rw, r) {
			return
		}
		h.ServeHTTP(rw, r)
	}))
	t.Cleanup(w.ts.Close)
	return w
}

func newFleet(t *testing.T, n int) []*worker {
	t.Helper()
	out := make([]*worker, n)
	for i := range out {
		out[i] = newWorker(t)
	}
	return out
}

func urls(ws []*worker) []string {
	out := make([]string, len(ws))
	for i, w := range ws {
		out[i] = w.URL()
	}
	return out
}

// newRouter builds, starts and serves a Router over the fleet with fast
// retries and the background health loop disabled — tests drive probes
// explicitly so liveness transitions are deterministic.
func newRouter(t *testing.T, ws []*worker, mutate ...func(*cluster.Config)) (*httptest.Server, *cluster.Router) {
	t.Helper()
	cfg := cluster.Config{
		Workers:        urls(ws),
		Replicas:       2,
		RetryBase:      time.Millisecond,
		HealthInterval: -1,
	}
	for _, m := range mutate {
		m(&cfg)
	}
	rt, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rt.Start(context.Background())
	t.Cleanup(rt.Close)
	ts := httptest.NewServer(rt)
	t.Cleanup(ts.Close)
	return ts, rt
}

func testGraph(t *testing.T, n int, seed uint64) *pushpull.Graph {
	t.Helper()
	g, err := pushpull.ErdosRenyi(n, 8, seed)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func putGraph(t *testing.T, base, name string, g *pushpull.Graph, wantStatus int) cluster.Placement {
	t.Helper()
	var buf bytes.Buffer
	if err := pushpull.WriteWorkload(&buf, pushpull.NewWorkload(g)); err != nil {
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
	if resp.StatusCode != wantStatus {
		t.Fatalf("PUT %s: status %d, want %d: %s", name, resp.StatusCode, wantStatus, body)
	}
	var pl cluster.Placement
	if wantStatus == http.StatusCreated {
		if err := json.Unmarshal(body, &pl); err != nil {
			t.Fatalf("parsing placement %q: %v", body, err)
		}
	}
	return pl
}

// postRun POSTs a run and returns (response, serving worker). A non-2xx
// other than wantStatus fails the test.
func postRun(t *testing.T, base, body string, wantStatus int) (serve.RunResponse, string) {
	t.Helper()
	resp, err := http.Post(base+"/run", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != wantStatus {
		t.Fatalf("POST /run %s: status %d, want %d: %s", body, resp.StatusCode, wantStatus, raw)
	}
	var rr serve.RunResponse
	if wantStatus == http.StatusOK {
		if err := json.Unmarshal(raw, &rr); err != nil {
			t.Fatalf("parsing run response %q: %v", raw, err)
		}
	}
	return rr, resp.Header.Get(cluster.WorkerHeader)
}

func workerGraphs(t *testing.T, w *worker) []serve.GraphInfo {
	t.Helper()
	resp, err := http.Get(w.URL() + "/graphs")
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

func routerStats(t *testing.T, base string) cluster.RouterStats {
	t.Helper()
	resp, err := http.Get(base + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st cluster.RouterStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestRouterReplicatesAndRoutes: a PUT through the router lands on
// exactly R workers (the placement's replica set, nowhere else), and a
// routed run is served by one of them with the worker named in the
// response header.
func TestRouterReplicatesAndRoutes(t *testing.T) {
	fleet := newFleet(t, 3)
	ts, rt := newRouter(t, fleet)
	pl := putGraph(t, ts.URL, "demo", testGraph(t, 400, 17), http.StatusCreated)
	if len(pl.Replicas) != 2 || pl.Epoch == 0 || pl.N != 400 {
		t.Fatalf("placement %+v, want 2 replicas with a nonzero epoch", pl)
	}
	isReplica := map[string]bool{}
	for _, r := range pl.Replicas {
		isReplica[r] = true
	}
	for _, w := range fleet {
		n := len(workerGraphs(t, w))
		if isReplica[w.URL()] && n != 1 {
			t.Errorf("replica %s holds %d graphs, want 1", w.URL(), n)
		}
		if !isReplica[w.URL()] && n != 0 {
			t.Errorf("non-replica %s holds %d graphs, want 0", w.URL(), n)
		}
	}

	resp, served := postRun(t, ts.URL, `{"graph": "demo", "algorithm": "pr", "options": {"iterations": 5}}`, http.StatusOK)
	if !isReplica[served] {
		t.Errorf("run served by %s, which is not in the replica set %v", served, pl.Replicas)
	}
	if len(resp.Ranks) != 400 {
		t.Errorf("run returned %d ranks, want 400", len(resp.Ranks))
	}
	if got, ok := rt.Catalog().Get("demo"); !ok || got.ContentID != pl.ContentID {
		t.Errorf("catalog lost the placement: %+v", got)
	}
}

// TestRouterFailoverOnDeadPrimary: killing the primary replica must not
// fail a client run — the router retries onto the secondary and counts
// the failover.
func TestRouterFailoverOnDeadPrimary(t *testing.T) {
	fleet := newFleet(t, 3)
	ts, rt := newRouter(t, fleet)
	pl := putGraph(t, ts.URL, "demo", testGraph(t, 400, 17), http.StatusCreated)

	byURL := map[string]*worker{}
	for _, w := range fleet {
		byURL[w.URL()] = w
	}
	byURL[pl.Replicas[0]].kill()

	body := `{"graph": "demo", "algorithm": "pr", "options": {"iterations": 5}}`
	_, served := postRun(t, ts.URL, body, http.StatusOK)
	if served != pl.Replicas[1] {
		t.Errorf("run served by %s, want the secondary %s", served, pl.Replicas[1])
	}
	if rt.Health().IsUp(pl.Replicas[0]) {
		t.Error("connection error did not mark the dead primary down")
	}
	st := routerStats(t, ts.URL)
	if st.FailedOver == 0 || st.Retried == 0 || st.Failed != 0 {
		t.Errorf("stats %+v: want failed_over > 0, retried > 0, failed == 0", st)
	}
}

// TestRouterFailoverMidBurst is the acceptance check: kill the primary
// in the middle of a stream of client runs and assert not one request
// fails. Each request uses a distinct option set so every one is a real
// routed run, not a router-invisible cache hit shortcut.
func TestRouterFailoverMidBurst(t *testing.T) {
	fleet := newFleet(t, 3)
	ts, _ := newRouter(t, fleet)
	pl := putGraph(t, ts.URL, "demo", testGraph(t, 400, 17), http.StatusCreated)
	byURL := map[string]*worker{}
	for _, w := range fleet {
		byURL[w.URL()] = w
	}

	const clients, perClient = 4, 8
	var failures atomic.Int64
	var killOnce sync.Once
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				if c == 0 && i == perClient/2 {
					killOnce.Do(func() { byURL[pl.Replicas[0]].kill() })
				}
				body := fmt.Sprintf(`{"graph": "demo", "algorithm": "pr", "options": {"iterations": %d}}`, 2+c*perClient+i)
				resp, err := http.Post(ts.URL+"/run", "application/json", strings.NewReader(body))
				if err != nil {
					failures.Add(1)
					t.Errorf("client %d run %d: %v", c, i, err)
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					failures.Add(1)
					t.Errorf("client %d run %d: status %d", c, i, resp.StatusCode)
				}
			}
		}(c)
	}
	wg.Wait()
	if n := failures.Load(); n != 0 {
		t.Fatalf("%d of %d client requests failed across the primary's death; failover must absorb all of them",
			n, clients*perClient)
	}
}

// TestRouterRePutInvalidatesEveryReplica is the cross-process face of
// the stale-result regression: re-PUT different content under the same
// name through the router, then interrogate each replica DIRECTLY — every
// worker must serve the new graph fresh, no replica may answer from the
// old content's cache.
func TestRouterRePutInvalidatesEveryReplica(t *testing.T) {
	fleet := newFleet(t, 2)
	ts, _ := newRouter(t, fleet)
	putGraph(t, ts.URL, "g", testGraph(t, 200, 23), http.StatusCreated)

	body := `{"graph": "g", "algorithm": "pr", "options": {"iterations": 5}}`
	// Warm every replica's cache against the old content.
	for _, w := range fleet {
		resp, _ := postRun(t, w.URL(), body, http.StatusOK)
		if len(resp.Ranks) != 200 {
			t.Fatalf("warm run on %s returned %d ranks, want 200", w.URL(), len(resp.Ranks))
		}
	}

	pl2 := putGraph(t, ts.URL, "g", testGraph(t, 300, 29), http.StatusCreated)
	if len(pl2.Replicas) != 2 {
		t.Fatalf("re-PUT placed %d replicas, want both workers", len(pl2.Replicas))
	}
	for _, w := range fleet {
		resp, _ := postRun(t, w.URL(), body, http.StatusOK)
		if resp.Stats.CacheHit {
			t.Errorf("replica %s served the old content's cached result after re-PUT", w.URL())
		}
		if len(resp.Ranks) != 300 {
			t.Errorf("replica %s returned %d ranks after re-PUT, want the new graph's 300", w.URL(), len(resp.Ranks))
		}
	}
}

// TestRouterEpochFencesStaleWrite: a delayed replication write (an old
// epoch replayed at a worker after a newer mutation landed) is rejected
// with 409 instead of resurrecting stale content; epoch-less direct
// client PUTs still work.
func TestRouterEpochFencesStaleWrite(t *testing.T) {
	fleet := newFleet(t, 2)
	ts, _ := newRouter(t, fleet)
	g1 := testGraph(t, 200, 23)
	pl1 := putGraph(t, ts.URL, "g", g1, http.StatusCreated)
	pl2 := putGraph(t, ts.URL, "g", testGraph(t, 300, 29), http.StatusCreated)
	if pl2.Epoch <= pl1.Epoch {
		t.Fatalf("epochs not monotone: %d then %d", pl1.Epoch, pl2.Epoch)
	}

	// Replay the first upload at a replica with its original epoch — the
	// shape of a delayed fan-out write arriving after the re-PUT.
	var buf bytes.Buffer
	if err := pushpull.WriteWorkload(&buf, pushpull.NewWorkload(g1)); err != nil {
		t.Fatal(err)
	}
	stale, err := http.NewRequest(http.MethodPut, pl2.Replicas[0]+"/graphs/g", &buf)
	if err != nil {
		t.Fatal(err)
	}
	stale.Header.Set(serve.EpochHeader, fmt.Sprint(pl1.Epoch))
	resp, err := http.DefaultClient.Do(stale)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("stale-epoch replay got %d, want 409", resp.StatusCode)
	}
	// The replica still serves the NEW content.
	rr, _ := postRun(t, pl2.Replicas[0], `{"graph": "g", "algorithm": "pr", "options": {"iterations": 5}}`, http.StatusOK)
	if len(rr.Ranks) != 300 {
		t.Errorf("replica serves %d ranks after fenced replay, want 300", len(rr.Ranks))
	}

	// Without an epoch header the guard does not apply: direct clients of
	// a single worker are unaffected by the cluster tier.
	var buf2 bytes.Buffer
	if err := pushpull.WriteWorkload(&buf2, pushpull.NewWorkload(g1)); err != nil {
		t.Fatal(err)
	}
	plain, err := http.NewRequest(http.MethodPut, pl2.Replicas[0]+"/graphs/g", &buf2)
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.DefaultClient.Do(plain)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Errorf("epoch-less direct PUT got %d, want 201", resp.StatusCode)
	}
}

// TestRouterDeleteFansOut: DELETE through the router removes the graph
// from every replica (direct 404s) and from the catalog (router 404s).
func TestRouterDeleteFansOut(t *testing.T) {
	fleet := newFleet(t, 3)
	ts, _ := newRouter(t, fleet)
	putGraph(t, ts.URL, "doomed", testGraph(t, 200, 23), http.StatusCreated)

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/graphs/doomed", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("DELETE got %d, want 204", resp.StatusCode)
	}
	for _, w := range fleet {
		if n := len(workerGraphs(t, w)); n != 0 {
			t.Errorf("worker %s still holds %d graphs after the fan-out delete", w.URL(), n)
		}
	}
	postRun(t, ts.URL, `{"graph": "doomed", "algorithm": "pr"}`, http.StatusNotFound)
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/graphs/doomed", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("second DELETE got %d, want 404", resp.StatusCode)
	}
}

// TestRouterRejectsOutOfRangeEdgeList: the router parses uploads with
// the library's reader, so a body whose numbers do not fit a vertex id is
// refused with 400 naming the line before any worker sees it.
func TestRouterRejectsOutOfRangeEdgeList(t *testing.T) {
	fleet := newFleet(t, 2)
	ts, _ := newRouter(t, fleet)
	for i, body := range []string{
		"# pushpull -5 0 0 0\n",
		"# pushpull 2147483648 0 0 0\n",
		"# pushpull 4294967300 1 0 0\n",
		"# pushpull 4 1 0 0\n4294967297 2\n",
	} {
		name := fmt.Sprintf("hostile%d", i)
		req, err := http.NewRequest(http.MethodPut, ts.URL+"/graphs/"+name, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%q: %v", body, err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), "line ") {
			t.Errorf("%q: status %d %s, want 400 naming the line", body, resp.StatusCode, msg)
		}
		for _, w := range fleet {
			if _, ok := w.eng.Workload(name); ok {
				t.Errorf("%q: rejected upload reached worker %s", body, w.URL())
			}
		}
	}
}

// TestRouterErrors: router-local validation — unknown graph and unknown
// algorithm 404 without touching a worker, malformed bodies 400, and a
// fleet with every worker down turns uploads into 503.
func TestRouterErrors(t *testing.T) {
	fleet := newFleet(t, 2)
	ts, rt := newRouter(t, fleet)
	putGraph(t, ts.URL, "demo", testGraph(t, 200, 23), http.StatusCreated)

	postRun(t, ts.URL, `{"graph": "nope", "algorithm": "pr"}`, http.StatusNotFound)
	postRun(t, ts.URL, `{"graph": "demo", "algorithm": "nope"}`, http.StatusNotFound)
	postRun(t, ts.URL, `{"graph": "demo", "algorithm": "dist-pr-mp"}`, http.StatusNotFound)
	postRun(t, ts.URL, `{}`, http.StatusBadRequest)
	postRun(t, ts.URL, `{"graph": "demo", "algorithm": "pr", "options": {"bogus": 1}}`, http.StatusBadRequest)

	for _, w := range fleet {
		w.kill()
	}
	rt.Health().Check(context.Background())
	putGraph(t, ts.URL, "late", testGraph(t, 200, 31), http.StatusServiceUnavailable)
}

// TestRouterConfigValidation: New rejects fleets it cannot route over.
func TestRouterConfigValidation(t *testing.T) {
	cases := []cluster.Config{
		{},
		{Workers: []string{"not-a-url"}},
		{Workers: []string{"http://a:1", "http://a:1"}},
	}
	for i, cfg := range cases {
		if _, err := cluster.New(cfg); err == nil {
			t.Errorf("case %d: New(%+v) accepted an invalid config", i, cfg)
		}
	}
}

// TestRouterStatsAggregates: the router's stats body carries its own
// counters plus each up worker's verbatim stats document.
func TestRouterStatsAggregates(t *testing.T) {
	fleet := newFleet(t, 2)
	ts, _ := newRouter(t, fleet)
	putGraph(t, ts.URL, "demo", testGraph(t, 200, 23), http.StatusCreated)
	postRun(t, ts.URL, `{"graph": "demo", "algorithm": "pr", "options": {"iterations": 3}}`, http.StatusOK)

	st := routerStats(t, ts.URL)
	if st.Routed != 1 || st.Graphs != 1 || len(st.Workers) != 2 {
		t.Fatalf("stats %+v: want routed=1, graphs=1, 2 workers", st)
	}
	for _, ws := range st.Workers {
		if !ws.Up {
			t.Errorf("worker %s reported down in a healthy fleet", ws.URL)
		}
		var es serve.EngineStats
		if err := json.Unmarshal(ws.Stats, &es); err != nil {
			t.Errorf("worker %s stats not a serve stats doc: %v", ws.URL, err)
		}
	}
}
