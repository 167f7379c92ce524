package serve_test

// HTTP serving-front tests over httptest: graph upload round-trips the
// workload kind, runs return the uniform report as JSON, the second
// identical request is a cache hit, and errors map onto the right
// statuses (404 unknown graph/algorithm, 400 typed precondition
// failures and bad payloads).

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pushpull"
	"pushpull/serve"
)

func newTestServer(t *testing.T) (*httptest.Server, *pushpull.Engine) {
	t.Helper()
	eng := pushpull.NewEngine()
	ts := httptest.NewServer(serve.New(eng))
	t.Cleanup(ts.Close)
	return ts, eng
}

func smallGraph(t *testing.T) *pushpull.Graph {
	t.Helper()
	g, err := pushpull.ErdosRenyi(400, 8, 17)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func uploadGraph(t *testing.T, ts *httptest.Server, name string, w *pushpull.Workload) serve.GraphInfo {
	t.Helper()
	var buf bytes.Buffer
	if err := pushpull.WriteWorkload(&buf, w); err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPut, ts.URL+"/graphs/"+name, &buf)
	if err != nil {
		t.Fatal(err)
	}
	var info serve.GraphInfo
	doJSON(t, req, http.StatusCreated, &info)
	return info
}

func postRun(t *testing.T, ts *httptest.Server, body string, wantStatus int) serve.RunResponse {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/run", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var resp serve.RunResponse
	doJSON(t, req, wantStatus, &resp)
	return resp
}

func doJSON(t *testing.T, req *http.Request, wantStatus int, into any) {
	t.Helper()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != wantStatus {
		t.Fatalf("%s %s: status %d, want %d: %s", req.Method, req.URL.Path, resp.StatusCode, wantStatus, body)
	}
	if into != nil && wantStatus < 400 {
		if err := json.Unmarshal(body, into); err != nil {
			t.Fatalf("parsing %q: %v", body, err)
		}
	}
}

// gateRuns counts real gateAlgo executions; gateAlgo dawdles ~100ms per
// run so concurrently issued identical requests must overlap it.
var gateRuns atomic.Int64

type gateAlgo struct{}

func (gateAlgo) Name() string { return "test-gate" }
func (gateAlgo) Describe() string {
	return "test-only: counts executions and dawdles to invite coalescing"
}
func (gateAlgo) Caps() pushpull.Caps { return pushpull.Caps{} }
func (gateAlgo) Run(ctx context.Context, w *pushpull.Workload, cfg *pushpull.Config) (*pushpull.Report, error) {
	gateRuns.Add(1)
	w.Stats()
	stats := pushpull.RunStats{Iterations: 1}
	select {
	case <-time.After(100 * time.Millisecond):
	case <-ctx.Done():
		stats.Canceled = true
	}
	return &pushpull.Report{Result: []float64{1}, Stats: stats}, nil
}

var registerGateOnce sync.Once

func registerGate(t *testing.T) {
	t.Helper()
	registerGateOnce.Do(func() { pushpull.MustRegister(gateAlgo{}) })
}

// TestServeRunCacheHit is the end-to-end acceptance path: upload, run,
// run again, observe the cache hit and the engine stats.
func TestServeRunCacheHit(t *testing.T) {
	ts, eng := newTestServer(t)
	g := smallGraph(t)
	info := uploadGraph(t, ts, "demo", pushpull.NewWorkload(g))
	if info.N != g.N() || info.Kind != "undirected" || info.ID == "" {
		t.Fatalf("upload response %+v does not describe the graph", info)
	}

	body := `{"graph": "demo", "algorithm": "pr", "options": {"direction": "pull", "iterations": 10}}`
	first := postRun(t, ts, body, http.StatusOK)
	if first.Stats.CacheHit {
		t.Fatal("first run served from cache")
	}
	if len(first.Ranks) != g.N() || first.Stats.Iterations != 10 || first.Stats.Direction != "pull" {
		t.Fatalf("run response malformed: %d ranks, stats %+v", len(first.Ranks), first.Stats)
	}
	if len(first.Directions) != 10 || first.Directions[0] != "pull" {
		t.Fatalf("direction trace malformed: %v", first.Directions)
	}

	second := postRun(t, ts, body, http.StatusOK)
	if !second.Stats.CacheHit {
		t.Fatal("second identical request missed the cache")
	}
	if fmt.Sprint(second.Ranks) != fmt.Sprint(first.Ranks) {
		t.Error("cached ranks differ from the original run")
	}
	if st := eng.Stats(); st.CacheHits != 1 || st.CacheMisses != 1 {
		t.Errorf("engine stats = %+v, want 1 hit / 1 miss", st)
	}

	// A different option set runs for real.
	third := postRun(t, ts,
		`{"graph": "demo", "algorithm": "pr", "options": {"direction": "push", "iterations": 10}}`,
		http.StatusOK)
	if third.Stats.CacheHit {
		t.Error("push-direction request served the pull-direction cache entry")
	}
}

// TestServeUploadDirectedWeighted: the edge-list header's kind flags
// survive the HTTP round trip into the registered workload.
func TestServeUploadDirectedWeighted(t *testing.T) {
	ts, eng := newTestServer(t)
	b := pushpull.NewBuilder(4).Directed()
	b.AddEdgeW(0, 1, 2)
	b.AddEdgeW(1, 2, 3)
	b.AddEdgeW(2, 0, 4)
	b.AddEdgeW(2, 3, 1)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	info := uploadGraph(t, ts, "dw", pushpull.Directed(g, pushpull.AsWeighted()))
	if info.Kind != "directed weighted" {
		t.Fatalf("kind %q survived upload, want \"directed weighted\"", info.Kind)
	}
	wl, ok := eng.Workload("dw")
	if !ok || !wl.IsDirected() || !wl.HasWeights() {
		t.Fatalf("registered workload lost its kind: %+v", wl)
	}

	var graphs []serve.GraphInfo
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/graphs", nil)
	doJSON(t, req, http.StatusOK, &graphs)
	if len(graphs) != 1 || graphs[0].Name != "dw" {
		t.Fatalf("GET /graphs = %+v, want the one uploaded graph", graphs)
	}
}

// TestServeAlgorithms: the registry endpoint lists every algorithm with
// caps.
func TestServeAlgorithms(t *testing.T) {
	ts, _ := newTestServer(t)
	var algos []serve.AlgorithmInfo
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/algorithms", nil)
	doJSON(t, req, http.StatusOK, &algos)
	if len(algos) != len(pushpull.Algorithms()) {
		t.Fatalf("%d algorithms served, registry has %d", len(algos), len(pushpull.Algorithms()))
	}
	for _, a := range algos {
		if a.Name == "sssp" && !strings.Contains(a.Caps, "needs-weights") {
			t.Errorf("sssp caps %q misses needs-weights", a.Caps)
		}
	}
}

// TestServeErrors: error statuses are faithful to the failure class.
func TestServeErrors(t *testing.T) {
	ts, _ := newTestServer(t)
	uploadGraph(t, ts, "demo", pushpull.NewWorkload(smallGraph(t)))

	cases := []struct {
		name   string
		body   string
		status int
	}{
		{"unknown graph", `{"graph": "nope", "algorithm": "pr"}`, http.StatusNotFound},
		{"unknown algorithm", `{"graph": "demo", "algorithm": "nope"}`, http.StatusNotFound},
		{"retired dist algorithm", `{"graph": "demo", "algorithm": "dist-pr-mp"}`, http.StatusNotFound},
		{"missing fields", `{}`, http.StatusBadRequest},
		{"unknown option field", `{"graph": "demo", "algorithm": "pr", "options": {"iterationz": 3}}`, http.StatusBadRequest},
		{"bad direction", `{"graph": "demo", "algorithm": "pr", "options": {"direction": "sideways"}}`, http.StatusBadRequest},
		{"needs weights", `{"graph": "demo", "algorithm": "sssp"}`, http.StatusBadRequest},
		{"bad option value", `{"graph": "demo", "algorithm": "pr", "options": {"threads": -1}}`, http.StatusBadRequest},
		{"bad source", `{"graph": "demo", "algorithm": "bfs", "options": {"source": 100000}}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		postRun(t, ts, tc.body, tc.status)
	}
}

// TestServeOptionRanges: a vertex id past 32 bits and a timeout_ms that
// is negative or overflows a time.Duration are the client's error — 400
// naming the field on both POST /run and POST /jobs — instead of running
// from vertex id mod 2^32, with no timeout, or timing out at once. So
// are partition_aware, out_of_core, ranks and partitions, fields the wire
// no longer carries: refused, not silently run as another configuration.
// So is more threads than the worker's GOMAXPROCS, while GOMAXPROCS itself
// runs.
func TestServeOptionRanges(t *testing.T) {
	ts, _, _ := newJobServer(t)
	for _, c := range []struct{ algorithm, options, field string }{
		{"bfs", `{"source": 4294967296}`, "source"},
		{"bfs", `{"source": 4294967299}`, "source"},
		{"bc", `{"sources": [4294967296]}`, "sources[0]"},
		{"pr", `{"timeout_ms": 9223372036855}`, "timeout_ms"},
		{"pr", `{"timeout_ms": -1}`, "timeout_ms"},
		{"pr", `{"partition_aware": true}`, "partition_aware"},
		{"pr", `{"out_of_core": true}`, "out_of_core"},
		{"pr", `{"ranks": 16}`, "ranks"},
		{"gc", `{"partitions": 4}`, "partitions"},
		{"pr", fmt.Sprintf(`{"direction": "push", "threads": %d}`, runtime.GOMAXPROCS(0)+1), "threads"},
	} {
		body := fmt.Sprintf(`{"graph": "demo", "algorithm": %q, "options": %s}`, c.algorithm, c.options)
		for _, path := range []string{"/run", "/jobs"} {
			status, raw, _ := httpJob(t, http.MethodPost, ts.URL+path, body)
			if status != http.StatusBadRequest || !strings.Contains(string(raw), c.field) {
				t.Errorf("POST %s %s: %d %s, want 400 naming %q", path, body, status, raw, c.field)
			}
		}
	}
	body := fmt.Sprintf(`{"graph": "demo", "algorithm": "pr", "options": {"direction": "push", "threads": %d}}`, runtime.GOMAXPROCS(0))
	for path, want := range map[string]int{"/run": http.StatusOK, "/jobs": http.StatusAccepted} {
		if status, raw, _ := httpJob(t, http.MethodPost, ts.URL+path, body); status != want {
			t.Errorf("POST %s %s: %d %s, want %d", path, body, status, raw, want)
		}
	}
}

// TestServeSSSPDelta: a Δ too small for the graph's distances, or a
// negative one, is the client's error — 400 naming delta — not a worker
// run out of memory, a panic, or wrong distances.
func TestServeSSSPDelta(t *testing.T) {
	ts, _ := newTestServer(t)
	g, err := pushpull.NamedWeightedGraph("rmat", 0.05, 3)
	if err != nil {
		t.Fatal(err)
	}
	uploadGraph(t, ts, "wrmat", pushpull.Weighted(g))
	for _, dir := range []string{"push", "pull", "auto"} {
		for _, delta := range []string{"1e-300", "1e-12", "1e-6", "-1"} {
			body := fmt.Sprintf(`{"graph": "wrmat", "algorithm": "sssp", "options": {"direction": %q, "delta": %s}}`, dir, delta)
			status, raw, _ := httpJob(t, http.MethodPost, ts.URL+"/run", body)
			if status != http.StatusBadRequest || !strings.Contains(string(raw), "delta") {
				t.Errorf("POST /run %s: %d %s, want 400 naming delta", body, status, raw)
			}
		}
	}
	postRun(t, ts, `{"graph": "wrmat", "algorithm": "sssp"}`, http.StatusOK)
}

// TestServeSSSPWeightDomain: an upload with a NaN weight is refused at
// PUT naming its line, and sssp on a graph with a negative weight answers
// 400 naming the arc, not a push that runs until the request's deadline
// or a pull that answers 200 with wrong distances.
func TestServeSSSPWeightDomain(t *testing.T) {
	ts, _ := newTestServer(t)
	status, raw, _ := httpJob(t, http.MethodPut, ts.URL+"/graphs/nan", "# pushpull 3 2 1 0\n0 1 NaN\n1 2 2\n")
	if status != http.StatusBadRequest || !strings.Contains(string(raw), "line 2") {
		t.Errorf("PUT with a NaN weight: %d %s, want 400 naming line 2", status, raw)
	}
	b := pushpull.NewBuilder(3)
	b.AddEdgeW(0, 1, -5)
	b.AddEdgeW(1, 2, 2)
	uploadGraph(t, ts, "neg", pushpull.Weighted(b.MustBuild()))
	for _, dir := range []string{"push", "pull", "auto"} {
		body := fmt.Sprintf(`{"graph": "neg", "algorithm": "sssp", "options": {"direction": %q, "timeout_ms": 5000}}`, dir)
		status, raw, _ := httpJob(t, http.MethodPost, ts.URL+"/run", body)
		if status != http.StatusBadRequest || !strings.Contains(string(raw), "arc (0,1)") {
			t.Errorf("POST /run %s: %d %s, want 400 naming arc (0,1)", body, status, raw)
		}
	}
}

// TestServeSSSPUnreachable: sssp distances include +Inf for unreached
// vertices, which must encode as JSON null (regression: encoding/json
// rejects non-finite floats outright, which used to truncate the
// response body after a 200).
func TestServeSSSPUnreachable(t *testing.T) {
	ts, _ := newTestServer(t)
	b := pushpull.NewBuilder(4)
	b.AddEdgeW(0, 1, 2)
	b.AddEdgeW(1, 2, 3)
	// vertex 3 is isolated: dist = +Inf
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	uploadGraph(t, ts, "tiny", pushpull.Weighted(g))
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/run",
		strings.NewReader(`{"graph": "tiny", "algorithm": "sssp", "options": {"source": 0}}`))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var parsed struct {
		Ranks []*float64 `json:"ranks"`
	}
	if err := json.Unmarshal(body, &parsed); err != nil {
		t.Fatalf("response is not valid JSON: %v\n%s", err, body)
	}
	if len(parsed.Ranks) != 4 || parsed.Ranks[3] != nil {
		t.Fatalf("ranks = %v, want 4 entries with null at the isolated vertex", parsed.Ranks)
	}
	if parsed.Ranks[2] == nil || *parsed.Ranks[2] != 5 {
		t.Errorf("dist[2] = %v, want 5", parsed.Ranks[2])
	}
}

// TestServeBFSPayload: traversal payloads are lowered to parents+levels.
func TestServeBFSPayload(t *testing.T) {
	ts, _ := newTestServer(t)
	g := smallGraph(t)
	uploadGraph(t, ts, "demo", pushpull.NewWorkload(g))
	resp := postRun(t, ts, `{"graph": "demo", "algorithm": "bfs", "options": {"source": 1}}`, http.StatusOK)
	if len(resp.Parents) != g.N() || len(resp.Levels) != g.N() {
		t.Fatalf("bfs payload: %d parents, %d levels, want %d each", len(resp.Parents), len(resp.Levels), g.N())
	}
	if resp.Levels[1] != 0 {
		t.Errorf("source level = %d, want 0", resp.Levels[1])
	}
}

// TestServeSingleFlight is the serving-layer dedup acceptance check: N
// concurrent identical POST /run requests produce exactly one underlying
// kernel execution — proven by the run counter and by the server-side
// workload's Builds() — with every follower's response flagged coalesced
// (or cache_hit, for one scheduled only after the leader finished).
func TestServeSingleFlight(t *testing.T) {
	registerGate(t)
	ts, eng := newTestServer(t)
	uploadGraph(t, ts, "demo", pushpull.NewWorkload(smallGraph(t)))

	const n = 8
	before := gateRuns.Load()
	body := `{"graph": "demo", "algorithm": "test-gate"}`
	responses := make([]serve.RunResponse, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req, err := http.NewRequest(http.MethodPost, ts.URL+"/run", strings.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			var resp serve.RunResponse
			doJSON(t, req, http.StatusOK, &resp)
			responses[i] = resp
		}(i)
	}
	wg.Wait()

	if execs := gateRuns.Load() - before; execs != 1 {
		t.Errorf("%d concurrent identical POST /run executed the kernel %d times, want exactly 1", n, execs)
	}
	wl, ok := eng.Workload("demo")
	if !ok {
		t.Fatal("uploaded workload vanished")
	}
	if b := wl.Builds(); b.Stats != 1 {
		t.Errorf("server-side Builds().Stats = %d, want 1", b.Stats)
	}
	var real, followers int
	for _, resp := range responses {
		if resp.Stats.Coalesced || resp.Stats.CacheHit {
			followers++
		} else {
			real++
		}
	}
	if real != 1 || followers != n-1 {
		t.Errorf("%d real runs and %d deduplicated followers, want 1 and %d", real, followers, n-1)
	}

	var st serve.EngineStats
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/stats", nil)
	doJSON(t, req, http.StatusOK, &st)
	if st.Coalesced == 0 {
		t.Error("GET /stats reports no coalesced requests despite the 100ms execution window")
	}
}

// TestServeDeleteGraph: DELETE /graphs/{name} removes the binding (204),
// after which runs 404; deleting again 404s too.
func TestServeDeleteGraph(t *testing.T) {
	ts, eng := newTestServer(t)
	uploadGraph(t, ts, "doomed", pushpull.NewWorkload(smallGraph(t)))
	postRun(t, ts, `{"graph": "doomed", "algorithm": "pr", "options": {"iterations": 3}}`, http.StatusOK)
	if st := eng.Stats(); st.CacheEntries != 1 {
		t.Fatalf("cache entries = %d before delete, want 1", st.CacheEntries)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/graphs/doomed", nil)
	doJSON(t, req, http.StatusNoContent, nil)
	if st := eng.Stats(); st.CacheEntries != 0 {
		t.Errorf("delete left %d cached results for the dropped graph", st.CacheEntries)
	}
	postRun(t, ts, `{"graph": "doomed", "algorithm": "pr"}`, http.StatusNotFound)
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/graphs/doomed", nil)
	doJSON(t, req, http.StatusNotFound, nil)

	var graphs []serve.GraphInfo
	req, _ = http.NewRequest(http.MethodGet, ts.URL+"/graphs", nil)
	doJSON(t, req, http.StatusOK, &graphs)
	if len(graphs) != 0 {
		t.Errorf("GET /graphs = %+v after delete, want empty", graphs)
	}
}

// TestServeRePutInvalidates is the HTTP face of the stale-result
// regression: re-uploading a name with different content drops the old
// graph's cached results and runs against the new graph for real.
func TestServeRePutInvalidates(t *testing.T) {
	ts, eng := newTestServer(t)
	small, err := pushpull.ErdosRenyi(200, 6, 23)
	if err != nil {
		t.Fatal(err)
	}
	uploadGraph(t, ts, "g", pushpull.NewWorkload(small))
	body := `{"graph": "g", "algorithm": "pr", "options": {"iterations": 5}}`
	first := postRun(t, ts, body, http.StatusOK)
	if first.Stats.CacheHit || len(first.Ranks) != small.N() {
		t.Fatalf("first run: %d ranks, stats %+v", len(first.Ranks), first.Stats)
	}

	bigger, err := pushpull.ErdosRenyi(300, 6, 29)
	if err != nil {
		t.Fatal(err)
	}
	uploadGraph(t, ts, "g", pushpull.NewWorkload(bigger))
	if st := eng.Stats(); st.CacheEntries != 0 {
		t.Errorf("re-PUT with different content left %d stale cache entries", st.CacheEntries)
	}
	second := postRun(t, ts, body, http.StatusOK)
	if second.Stats.CacheHit {
		t.Error("identical request after re-PUT served the old graph's cached result")
	}
	if len(second.Ranks) != bigger.N() {
		t.Errorf("run after re-PUT returned %d ranks, want the new graph's %d", len(second.Ranks), bigger.N())
	}
}

// TestServeStatsQueue: the stats endpoint reports the engine's one
// admission queue — its worker bound and its counters at the top level —
// with no "shards" breakdown and no "cache_expired" count.
func TestServeStatsQueue(t *testing.T) {
	eng := pushpull.NewEngine(pushpull.WithWorkers(2))
	ts := httptest.NewServer(serve.New(eng))
	t.Cleanup(ts.Close)
	uploadGraph(t, ts, "demo", pushpull.NewWorkload(smallGraph(t)))
	body := `{"graph": "demo", "algorithm": "pr", "options": {"iterations": 3}}`
	postRun(t, ts, body, http.StatusOK)
	postRun(t, ts, body, http.StatusOK) // cache hit: never admitted

	status, doc, _ := httpJob(t, http.MethodGet, ts.URL+"/stats", "")
	var raw map[string]json.RawMessage
	var st serve.EngineStats
	if status != http.StatusOK || json.Unmarshal(doc, &raw) != nil || json.Unmarshal(doc, &st) != nil {
		t.Fatalf("GET /stats: %d %s", status, doc)
	}
	for _, gone := range []string{"shards", "cache_expired"} {
		if _, ok := raw[gone]; ok {
			t.Errorf("stats still carry %q", gone)
		}
	}
	for _, key := range []string{"workers", "queued_runs", "queue_wait_ns", "waiting", "queue_eta_ms", "rejected"} {
		if _, ok := raw[key]; !ok {
			t.Errorf("stats lack %q", key)
		}
	}
	if st.Workers != 2 || st.CacheHits != 1 || st.CacheMisses != 1 {
		t.Errorf("stats = %+v, want workers 2, 1 hit / 1 miss", st)
	}
	if st.QueuedRuns != 0 || st.Waiting != 0 || st.Rejected != 0 || st.QueueETAMS != 0 {
		t.Errorf("an idle 2-worker engine reports queueing: %+v", st)
	}
}

// TestServePersistenceRestart: with a DiskStore attached, uploaded graphs
// survive a server restart — a new engine over the same directory serves
// the graph under the same name with the same content identity, and the
// post-restart cache behaves exactly as pre-restart (first run real,
// second a hit).
func TestServePersistenceRestart(t *testing.T) {
	dir := t.TempDir()
	open := func() *pushpull.Engine {
		t.Helper()
		s, err := pushpull.NewDiskStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		eng := pushpull.NewEngine()
		if err := eng.AttachStore(s); err != nil {
			t.Fatal(err)
		}
		return eng
	}

	ts1 := httptest.NewServer(serve.New(open()))
	info := uploadGraph(t, ts1, "persisted", pushpull.NewWorkload(smallGraph(t)))
	ts1.Close() // the restart

	ts2 := httptest.NewServer(serve.New(open()))
	t.Cleanup(ts2.Close)
	var graphs []serve.GraphInfo
	req, _ := http.NewRequest(http.MethodGet, ts2.URL+"/graphs", nil)
	doJSON(t, req, http.StatusOK, &graphs)
	if len(graphs) != 1 || graphs[0].Name != "persisted" || graphs[0].ID != info.ID {
		t.Fatalf("after restart GET /graphs = %+v, want %q with id %s", graphs, "persisted", info.ID)
	}
	body := `{"graph": "persisted", "algorithm": "pr", "options": {"iterations": 5}}`
	if first := postRun(t, ts2, body, http.StatusOK); first.Stats.CacheHit {
		t.Error("first post-restart run claims a cache hit on a fresh engine")
	}
	if second := postRun(t, ts2, body, http.StatusOK); !second.Stats.CacheHit {
		t.Error("second identical post-restart run missed the cache")
	}
}

// TestServeOutOfCoreUpload: a server whose store enforces a memory
// budget accepts an upload larger than the budget, reports the swapped
// block-backed binding in the PUT response, and serves runs whose
// payload matches an unbudgeted server's bit for bit.
func TestServeOutOfCoreUpload(t *testing.T) {
	store, err := pushpull.NewDiskStore(t.TempDir(), pushpull.WithBlockThreshold(1))
	if err != nil {
		t.Fatal(err)
	}
	engOOC := pushpull.NewEngine()
	if err := engOOC.AttachStore(store); err != nil {
		t.Fatal(err)
	}
	tsOOC := httptest.NewServer(serve.New(engOOC))
	t.Cleanup(tsOOC.Close)
	tsPlain, _ := newTestServer(t)

	g := smallGraph(t)
	info := uploadGraph(t, tsOOC, "demo", pushpull.NewWorkload(g))
	if !strings.Contains(info.Kind, "out-of-core") {
		t.Fatalf("PUT response kind %q does not report the out-of-core swap", info.Kind)
	}
	if info.N != g.N() || info.M != g.M() {
		t.Fatalf("PUT response shape %d/%d, want %d/%d", info.N, info.M, g.N(), g.M())
	}
	uploadGraph(t, tsPlain, "demo", pushpull.NewWorkload(g))

	body := `{"graph": "demo", "algorithm": "pr", "options": {"iterations": 10}}`
	got := postRun(t, tsOOC, body, http.StatusOK)
	want := postRun(t, tsPlain, body, http.StatusOK)
	if len(got.Ranks) != len(want.Ranks) || len(got.Ranks) == 0 {
		t.Fatalf("rank payloads: %d vs %d entries", len(got.Ranks), len(want.Ranks))
	}
	for i := range want.Ranks {
		d := got.Ranks[i] - want.Ranks[i]
		if d < -1e-9 || d > 1e-9 {
			t.Fatalf("rank %d: out-of-core %g vs in-memory %g", i, got.Ranks[i], want.Ranks[i])
		}
	}
	// Algorithms without block kernels reject the stored handle with a
	// client error, not a 500.
	resp := postRun(t, tsOOC, `{"graph": "demo", "algorithm": "tc"}`, http.StatusBadRequest)
	_ = resp
}
