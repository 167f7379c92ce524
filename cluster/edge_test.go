package cluster_test

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"sync"
	"testing"

	"pushpull"
	"pushpull/cluster"
	"pushpull/serve"
)

// TestRouterAndWorkerAgree: a run or job request, or an upload, gets the
// same status from a worker holding the graph as from the router in
// front of it, whichever tier refuses it: the router settles names
// against the shared registry and its catalog, the worker everything
// else, and both read uploads by one rule at one limit. A run whose own
// timeout_ms expires answers 504 from both, and the router tries no
// other replica for it.
func TestRouterAndWorkerAgree(t *testing.T) {
	const limit = 64 << 10
	fleet := newFleet(t, 2, serve.WithMaxUpload(limit))
	ts, _ := newRouter(t, fleet, func(c *cluster.Config) { c.MaxUpload = limit })
	pl := putGraph(t, ts.URL, "demo", testGraph(t, 200, 23), http.StatusCreated)

	cases := []struct {
		path, body string
		want       int
	}{
		{"/run", `{"graph": "demo", "algorithm": "pr", "options": {"iterations": 2}}`, http.StatusOK},
		{"/run", `{"graph": "nope", "algorithm": "pr"}`, http.StatusNotFound},
		{"/run", `{"graph": "demo", "algorithm": "nope"}`, http.StatusNotFound},
		{"/run", `{"graph": "demo", "algorithm": "dist-pr-mp"}`, http.StatusNotFound},
		{"/run", `{}`, http.StatusBadRequest},
		{"/run", `{"graph":"demo","algorithm":"pr"} this is not json`, http.StatusBadRequest},
		{"/run", `{"graph": "demo", "algorithm": "pr", "options": {"bogus": 1}}`, http.StatusBadRequest},
		{"/run", `{"graph": "demo", "algorithm": "pr", "options": {"direction": "sideways"}}`, http.StatusBadRequest},
		{"/run", `{"graph": "demo", "algorithm": "sssp"}`, http.StatusBadRequest},
		{"/run", `{"graph": "demo", "algorithm": "pr", "options": {"threads": -1}}`, http.StatusBadRequest},
		{"/run", `{"graph": "demo", "algorithm": "bfs", "options": {"source": 100000}}`, http.StatusBadRequest},
		{"/jobs", `{"graph": "demo", "algorithm": "pr", "options": {"iterations": 2}}`, http.StatusAccepted},
		{"/jobs", `{"graph": "nope", "algorithm": "pr"}`, http.StatusNotFound},
		{"/jobs", `{"graph": "demo", "algorithm": "nope"}`, http.StatusNotFound},
		{"/jobs", `{"graph": "demo", "algorithm": "dist-pr-mp"}`, http.StatusNotFound},
		{"/jobs", `{}`, http.StatusBadRequest},
		{"/jobs", `{"graph":"demo","algorithm":"pr"} this is not json`, http.StatusBadRequest},
		{"/jobs", `{"graph": "demo", "algorithm": "pr", "options": {"bogus": 1}}`, http.StatusBadRequest},
		{"/jobs", `{"graph": "demo", "algorithm": "pr", "deadline_ms": -5}`, http.StatusBadRequest},
		{"/jobs", `{"graph": "demo", "algorithm": "pr", "priority": "urgent"}`, http.StatusBadRequest},
		{"/jobs", `{"graph": "demo", "algorithm": "pr", "batch": [{"graph": "demo", "algorithm": "pr"}]}`, http.StatusBadRequest},
		{"/jobs", `{"batch": [{"graph": "demo", "algorithm": "pr"}, {"graph": "nope", "algorithm": "pr"}]}`, http.StatusNotFound},
	}
	tiers := map[string]string{"worker": pl.Replicas[0], "router": ts.URL}
	for _, c := range cases {
		for tier, base := range tiers {
			if status, raw, _ := postJSON(t, base, c.path, c.body); status != c.want {
				t.Errorf("POST %s %s to the %s: %d, want %d: %s", c.path, c.body, tier, status, c.want, raw)
			}
		}
	}

	small := pushpull.NewWorkload(testGraph(t, 50, 3))
	var text, csr, big bytes.Buffer
	if err := pushpull.WriteWorkload(&text, small); err != nil {
		t.Fatal(err)
	}
	if err := pushpull.WriteWorkloadCSR(&csr, small); err != nil {
		t.Fatal(err)
	}
	large := pushpull.NewWorkload(testGraph(t, 3000, 5))
	if err := pushpull.WriteWorkload(&big, large); err != nil {
		t.Fatal(err)
	}
	if text.Len() > limit || csr.Len() > limit || big.Len() <= limit {
		t.Fatalf("bodies of %d, %d and %d bytes do not straddle the %d-byte limit", text.Len(), csr.Len(), big.Len(), limit)
	}
	var bigCSR bytes.Buffer
	if err := pushpull.WriteWorkloadCSR(&bigCSR, large); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name, contentType string
		body              []byte
		want              int
		chunked           bool
	}{
		{"text", "", text.Bytes(), http.StatusCreated, false},
		{"plain", "text/plain", text.Bytes(), http.StatusCreated, false},
		{"csr", serve.CSRContentType, csr.Bytes(), http.StatusCreated, false},
		{"json", "application/json", text.Bytes(), http.StatusUnsupportedMediaType, false},
		{"big", "", big.Bytes(), http.StatusRequestEntityTooLarge, false},
		{"huge-header", "", []byte("# pushpull 16777216 0\n"), http.StatusRequestEntityTooLarge, false},
		{"bad-line", "", []byte("# pushpull 3 1 0\n0 x\n"), http.StatusBadRequest, false},
		// Sent with no Content-Length, a CSR header past the limit is an
		// upload too large, as a text header is.
		{"chunked-csr-header", serve.CSRContentType, bigCSR.Bytes()[:24], http.StatusRequestEntityTooLarge, true},
	} {
		for tier, base := range tiers {
			var body io.Reader = bytes.NewReader(c.body)
			if c.chunked {
				body = io.MultiReader(body) // a reader of unknown length
			}
			req, err := http.NewRequest(http.MethodPut, base+"/graphs/"+c.name+"-"+tier, body)
			if err != nil {
				t.Fatal(err)
			}
			if c.contentType != "" {
				req.Header.Set("Content-Type", c.contentType)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			raw, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != c.want {
				t.Errorf("PUT %s to the %s: %d, want %d: %s", c.name, tier, resp.StatusCode, c.want, raw)
			}
		}
	}

	registerWait()
	before := routerStats(t, ts.URL)
	for tier, base := range tiers {
		body := `{"graph": "demo", "algorithm": "test-wait", "options": {"timeout_ms": 50}}`
		if status, raw, _ := postJSON(t, base, "/run", body); status != http.StatusGatewayTimeout {
			t.Errorf("POST /run %s to the %s: %d, want 504: %s", body, tier, status, raw)
		}
	}
	if after := routerStats(t, ts.URL); after.Retried != before.Retried || after.Failed != before.Failed {
		t.Errorf("a run past its own deadline moved the router's retried %d → %d, failed %d → %d",
			before.Retried, after.Retried, before.Failed, after.Failed)
	}
}

// TestRouterPassesOnUploadRefusal: an upload every replica refuses for
// its own size limit answers the replica's 413, not 502, and is not a
// failure of the fleet; a body within every limit still lands.
func TestRouterPassesOnUploadRefusal(t *testing.T) {
	const workerLimit = 16 << 10
	fleet := newFleet(t, 2, serve.WithMaxUpload(workerLimit))
	ts, _ := newRouter(t, fleet, func(c *cluster.Config) { c.MaxUpload = 1 << 20 })
	var csr bytes.Buffer
	g := testGraph(t, 1000, 5)
	if err := pushpull.WriteWorkloadCSR(&csr, pushpull.NewWorkload(g)); err != nil {
		t.Fatal(err)
	}
	if csr.Len() <= workerLimit {
		t.Fatalf("a %d-byte CSR does not pass the workers' %d-byte limit", csr.Len(), workerLimit)
	}
	before := routerStats(t, ts.URL)
	putGraph(t, ts.URL, "big", g, http.StatusRequestEntityTooLarge)
	if after := routerStats(t, ts.URL); after.Failed != before.Failed {
		t.Errorf("a refused upload moved the router's failed %d → %d", before.Failed, after.Failed)
	}
	putGraph(t, ts.URL, "small", testGraph(t, 50, 3), http.StatusCreated)
}

// waitAlgo runs until its context ends: a run that meets its deadline
// wherever it runs.
type waitAlgo struct{}

func (waitAlgo) Name() string        { return "test-wait" }
func (waitAlgo) Describe() string    { return "test-only: runs until its context ends" }
func (waitAlgo) Caps() pushpull.Caps { return pushpull.Caps{} }
func (waitAlgo) Run(ctx context.Context, _ *pushpull.Workload, _ *pushpull.Config) (*pushpull.Report, error) {
	<-ctx.Done()
	return &pushpull.Report{Stats: pushpull.RunStats{Canceled: true}}, nil
}

var waitOnce sync.Once

func registerWait() { waitOnce.Do(func() { pushpull.MustRegister(waitAlgo{}) }) }

// TestRouterForwardsBodyVerbatim: the router checks a run or job request
// but sends the worker the client's bytes, whitespace and key order as
// they arrived, not a re-encoding of what it decoded.
func TestRouterForwardsBodyVerbatim(t *testing.T) {
	fleet := newFleet(t, 2)
	ts, _ := newRouter(t, fleet)
	putGraph(t, ts.URL, "demo", testGraph(t, 200, 23), http.StatusCreated)

	var mu sync.Mutex
	got := map[string][]byte{} // worker URL + path → the body it was sent
	for _, w := range fleet {
		record := func(rw http.ResponseWriter, r *http.Request) bool {
			if r.Method == http.MethodPost {
				body, err := io.ReadAll(r.Body)
				if err != nil {
					t.Errorf("reading the forwarded body: %v", err)
				}
				r.Body = io.NopCloser(bytes.NewReader(body))
				mu.Lock()
				got[w.URL()+r.URL.Path] = body
				mu.Unlock()
			}
			return false
		}
		w.intercept.Store(&record)
	}

	for _, c := range []struct {
		path, body string
		want       int
	}{
		{"/run", "\n\t{ \"options\" :{ \"iterations\":2 , \"direction\":\"pull\" },\r\n  \"algorithm\":\"pr\",\"graph\" : \"demo\" }  \n", http.StatusOK},
		{"/jobs", `  {"batch":[ {"options":{"iterations":1},"priority":"high","algorithm":"pr","graph":"demo"} ,` +
			"\n\t{ \"algorithm\" : \"bfs\", \"graph\":\"demo\" } ]}\n", http.StatusAccepted},
	} {
		status, raw, served := postJSON(t, ts.URL, c.path, c.body)
		if status != c.want {
			t.Fatalf("POST %s via the router: %d, want %d: %s", c.path, status, c.want, raw)
		}
		mu.Lock()
		fwd, ok := got[served+c.path]
		mu.Unlock()
		if !ok {
			t.Fatalf("POST %s: worker %q saw no request", c.path, served)
		}
		if !bytes.Equal(fwd, []byte(c.body)) {
			t.Errorf("POST %s reached the worker as\n%q\nwant the client's bytes\n%q", c.path, fwd, c.body)
		}
	}
}
