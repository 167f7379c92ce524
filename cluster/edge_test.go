package cluster_test

import (
	"bytes"
	"io"
	"net/http"
	"sync"
	"testing"
)

// TestRouterAndWorkerAgree: a run or job request gets the same status
// from a worker holding the graph as from the router in front of it,
// whichever tier refuses it: the router settles names against the shared
// registry and its catalog, the worker everything else.
func TestRouterAndWorkerAgree(t *testing.T) {
	fleet := newFleet(t, 2)
	ts, _ := newRouter(t, fleet)
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
	for _, c := range cases {
		for tier, base := range map[string]string{"worker": pl.Replicas[0], "router": ts.URL} {
			if status, raw, _ := postJSON(t, base, c.path, c.body); status != c.want {
				t.Errorf("POST %s %s to the %s: %d, want %d: %s", c.path, c.body, tier, status, c.want, raw)
			}
		}
	}
}

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
