package serve_test

// Admission-boundary tests for the serving front: oversized uploads are
// refused with 413 before parsing, a full admission queue sheds
// load as 429 + Retry-After instead of queueing forever, and the
// X-Cluster-Epoch guard fences stale replicated mutations.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"pushpull"
	"pushpull/serve"
)

// TestServeMaxUpload: a body over the configured cap yields 413 with a
// message naming the limit; a small graph under the default cap is fine.
func TestServeMaxUpload(t *testing.T) {
	eng := pushpull.NewEngine()
	ts := httptest.NewServer(serve.New(eng, serve.WithMaxUpload(64)))
	t.Cleanup(ts.Close)

	var buf bytes.Buffer
	if err := pushpull.WriteWorkload(&buf, pushpull.NewWorkload(smallGraph(t))); err != nil {
		t.Fatal(err)
	}
	if buf.Len() <= 64 {
		t.Fatalf("test graph serializes to %d bytes, need > 64", buf.Len())
	}
	req, err := http.NewRequest(http.MethodPut, ts.URL+"/graphs/big", &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized PUT got %d, want 413: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "64") {
		t.Errorf("413 body %q does not name the configured limit", body)
	}
	if _, ok := eng.Workload("big"); ok {
		t.Error("rejected upload still registered a workload")
	}

	// A limit the edge-list reader reaches two blocks into the body: its
	// error still surfaces from the parse as a 413.
	const limit = 5 << 19 // 2.5 MiB
	ts = httptest.NewServer(serve.New(eng, serve.WithMaxUpload(limit)))
	t.Cleanup(ts.Close)
	var long bytes.Buffer
	fmt.Fprintf(&long, "# pushpull 1000 %d 0 1\n", 400_000)
	for i := 0; i < 400_000; i++ {
		fmt.Fprintf(&long, "%d %d\n", i%1000, i*7%1000)
	}
	if long.Len() <= limit {
		t.Fatalf("multi-block body is %d bytes, need > %d", long.Len(), limit)
	}
	req, err = http.NewRequest(http.MethodPut, ts.URL+"/graphs/longer", &long)
	if err != nil {
		t.Fatal(err)
	}
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	body, _ = io.ReadAll(resp2.Body)
	if resp2.StatusCode != http.StatusRequestEntityTooLarge || !strings.Contains(string(body), fmt.Sprint(limit)) {
		t.Fatalf("PUT past a %d-byte limit got %d %s, want 413 naming the limit", limit, resp2.StatusCode, body)
	}
	if _, ok := eng.Workload("longer"); ok {
		t.Error("rejected multi-block upload still registered a workload")
	}
}

// TestServeRejectsOutOfRangeEdgeList: numbers that do not fit a vertex
// id answer 400 naming the line, where they used to panic the handler
// (the client saw EOF) or load a wrapped graph with 201.
func TestServeRejectsOutOfRangeEdgeList(t *testing.T) {
	eng := pushpull.NewEngine()
	ts := httptest.NewServer(serve.New(eng))
	t.Cleanup(ts.Close)
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
		if _, ok := eng.Workload(name); ok {
			t.Errorf("%q: rejected upload registered a workload", body)
		}
	}
}

// blockAlgo parks until the test releases it, so a worker slot can be
// held occupied deterministically.
var (
	blockStarted = make(chan struct{}, 16)
	blockRelease = make(chan struct{})
	blockOnce    sync.Once
)

type blockAlgo struct{}

func (blockAlgo) Name() string     { return "test-block" }
func (blockAlgo) Describe() string { return "test-only: parks until released" }
func (blockAlgo) Caps() pushpull.Caps {
	return pushpull.Caps{}
}
func (blockAlgo) Run(ctx context.Context, w *pushpull.Workload, cfg *pushpull.Config) (*pushpull.Report, error) {
	blockStarted <- struct{}{}
	select {
	case <-blockRelease:
	case <-ctx.Done():
	}
	return &pushpull.Report{Result: []float64{1}, Stats: pushpull.RunStats{Iterations: 1}}, nil
}

// TestServeOverload429: with one worker slot and a one-deep admission
// queue, the third concurrent run is shed as 429 + Retry-After while the
// first two complete normally once the slot frees.
func TestServeOverload429(t *testing.T) {
	blockOnce.Do(func() { pushpull.MustRegister(blockAlgo{}) })
	// Re-arm the package-level gate so -count=N reps park again (every
	// reader from a previous rep has finished by wg.Wait + ts.Close).
	blockRelease = make(chan struct{})
	for {
		select {
		case <-blockStarted:
			continue
		default:
		}
		break
	}
	eng := pushpull.NewEngine(
		pushpull.WithWorkers(1), pushpull.WithQueueLimit(1),
		pushpull.WithResultCache(0), pushpull.WithSingleFlight(false),
	)
	ts := httptest.NewServer(serve.New(eng))
	t.Cleanup(ts.Close)
	uploadGraph(t, ts, "demo", pushpull.NewWorkload(smallGraph(t)))

	post := func(iters int) *http.Response {
		body := strings.NewReader(fmt.Sprintf(
			`{"graph": "demo", "algorithm": "test-block", "options": {"iterations": %d}}`, iters))
		resp, err := http.Post(ts.URL+"/run", "application/json", body)
		if err != nil {
			t.Error(err)
			return nil
		}
		return resp
	}

	statuses := make(chan int, 2)
	var wg sync.WaitGroup
	launch := func(iters int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp := post(iters)
			if resp == nil {
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			statuses <- resp.StatusCode
		}()
	}

	launch(1)
	<-blockStarted // the leader occupies the only worker slot
	launch(2)
	deadline := time.Now().Add(5 * time.Second)
	for eng.Stats().QueuedRuns < 1 { // the second run is parked in the queue
		if time.Now().After(deadline) {
			t.Fatal("second run never reached the admission queue")
		}
		time.Sleep(time.Millisecond)
	}

	resp := post(3) // queue full: must be shed, not parked
	if resp == nil {
		t.FailNow()
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third run got %d, want 429: %s", resp.StatusCode, body)
	}
	// No queue-wait history yet: the hint is the one-second floor.
	if hint := resp.Header.Get("Retry-After"); hint != "1" {
		t.Errorf("429 Retry-After %q, want the 1-second floor", hint)
	}

	close(blockRelease)
	<-blockStarted // the queued run starts once the slot frees
	wg.Wait()
	close(statuses)
	for st := range statuses {
		if st != http.StatusOK {
			t.Errorf("a non-shed run finished with %d, want 200", st)
		}
	}
	if st := eng.Stats(); st.Rejected != 1 {
		t.Errorf("engine counted %d rejected runs, want 1", st.Rejected)
	}
}

// TestServeEpochGuard: the worker-side fence — mutations carrying an
// epoch at or below the last recorded one 409, DELETE records its epoch
// even for unbound names (a late stale PUT after a delete must not
// resurrect the graph), and epoch-less requests bypass the guard.
func TestServeEpochGuard(t *testing.T) {
	ts, eng := newTestServer(t)
	g := smallGraph(t)

	put := func(name string, epoch string) int {
		t.Helper()
		var buf bytes.Buffer
		if err := pushpull.WriteWorkload(&buf, pushpull.NewWorkload(g)); err != nil {
			t.Fatal(err)
		}
		req, err := http.NewRequest(http.MethodPut, ts.URL+"/graphs/"+name, &buf)
		if err != nil {
			t.Fatal(err)
		}
		if epoch != "" {
			req.Header.Set(serve.EpochHeader, epoch)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}

	if st := put("g", "5"); st != http.StatusCreated {
		t.Fatalf("PUT epoch 5 got %d, want 201", st)
	}
	if st := put("g", "5"); st != http.StatusConflict {
		t.Errorf("replayed PUT epoch 5 got %d, want 409", st)
	}
	if st := put("g", "4"); st != http.StatusConflict {
		t.Errorf("stale PUT epoch 4 got %d, want 409", st)
	}
	if st := put("g", "6"); st != http.StatusCreated {
		t.Errorf("newer PUT epoch 6 got %d, want 201", st)
	}
	if st := put("g", "not-a-number"); st != http.StatusBadRequest {
		t.Errorf("malformed epoch got %d, want 400", st)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/graphs/g", nil)
	req.Header.Set(serve.EpochHeader, "8")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("DELETE epoch 8 got %d, want 204", resp.StatusCode)
	}
	// The delayed stale replication write arrives after the delete: fenced.
	if st := put("g", "7"); st != http.StatusConflict {
		t.Errorf("stale PUT epoch 7 after delete-at-8 got %d, want 409", st)
	}
	if _, ok := eng.Workload("g"); ok {
		t.Error("fenced stale PUT resurrected the deleted graph")
	}
	// Direct clients without epochs are untouched by the guard.
	if st := put("g", ""); st != http.StatusCreated {
		t.Errorf("epoch-less PUT got %d, want 201", st)
	}
}
