package serve_test

// HTTP-level tests for the async job surface and the drain/Retry-After
// satellites, run under -race in CI: batch submission returns in
// milliseconds while the engine is saturated, status polls report
// truthful lifecycle transitions, Drain sheds queued work as 503 while
// in-flight runs finish, and the 429 Retry-After hint is derived from
// observed queue wait, not a constant.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"pushpull"
	"pushpull/jobs"
	"pushpull/serve"
)

// jobGateAlgo parks runs whose Iterations tag has a registered gate until
// released (context cancellation is passed through as the error, so
// draining and cancellation are observable).
var (
	jobGateMu    sync.Mutex
	jobGateCh    = map[int]chan struct{}{}
	jobGateOnce  sync.Once
	jobGateSeen  = make(chan int, 64)
	jobGateAlgoN = "test-jobgate"
)

func jobGateBlock(tag int) func() {
	ch := make(chan struct{})
	jobGateMu.Lock()
	jobGateCh[tag] = ch
	jobGateMu.Unlock()
	var once sync.Once
	return func() { once.Do(func() { close(ch) }) }
}

type jobGateAlgo struct{}

func (jobGateAlgo) Name() string        { return jobGateAlgoN }
func (jobGateAlgo) Describe() string    { return "test-only: parks gated tags until released" }
func (jobGateAlgo) Caps() pushpull.Caps { return pushpull.Caps{} }
func (jobGateAlgo) Run(ctx context.Context, w *pushpull.Workload, cfg *pushpull.Config) (*pushpull.Report, error) {
	jobGateMu.Lock()
	ch := jobGateCh[cfg.Iterations]
	jobGateMu.Unlock()
	jobGateSeen <- cfg.Iterations
	if ch != nil {
		select {
		case <-ch:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return &pushpull.Report{Result: []float64{1}, Stats: pushpull.RunStats{Iterations: 1}}, nil
}

// newJobServer builds a saturable serving stack: 1 engine worker (so the
// job manager has 1 dispatch slot), a 1-deep admission queue, caches off.
func newJobServer(t *testing.T) (*httptest.Server, *serve.Server, *pushpull.Engine) {
	t.Helper()
	jobGateOnce.Do(func() { pushpull.MustRegister(jobGateAlgo{}) })
	// Drain start-tokens leaked by a previous test's ungated tail runs: a
	// stale token would let a later <-jobGateSeen return before its gated
	// run actually holds the slot.
	for {
		select {
		case <-jobGateSeen:
			continue
		default:
		}
		break
	}
	eng := pushpull.NewEngine(
		pushpull.WithWorkers(1), pushpull.WithQueueLimit(1),
		pushpull.WithResultCache(0), pushpull.WithSingleFlight(false),
	)
	if err := eng.RegisterWorkload("demo", pushpull.NewWorkload(smallGraph(t))); err != nil {
		t.Fatal(err)
	}
	mgr, err := jobs.NewManager(eng)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mgr.Close)
	handler := serve.New(eng, serve.WithJobManager(mgr))
	ts := httptest.NewServer(handler)
	t.Cleanup(ts.Close)
	return ts, handler, eng
}

func httpJob(t *testing.T, method, url, body string) (int, []byte, http.Header) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, raw, resp.Header
}

func jobState(t *testing.T, base, id string) jobs.Job {
	t.Helper()
	status, raw, _ := httpJob(t, http.MethodGet, base+"/jobs/"+id, "")
	if status != http.StatusOK {
		t.Fatalf("GET /jobs/%s: %d: %s", id, status, raw)
	}
	var j jobs.Job
	if err := json.Unmarshal(raw, &j); err != nil {
		t.Fatal(err)
	}
	return j
}

func waitJobState(t *testing.T, base, id string, want jobs.State) jobs.Job {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		j := jobState(t, base, id)
		if j.State == want {
			return j
		}
		if j.State.Terminal() || time.Now().After(deadline) {
			t.Fatalf("job %s is %s (%s), want %s", id, j.State, j.Error, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestServeJobsBatchAndLifecycle is the tentpole's HTTP acceptance: a
// batch of 3 posted against a fully occupied engine is accepted with a
// batch ID in well under 50ms, every status poll reports a truthful
// lifecycle state, and the result endpoint goes 202 → 200 with the
// RunResponse shape the synchronous path serves.
func TestServeJobsBatchAndLifecycle(t *testing.T) {
	ts, _, _ := newJobServer(t)
	release := jobGateBlock(0)
	defer release()

	// Occupy the only dispatch slot.
	status, raw, _ := httpJob(t, http.MethodPost, ts.URL+"/jobs",
		fmt.Sprintf(`{"graph": "demo", "algorithm": %q, "options": {"iterations": 0}}`, jobGateAlgoN))
	if status != http.StatusAccepted {
		t.Fatalf("POST /jobs: %d: %s", status, raw)
	}
	var gate jobs.Job
	if err := json.Unmarshal(raw, &gate); err != nil {
		t.Fatal(err)
	}
	<-jobGateSeen
	waitJobState(t, ts.URL, gate.ID, jobs.StateRunning)

	start := time.Now()
	status, raw, _ = httpJob(t, http.MethodPost, ts.URL+"/jobs", fmt.Sprintf(`{"batch": [
		{"graph": "demo", "algorithm": %q, "options": {"iterations": 101}},
		{"graph": "demo", "algorithm": %q, "options": {"iterations": 102}, "priority": "high"},
		{"graph": "demo", "algorithm": %q, "options": {"iterations": 103}, "priority": "low"}
	]}`, jobGateAlgoN, jobGateAlgoN, jobGateAlgoN))
	elapsed := time.Since(start)
	if status != http.StatusAccepted {
		t.Fatalf("POST /jobs batch: %d: %s", status, raw)
	}
	if elapsed > 50*time.Millisecond {
		t.Errorf("batch submission took %v with a saturated engine; must return immediately (<50ms)", elapsed)
	}
	var br serve.BatchResponse
	if err := json.Unmarshal(raw, &br); err != nil {
		t.Fatal(err)
	}
	if br.BatchID == "" || len(br.Jobs) != 3 {
		t.Fatalf("batch reply %s: want a batch ID and 3 jobs", raw)
	}
	for _, j := range br.Jobs {
		if j.State != jobs.StateQueued {
			t.Errorf("freshly batched job %s reports %s, want queued", j.ID, j.State)
		}
		// Results are never ready while the slot is held: 202.
		rstatus, _, _ := httpJob(t, http.MethodGet, ts.URL+"/jobs/"+j.ID+"/result", "")
		if rstatus != http.StatusAccepted {
			t.Errorf("result of queued job %s: %d, want 202", j.ID, rstatus)
		}
	}

	// Listing by state while saturated: 1 running (the gate), 3 queued.
	status, raw, _ = httpJob(t, http.MethodGet, ts.URL+"/jobs?state=queued", "")
	if status != http.StatusOK {
		t.Fatalf("GET /jobs?state=queued: %d: %s", status, raw)
	}
	var queued []jobs.Job
	if err := json.Unmarshal(raw, &queued); err != nil {
		t.Fatal(err)
	}
	if len(queued) != 3 {
		t.Errorf("queued list has %d jobs, want 3: %s", len(queued), raw)
	}

	release()
	// High-priority batch entry dispatches before normal before low.
	order := []int{<-jobGateSeen, <-jobGateSeen, <-jobGateSeen}
	want := []int{102, 101, 103}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("dispatch order %v, want %v", order, want)
		}
	}
	for _, j := range br.Jobs {
		final := waitJobState(t, ts.URL, j.ID, jobs.StateDone)
		if final.StartedMS == 0 || final.FinishedMS == 0 || final.Stats == nil {
			t.Errorf("done job %s lacks timestamps/stats: %+v", j.ID, final)
		}
		rstatus, rraw, _ := httpJob(t, http.MethodGet, ts.URL+"/jobs/"+j.ID+"/result", "")
		if rstatus != http.StatusOK {
			t.Fatalf("result of done job %s: %d: %s", j.ID, rstatus, rraw)
		}
		var rr serve.RunResponse
		if err := json.Unmarshal(rraw, &rr); err != nil {
			t.Fatalf("done result is not a RunResponse: %v", err)
		}
		if rr.Algorithm != jobGateAlgoN || rr.Graph != "demo" {
			t.Errorf("result names (%s, %s), want (%s, demo)", rr.Algorithm, rr.Graph, jobGateAlgoN)
		}
	}

	// DELETE on a done job is a no-op cancel: 200 with the final state.
	status, raw, _ = httpJob(t, http.MethodDelete, ts.URL+"/jobs/"+br.Jobs[0].ID, "")
	if status != http.StatusOK {
		t.Errorf("DELETE done job: %d: %s", status, raw)
	}
	// Unknown job: 404 on every verb.
	for _, probe := range []struct{ method, path string }{
		{http.MethodGet, "/jobs/j-nope"},
		{http.MethodGet, "/jobs/j-nope/result"},
		{http.MethodDelete, "/jobs/j-nope"},
	} {
		if status, _, _ := httpJob(t, probe.method, ts.URL+probe.path, ""); status != http.StatusNotFound {
			t.Errorf("%s %s: %d, want 404", probe.method, probe.path, status)
		}
	}
}

// TestServeJobsValidation: submission errors carry the synchronous
// path's statuses — 404 for unknown names, 400 for malformed specs —
// and a deadline-expired job's result poll is a 504.
func TestServeJobsValidation(t *testing.T) {
	ts, _, _ := newJobServer(t)
	cases := []struct {
		body string
		want int
	}{
		{`{"graph": "nope", "algorithm": "pr"}`, http.StatusNotFound},
		{`{"graph": "demo", "algorithm": "nope"}`, http.StatusNotFound},
		{`{}`, http.StatusBadRequest},
		{`{"graph": "demo", "algorithm": "pr", "options": {"bogus": 1}}`, http.StatusBadRequest},
		{`{"graph": "demo", "algorithm": "pr", "deadline_ms": -5}`, http.StatusBadRequest},
		{`{"graph": "demo", "algorithm": "pr", "priority": "urgent"}`, http.StatusBadRequest},
		{`{"graph": "demo", "algorithm": "pr", "batch": [{"graph": "demo", "algorithm": "pr"}]}`, http.StatusBadRequest},
		{`{"batch": [{"graph": "demo", "algorithm": "pr"}, {"graph": "nope", "algorithm": "pr"}]}`, http.StatusNotFound},
	}
	for _, c := range cases {
		status, raw, _ := httpJob(t, http.MethodPost, ts.URL+"/jobs", c.body)
		if status != c.want {
			t.Errorf("POST /jobs %s: %d, want %d: %s", c.body, status, c.want, raw)
		}
	}

	// A job that expires while the slot is busy: 504 on the result poll.
	release := jobGateBlock(0)
	defer release()
	status, raw, _ := httpJob(t, http.MethodPost, ts.URL+"/jobs",
		fmt.Sprintf(`{"graph": "demo", "algorithm": %q, "options": {"iterations": 0}}`, jobGateAlgoN))
	if status != http.StatusAccepted {
		t.Fatalf("gate submission: %d: %s", status, raw)
	}
	var gate jobs.Job
	if err := json.Unmarshal(raw, &gate); err != nil {
		t.Fatal(err)
	}
	<-jobGateSeen
	status, raw, _ = httpJob(t, http.MethodPost, ts.URL+"/jobs",
		`{"graph": "demo", "algorithm": "pr", "deadline_ms": 40}`)
	if status != http.StatusAccepted {
		t.Fatalf("deadline submission: %d: %s", status, raw)
	}
	var doomed jobs.Job
	if err := json.Unmarshal(raw, &doomed); err != nil {
		t.Fatal(err)
	}
	waitJobState(t, ts.URL, doomed.ID, jobs.StateFailed)
	rstatus, rraw, _ := httpJob(t, http.MethodGet, ts.URL+"/jobs/"+doomed.ID+"/result", "")
	if rstatus != http.StatusGatewayTimeout {
		t.Errorf("result of deadline-expired job: %d, want 504: %s", rstatus, rraw)
	}
}

// TestServeDrain is the graceful-shutdown regression: with a run
// holding the engine's only slot and another parked in the admission
// queue, Drain fails the queued one with 503 immediately while the
// in-flight run finishes normally.
func TestServeDrain(t *testing.T) {
	ts, handler, eng := newJobServer(t)
	release := jobGateBlock(0)
	defer release()

	type result struct {
		status int
		body   string
	}
	results := make(chan result, 2)
	post := func(tag int) {
		body := fmt.Sprintf(`{"graph": "demo", "algorithm": %q, "options": {"iterations": %d}}`, jobGateAlgoN, tag)
		resp, err := http.Post(ts.URL+"/run", "application/json", strings.NewReader(body))
		if err != nil {
			t.Error(err)
			results <- result{0, err.Error()}
			return
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		results <- result{resp.StatusCode, string(raw)}
	}

	go post(0)
	<-jobGateSeen // the in-flight run occupies the only worker slot
	go post(1)
	deadline := time.Now().Add(5 * time.Second)
	for eng.Stats().Waiting < 1 { // the second run is parked in the queue
		if time.Now().After(deadline) {
			t.Fatal("second run never reached the admission queue")
		}
		time.Sleep(time.Millisecond)
	}

	handler.Drain()
	shed := <-results // the queued run fails fast, without the slot freeing
	if shed.status != http.StatusServiceUnavailable {
		t.Fatalf("queued run under drain: %d, want 503: %s", shed.status, shed.body)
	}
	if !strings.Contains(shed.body, "draining") {
		t.Errorf("503 body %q does not say the server is draining", shed.body)
	}

	release()
	inflight := <-results
	if inflight.status != http.StatusOK {
		t.Fatalf("in-flight run under drain: %d, want 200: %s", inflight.status, inflight.body)
	}

	// New queued work after drain is also refused.
	resp, err := http.Post(ts.URL+"/run", "application/json",
		strings.NewReader(fmt.Sprintf(`{"graph": "demo", "algorithm": %q, "options": {"iterations": 2}}`, jobGateAlgoN)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	// The slot is free now, so this admission takes the fast path and
	// runs; only QUEUED work is shed. Both outcomes are legitimate here —
	// assert only that the server still answers.
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("post-drain run: %d, want 200 (fast path) or 503 (queued)", resp.StatusCode)
	}
}

// TestServeRetryAfterHonesty: the 429 Retry-After hint reflects
// observed queue waits — once the engine has real queue-wait history
// and a waiter, GET /stats exposes a nonzero queue_eta_ms and the 429
// hint is a whole-second ceiling of it (floored at one second).
func TestServeRetryAfterHonesty(t *testing.T) {
	ts, _, eng := newJobServer(t)

	// Round 1: build queue-wait history — one run holds the slot while a
	// second waits ~80ms in the admission queue, then both finish.
	r1 := jobGateBlock(11)
	defer r1() // release is once-guarded; the mid-test call stays the real one
	done := make(chan struct{}, 2)
	post := func(tag int) {
		body := fmt.Sprintf(`{"graph": "demo", "algorithm": %q, "options": {"iterations": %d}}`, jobGateAlgoN, tag)
		resp, err := http.Post(ts.URL+"/run", "application/json", strings.NewReader(body))
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		done <- struct{}{}
	}
	go post(11)
	<-jobGateSeen
	go post(12)
	deadline := time.Now().Add(5 * time.Second)
	for eng.Stats().Waiting < 1 {
		if time.Now().After(deadline) {
			t.Fatal("second run never queued")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(80 * time.Millisecond) // accrue observable queue wait
	r1()
	<-jobGateSeen
	<-done
	<-done

	// Round 2: saturate again and read the telemetry.
	r2 := jobGateBlock(21)
	defer r2()
	go post(21)
	<-jobGateSeen
	go post(22)
	deadline = time.Now().Add(5 * time.Second)
	for eng.Stats().Waiting < 1 {
		if time.Now().After(deadline) {
			t.Fatal("queue never refilled")
		}
		time.Sleep(time.Millisecond)
	}

	status, raw, _ := httpJob(t, http.MethodGet, ts.URL+"/stats", "")
	if status != http.StatusOK {
		t.Fatalf("GET /stats: %d: %s", status, raw)
	}
	var es serve.EngineStats
	if err := json.Unmarshal(raw, &es); err != nil {
		t.Fatal(err)
	}
	if es.Waiting != 1 {
		t.Errorf("stats waiting = %d, want 1", es.Waiting)
	}
	if es.QueueETAMS <= 0 {
		t.Errorf("queue_eta_ms = %d with a waiter and %v mean queue wait; the ETA must be observed, not zero",
			es.QueueETAMS, raw)
	}
	if es.Jobs == nil {
		t.Error("stats carry no jobs census despite a wired manager")
	}

	// The queue (depth 1) is full: the next run is shed with a hint at
	// least the one-second floor and consistent with the observed ETA.
	resp, err := http.Post(ts.URL+"/run", "application/json",
		strings.NewReader(fmt.Sprintf(`{"graph": "demo", "algorithm": %q, "options": {"iterations": 23}}`, jobGateAlgoN)))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third run: %d, want 429: %s", resp.StatusCode, raw)
	}
	hint := resp.Header.Get("Retry-After")
	secs, err := strconv.Atoi(hint)
	if err != nil || secs < 1 {
		t.Fatalf("Retry-After %q: want a whole-second integer >= 1", hint)
	}
	if secs > 61 {
		t.Errorf("Retry-After %d blows past the 1-minute ETA cap", secs)
	}
	r2()
	<-jobGateSeen
	<-done
	<-done
}
