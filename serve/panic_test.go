package serve_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"pushpull"
	"pushpull/internal/sched"
	"pushpull/jobs"
)

// panicAlgo panics on its first run on each handle, in a two-block
// sched.ParallelFor over the run's threads: on the calling goroutine at
// threads 1, in a worker at threads 2. Later runs succeed.
type panicAlgo struct{}

var panickedOn sync.Map // *pushpull.Workload → struct{}

func (panicAlgo) Name() string        { return "test-panic" }
func (panicAlgo) Describe() string    { return "test-only: panics on its first run on a handle" }
func (panicAlgo) Caps() pushpull.Caps { return pushpull.Caps{} }
func (panicAlgo) Run(ctx context.Context, w *pushpull.Workload, cfg *pushpull.Config) (*pushpull.Report, error) {
	_, ran := panickedOn.LoadOrStore(w, struct{}{})
	sched.ParallelFor(2, cfg.Threads, sched.Static, 1, func(_, lo, _ int) {
		if !ran && lo == 0 {
			panic("test-panic: first run")
		}
	})
	return &pushpull.Report{Result: []float64{1}, Stats: pushpull.RunStats{Iterations: 1}}, nil
}

var registerPanicOnce sync.Once

// TestServePanicFailsOnlyItself: a run that panics answers 500 and the
// identical request after it 200, within a second; as a job, the one
// that panics ends failed and the next, identical one done. Each at
// threads 1, where the run panics on its own goroutine, and 2, where a
// kernel loop's worker does.
func TestServePanicFailsOnlyItself(t *testing.T) {
	registerPanicOnce.Do(func() { pushpull.MustRegister(panicAlgo{}) })
	client := &http.Client{Timeout: time.Second}
	for _, threads := range []int{1, 2} {
		ts, _, eng := newJobServer(t)
		for _, name := range []string{"sync", "async"} {
			if err := eng.RegisterWorkload(name, pushpull.NewWorkload(smallGraph(t))); err != nil {
				t.Fatal(err)
			}
		}
		run := fmt.Sprintf(`{"graph": "sync", "algorithm": "test-panic", "options": {"threads": %d}}`, threads)
		for i, want := range []int{http.StatusInternalServerError, http.StatusOK} {
			resp, err := client.Post(ts.URL+"/run", "application/json", strings.NewReader(run))
			if err != nil {
				t.Fatalf("t=%d: POST /run %d: %v", threads, i+1, err)
			}
			resp.Body.Close()
			if resp.StatusCode != want {
				t.Errorf("t=%d: POST /run %d answered %d, want %d", threads, i+1, resp.StatusCode, want)
			}
		}
		spec := fmt.Sprintf(`{"graph": "async", "algorithm": "test-panic", "options": {"threads": %d}}`, threads)
		for i, want := range []jobs.State{jobs.StateFailed, jobs.StateDone} {
			status, raw, _ := httpJob(t, http.MethodPost, ts.URL+"/jobs", spec)
			var j jobs.Job
			if status != http.StatusAccepted || json.Unmarshal(raw, &j) != nil {
				t.Fatalf("t=%d: POST /jobs %d: %d %s", threads, i+1, status, raw)
			}
			if got := waitJobState(t, ts.URL, j.ID, want); want == jobs.StateFailed && !strings.Contains(got.Error, "test-panic: first run") {
				t.Errorf("t=%d: the failed job's error %q does not carry the panic", threads, got.Error)
			}
		}
	}
}
