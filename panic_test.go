package pushpull_test

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"pushpull"
	"pushpull/internal/sched"
)

// panicAlgo panics on its first run on each handle, in a two-block
// sched.ParallelFor over the run's threads: on the calling goroutine at
// WithThreads(1), in a worker at WithThreads(2). Later runs succeed.
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

// TestEnginePanicFailsOnlyItself: a run that panics, on the caller or in
// a kernel loop's worker, fails with an error carrying the value and the
// stack, and caches nothing; the process goes on, and the identical
// request after it, on a one-slot single-flight engine, is admitted,
// leads its own flight and succeeds at once.
func TestEnginePanicFailsOnlyItself(t *testing.T) {
	registerPanicOnce.Do(func() { pushpull.MustRegister(panicAlgo{}) })
	for _, threads := range []int{1, 2} {
		eng := pushpull.NewEngine(pushpull.WithWorkers(1))
		w := pushpull.NewWorkload(undirectedGraph(t, 50, 7))
		rep, err := eng.Run(context.Background(), w, "test-panic", pushpull.WithThreads(threads))
		if rep != nil || err == nil || !strings.Contains(err.Error(), "test-panic: first run") || !strings.Contains(err.Error(), "panic_test.go") {
			t.Fatalf("t=%d: first run returned %v, %v; want the panic's value and stack", threads, rep, err)
		}
		if n := eng.Stats().CacheEntries; n != 0 {
			t.Errorf("t=%d: a panicked run left %d cache entries", threads, n)
		}
		done := make(chan error, 1)
		go func() {
			_, err := eng.Run(context.Background(), w, "test-panic", pushpull.WithThreads(threads))
			done <- err
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("t=%d: the run after the panic failed: %v", threads, err)
			}
		case <-time.After(time.Second):
			t.Fatalf("t=%d: the run after the panic is still waiting after 1s", threads)
		}
	}
}
