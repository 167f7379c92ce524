package jobs_test

// Scheduler-contract tests for the job manager, run under -race in CI:
// strict priority order through the engine's one worker slot, against
// synchronous runs too, deadline expiry that never consumes a slot,
// cancellation of queued and running jobs, and the restart contract of
// the DiskJobStore (queued jobs re-queue, running jobs come back
// interrupted).

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pushpull"
	"pushpull/api"
	"pushpull/internal/edge"
	"pushpull/jobs"
)

// traceAlgo is the test instrument: every run records its tag (the
// Iterations option) in dispatch order, and tags registered with
// traceBlock park until released (or their context ends, returned as
// the context's error so cancellation is observable). tracePeak is the
// most runs ever inside it at once.
var (
	traceMu    sync.Mutex
	traceOrder []int
	traceGates = map[int]chan struct{}{}
	traceOnce  sync.Once

	traceActive, tracePeak atomic.Int64
)

func traceReset() {
	traceMu.Lock()
	defer traceMu.Unlock()
	traceOrder = nil
	traceGates = map[int]chan struct{}{}
	tracePeak.Store(0)
}

// traceBlock makes runs tagged tag park until the returned release func
// is called.
func traceBlock(tag int) func() {
	ch := make(chan struct{})
	traceMu.Lock()
	traceGates[tag] = ch
	traceMu.Unlock()
	var once sync.Once
	return func() { once.Do(func() { close(ch) }) }
}

func traceSeen() []int {
	traceMu.Lock()
	defer traceMu.Unlock()
	return append([]int(nil), traceOrder...)
}

type traceAlgo struct{}

func (traceAlgo) Name() string        { return "test-trace" }
func (traceAlgo) Describe() string    { return "test-only: records dispatch order, parks gated tags" }
func (traceAlgo) Caps() pushpull.Caps { return pushpull.Caps{} }
func (traceAlgo) Run(ctx context.Context, w *pushpull.Workload, cfg *pushpull.Config) (*pushpull.Report, error) {
	active := traceActive.Add(1)
	defer traceActive.Add(-1)
	for peak := tracePeak.Load(); active > peak; peak = tracePeak.Load() {
		if tracePeak.CompareAndSwap(peak, active) {
			break
		}
	}
	traceMu.Lock()
	traceOrder = append(traceOrder, cfg.Iterations)
	gate := traceGates[cfg.Iterations]
	traceMu.Unlock()
	if gate != nil {
		select {
		case <-gate:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return &pushpull.Report{Result: []float64{1}, Stats: pushpull.RunStats{Iterations: 1}}, nil
}

// newJobEngine builds a 1-worker engine (caches off, so every job is a
// real run) with one registered graph "g", then applies opts. A manager's
// jobs over it run through that one slot.
func newJobEngine(t *testing.T, opts ...pushpull.EngineOption) *pushpull.Engine {
	t.Helper()
	traceOnce.Do(func() { pushpull.MustRegister(traceAlgo{}) })
	eng := pushpull.NewEngine(append([]pushpull.EngineOption{
		pushpull.WithWorkers(1),
		pushpull.WithResultCache(0), pushpull.WithSingleFlight(false),
	}, opts...)...)
	g, err := pushpull.ErdosRenyi(64, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.RegisterWorkload("g", pushpull.NewWorkload(g)); err != nil {
		t.Fatal(err)
	}
	return eng
}

func traceSpec(tag int, prio jobs.Priority) jobs.Spec {
	return jobs.Spec{
		Graph: "g", Algorithm: "test-trace",
		Options:  api.RunOptions{Iterations: tag},
		Priority: prio,
	}
}

func waitState(t *testing.T, m *jobs.Manager, id string, want jobs.State) *jobs.Job {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		j, err := m.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if j.State == want {
			return j
		}
		if j.State.Terminal() || time.Now().After(deadline) {
			t.Fatalf("job %s is %s (%s), want %s", id, j.State, j.Error, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestManagerPriorityOrder: with one worker slot, a mix of priorities
// submitted while the slot is occupied dispatches in strict order —
// high first, deadline-bearing before deadline-free within a priority,
// FIFO within that — regardless of submission order.
func TestManagerPriorityOrder(t *testing.T) {
	traceReset()
	m, err := jobs.NewManager(newJobEngine(t))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	release := traceBlock(0)
	defer release()
	gate, err := m.Submit(traceSpec(0, jobs.Normal))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, gate.ID, jobs.StateRunning)

	// Submitted deliberately out of dispatch order while the slot is held.
	specs := []jobs.Spec{
		traceSpec(11, jobs.Low),
		traceSpec(21, jobs.Normal),
		traceSpec(31, jobs.High),
		traceSpec(12, jobs.Low),
		traceSpec(22, jobs.Normal),
		traceSpec(32, jobs.High),
	}
	// A deadline-bearing normal job sorts ahead of deadline-free normals
	// even though it was submitted last (deadline far enough to not
	// expire).
	withDeadline := traceSpec(23, jobs.Normal)
	withDeadline.DeadlineMS = 60_000
	specs = append(specs, withDeadline)

	var ids []string
	for _, s := range specs {
		j, err := m.Submit(s)
		if err != nil {
			t.Fatal(err)
		}
		if j.State != jobs.StateQueued {
			t.Fatalf("submitted job state %s, want queued", j.State)
		}
		ids = append(ids, j.ID)
	}
	if st := m.Stats(); st.Queued != len(specs) || st.Running != 1 {
		t.Fatalf("stats %+v, want %d queued and 1 running", st, len(specs))
	}

	release()
	for _, id := range ids {
		j, err := m.Wait(context.Background(), id, time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if j.State != jobs.StateDone {
			t.Fatalf("job %s ended %s (%s), want done", id, j.State, j.Error)
		}
		if res, err := m.Result(id); err != nil || len(res) == 0 || j.Stats == nil {
			t.Errorf("done job %s has no result/stats (Result: %v)", id, err)
		}
	}

	want := []int{0, 31, 32, 23, 21, 22, 11, 12}
	got := traceSeen()
	if len(got) != len(want) {
		t.Fatalf("dispatch order %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dispatch order %v, want %v", got, want)
		}
	}
}

// TestManagerDispatchFollowsWorkers: jobs hold the engine's worker slots
// like any run. Over WithWorkers(3) at most 3 jobs are ever in the engine
// at once, and the rest read queued while they wait in the engine's queue
// (EngineStats.Waiting); an unbounded engine (WithWorkers(0)) admits every
// job at once.
func TestManagerDispatchFollowsWorkers(t *testing.T) {
	const jobCount = 5
	for _, c := range []struct{ workers, slots int }{{3, 3}, {0, jobCount}} {
		traceReset()
		eng := newJobEngine(t, pushpull.WithWorkers(c.workers))
		m, err := jobs.NewManager(eng)
		if err != nil {
			t.Fatal(err)
		}
		var releases []func()
		var ids []string
		for tag := 1; tag <= jobCount; tag++ {
			releases = append(releases, traceBlock(tag))
			j, err := m.Submit(traceSpec(tag, jobs.Normal))
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, j.ID)
		}
		deadline := time.Now().Add(10 * time.Second)
		for len(traceSeen()) < c.slots {
			if time.Now().After(deadline) {
				t.Fatalf("workers=%d: %d jobs reached the engine, want %d", c.workers, len(traceSeen()), c.slots)
			}
			time.Sleep(time.Millisecond)
		}
		time.Sleep(20 * time.Millisecond) // room for an excess admission to show
		if st := m.Stats(); st.Running != c.slots || st.Queued != jobCount-c.slots {
			t.Errorf("workers=%d: %d running / %d queued, want %d / %d", c.workers, st.Running, st.Queued, c.slots, jobCount-c.slots)
		}
		if w := eng.Stats().Waiting; w != int64(jobCount-c.slots) {
			t.Errorf("workers=%d: %d jobs wait in the engine's queue, want %d", c.workers, w, jobCount-c.slots)
		}
		for _, release := range releases {
			release()
		}
		for _, id := range ids {
			if j, err := m.Wait(context.Background(), id, time.Millisecond); err != nil || j.State != jobs.StateDone {
				t.Fatalf("workers=%d: job %s ended %v (%v), want done", c.workers, id, j.State, err)
			}
		}
		if peak := tracePeak.Load(); peak != int64(c.slots) {
			t.Errorf("workers=%d: %d jobs in the engine at once, want at most and at some point %d", c.workers, peak, c.slots)
		}
		m.Close()
	}
}

// TestManagerPriorityAgainstSyncRuns: jobs and synchronous runs wait in
// one queue. With the only slot held by a synchronous run and three more
// queued, a high-priority job is admitted ahead of the queued runs, and
// reads queued, not running, until then; a low-priority job is admitted
// after them; the synchronous runs keep their arrival order.
func TestManagerPriorityAgainstSyncRuns(t *testing.T) {
	traceReset()
	eng := newJobEngine(t)
	m, err := jobs.NewManager(eng)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	var wg sync.WaitGroup
	defer wg.Wait()
	release := traceBlock(0)
	defer release()

	run := func(tag int) {
		defer wg.Done()
		if _, err := edge.Run(context.Background(), eng, "g", "test-trace", &api.RunOptions{Iterations: tag}); err != nil {
			t.Error(err)
		}
	}
	// waiting waits until n runs wait in the engine's queue.
	waiting := func(n int64) {
		deadline := time.Now().Add(10 * time.Second)
		for eng.Stats().Waiting < n {
			if time.Now().After(deadline) {
				t.Fatalf("%d runs wait in the engine's queue, want %d", eng.Stats().Waiting, n)
			}
			time.Sleep(time.Millisecond)
		}
	}
	wg.Add(4)
	go run(0)
	for len(traceSeen()) == 0 {
		time.Sleep(time.Millisecond)
	}
	for tag := 1; tag <= 3; tag++ {
		go run(tag)
		waiting(int64(tag))
	}

	high, err := m.Submit(traceSpec(99, jobs.High))
	if err != nil {
		t.Fatal(err)
	}
	low, err := m.Submit(traceSpec(98, jobs.Low))
	if err != nil {
		t.Fatal(err)
	}
	waiting(4)
	time.Sleep(20 * time.Millisecond) // room for an early grant to show
	for _, id := range []string{high.ID, low.ID} {
		if j, err := m.Get(id); err != nil || j.State != jobs.StateQueued {
			t.Errorf("job %s while the slot is held: %+v, %v; want queued", id, j, err)
		}
	}

	release()
	for _, id := range []string{high.ID, low.ID} {
		if j, err := m.Wait(context.Background(), id, time.Millisecond); err != nil || j.State != jobs.StateDone {
			t.Fatalf("job %s ended %+v, %v; want done", id, j, err)
		}
	}
	wg.Wait()
	want := []int{0, 99, 1, 2, 3, 98}
	if got := traceSeen(); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("admission order %v, want %v", got, want)
	}
}

// TestManagerDeadlineExpiry: a queued job whose deadline passes while
// every worker slot is busy fails promptly with ErrDeadlineExceeded —
// StartedMS stays zero (it never consumed a slot) and the algorithm
// never observes it.
func TestManagerDeadlineExpiry(t *testing.T) {
	traceReset()
	m, err := jobs.NewManager(newJobEngine(t))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	release := traceBlock(0)
	defer release()
	gate, err := m.Submit(traceSpec(0, jobs.Normal))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, gate.ID, jobs.StateRunning)

	doomed := traceSpec(99, jobs.High)
	doomed.DeadlineMS = 50
	j, err := m.Submit(doomed)
	if err != nil {
		t.Fatal(err)
	}
	if j.DeadlineUnixMS == 0 {
		t.Fatal("submitted job carries no absolute deadline")
	}

	// The slot is still held: expiry must come from the job context's
	// deadline in the engine's queue, not from a grant that cannot happen.
	final, err := m.Wait(context.Background(), j.ID, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != jobs.StateFailed || final.Error != jobs.ErrDeadlineExceeded.Error() {
		t.Fatalf("expired job: state %s error %q, want failed/%q",
			final.State, final.Error, jobs.ErrDeadlineExceeded.Error())
	}
	if final.StartedMS != 0 {
		t.Errorf("expired job has StartedMS %d; it must never start", final.StartedMS)
	}
	if _, err := m.Result(j.ID); !errors.Is(err, jobs.ErrDeadlineExceeded) {
		t.Errorf("Result(expired) = %v, want ErrDeadlineExceeded", err)
	}

	release()
	for _, tag := range traceSeen() {
		if tag == 99 {
			t.Fatal("deadline-expired job was dispatched to the engine")
		}
	}
}

// holdSlot fills a one-slot manager's slot with a job parked until the
// returned release is called.
func holdSlot(t *testing.T, m *jobs.Manager) (release func()) {
	t.Helper()
	release = traceBlock(0)
	gate, err := m.Submit(traceSpec(0, jobs.Normal))
	if err != nil {
		release()
		t.Fatal(err)
	}
	waitState(t, m, gate.ID, jobs.StateRunning)
	return release
}

// submitWithDeadline submits a traced job carrying a deadline.
func submitWithDeadline(t *testing.T, m *jobs.Manager, tag int, deadline time.Duration) *jobs.Job {
	t.Helper()
	spec := traceSpec(tag, jobs.Normal)
	spec.DeadlineMS = deadline.Milliseconds()
	j, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

// TestManagerDeadlineNearAfterFar: each job's deadline is its own
// context's, whatever order the deadlines arrive in. With the
// slot busy, a job due in a minute submitted before one due in 50 ms
// does not delay the near one's failure, and stays queued itself.
func TestManagerDeadlineNearAfterFar(t *testing.T) {
	traceReset()
	m, err := jobs.NewManager(newJobEngine(t))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	release := holdSlot(t, m)
	defer release()

	far := submitWithDeadline(t, m, 98, time.Minute)
	near := submitWithDeadline(t, m, 99, 50*time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	final, err := m.Wait(ctx, near.ID, time.Millisecond)
	if err != nil {
		t.Fatalf("near-deadline job 5 s after its 50 ms deadline: %v (snapshot %+v)", err, final)
	}
	if final.State != jobs.StateFailed || final.Error != jobs.ErrDeadlineExceeded.Error() {
		t.Fatalf("near-deadline job: state %s error %q, want failed/%q",
			final.State, final.Error, jobs.ErrDeadlineExceeded.Error())
	}
	if j, err := m.Get(far.ID); err != nil || j.State != jobs.StateQueued {
		t.Fatalf("far-deadline job after the near one failed: %+v, %v; want queued", j, err)
	}
}

// TestRetentionTTLWhileDeadlineArmed: with the slot busy and a job due
// in a minute queued, a job that finishes (canceled while queued) is
// still collected when its retention TTL is up, and the deadline job
// stays queued.
func TestRetentionTTLWhileDeadlineArmed(t *testing.T) {
	traceReset()
	m, err := jobs.NewManager(newJobEngine(t), jobs.WithRetention(100, 40*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	release := holdSlot(t, m)
	defer release()

	far := submitWithDeadline(t, m, 98, time.Minute)
	doomed, err := m.Submit(traceSpec(97, jobs.Normal))
	if err != nil {
		t.Fatal(err)
	}
	if j, err := m.Cancel(doomed.ID); err != nil || j.State != jobs.StateCanceled {
		t.Fatalf("cancel queued: %+v, %v; want canceled", j, err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, err := m.Get(doomed.ID)
		if errors.Is(err, jobs.ErrNotFound) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("canceled job still retained 5 s past its 40 ms TTL (Get: %v, stats %+v)", err, m.Stats())
		}
		time.Sleep(2 * time.Millisecond)
	}
	if st := m.Stats(); st.Evicted != 1 || st.Retained != 0 {
		t.Errorf("stats %+v, want 1 evicted and none retained", st)
	}
	if j, err := m.Get(far.ID); err != nil || j.State != jobs.StateQueued {
		t.Fatalf("far-deadline job after the collection: %+v, %v; want queued", j, err)
	}
}

// TestManagerTimeoutBoundsRunOnly: timeout_ms bounds a job's run from its
// grant, not its wait in the queue: a job whose timeout is shorter than
// its wait behind a held slot still runs to done, and one whose run
// outlasts its timeout fails once it holds a slot.
func TestManagerTimeoutBoundsRunOnly(t *testing.T) {
	traceReset()
	m, err := jobs.NewManager(newJobEngine(t))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	release := holdSlot(t, m)
	defer release()

	spec := traceSpec(5, jobs.Normal)
	spec.Options.TimeoutMS = 20
	waited, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond) // five timeouts of queue wait
	release()
	if j, err := m.Wait(context.Background(), waited.ID, time.Millisecond); err != nil || j.State != jobs.StateDone {
		t.Fatalf("job that queued past its timeout ended %+v, %v; want done", j, err)
	}

	defer traceBlock(6)()
	spec = traceSpec(6, jobs.Normal)
	spec.Options.TimeoutMS = 20
	slow, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	j, err := m.Wait(context.Background(), slow.ID, time.Millisecond)
	if err != nil || j.State != jobs.StateFailed || j.StartedMS == 0 || !strings.Contains(j.Error, "deadline") {
		t.Fatalf("job whose run outlasts its timeout ended %+v, %v; want failed past its deadline after starting", j, err)
	}
}

// TestManagerGraphChangedWhileQueued: a job resolves its graph when its
// slot is granted, not at submission: dropped while the job queued, the
// graph is unknown to it; replaced, the job runs on the new content.
func TestManagerGraphChangedWhileQueued(t *testing.T) {
	traceReset()
	eng := newJobEngine(t)
	m, err := jobs.NewManager(eng)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	graph := func(n int) *pushpull.Workload {
		g, err := pushpull.ErdosRenyi(n, 4, 7)
		if err != nil {
			t.Fatal(err)
		}
		return pushpull.NewWorkload(g)
	}
	for _, name := range []string{"dropped", "replaced"} {
		if err := eng.RegisterWorkload(name, graph(40)); err != nil {
			t.Fatal(err)
		}
	}
	release := holdSlot(t, m)
	defer release()
	ids := map[string]string{}
	for _, name := range []string{"dropped", "replaced"} {
		j, err := m.Submit(jobs.Spec{Graph: name, Algorithm: "pr",
			Options: api.RunOptions{Direction: "pull", Threads: 1, Iterations: 2}})
		if err != nil {
			t.Fatal(err)
		}
		ids[name] = j.ID
	}
	if ok, err := eng.DropWorkload("dropped"); !ok || err != nil {
		t.Fatalf("DropWorkload: %v, %v", ok, err)
	}
	if err := eng.RegisterWorkload("replaced", graph(50)); err != nil {
		t.Fatal(err)
	}
	release()

	j, err := m.Wait(context.Background(), ids["dropped"], time.Millisecond)
	if err != nil || j.State != jobs.StateFailed || !strings.Contains(j.Error, "unknown graph") {
		t.Errorf("job on a graph dropped while it queued ended %+v, %v; want failed on an unknown graph", j, err)
	}
	if j, err = m.Wait(context.Background(), ids["replaced"], time.Millisecond); err != nil || j.State != jobs.StateDone {
		t.Fatalf("job on a graph replaced while it queued ended %+v, %v; want done", j, err)
	}
	raw, err := m.Result(j.ID)
	if err != nil {
		t.Fatal(err)
	}
	var resp api.RunResponse
	if err := json.Unmarshal(raw, &resp); err != nil || len(resp.Ranks) != 50 {
		t.Errorf("result over %d vertices (%v), want the replacement's 50", len(resp.Ranks), err)
	}
}

// TestManagerCancel: canceling a queued job finishes it immediately and
// it never runs; canceling a running job cancels its context and the
// job lands canceled, not done.
func TestManagerCancel(t *testing.T) {
	traceReset()
	m, err := jobs.NewManager(newJobEngine(t))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	release := traceBlock(0)
	defer release()
	running, err := m.Submit(traceSpec(0, jobs.Normal))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, running.ID, jobs.StateRunning)
	queued, err := m.Submit(traceSpec(7, jobs.Normal))
	if err != nil {
		t.Fatal(err)
	}

	if j, err := m.Cancel(queued.ID); err != nil || j.State != jobs.StateCanceled {
		t.Fatalf("cancel queued: %+v, %v; want canceled", j, err)
	}
	if j, err := m.Cancel(running.ID); err != nil || j.State != jobs.StateRunning {
		t.Fatalf("cancel running returned %+v, %v; cancellation lands when the run returns", j, err)
	}
	final, err := m.Wait(context.Background(), running.ID, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != jobs.StateCanceled {
		t.Fatalf("canceled running job ended %s (%s), want canceled", final.State, final.Error)
	}
	if _, err := m.Result(queued.ID); err == nil || errors.Is(err, jobs.ErrNotDone) {
		t.Errorf("Result(canceled) = %v, want a terminal non-done error", err)
	}
	for _, tag := range traceSeen() {
		if tag == 7 {
			t.Fatal("a job canceled while queued was dispatched anyway")
		}
	}
}

// TestManagerRestartRecovery: a DiskJobStore-backed manager that dies
// mid-queue hands its successor the truth — the job that was running
// comes back interrupted, still-queued jobs re-queue and run to done.
func TestManagerRestartRecovery(t *testing.T) {
	traceReset()
	dir := t.TempDir()
	store, err := jobs.NewDiskJobStore(dir)
	if err != nil {
		t.Fatal(err)
	}

	m1, err := jobs.NewManager(newJobEngine(t), jobs.WithStore(store))
	if err != nil {
		t.Fatal(err)
	}
	release := traceBlock(0)
	defer release() // lets m1's parked execute goroutine exit at test end
	running, err := m1.Submit(traceSpec(0, jobs.Normal))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m1, running.ID, jobs.StateRunning)
	var queuedIDs []string
	for _, tag := range []int{41, 42} {
		j, err := m1.Submit(traceSpec(tag, jobs.Normal))
		if err != nil {
			t.Fatal(err)
		}
		queuedIDs = append(queuedIDs, j.ID)
	}
	// Simulated kill: refuse every later grant and fence the store without
	// releasing the running job. The store still says "running" —
	// exactly what a kill -9 leaves.
	m1.Close()

	m2, err := jobs.NewManager(newJobEngine(t), jobs.WithStore(store))
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	j, err := m2.Get(running.ID)
	if err != nil {
		t.Fatal(err)
	}
	if j.State != jobs.StateInterrupted || j.Error == "" {
		t.Fatalf("recovered mid-run job: %s (%q), want interrupted with a message", j.State, j.Error)
	}
	for _, id := range queuedIDs {
		final, err := m2.Wait(context.Background(), id, time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if final.State != jobs.StateDone {
			t.Fatalf("recovered job %s ended %s (%s), want done", id, final.State, final.Error)
		}
	}
}

// TestManagerBatch: a batch shares one batch ID, lists together, and
// one bad entry rejects the whole batch with nothing enqueued.
func TestManagerBatch(t *testing.T) {
	traceReset()
	m, err := jobs.NewManager(newJobEngine(t))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	batchID, submitted, err := m.SubmitFrom("", true,
		traceSpec(1, jobs.Normal), traceSpec(2, jobs.Normal), traceSpec(3, jobs.Low),
	)
	if err != nil {
		t.Fatal(err)
	}
	if batchID == "" || len(submitted) != 3 {
		t.Fatalf("batch = (%q, %d jobs), want an ID and 3 jobs", batchID, len(submitted))
	}
	for _, j := range submitted {
		if j.BatchID != batchID {
			t.Errorf("job %s carries batch %q, want %q", j.ID, j.BatchID, batchID)
		}
		if _, err := m.Wait(context.Background(), j.ID, time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	list, err := m.List("", batchID)
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 3 {
		t.Errorf("batch-filtered list has %d jobs, want 3", len(list))
	}

	_, _, err = m.SubmitFrom("", true,
		traceSpec(4, jobs.Normal),
		jobs.Spec{Graph: "g", Algorithm: "nope"},
	)
	if err == nil || !strings.Contains(err.Error(), "batch entry 1") {
		t.Fatalf("bad batch error %v, want it to name entry 1", err)
	}
	if st := m.Stats(); st.Queued+st.Running+st.Done != 3 {
		t.Errorf("failed batch leaked jobs: stats %+v, want only the 3 accepted", st)
	}
}

// TestManagerValidation: submission-time rejections and lifecycle
// plumbing (unknown IDs, closed manager).
func TestManagerValidation(t *testing.T) {
	traceReset()
	m, err := jobs.NewManager(newJobEngine(t))
	if err != nil {
		t.Fatal(err)
	}

	// The error's class is the status a worker answers with: 404 for an
	// unknown name, 400 for the rest.
	bad := []struct {
		spec   jobs.Spec
		status int
	}{
		{jobs.Spec{}, http.StatusBadRequest},
		{jobs.Spec{Graph: "nope", Algorithm: "pr"}, http.StatusNotFound},
		{jobs.Spec{Graph: "g", Algorithm: "nope"}, http.StatusNotFound},
		{jobs.Spec{Graph: "g", Algorithm: "pr", DeadlineMS: -1}, http.StatusBadRequest},
		{jobs.Spec{Graph: "g", Algorithm: "pr", Options: api.RunOptions{Direction: "push", Threads: runtime.GOMAXPROCS(0) + 1}}, http.StatusBadRequest},
	}
	for i, c := range bad {
		if _, err := m.Submit(c.spec); err == nil {
			t.Errorf("case %d: Submit(%+v) accepted an invalid spec", i, c.spec)
		} else if got := edge.Status(err); got != c.status {
			t.Errorf("case %d: Submit(%+v): %v classed %d, want %d", i, c.spec, err, got, c.status)
		}
		if _, _, err := m.SubmitFrom("", true, traceSpec(1, jobs.Normal), c.spec); err == nil {
			t.Errorf("case %d: a batch holding %+v was accepted", i, c.spec)
		} else if got := edge.Status(err); got != c.status {
			t.Errorf("case %d: batch holding %+v: %v classed %d, want %d", i, c.spec, err, got, c.status)
		}
	}
	if _, _, err := m.SubmitFrom("", true); err == nil {
		t.Error("empty batch accepted")
	}
	if _, err := m.Get("j-nope"); !errors.Is(err, jobs.ErrNotFound) {
		t.Errorf("Get(unknown) = %v, want ErrNotFound", err)
	}
	if _, err := m.Result("j-nope"); !errors.Is(err, jobs.ErrNotFound) {
		t.Errorf("Result(unknown) = %v, want ErrNotFound", err)
	}
	if _, err := m.List("bogus", ""); err == nil {
		t.Error("List accepted a bogus state filter")
	}

	m.Close()
	m.Close() // idempotent
	if _, err := m.Submit(traceSpec(1, jobs.Normal)); err == nil {
		t.Error("Submit after Close accepted a job")
	}
}

// TestPriorityJSON: the wire names round-trip and typos are rejected
// rather than silently demoted.
func TestPriorityJSON(t *testing.T) {
	for _, c := range []struct {
		in   string
		want jobs.Priority
	}{
		{`"low"`, jobs.Low}, {`"normal"`, jobs.Normal}, {`"high"`, jobs.High}, {`""`, jobs.Normal},
	} {
		var p jobs.Priority
		if err := json.Unmarshal([]byte(c.in), &p); err != nil || p != c.want {
			t.Errorf("unmarshal %s = (%v, %v), want %v", c.in, p, err, c.want)
		}
		out, err := json.Marshal(c.want)
		if err != nil {
			t.Fatal(err)
		}
		if want := `"` + c.want.String() + `"`; string(out) != want {
			t.Errorf("marshal %v = %s, want %s", c.want, out, want)
		}
	}
	var p jobs.Priority
	if err := json.Unmarshal([]byte(`"urgent"`), &p); err == nil {
		t.Error(`priority "urgent" accepted; typos must be rejected`)
	}
}

// TestDiskJobStore: round-trip, tolerant delete, corruption surfaced,
// foreign files skipped.
func TestDiskJobStore(t *testing.T) {
	dir := t.TempDir()
	s, err := jobs.NewDiskJobStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	j := &jobs.Job{ID: "j-test", State: jobs.StateQueued, SubmittedMS: 42,
		Spec: jobs.Spec{Graph: "g", Algorithm: "pr"}}
	if err := s.Put(j); err != nil {
		t.Fatal(err)
	}
	j.State = jobs.StateDone
	if err := s.Put(j); err != nil {
		t.Fatal(err)
	}
	list, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].ID != "j-test" || list[0].State != jobs.StateDone {
		t.Fatalf("list = %+v, want the one re-put job in its last state", list)
	}

	// Dotfiles (in-flight temp files) and directories are not records.
	if err := os.WriteFile(filepath.Join(dir, ".put-junk"), []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(filepath.Join(dir, "sub"), 0o755); err != nil {
		t.Fatal(err)
	}
	if list, err = s.List(); err != nil || len(list) != 1 {
		t.Fatalf("list with foreign entries = (%d, %v), want 1 job", len(list), err)
	}

	if err := s.Delete("j-test"); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("j-test"); err != nil {
		t.Fatal("deleting a deleted record must not error:", err)
	}

	if err := os.WriteFile(filepath.Join(dir, "j-bad.job"), []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.List(); err == nil {
		t.Error("corrupt record silently skipped; recovery must surface it")
	}

	// A record names its file: recovery re-persists records by ID, so an
	// ID that is not the file's name would write somewhere else.
	if err := os.WriteFile(filepath.Join(dir, "j-bad.job"), []byte(`{"id":"../j-escape","state":"running"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.List(); err == nil {
		t.Error("a record whose ID is not its file name was listed")
	}
}

// putFailStore is a MemJobStore whose failAt-th Put fails.
type putFailStore struct {
	*jobs.MemJobStore
	mu     sync.Mutex
	puts   int
	failAt int
}

func (s *putFailStore) Put(j *jobs.Job) error {
	s.mu.Lock()
	s.puts++
	fail := s.puts == s.failAt
	s.mu.Unlock()
	if fail {
		return errors.New("disk full")
	}
	return s.MemJobStore.Put(j)
}

// TestBatchPersistFailureUnwindsWholeBatch: a batch is all or nothing. When
// the store refuses the record of its third job, the submission fails with
// ErrPersist and leaves no job of the batch behind — none listed, none in
// the store, none run.
func TestBatchPersistFailureUnwindsWholeBatch(t *testing.T) {
	traceReset()
	store := &putFailStore{MemJobStore: jobs.NewMemJobStore(), failAt: 3}
	m, err := jobs.NewManager(newJobEngine(t), jobs.WithStore(store))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	specs := make([]jobs.Spec, 8)
	for i := range specs {
		specs[i] = traceSpec(100+i, jobs.Normal)
	}
	if _, _, err := m.SubmitFrom("", true, specs...); !errors.Is(err, jobs.ErrPersist) {
		t.Fatalf("a batch whose third record is refused: %v, want ErrPersist", err)
	}
	if list, err := m.List("", ""); err != nil || len(list) != 0 {
		t.Fatalf("after the refused batch the manager lists %d job(s) (%v), want none", len(list), err)
	}
	if recs, err := store.List(); err != nil || len(recs) != 0 {
		t.Fatalf("after the refused batch the store holds %d record(s) (%v), want none", len(recs), err)
	}
	// A job submitted after it runs alone: nothing of the batch was queued
	// ahead of it.
	j, err := m.Submit(traceSpec(200, jobs.Normal))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, j.ID, jobs.StateDone)
	if seen := traceSeen(); len(seen) != 1 || seen[0] != 200 {
		t.Fatalf("runs after the refused batch: %v, want only [200]", seen)
	}
	if recs, err := store.List(); err != nil || len(recs) != 1 || recs[0].ID != j.ID {
		t.Fatalf("store holds %d record(s) (%v), want only %s", len(recs), err, j.ID)
	}
}

// TestOriginMintsIDs: a submission naming an origin mints job and batch
// IDs that carry it, and Origin reads it back; a submission without one
// mints IDs with none. A malformed origin is refused, 400, before any job
// is recorded.
func TestOriginMintsIDs(t *testing.T) {
	traceReset()
	m, err := jobs.NewManager(newJobEngine(t))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	const origin = "0123456789abcdef"
	batchID, batch, err := m.SubmitFrom(origin, true, traceSpec(1, jobs.Normal), traceSpec(2, jobs.Normal))
	if err != nil {
		t.Fatal(err)
	}
	single, err := m.Submit(traceSpec(3, jobs.Normal))
	if err != nil {
		t.Fatal(err)
	}
	for id, want := range map[string]string{batchID: origin, batch[0].ID: origin, batch[1].ID: origin, single.ID: ""} {
		if got := jobs.Origin(id); got != want {
			t.Errorf("Origin(%q) = %q, want %q", id, got, want)
		}
	}
	if !strings.HasPrefix(batchID, "b-"+origin+"-") || !strings.HasPrefix(batch[0].ID, "j-"+origin+"-") {
		t.Errorf("IDs %q, %q: want b-<origin>-… and j-<origin>-…", batchID, batch[0].ID)
	}
	for _, id := range []string{"", "j-nope", "x-" + origin + "-0123456789abcdef", "j-" + origin + "-0123456789abcdeF", "j-" + origin + "+0123456789abcdef"} {
		if got := jobs.Origin(id); got != "" {
			t.Errorf("Origin(%q) = %q, want none", id, got)
		}
	}

	for _, bad := range []string{"0123456789abcde", "0123456789abcdef0", "0123456789ABCDEF", "../x", "0123456789abcdeg"} {
		if _, _, err := m.SubmitFrom(bad, false, traceSpec(4, jobs.Normal)); edge.Status(err) != http.StatusBadRequest {
			t.Errorf("origin %q: %v, want a 400", bad, err)
		}
	}
	if list, err := m.List("", ""); err != nil || len(list) != 3 {
		t.Errorf("manager lists %d job(s) (%v), want the 3 accepted", len(list), err)
	}
}
