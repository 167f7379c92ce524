package jobs_test

// Scheduler-contract tests for the job manager, run under -race in CI:
// strict priority dispatch order through a single dispatch slot,
// deadline expiry that never consumes a slot, cancellation of queued
// and running jobs, and the restart contract of the DiskJobStore
// (queued jobs re-queue, running jobs come back interrupted).

import (
	"context"
	"encoding/json"
	"errors"
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
// real run) with one registered graph "g", then applies opts. A manager
// over it dispatches through one slot: the slots follow the engine's
// admission bound.
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

// TestManagerPriorityOrder: with one dispatch slot, a mix of priorities
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

// TestManagerDispatchFollowsWorkers: with no manager option the dispatch
// slots are the engine's admission bound. Over WithWorkers(3) at most 3
// jobs are ever in the engine at once and the rest stay queued in the
// job heap, none parked in the engine's queue; an unbounded engine
// (WithWorkers(0)) gets GOMAXPROCS slots.
func TestManagerDispatchFollowsWorkers(t *testing.T) {
	for _, c := range []struct{ workers, slots int }{{3, 3}, {0, runtime.GOMAXPROCS(0)}} {
		traceReset()
		eng := newJobEngine(t, pushpull.WithWorkers(c.workers))
		m, err := jobs.NewManager(eng)
		if err != nil {
			t.Fatal(err)
		}
		const extra = 2
		var releases []func()
		var ids []string
		for tag := 1; tag <= c.slots+extra; tag++ {
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
		time.Sleep(20 * time.Millisecond) // room for an excess dispatch to show
		if st := m.Stats(); st.Running != c.slots || st.Queued != extra {
			t.Errorf("workers=%d: %d running / %d queued, want %d / %d", c.workers, st.Running, st.Queued, c.slots, extra)
		}
		if w := eng.Stats().Waiting; w != 0 {
			t.Errorf("workers=%d: %d dispatched jobs parked in the engine's queue", c.workers, w)
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

// TestManagerDeadlineExpiry: a queued job whose deadline passes while
// every dispatch slot is busy fails promptly with ErrDeadlineExceeded —
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

	// The slot is still held: expiry must be detected by the deadline
	// timer, not by a dispatch that cannot happen.
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
	// Simulated kill: stop the scheduler without releasing the running
	// job. The store still says "running" — exactly what a kill -9 leaves.
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
