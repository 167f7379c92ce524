package jobs

// The Manager: a priority+deadline-aware scheduler between job
// submission and the engine's admission queue. Submission is O(log n) and
// returns immediately; at most as many jobs run at once as the engine
// admits runs (EngineStats.Workers), so the engine's own backpressure
// stays the real throttle and the job queue absorbs what the synchronous
// path would have shed with 429.
//
// Concurrency shape: the in-memory job map is the runtime truth, guarded
// by mu; every state transition writes the job's record through to the
// JobStore under the same critical section (the engine registry's
// write-through idiom) so the store can never disagree with the order of
// transitions. That section is the one every status poll takes, so only
// what is actually shared goes through it: a record is a few hundred
// bytes whatever its job computed. A result's payload — the encoded
// vector, megabytes — is stored before the transition, outside mu, under
// its content hash, once for all the jobs that share it (payMu orders
// those writes against the deletes of collection; besides them only
// Stats takes it).
//
// Dispatch needs no goroutine of its own: whoever queues a job or frees a
// slot — a submission, recovery, a run's end — starts what the free
// slots allow in the same critical section (dispatchLocked). Time is the
// one other event: a single timer per Manager, re-armed under mu for
// whichever comes first, the earliest queued deadline or the oldest
// terminal job's expiry.
//
// Terminal jobs do not stay forever: WithRetention bounds how many are
// kept and for how long, oldest collected first — record deleted, and
// the payload with its last referrer.

import (
	"bytes"
	"container/heap"
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"time"

	"pushpull"
	"pushpull/api"
	"pushpull/internal/edge"
)

// Manager schedules submitted jobs onto one Engine. Safe for concurrent
// use; build with NewManager.
type Manager struct {
	eng   *pushpull.Engine
	store JobStore
	keep  int           // terminal jobs retained
	ttl   time.Duration // and for how long
	slots int           // jobs running at once: the engine's admission bound

	mu      sync.Mutex
	jobs    map[string]*Job
	queue   jobHeap
	cancels map[string]context.CancelFunc
	seq     uint64
	running int
	closed  bool
	// terminal lists the retained terminal jobs, oldest finish first: the
	// order collection takes them in.
	terminal []*Job
	evicted  uint64
	// timer is the Manager's one wake-up (nil until first armed), due at
	// armed; zero armed means none is pending.
	timer *time.Timer
	armed time.Time
	// released collects the payload hashes of jobs collected while mu is
	// held; unlock hands them to release once it is not.
	released []string

	// payMu guards payloads, the reference counts of the stored result
	// payloads, and is held across the store write or delete that a count
	// leaving or reaching zero calls for, so the two cannot interleave on
	// one hash. Never held together with mu. Close sets the map to nil:
	// a closed manager stores and deletes nothing.
	payMu    sync.Mutex
	payloads map[string]*payloadRef
}

// Option configures NewManager.
type Option func(*Manager)

// WithStore makes job state durable: every transition writes through to
// s, and NewManager recovers s's contents — queued jobs re-queue,
// running jobs become interrupted. The default is an in-process
// MemJobStore (no durability).
func WithStore(s JobStore) Option {
	return func(m *Manager) {
		if s != nil {
			m.store = s
		}
	}
}

// DefaultKeep and DefaultTTL are the retention a Manager applies unless
// WithRetention says otherwise: sized so that a client polling at any
// sane interval finds its result, while a worker fed jobs indefinitely
// holds a bounded number of records and payload files.
const (
	DefaultKeep = 1024
	DefaultTTL  = time.Hour
)

// WithRetention bounds the terminal jobs a Manager keeps: at most keep
// of them, none longer than ttl after finishing. The oldest are
// collected first — the record leaves the manager and the store (Get
// then answers ErrNotFound) and a result payload goes with the last job
// referring to it. Non-positive values keep the defaults.
func WithRetention(keep int, ttl time.Duration) Option {
	return func(m *Manager) {
		if keep > 0 {
			m.keep = keep
		}
		if ttl > 0 {
			m.ttl = ttl
		}
	}
}

// payloadRef counts the retained jobs whose result is one stored payload.
type payloadRef struct {
	refs int
	size int64
}

// NewManager builds a Manager over eng, recovers any jobs its store
// holds, and dispatches those it can. It runs as many jobs at once as
// eng admits runs (WithWorkers; GOMAXPROCS for an unbounded engine): more
// would park in the engine's admission queue while counting as running,
// letting low-priority jobs leak past a later high-priority submission.
func NewManager(eng *pushpull.Engine, opts ...Option) (*Manager, error) {
	if eng == nil {
		return nil, fmt.Errorf("jobs: NewManager(nil engine)")
	}
	m := &Manager{
		eng:      eng,
		store:    NewMemJobStore(),
		keep:     DefaultKeep,
		ttl:      DefaultTTL,
		jobs:     map[string]*Job{},
		cancels:  map[string]context.CancelFunc{},
		payloads: map[string]*payloadRef{},
		slots:    eng.Stats().Workers,
	}
	for _, opt := range opts {
		opt(m)
	}
	if m.slots <= 0 {
		m.slots = runtime.GOMAXPROCS(0)
	}
	if err := m.recover(); err != nil {
		return nil, err
	}
	return m, nil
}

// recover loads the store's jobs into the runtime map: queued jobs
// re-queue (in submission order, so recovered FIFO ties break as they
// did originally), running jobs are marked interrupted — the process
// that was executing them is gone, and their partial work with it — and
// a done job whose record names no payload is marked failed: it has no
// result to serve.
// Terminal jobs rejoin the retention list in finish order and are
// collected if this manager's bounds are tighter than their age or
// number; a payload no surviving record names (a crash between storing
// it and recording its job, or after deleting a record) is deleted.
func (m *Manager) recover() error {
	persisted, err := m.store.List()
	if err != nil {
		return fmt.Errorf("jobs: recovering store: %w", err)
	}
	stored, err := m.store.Payloads()
	if err != nil {
		return fmt.Errorf("jobs: recovering store: %w", err)
	}
	sort.Slice(persisted, func(i, k int) bool {
		if persisted[i].SubmittedMS != persisted[k].SubmittedMS {
			return persisted[i].SubmittedMS < persisted[k].SubmittedMS
		}
		return persisted[i].ID < persisted[k].ID
	})
	// Nothing else runs yet, so payloads needs no payMu: one referrer per
	// record naming a payload, and a stored payload left with none goes.
	for _, j := range persisted {
		if j.Payload == "" {
			continue
		}
		if ref := m.payloads[j.Payload]; ref != nil {
			ref.refs++
		} else {
			m.payloads[j.Payload] = &payloadRef{refs: 1, size: stored[j.Payload]}
		}
	}
	for hash := range stored {
		if m.payloads[hash] == nil {
			_ = m.store.DeletePayload(hash) // left for the next recovery if it will not go
		}
	}
	m.mu.Lock()
	defer m.unlock()
	for _, j := range persisted {
		j.Result = nil
		m.jobs[j.ID] = j
		switch {
		case j.State == StateQueued:
			m.enqueueLocked(j)
		case j.State == StateRunning:
			j.State = StateInterrupted
			j.Error = "worker restarted while the job was running"
			j.FinishedMS = time.Now().UnixMilli()
			if err := m.persistLocked(j); err != nil {
				return err
			}
		case j.State == StateDone && j.Payload == "":
			j.State = StateFailed
			j.Error = fmt.Sprintf("record of job %q is done but names no result payload", j.ID)
			if err := m.persistLocked(j); err != nil {
				return err
			}
		}
		if j.State.Terminal() {
			m.terminal = append(m.terminal, j)
		}
	}
	sort.SliceStable(m.terminal, func(i, k int) bool { return m.terminal[i].FinishedMS < m.terminal[k].FinishedMS })
	m.collectLocked(time.Now())
	m.dispatchLocked()
	return nil
}

// Submit validates spec, records the job as queued, and returns that
// snapshot at once; the job runs when its turn comes, at once if a slot
// is free.
func (m *Manager) Submit(spec Spec) (*Job, error) {
	_, jobs, err := m.SubmitFrom("", false, spec)
	if err != nil {
		return nil, err
	}
	return jobs[0], nil
}

// SubmitFrom validates every spec and submits them together, their IDs
// minted under origin (none when it is empty; else it must pass
// ValidOrigin). A batch shares one batch ID, returned first; otherwise
// that is empty. Validation is all-or-nothing: one bad tuple rejects the
// whole submission with nothing enqueued, so a client never has to hunt
// down the accepted half of a failed batch.
func (m *Manager) SubmitFrom(origin string, batch bool, specs ...Spec) (string, []*Job, error) {
	if origin != "" && !ValidOrigin(origin) {
		return "", nil, edge.BadRequest(fmt.Errorf("jobs: bad origin %q: want 16 lowercase hex digits", origin))
	}
	if len(specs) == 0 {
		return "", nil, edge.BadRequest(errors.New("jobs: no spec submitted"))
	}
	batchID := ""
	if batch {
		batchID = newID("b-", origin)
	}
	jobs, err := m.submit(specs, origin, batchID)
	if err != nil {
		return "", nil, err
	}
	return batchID, jobs, nil
}

func (m *Manager) submit(specs []Spec, origin, batchID string) ([]*Job, error) {
	for i, spec := range specs {
		if err := m.validate(spec); err != nil {
			if batchID != "" {
				return nil, fmt.Errorf("jobs: batch entry %d: %w", i, err)
			}
			return nil, err
		}
	}
	now := time.Now().UnixMilli()
	m.mu.Lock()
	defer m.unlock()
	if m.closed {
		return nil, ErrClosed
	}
	// Every record is written before any job joins the map or the queue,
	// so a write that fails leaves nothing to unwind in memory: accepting
	// a job un-persisted would break the restart contract (it would
	// silently vanish), and a batch is all or nothing, so the records
	// already written go too — none of them may run, or come back on
	// restart, after the client was told the submission failed.
	batch := make([]*Job, len(specs))
	for i, spec := range specs {
		j := &Job{
			ID:          newID("j-", origin),
			BatchID:     batchID,
			Spec:        spec,
			State:       StateQueued,
			SubmittedMS: now,
		}
		if spec.DeadlineMS > 0 {
			j.DeadlineUnixMS = now + spec.DeadlineMS
		}
		batch[i] = j
		if err := m.persistLocked(j); err != nil {
			for _, j := range batch[:i+1] {
				if derr := m.store.Delete(j.ID); derr != nil {
					err = errors.Join(err, fmt.Errorf("jobs: unwinding %q: %w", j.ID, derr))
				}
			}
			return nil, err
		}
	}
	out := make([]*Job, len(batch))
	for i, j := range batch {
		m.jobs[j.ID] = j
		m.enqueueLocked(j)
		out[i] = j.StatusView()
	}
	m.dispatchLocked()
	return out, nil
}

// validate rejects a spec the engine could never run: unknown graph or
// algorithm, or options no With* function would accept. Submission-time
// rejection keeps failures synchronous where they are cheap to report.
// It is the worker's only judge of a spec, so its errors carry their
// status class: an unknown name is edge.NotFound (404), the rest 400.
func (m *Manager) validate(spec Spec) error {
	if _, _, err := edge.Resolve(m.eng, spec.Graph, spec.Algorithm, &spec.Options); err != nil {
		return err
	}
	if spec.DeadlineMS < 0 {
		return edge.BadRequest(fmt.Errorf("jobs: negative deadline_ms %d", spec.DeadlineMS))
	}
	return nil
}

// enqueueLocked pushes j onto the queue (mu held); the dispatchLocked
// that follows arms the timer for its deadline.
func (m *Manager) enqueueLocked(j *Job) {
	m.seq++
	heap.Push(&m.queue, &queued{job: j, seq: m.seq})
}

// Get returns a status snapshot of the job: everything but its result,
// which Result and OpenResult serve.
func (m *Manager) Get(id string) (*Job, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	return j.StatusView(), nil
}

// ResultBody is a done job's result opened for reading: the stored
// api.RunResponse document, Size bytes long. Close it when done.
type ResultBody struct {
	Size    int64
	head    string
	payload io.ReadCloser
}

// WriteTo writes the document to w: the job's own head, then the
// payload streamed from the store.
func (b *ResultBody) WriteTo(w io.Writer) (int64, error) {
	n, err := io.WriteString(w, b.head)
	if err != nil {
		return int64(n), err
	}
	copied, err := io.Copy(w, b.payload)
	return int64(n) + copied, err
}

// Close releases the store's reader.
func (b *ResultBody) Close() error { return b.payload.Close() }

// OpenResult opens the result of a done job. A still-pending job returns
// ErrNotDone; a deadline-expired one returns ErrDeadlineExceeded; other
// non-done terminal states return an error carrying the job's failure
// message, 410 for a canceled or interrupted job. A job reported done by
// Get has a result to open until it is collected: done is only ever
// recorded after the payload is stored.
func (m *Manager) OpenResult(id string) (*ResultBody, error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	var (
		body *ResultBody
		hash string
		err  error
	)
	switch {
	case !ok:
		err = fmt.Errorf("%w: %q", ErrNotFound, id)
	case j.State == StateDone:
		body, hash = &ResultBody{head: j.Head}, j.Payload
	case !j.State.Terminal():
		err = fmt.Errorf("%w: %q is %s", ErrNotDone, id, j.State)
	case j.Error == ErrDeadlineExceeded.Error():
		err = fmt.Errorf("%w (job %q)", ErrDeadlineExceeded, id)
	case j.State == StateFailed:
		err = fmt.Errorf("jobs: %q failed: %s", id, j.Error)
	default:
		err = edge.Class(http.StatusGone, fmt.Errorf("jobs: %q is %s: %s", id, j.State, j.Error))
	}
	m.mu.Unlock()
	if err != nil {
		return nil, err
	}
	var size int64
	if body.payload, size, err = m.store.OpenPayload(hash); err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			// Collected between the lookup and the open.
			return nil, fmt.Errorf("%w: %q", ErrNotFound, id)
		}
		return nil, fmt.Errorf("jobs: result of %q: %w", id, err)
	}
	body.Size = int64(len(body.head)) + size
	return body, nil
}

// Result returns the stored api.RunResponse bytes of a done job, with
// OpenResult's errors. It reads the whole document into memory; servers
// stream it with OpenResult instead.
func (m *Manager) Result(id string) ([]byte, error) {
	body, err := m.OpenResult(id)
	if err != nil {
		return nil, err
	}
	defer body.Close()
	buf := bytes.NewBuffer(make([]byte, 0, body.Size))
	if _, err := body.WriteTo(buf); err != nil {
		return nil, fmt.Errorf("jobs: result of %q: %w", id, err)
	}
	return buf.Bytes(), nil
}

// Cancel cancels a job: a queued job goes straight to canceled, a
// running one has its context canceled (the state transition lands when
// the run returns). Canceling a terminal job is a no-op. The returned
// snapshot reflects the state after the call.
func (m *Manager) Cancel(id string) (*Job, error) {
	m.mu.Lock()
	defer m.unlock()
	j, ok := m.jobs[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	switch j.State {
	case StateQueued:
		// The heap entry stays; dispatch skips non-queued entries.
		j.State = StateCanceled
		j.Error = "canceled while queued"
		if err := m.finishLocked(j); err != nil {
			return nil, err
		}
	case StateRunning:
		if cancel, ok := m.cancels[id]; ok {
			cancel()
		}
	}
	return j.StatusView(), nil
}

// List returns status snapshots (no results), filtered by state
// and/or batch ID when non-empty, sorted by submission time then ID.
func (m *Manager) List(state State, batchID string) ([]*Job, error) {
	if state != "" && !state.Valid() {
		return nil, edge.BadRequest(fmt.Errorf("jobs: bad state filter %q", state))
	}
	m.mu.Lock()
	out := make([]*Job, 0, len(m.jobs))
	for _, j := range m.jobs {
		if state != "" && j.State != state {
			continue
		}
		if batchID != "" && j.BatchID != batchID {
			continue
		}
		out = append(out, j.StatusView())
	}
	m.mu.Unlock()
	sort.Slice(out, func(i, k int) bool {
		if out[i].SubmittedMS != out[k].SubmittedMS {
			return out[i].SubmittedMS < out[k].SubmittedMS
		}
		return out[i].ID < out[k].ID
	})
	return out, nil
}

// Wait polls until the job reaches a terminal state, returning its final
// snapshot (poll ≤ 0 defaults to 25ms). On context expiry it returns the
// last snapshot seen alongside ctx.Err().
func (m *Manager) Wait(ctx context.Context, id string, poll time.Duration) (*Job, error) {
	if poll <= 0 {
		poll = 25 * time.Millisecond
	}
	ticker := time.NewTicker(poll)
	defer ticker.Stop()
	for {
		// Only the state is read per poll; the snapshot is taken once.
		m.mu.Lock()
		j, ok := m.jobs[id]
		terminal := ok && j.State.Terminal()
		m.mu.Unlock()
		if !ok || terminal {
			return m.Get(id)
		}
		select {
		case <-ctx.Done():
			j, err := m.Get(id)
			if err != nil {
				return nil, err
			}
			return j, ctx.Err()
		case <-ticker.C:
		}
	}
}

// Stats is a point-in-time census of the Manager's jobs, by state, plus
// what retention is holding and has let go: Retained is the terminal jobs
// still answerable (the four terminal states sum to it), Evicted those
// collected since this manager started, and PayloadFiles/PayloadBytes the
// distinct result payloads in the store — fewer than the done jobs
// whenever results repeat.
type Stats struct {
	Queued      int `json:"queued"`
	Running     int `json:"running"`
	Done        int `json:"done"`
	Failed      int `json:"failed"`
	Canceled    int `json:"canceled"`
	Interrupted int `json:"interrupted"`

	Retained     int    `json:"retained"`
	Evicted      uint64 `json:"evicted"`
	PayloadFiles int    `json:"payload_files"`
	PayloadBytes int64  `json:"payload_bytes"`
}

// Stats counts jobs by state and sums the retention bookkeeping.
func (m *Manager) Stats() Stats {
	var s Stats
	m.payMu.Lock()
	s.PayloadFiles = len(m.payloads)
	for _, ref := range m.payloads {
		s.PayloadBytes += ref.size
	}
	m.payMu.Unlock()
	m.mu.Lock()
	defer m.mu.Unlock()
	s.Retained, s.Evicted = len(m.terminal), m.evicted
	for _, j := range m.jobs {
		switch j.State {
		case StateQueued:
			s.Queued++
		case StateRunning:
			s.Running++
		case StateDone:
			s.Done++
		case StateFailed:
			s.Failed++
		case StateCanceled:
			s.Canceled++
		case StateInterrupted:
			s.Interrupted++
		}
	}
	return s
}

// Close stops dispatch: no further jobs start (queued ones keep their
// state for a successor to recover). Jobs already running are not
// canceled and Close does not wait for them, but it fences them: once
// Close has returned this manager writes nothing more to its store — no
// record, no payload, no deletion — so a successor opened over the same
// store owns it outright, and a run that outlives Close simply loses its
// transition (the successor has already marked that job interrupted).
// Submit fails after Close.
func (m *Manager) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	// Every record write and delete re-checks closed under mu, every
	// payload write and delete finds the nil map under payMu; taking each
	// lock here waits out the one that may be in flight.
	m.closed = true
	if m.timer != nil {
		m.timer.Stop()
	}
	m.mu.Unlock()
	m.payMu.Lock()
	m.payloads = nil
	m.payMu.Unlock()
}

// ---- dispatch ----

// dispatchLocked (mu held) fails the queued jobs whose deadline has
// passed, then starts the highest-ranked queued jobs while a slot is
// free: each is marked running, its record written and its CancelFunc
// registered before its goroutine starts. Entries canceled or expired
// while queued are dropped as they surface (their state already moved
// on). A closed manager starts nothing.
func (m *Manager) dispatchLocked() {
	if m.closed {
		return
	}
	m.sweepLocked()
	for m.running < m.slots && m.queue.Len() > 0 {
		j := heap.Pop(&m.queue).(*queued).job
		if j.State != StateQueued {
			continue
		}
		now := time.Now()
		j.State = StateRunning
		j.StartedMS = now.UnixMilli()
		// The job context derives from Background, not any request: the
		// submitting client is long gone by design. Cancellation comes
		// from exactly two places — Cancel(id) and the job's deadline —
		// so context.Canceled on the run unambiguously means canceled.
		var ctx context.Context
		var cancel context.CancelFunc
		if j.DeadlineUnixMS > 0 {
			ctx, cancel = context.WithDeadline(context.Background(), time.UnixMilli(j.DeadlineUnixMS))
		} else {
			ctx, cancel = context.WithCancel(context.Background())
		}
		m.cancels[j.ID] = cancel
		if err := m.persistLocked(j); err != nil {
			// The store is the restart contract; run anyway — the run
			// path must not depend on disk health — but keep the error
			// visible on the job.
			j.Error = err.Error()
		}
		m.running++
		go m.execute(j, ctx, cancel)
	}
}

// sweepLocked fails every queued job whose deadline has passed (mu
// held) and arms the timer for the earliest deadline still ahead. Pop
// order alone cannot catch these: an expired low-priority job buried
// under live high-priority work would otherwise sit "queued"
// indefinitely.
func (m *Manager) sweepLocked() {
	now := time.Now().UnixMilli()
	var soonest int64
	for _, q := range m.queue {
		j := q.job
		if j.State != StateQueued || j.DeadlineUnixMS == 0 {
			continue
		}
		if now < j.DeadlineUnixMS {
			if soonest == 0 || j.DeadlineUnixMS < soonest {
				soonest = j.DeadlineUnixMS
			}
			continue
		}
		j.State = StateFailed
		j.Error = ErrDeadlineExceeded.Error()
		if err := m.finishLocked(j); err != nil {
			j.Error = fmt.Sprintf("%s (persist: %s)", ErrDeadlineExceeded.Error(), err)
		}
	}
	if soonest > 0 {
		m.armLocked(time.UnixMilli(soonest))
	}
}

// armLocked makes the timer fire by at (mu held). It only ever moves the
// wake-up earlier: a tick re-arms for whatever is still ahead, so an
// early one costs a sweep and nothing else.
func (m *Manager) armLocked(at time.Time) {
	if m.closed || !m.armed.IsZero() && !at.Before(m.armed) {
		return
	}
	m.armed = at
	if m.timer == nil {
		m.timer = time.AfterFunc(time.Until(at), m.tick)
	} else {
		m.timer.Reset(time.Until(at))
	}
}

// tick is the timer's callback. It collects the terminal jobs whose time
// is up and fails the queued jobs whose deadline passed — promptly, even
// while every slot is busy — each step re-arming the timer for what is
// left.
func (m *Manager) tick() {
	m.mu.Lock()
	defer m.unlock()
	m.armed = time.Time{}
	m.collectLocked(time.Now())
	m.dispatchLocked()
}

// execute runs one dispatched job to completion on the engine, records
// the outcome and hands its slot to the next queued job. Runs on its own
// goroutine. Everything proportional to the result happens before mu is
// taken: the tail comes from the engine's cache entry when the run was a
// hit, and is stored once per distinct payload. A run that panics fails
// its job alone: the engine returns the panic as the run's error.
func (m *Manager) execute(j *Job, ctx context.Context, cancel context.CancelFunc) {
	defer cancel()
	// The spec is resolved again: it was validated at submission, but
	// the graph may have been dropped while the job queued.
	rep, err := edge.Run(ctx, m.eng, j.Spec.Graph, j.Spec.Algorithm, &j.Spec.Options)
	var (
		reply api.Reply
		hash  string
	)
	if err == nil {
		reply = api.Encode(j.Spec.Graph, rep)
		hash, err = m.retain(reply.Tail)
	}
	m.mu.Lock()
	defer m.unlock()
	delete(m.cancels, j.ID)
	m.running--
	switch {
	case err == nil:
		j.State = StateDone
		j.Error = ""
		j.Head, j.Payload = string(reply.Head), hash
		stats := api.StatsOf(rep)
		j.Stats = &stats
	case errors.Is(err, context.Canceled):
		j.State = StateCanceled
		j.Error = "canceled while running"
	default:
		// Deadline expiry mid-run lands here too: unlike pre-run expiry
		// it did consume a slot, and the distinction stays visible in the
		// timestamps (StartedMS set) and message.
		j.State = StateFailed
		j.Error = err.Error()
	}
	if err := m.finishLocked(j); err != nil && j.Error == "" {
		j.Error = err.Error()
	}
	m.dispatchLocked()
}

// persistLocked writes j's record through to the store (mu held, the
// engine registry's write-through idiom: map and store must agree on the
// order of transitions). A closed manager no longer owns the store: the
// write is dropped.
func (m *Manager) persistLocked(j *Job) error {
	if m.closed {
		return nil
	}
	//pushpull:allow lockheld write-through under mu by design: job map and store must observe state transitions in the same order; the record is a few hundred bytes, results live in payload files written outside mu
	if err := m.store.Put(j); err != nil {
		return fmt.Errorf("%w %q: %w", ErrPersist, j.ID, err)
	}
	return nil
}

// finishLocked records j's transition into a terminal state (mu held):
// the finish time is stamped here, when the state — and for a done job
// the result, already stored — becomes visible to polls, then the record
// is written, the job joins the retention list, and whatever that pushes
// past the bounds is collected.
func (m *Manager) finishLocked(j *Job) error {
	now := time.Now()
	j.FinishedMS = now.UnixMilli()
	err := m.persistLocked(j)
	m.terminal = append(m.terminal, j)
	m.collectLocked(now)
	return err
}

// collectLocked enforces retention (mu held): terminal jobs beyond the
// count bound, or finished longer ago than the TTL, leave the map and
// the store, oldest first. Their payload hashes queue on m.released for
// unlock. While any job is retained the timer is armed for the oldest
// one's expiry.
func (m *Manager) collectLocked(now time.Time) {
	if m.closed {
		return
	}
	expired := now.Add(-m.ttl).UnixMilli()
	n := 0
	for n < len(m.terminal) && (len(m.terminal)-n > m.keep || m.terminal[n].FinishedMS <= expired) {
		j := m.terminal[n]
		m.terminal[n] = nil
		n++
		delete(m.jobs, j.ID)
		m.evicted++
		if j.Payload != "" {
			m.released = append(m.released, j.Payload)
		}
		// Under mu like the record writes, whose order it follows: one
		// unlink. A record that will not delete is recovered as a terminal
		// job by the next manager and collected again there.
		_ = m.store.Delete(j.ID)
	}
	m.terminal = m.terminal[n:]
	if len(m.terminal) > 0 {
		m.armLocked(time.UnixMilli(m.terminal[0].FinishedMS).Add(m.ttl))
	}
}

// unlock releases mu, then lets go of the payloads of the jobs collected
// while it was held — store I/O that no status poll should wait behind.
func (m *Manager) unlock() {
	released := m.released
	m.released = nil
	m.mu.Unlock()
	m.release(released)
}

// retain stores a result payload under its content hash unless a
// retained job already refers to it, and counts the new referrer.
func (m *Manager) retain(enc *pushpull.Encoding) (string, error) {
	hash := enc.Hash()
	m.payMu.Lock()
	defer m.payMu.Unlock()
	if m.payloads == nil { // closed
		return hash, nil
	}
	if ref := m.payloads[hash]; ref != nil {
		ref.refs++
		return hash, nil
	}
	// Store I/O under payMu is what payMu is for — a payload's write must
	// not interleave with its delete — and of the request paths only
	// Stats takes it; no poll or submission does.
	if err := m.store.PutPayload(hash, enc.Bytes); err != nil {
		return "", fmt.Errorf("jobs: storing result payload: %w", err)
	}
	m.payloads[hash] = &payloadRef{refs: 1, size: int64(len(enc.Bytes))}
	return hash, nil
}

// release drops one referrer from each payload and deletes those left
// with none.
func (m *Manager) release(hashes []string) {
	if len(hashes) == 0 {
		return
	}
	m.payMu.Lock()
	defer m.payMu.Unlock()
	for _, hash := range hashes {
		ref := m.payloads[hash]
		if ref == nil { // closed
			continue
		}
		if ref.refs--; ref.refs == 0 {
			delete(m.payloads, hash)
			// A payload that will not delete is an orphan the next
			// manager's recovery removes.
			_ = m.store.DeletePayload(hash)
		}
	}
}

// ---- the priority queue ----

// queued is one heap entry. The job pointer is shared with m.jobs;
// entries whose job left the queued state (canceled) are lazily dropped
// at pop time.
type queued struct {
	job *Job
	seq uint64
}

// jobHeap orders by priority (high first), then deadline (earliest
// first, none last), then submission sequence (FIFO).
type jobHeap []*queued

func (h jobHeap) Len() int { return len(h) }
func (h jobHeap) Less(i, k int) bool {
	a, b := h[i], h[k]
	if a.job.Spec.Priority != b.job.Spec.Priority {
		return a.job.Spec.Priority > b.job.Spec.Priority
	}
	ad, bd := a.job.DeadlineUnixMS, b.job.DeadlineUnixMS
	if ad != bd {
		if ad == 0 {
			return false
		}
		if bd == 0 {
			return true
		}
		return ad < bd
	}
	return a.seq < b.seq
}
func (h jobHeap) Swap(i, k int) { h[i], h[k] = h[k], h[i] }
func (h *jobHeap) Push(x any)   { *h = append(*h, x.(*queued)) }
func (h *jobHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return it
}
