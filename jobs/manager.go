package jobs

// The Manager keeps job records, retention and recovery; the engine's one
// admission queue schedules. Submission writes a job's queued record and
// takes its place in that queue (Engine.Enqueue), a record and a place,
// no goroutine. The grant starts the job's run, which marks it running:
// running means holding a worker slot. Cancel and the deadline are the
// job context's, in the queue and in the kernel alike.
//
// The in-memory job map, guarded by mu, is the runtime truth; every state
// transition writes the job's record (a few hundred bytes) through to the
// JobStore in the same critical section, so the store follows the order
// of transitions. A result's payload — megabytes — is stored before the
// transition, outside mu, under its content hash, once for all the jobs
// that share it (payMu orders those writes against collection's deletes).
//
// WithRetention bounds the terminal jobs kept, oldest collected first —
// record, and the payload with its last referrer, gone before the finish
// that pushed them out is visible. One timer per Manager serves the TTL.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"sort"
	"sync"
	"time"

	"pushpull"
	"pushpull/api"
	"pushpull/internal/edge"
)

// Manager runs submitted jobs on one Engine and keeps their records.
// Safe for concurrent use; build with NewManager.
type Manager struct {
	eng   *pushpull.Engine
	store JobStore
	keep  int           // terminal jobs retained
	ttl   time.Duration // and for how long

	mu      sync.Mutex
	jobs    map[string]*Job
	cancels map[string]context.CancelFunc // of every job not yet terminal
	closed  bool
	// terminal lists the retained terminal jobs, oldest finish first: the
	// order collection takes them in.
	terminal []*Job
	evicted  uint64
	// timer is the Manager's one wake-up for retention (nil until first
	// armed), due at armed; zero armed means none is pending.
	timer *time.Timer
	armed time.Time

	// payMu guards payloads, the reference counts of the stored result
	// payloads, across the store write or delete a count leaving or
	// reaching zero calls for. Paths that may collect take it before mu
	// (lock), so a finish's evicted payloads are gone before a poll sees
	// the finish. Close sets the map to nil: it stores and deletes nothing.
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

// NewManager builds a Manager over eng and recovers any jobs its store
// holds. Its jobs run as eng admits them, with its synchronous runs: at
// most WithWorkers at once, all at once on an unbounded engine.
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
	}
	for _, opt := range opts {
		opt(m)
	}
	if err := m.recover(); err != nil {
		return nil, err
	}
	return m, nil
}

// recover loads the store's jobs into the runtime map: queued jobs take
// their places again in submission order; running jobs are marked
// interrupted (their process is gone), and a done job whose record names
// no payload failed. Terminal jobs rejoin the retention list in finish
// order, collected past this manager's bounds; a payload no surviving
// record names (a crash between the two writes) is deleted.
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
	m.lock()
	defer m.unlock()
	for _, j := range persisted {
		j.Result = nil
		m.jobs[j.ID] = j
		switch {
		case j.State == StateQueued:
			m.startLocked(j)
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
	return nil
}

// Submit validates spec, records the job as queued, takes its place in
// the engine's admission queue and returns that snapshot at once; the
// job runs when its turn comes, at once if a slot is free.
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
	defer m.mu.Unlock()
	if m.closed {
		return nil, ErrClosed
	}
	// Every record is written before any job joins the map or the queue:
	// a failed write leaves nothing to unwind in memory, and a batch is
	// all or nothing, so the records already written go too.
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
		out[i] = j.StatusView()
		m.startLocked(j)
	}
	return out, nil
}

// validate rejects, at submission, a spec the engine could never run:
// unknown graph or algorithm (edge.NotFound, 404), or options no With*
// function would accept (400).
func (m *Manager) validate(spec Spec) error {
	if _, _, err := edge.Resolve(m.eng, spec.Graph, spec.Algorithm, &spec.Options); err != nil {
		return err
	}
	if spec.DeadlineMS < 0 {
		return edge.BadRequest(fmt.Errorf("jobs: negative deadline_ms %d", spec.DeadlineMS))
	}
	return nil
}

// startLocked (mu held) gives a queued job its context — its deadline and
// Cancel's cancel — and its place in the engine's queue, whose grant (or
// the context's end) starts its run.
func (m *Manager) startLocked(j *Job) {
	var ctx context.Context
	var cancel context.CancelFunc
	if j.DeadlineUnixMS > 0 {
		ctx, cancel = context.WithDeadline(context.Background(), time.UnixMilli(j.DeadlineUnixMS))
	} else {
		ctx, cancel = context.WithCancel(context.Background())
	}
	m.cancels[j.ID] = cancel
	m.eng.Enqueue(ctx, int(j.Spec.Priority), func(ctx context.Context) { go m.execute(j, ctx, cancel) })
}

// begin marks j running as its run takes its slot. A closed manager, or
// a job canceled meanwhile, refuses: the run does not happen.
func (m *Manager) begin(j *Job) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed || j.State != StateQueued {
		return fmt.Errorf("jobs: %q not started: manager closed or job %s", j.ID, j.State)
	}
	j.State = StateRunning
	j.StartedMS = time.Now().UnixMilli()
	if err := m.persistLocked(j); err != nil {
		// The store is the restart contract; run anyway — the run path must
		// not depend on disk health — but keep the error visible on the job.
		j.Error = err.Error()
	}
	return nil
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

// OpenResult opens the result of a done job (done is recorded only after
// the payload is stored). A pending job returns ErrNotDone, a
// deadline-expired one ErrDeadlineExceeded, other terminal states an
// error carrying the job's failure, 410 for canceled or interrupted.
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

// Cancel cancels a job's context: a queued job goes straight to canceled
// and leaves the engine's queue, a running one's transition lands when
// the run returns. Canceling a terminal job is a no-op. The returned
// snapshot reflects the state after the call.
func (m *Manager) Cancel(id string) (*Job, error) {
	m.lock()
	defer m.unlock()
	j, ok := m.jobs[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	if cancel, ok := m.cancels[id]; ok {
		cancel()
	}
	if j.State == StateQueued {
		j.State = StateCanceled
		j.Error = "canceled while queued"
		if err := m.finishLocked(j); err != nil {
			return nil, err
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

// Stats is a census of the Manager's jobs by state, plus retention:
// Retained terminal jobs (the four terminal states sum to it), Evicted
// since this manager started, and the distinct result payloads stored.
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
	m.lock()
	defer m.unlock()
	s := Stats{Retained: len(m.terminal), Evicted: m.evicted, PayloadFiles: len(m.payloads)}
	for _, ref := range m.payloads {
		s.PayloadBytes += ref.size
	}
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

// Close withdraws its queued jobs from the engine's queue; they keep their
// records for a successor to recover. Running jobs are neither canceled
// nor waited for, but fenced: after Close this manager writes nothing more
// to its store, so a successor over it owns it outright (and has marked
// those jobs interrupted). Submit fails after Close.
func (m *Manager) Close() {
	// Every record write and delete re-checks closed under mu, every
	// payload write and delete finds the nil map under payMu; taking both
	// locks here waits out the one that may be in flight.
	m.lock()
	defer m.unlock()
	m.closed = true
	for id, cancel := range m.cancels {
		if j := m.jobs[id]; j != nil && j.State == StateQueued {
			cancel()
		}
	}
	if m.timer != nil {
		m.timer.Stop()
	}
	m.payloads = nil
}

// ---- runs and retention ----

// armLocked makes the timer fire by at (mu held), only ever earlier: a
// tick re-arms for what is still ahead.
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

// tick, the timer's callback, collects the jobs whose time is up.
func (m *Manager) tick() {
	m.lock()
	defer m.unlock()
	m.armed = time.Time{}
	m.collectLocked(time.Now())
}

// execute runs one job from its grant (or its context's end in the
// queue) and records the outcome. Everything proportional to the result
// happens before mu is taken: the tail comes from the engine's cache entry
// on a hit, and is stored once per distinct payload. A panicking run fails
// its job alone.
func (m *Manager) execute(j *Job, ctx context.Context, cancel context.CancelFunc) {
	var rep *pushpull.Report
	err := ctx.Err() // its deadline passed, or it was canceled, in the queue
	if err == nil {
		err = m.begin(j) // refused only when the record is final already
	}
	if err == nil {
		// Resolved now, as the graph may have changed while the job
		// queued; timeout_ms starts here, with the run.
		rep, err = edge.Run(ctx, m.eng, j.Spec.Graph, j.Spec.Algorithm, &j.Spec.Options)
	}
	cancel() // the place leaves the engine, whatever the engine did with it
	var reply api.Reply
	if err == nil {
		reply = api.Encode(j.Spec.Graph, rep)
	}
	m.payMu.Lock()
	hash := ""
	if err == nil {
		hash, err = m.retainLocked(reply.Tail)
	}
	m.mu.Lock()
	defer m.unlock()
	delete(m.cancels, j.ID)
	if m.closed || j.State.Terminal() {
		// Fenced, or canceled while queued: the record is final.
		m.releaseLocked(hash)
		return
	}
	switch {
	case err == nil:
		j.State = StateDone
		j.Error = ""
		j.Head, j.Payload = string(reply.Head), hash
		stats := api.StatsOf(rep)
		j.Stats = &stats
	case j.StartedMS == 0 && errors.Is(err, context.DeadlineExceeded):
		// The deadline passed while the job waited: it never held a slot.
		j.State = StateFailed
		j.Error = ErrDeadlineExceeded.Error()
	case errors.Is(err, context.Canceled):
		j.State = StateCanceled
		j.Error = "canceled while running"
	default:
		// Deadline expiry mid-run too: it did hold a slot, and StartedMS
		// and the message say so.
		j.State = StateFailed
		j.Error = err.Error()
	}
	if err := m.finishLocked(j); err != nil && j.Error == "" {
		j.Error = err.Error()
	}
}

// persistLocked writes j's record through to the store (mu held); a
// closed manager no longer owns the store, and drops the write.
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

// finishLocked records j's terminal transition (mu held): stamped now,
// as it becomes visible to polls, written, and added to the retention
// list, collecting whatever that pushes past the bounds.
func (m *Manager) finishLocked(j *Job) error {
	now := time.Now()
	j.FinishedMS = now.UnixMilli()
	err := m.persistLocked(j)
	m.terminal = append(m.terminal, j)
	m.collectLocked(now)
	return err
}

// collectLocked enforces retention (payMu and mu held): terminal jobs
// beyond the count bound, or finished longer ago than the TTL, leave the
// map and the store, oldest first, each releasing its payload. While any
// job is retained the timer is armed for the oldest one's expiry.
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
		m.releaseLocked(j.Payload)
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

// lock takes payMu, then mu: every path that may collect holds both.
func (m *Manager) lock() {
	m.payMu.Lock()
	m.mu.Lock()
}

func (m *Manager) unlock() {
	m.mu.Unlock()
	m.payMu.Unlock()
}

// retainLocked stores a result payload under its content hash unless a
// retained job already refers to it, and counts the new referrer (payMu
// held, not mu: no poll waits behind the write).
func (m *Manager) retainLocked(enc *pushpull.Encoding) (string, error) {
	hash := enc.Hash()
	if m.payloads == nil { // closed
		return hash, nil
	}
	if ref := m.payloads[hash]; ref != nil {
		ref.refs++
		return hash, nil
	}
	if err := m.store.PutPayload(hash, enc.Bytes); err != nil {
		return "", fmt.Errorf("jobs: storing result payload: %w", err)
	}
	m.payloads[hash] = &payloadRef{refs: 1, size: int64(len(enc.Bytes))}
	return hash, nil
}

// releaseLocked drops one referrer from a payload and deletes it when it
// is left with none (payMu held).
func (m *Manager) releaseLocked(hash string) {
	ref := m.payloads[hash]
	if ref == nil { // closed, or no payload
		return
	}
	if ref.refs--; ref.refs == 0 {
		delete(m.payloads, hash)
		// A payload that will not delete is an orphan the next manager's
		// recovery removes.
		_ = m.store.DeletePayload(hash)
	}
}
