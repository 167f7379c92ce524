package pushpull

// Admission and single-flight deduplication: the two request-level
// scheduling layers the Engine puts in front of its kernels.
//
// Admission is one ordered queue per Engine for every run that executes,
// synchronous runs and jobs alike (each kernel already spreads over
// GOMAXPROCS threads). It bounds concurrent runs (WithWorkers), sheds
// synchronous runs past a depth (WithQueueLimit), fails queued runs on
// shutdown (WithDrainSignal), and admits by priority, then deadline, then
// arrival; a job arrives when it is submitted (Enqueue).
//
// Single-flight deduplication is the message-reduction lever (Yan et al.,
// PAPERS.md) for identical work: concurrent requests whose (workload
// content, algorithm, options fingerprint) keys match coalesce onto the
// one run already executing — followers park on the leader's completion
// and receive a shallow copy of its report flagged Stats.Coalesced,
// consuming no worker slot and running no kernel.

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// ErrOverloaded: a synchronous run was rejected because WithQueueLimit
// queued runs were ahead of it. It is the engine's truthful overload
// signal — serving fronts map it to 429 + Retry-After so a cluster router
// can back off or fail over instead of queueing forever.
var ErrOverloaded = errors.New("pushpull: admission queue full")

// ErrDraining: a queued (not-yet-admitted) run was failed because the
// process is shutting down. A draining engine finishes the runs already
// holding worker slots but refuses to start queued work — a serving front
// maps this to 503 so the client retries against a live replica instead
// of racing the shutdown timeout in a queue that will never move.
var ErrDraining = errors.New("pushpull: engine draining, queued run refused")

// drainKey is the context key of WithDrainSignal; a place's is its queue.
type drainKey struct{}

// WithDrainSignal returns a context whose runs abandon the admission
// queue with ErrDraining once signal is closed. Runs that already hold a
// worker slot are unaffected — this is the "drain in-flight, shed queued"
// half of a graceful shutdown. The signal rides the context (rather than
// engine state) so one engine can serve draining and non-draining fronts
// at once, and so admission keeps composing with per-request deadlines.
func WithDrainSignal(ctx context.Context, signal <-chan struct{}) context.Context {
	return context.WithValue(ctx, drainKey{}, signal)
}

// drainSignal unpacks WithDrainSignal; a nil channel never fires.
func drainSignal(ctx context.Context) <-chan struct{} {
	ch, _ := ctx.Value(drainKey{}).(<-chan struct{})
	return ch
}

// Enqueue takes a place in e's admission queue now, ordered by priority
// (higher first; a synchronous run's is 0), then ctx's deadline, then
// this call, and once the place is granted a slot or ctx ends calls start
// with a context holding it, on whichever goroutine did so: start must
// not block, and the e.Run it starts with that context runs on the slot
// or fails with ctx's error. A cache hit, a coalesced follower or the end
// of ctx gives the slot up unused. A place is never shed.
func (e *Engine) Enqueue(ctx context.Context, priority int, start func(context.Context)) {
	q := &e.queue
	w := &waiter{priority: priority}
	w.deadline, _ = ctx.Deadline()
	placed := context.WithValue(ctx, q, w)
	w.start = func() { start(placed) }
	q.mu.Lock()
	started := q.pushLocked(w)
	q.mu.Unlock()
	if started != nil {
		started()
	}
	context.AfterFunc(ctx, func() { q.withdraw(w) })
}

// leave gives up the place ctx holds, if any.
func (q *admission) leave(ctx context.Context) {
	if w, _ := ctx.Value(q).(*waiter); w != nil {
		q.withdraw(w)
	}
}

// admission is the Engine's admission queue plus its telemetry.
type admission struct {
	workers, queueLimit int // 0: no bound

	mu    sync.Mutex
	busy  int       // slots held, by runs and by granted places not yet claimed
	queue []*waiter // in admission order
	seq   uint64
	// waiting counts the waiters a synchronous run queues behind: all but
	// low-priority ones. Written under mu.
	waiting atomic.Int64

	queuedRuns  atomic.Uint64
	queueWaitNS atomic.Int64
	rejected    atomic.Uint64
}

// waiter is one place in the queue; q.mu guards it once pushed.
type waiter struct {
	priority     int
	deadline     time.Time
	seq          uint64
	queued, held bool          // held: granted a slot no run has claimed yet
	ready        chan struct{} // closed by the grant; nil until a run waits on it
	since        time.Time
	wait         time.Duration
	start        func() // Enqueue's, until called; nil for a synchronous run
}

// before is the admission order: priority (high first), then deadline
// (earliest first, none last), then arrival.
func (w *waiter) before(o *waiter) bool {
	if w.priority != o.priority {
		return w.priority > o.priority
	}
	if !w.deadline.Equal(o.deadline) {
		return !w.deadline.IsZero() && (o.deadline.IsZero() || w.deadline.Before(o.deadline))
	}
	return w.seq < o.seq
}

// admit blocks until the run holds a worker slot (or ctx fires while it
// queues), returning how long it queued; a synchronous run that finds
// WithQueueLimit waiters ahead fails fast with ErrOverloaded.
func (q *admission) admit(ctx context.Context) (time.Duration, error) {
	w, _ := ctx.Value(q).(*waiter)
	if w == nil && q.workers == 0 {
		return 0, nil
	}
	q.mu.Lock()
	switch {
	case w == nil && q.busy < q.workers:
		q.busy++
		q.mu.Unlock()
		return 0, nil
	case w == nil:
		if q.queueLimit > 0 && q.waiting.Load() >= int64(q.queueLimit) {
			q.mu.Unlock()
			q.rejected.Add(1)
			return 0, fmt.Errorf("%w (%d queued)", ErrOverloaded, q.queueLimit)
		}
		w = &waiter{}
		w.deadline, _ = ctx.Deadline()
		q.pushLocked(w)
	case w.held:
		// The place's slot, granted before its run started: claim it.
		w.held = false
		q.mu.Unlock()
		return w.wait, nil
	case !w.queued && ctx.Err() == nil:
		// A place given up unclaimed — a coalesced follower's, whose
		// leader failed — takes its old order again.
		q.pushLocked(w)
	}
	q.mu.Unlock()
	select {
	case <-w.ready:
	case <-drainSignal(ctx):
		q.withdraw(w)
		return 0, ErrDraining
	case <-ctx.Done():
		q.withdraw(w)
		return 0, fmt.Errorf("pushpull: canceled in admission queue: %w", ctx.Err())
	}
	// Claim the slot: a withdrawal at the end of ctx may have taken it.
	q.mu.Lock()
	held := w.held
	w.held = false
	q.mu.Unlock()
	if !held {
		return 0, fmt.Errorf("pushpull: canceled in admission queue: %w", ctx.Err())
	}
	return w.wait, nil
}

// pushLocked grants w a slot if one is free, else queues it in order,
// returning the start to call once q.mu is released.
func (q *admission) pushLocked(w *waiter) (start func()) {
	if w.seq == 0 {
		q.seq++
		w.seq = q.seq
	}
	if w.wait = 0; w.start == nil { // a run waits on it
		w.ready = make(chan struct{})
	}
	if q.workers == 0 || q.busy < q.workers {
		return q.grantLocked(w)
	}
	i := sort.Search(len(q.queue), func(i int) bool { return w.before(q.queue[i]) })
	q.queue = slices.Insert(q.queue, i, w)
	w.queued, w.since = true, time.Now()
	if w.priority >= 0 {
		q.waiting.Add(1)
	}
	q.queuedRuns.Add(1)
	return nil
}

// grantLocked gives w a slot, returning its start if not yet called.
func (q *admission) grantLocked(w *waiter) (start func()) {
	if q.workers > 0 {
		q.busy++
	}
	w.held = true
	if w.ready != nil {
		close(w.ready)
	}
	start, w.start = w.start, nil
	return start
}

// dequeueLocked takes w out of the queue (by search: it is in before
// order; the head, without moving the rest), charging its wait.
func (q *admission) dequeueLocked(w *waiter) {
	if i := sort.Search(len(q.queue), func(i int) bool { return !q.queue[i].before(w) }); i == 0 {
		q.queue[0] = nil
		q.queue = q.queue[1:]
	} else {
		q.queue = slices.Delete(q.queue, i, i+1)
	}
	w.queued = false
	if w.priority >= 0 {
		q.waiting.Add(-1)
	}
	w.wait = time.Since(w.since)
	q.queueWaitNS.Add(int64(w.wait))
}

// withdraw gives w's place up: out of the queue, or its unclaimed slot to
// the next waiter. A place not yet started starts, to meet its ctx's end.
func (q *admission) withdraw(w *waiter) {
	q.mu.Lock()
	held := w.held
	if w.queued {
		q.dequeueLocked(w)
	}
	start := w.start
	w.held, w.start = false, nil
	q.mu.Unlock()
	if held {
		q.release()
	}
	if start != nil {
		start()
	}
}

// release frees a slot and grants it to the first waiter.
func (q *admission) release() {
	if q.workers == 0 {
		return
	}
	q.mu.Lock()
	q.busy--
	var start func()
	if len(q.queue) > 0 {
		w := q.queue[0]
		q.dequeueLocked(w)
		start = q.grantLocked(w)
	}
	q.mu.Unlock()
	if start != nil {
		start()
	}
}

// ---- single-flight ----

// flight is one in-progress run other requests may coalesce onto. done is
// closed after rep/err are set and the flight is removed from the map.
type flight struct {
	done chan struct{}
	// rep is a private snapshot of the leader's completed report, nil
	// when the run failed or was canceled (followers then retry instead
	// of propagating a partial result).
	rep *Report
	err error
	// waiters counts the followers that joined (under sfMu); nothing in
	// the engine reads it — tests order "follower parked" on it instead of
	// sleeping.
	waiters int
}

// coalesce joins or creates the flight for key, returning either the
// finished report (follower: the leader's result, flagged Coalesced; or
// a cache hit from a leader that completed between the caller's cache
// probe and here) or a non-nil flight the caller now leads and must
// resolve.
func (e *Engine) coalesce(ctx context.Context, key string) (*Report, error, *flight) {
	for {
		e.sfMu.Lock()
		if f, ok := e.inflight[key]; ok {
			f.waiters++
			e.sfMu.Unlock()
			// A follower needs no slot: a place it took with Enqueue goes
			// to the next waiter while it parks (admit takes it back if the
			// leader fails and this call must run after all).
			e.queue.leave(ctx)
			select {
			case <-f.done:
			case <-ctx.Done():
				return nil, fmt.Errorf("pushpull: canceled awaiting coalesced run: %w", ctx.Err()), nil
			}
			if f.rep != nil {
				e.coalesced.Add(1)
				return coalescedCopy(f.rep), nil, nil
			}
			// The leader failed or was canceled: its outcome is not a
			// completed result, so race for leadership and run for real.
			continue
		}
		// No flight — but a leader may have finished since the caller's
		// cache probe. Leaders cache their result before deregistering
		// (both under this mutex's ordering), so re-probing here is
		// race-free: if the cache misses now, no identical run completed,
		// and taking leadership cannot duplicate one.
		if e.cache != nil {
			if rep, hit := e.cacheGet(key); hit {
				e.sfMu.Unlock()
				e.hits.Add(1)
				e.queue.leave(ctx)
				return cachedCopy(rep), nil, nil
			}
		}
		f := &flight{done: make(chan struct{})}
		e.inflight[key] = f
		e.sfMu.Unlock()
		return nil, nil, f
	}
}

// resolve publishes the leader's outcome and wakes every follower. Only a
// complete result is shared; failures leave rep nil so followers rerun.
func (e *Engine) resolve(key string, f *flight, rep *Report, err error) {
	if err == nil && rep != nil && !rep.Stats.Canceled {
		snap := *rep
		f.rep = &snap
	}
	f.err = err
	e.sfMu.Lock()
	delete(e.inflight, key)
	e.sfMu.Unlock()
	close(f.done)
}

// coalescedCopy is the per-follower view of a leader's report: a shallow
// copy flagged Coalesced, sharing the (read-only) payload while keeping
// the leading run's timings visible.
func coalescedCopy(rep *Report) *Report {
	cp := *rep
	cp.Stats.Coalesced = true
	cp.Stats.QueueWait = 0
	return &cp
}
