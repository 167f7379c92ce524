package pushpull

// Admission and single-flight deduplication: the two request-level
// scheduling layers the Engine puts in front of its kernels.
//
// Admission is one queue per Engine. Each kernel already spreads over
// GOMAXPROCS threads, so splitting one process's runs over several queues
// would isolate queues, not cores; spreading graphs over capacity is the
// distribution layer's job, and the cluster router does it across
// processes. The queue bounds concurrent runs (WithWorkers), sheds load
// past a depth (WithQueueLimit) and fails queued runs on shutdown
// (WithDrainSignal).
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
	"sync/atomic"
	"time"
)

// ErrOverloaded: a run was rejected because the Engine's admission queue
// already holds WithQueueLimit waiters. It is the engine's truthful
// overload signal — serving fronts map it to 429 + Retry-After so a
// cluster router can back off or fail over instead of queueing forever.
var ErrOverloaded = errors.New("pushpull: admission queue full")

// ErrDraining: a queued (not-yet-admitted) run was failed because the
// process is shutting down. A draining engine finishes the runs already
// holding worker slots but refuses to start queued work — a serving front
// maps this to 503 so the client retries against a live replica instead
// of racing the shutdown timeout in a queue that will never move.
var ErrDraining = errors.New("pushpull: engine draining, queued run refused")

// drainKey is the context key of WithDrainSignal.
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

// admission is the Engine's admission queue plus its telemetry. A nil sem
// admits unboundedly (the default Engine).
type admission struct {
	sem chan struct{}
	// queueLimit bounds the number of runs waiting on sem; ≤ 0 queues
	// unboundedly. waiting tracks the current queue depth.
	queueLimit int
	waiting    atomic.Int64

	queuedRuns  atomic.Uint64
	queueWaitNS atomic.Int64
	rejected    atomic.Uint64
}

// admit blocks until a worker slot frees up (or ctx fires while
// queueing), returning how long the run waited. When the queue has a
// limit and that many runs are already waiting, admit fails fast with
// ErrOverloaded instead of joining the queue.
func (s *admission) admit(ctx context.Context) (time.Duration, error) {
	if s.sem == nil {
		return 0, nil
	}
	select {
	case s.sem <- struct{}{}:
		return 0, nil
	default:
	}
	// waiting is tracked unconditionally (not just under a queue limit):
	// it is the live queue depth behind the serving front's Retry-After
	// estimate and the queue_eta_ms stat.
	depth := s.waiting.Add(1)
	if s.queueLimit > 0 && depth > int64(s.queueLimit) {
		s.waiting.Add(-1)
		s.rejected.Add(1)
		return 0, fmt.Errorf("%w (%d queued)", ErrOverloaded, s.queueLimit)
	}
	defer s.waiting.Add(-1)
	s.queuedRuns.Add(1)
	start := time.Now()
	select {
	case s.sem <- struct{}{}:
		wait := time.Since(start)
		s.queueWaitNS.Add(int64(wait))
		return wait, nil
	case <-drainSignal(ctx):
		s.queueWaitNS.Add(int64(time.Since(start)))
		return 0, ErrDraining
	case <-ctx.Done():
		s.queueWaitNS.Add(int64(time.Since(start)))
		return 0, fmt.Errorf("pushpull: canceled in admission queue: %w", ctx.Err())
	}
}

func (s *admission) release() {
	if s.sem != nil {
		<-s.sem
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
