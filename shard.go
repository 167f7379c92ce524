package pushpull

// Shard executors and single-flight deduplication: the two request-level
// scheduling layers the sharded Engine adds over PR 4's flat worker pool.
//
// The paper's §6 point is that the push/pull choice is ultimately about
// *where* communication happens — partitioning work so each executor owns
// its share. The Engine applies the same idea one level up: registered
// workloads are placed across shard executors by content identity (and
// partition-aware runs by the identity of the PA split they use), each
// shard owning its own admission queue. A burst of requests against one
// hot graph then queues on that graph's shard alone instead of
// head-of-line-blocking every other graph behind one global semaphore.
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
	"hash/fnv"
	"io"
	"sync/atomic"
	"time"
)

// ErrOverloaded: a run was rejected because the owning shard's admission
// queue already holds WithQueueLimit waiters. It is the engine's truthful
// overload signal — serving fronts map it to 429 + Retry-After so a
// cluster router can back off or fail over instead of queueing forever.
var ErrOverloaded = errors.New("pushpull: shard admission queue full")

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

// shard is one executor: an admission queue plus its telemetry. A nil sem
// admits unboundedly (the default Engine).
type shard struct {
	sem chan struct{}
	// queueLimit bounds the number of runs waiting on sem; ≤ 0 queues
	// unboundedly. waiting tracks the current queue depth.
	queueLimit int
	waiting    atomic.Int64

	runs        atomic.Uint64
	queuedRuns  atomic.Uint64
	queueWaitNS atomic.Int64
	rejected    atomic.Uint64
}

func newShards(n, workers, queueLimit int) []*shard {
	if n < 1 {
		n = 1
	}
	shards := make([]*shard, n)
	for i := range shards {
		sh := &shard{queueLimit: queueLimit}
		if workers > 0 {
			sh.sem = make(chan struct{}, workers)
		}
		shards[i] = sh
	}
	return shards
}

// admit blocks until a worker slot frees up on this shard (or ctx fires
// while queueing), returning how long the run waited. When the shard has
// a queue limit and that many runs are already waiting, admit fails fast
// with ErrOverloaded instead of joining the queue.
func (s *shard) admit(ctx context.Context) (time.Duration, error) {
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

func (s *shard) release() {
	if s.sem != nil {
		<-s.sem
	}
}

// shardFor places a run: the shard owning the workload's content — or,
// for a partition-aware run, the shard owning that workload's PA split
// for the resolved partition count, so repeated PA runs over one layout
// always land together and their memoized split is hot on one queue.
// Placement only exists to spread load deterministically; every shard can
// execute every run (the Workload's derived views are shared state).
func (e *Engine) shardFor(w *Workload, cfg *Config) *shard {
	if len(e.shards) == 1 {
		return e.shards[0]
	}
	key := w.ID()
	if cfg.PartitionAware {
		key = fmt.Sprintf("%s|pa=%d", key, cfg.partitions(w))
	}
	return e.shards[int(PlacementHash(key)%uint64(len(e.shards)))]
}

// PlacementHash is the deterministic digest (FNV-1a, 64-bit) behind every
// placement decision in the system: the Engine places workloads on shard
// executors by PlacementHash(content ID) mod shards, and the cluster
// tier's rendezvous placer (cluster.Placer) scores workers with
// PlacementHash(content ID + worker) — so in-process and cross-process
// placement agree on one hash and stay stable across restarts.
func PlacementHash(key string) uint64 {
	h := fnv.New64a()
	io.WriteString(h, key)
	return h.Sum64()
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
			if rep, hit, _ := e.cacheGet(key); hit {
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
