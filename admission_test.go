package pushpull_test

// Admission-queue tests, run under -race in CI: one ordered queue for
// synchronous runs and places taken with Engine.Enqueue — priority, then
// deadline, then arrival — whose grant starts the place's run, whose
// places leave unused when the engine answers without admission, and
// whose queue limit sheds synchronous runs only.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pushpull"
)

// orderAlgo records each run's tag (the Iterations option) in admission
// order; tags passed to orderGate park until released or their context
// ends. orderActive and orderPeak count the runs inside it.
var (
	orderMu    sync.Mutex
	orderSeen  []int
	orderGates map[int]chan struct{}
	orderOnce  sync.Once

	orderActive, orderPeak atomic.Int64
)

type orderAlgo struct{}

func (orderAlgo) Name() string        { return "test-order" }
func (orderAlgo) Describe() string    { return "test-only: records admission order, parks gated tags" }
func (orderAlgo) Caps() pushpull.Caps { return pushpull.Caps{} }
func (orderAlgo) Run(ctx context.Context, w *pushpull.Workload, cfg *pushpull.Config) (*pushpull.Report, error) {
	active := orderActive.Add(1)
	defer orderActive.Add(-1)
	for peak := orderPeak.Load(); active > peak && !orderPeak.CompareAndSwap(peak, active); peak = orderPeak.Load() {
	}
	orderMu.Lock()
	orderSeen = append(orderSeen, cfg.Iterations)
	gate := orderGates[cfg.Iterations]
	orderMu.Unlock()
	if gate != nil {
		select {
		case <-gate:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return &pushpull.Report{Result: []float64{1}, Stats: pushpull.RunStats{Iterations: 1}}, nil
}

// orderEngine resets the record and builds an engine with opts over a
// small workload for orderAlgo.
func orderEngine(t *testing.T, opts ...pushpull.EngineOption) (*pushpull.Engine, *pushpull.Workload) {
	t.Helper()
	orderOnce.Do(func() { pushpull.MustRegister(orderAlgo{}) })
	orderMu.Lock()
	orderSeen, orderGates = nil, map[int]chan struct{}{}
	orderMu.Unlock()
	orderPeak.Store(0)
	return pushpull.NewEngine(opts...), pushpull.NewWorkload(undirectedGraph(t, 40, 3))
}

// orderGate makes runs tagged tag park until the returned func is called.
func orderGate(tag int) (release func()) {
	ch := make(chan struct{})
	orderMu.Lock()
	orderGates[tag] = ch
	orderMu.Unlock()
	var once sync.Once
	return func() { once.Do(func() { close(ch) }) }
}

func orderSeenNow() []int {
	orderMu.Lock()
	defer orderMu.Unlock()
	return append([]int(nil), orderSeen...)
}

// runs starts orderAlgo runs on its own goroutines and collects them.
type runs struct {
	eng *pushpull.Engine
	w   *pushpull.Workload
	wg  sync.WaitGroup
	mu  sync.Mutex
	out map[int]result
}

type result struct {
	rep *pushpull.Report
	err error
}

func newRuns(eng *pushpull.Engine, w *pushpull.Workload) *runs {
	return &runs{eng: eng, w: w, out: map[int]result{}}
}

func (r *runs) start(ctx context.Context, tag int) {
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		rep, err := r.eng.Run(ctx, r.w, "test-order", pushpull.WithIterations(tag))
		r.mu.Lock()
		r.out[tag] = result{rep, err}
		r.mu.Unlock()
	}()
}

func (r *runs) wait() map[int]result {
	r.wg.Wait()
	return r.out
}

// waitFor polls cond for up to ten seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// holdSlot starts a run tagged 0 and returns once it holds a slot.
func (r *runs) holdSlot(t *testing.T) (release func()) {
	t.Helper()
	release = orderGate(0)
	r.start(context.Background(), 0)
	waitFor(t, "the slot is held", func() bool { return len(orderSeenNow()) > 0 })
	return release
}

// waiting waits until n runs wait ahead of a synchronous one.
func waiting(t *testing.T, eng *pushpull.Engine, n int64) {
	t.Helper()
	waitFor(t, fmt.Sprintf("%d runs wait", n), func() bool { return eng.Stats().Waiting == n })
}

// TestAdmissionPriorityOrder: one queue for runs and places, admitted by
// priority, then deadline, then arrival — a place arrives when it is
// taken, and its run starts only when its slot is granted.
func TestAdmissionPriorityOrder(t *testing.T) {
	eng, w := orderEngine(t, pushpull.WithWorkers(1), pushpull.WithResultCache(0), pushpull.WithSingleFlight(false))
	r := newRuns(eng, w)
	release := r.holdSlot(t)
	defer release()

	var hooksMu sync.Mutex
	var hooks []int
	place := func(ctx context.Context, tag, priority int) {
		eng.Enqueue(ctx, priority, func(ctx context.Context) {
			hooksMu.Lock()
			hooks = append(hooks, tag)
			hooksMu.Unlock()
			r.start(ctx, tag)
		})
	}
	r.start(context.Background(), 1)
	waiting(t, eng, 1)
	// The places are taken here, in this order; no run of theirs exists yet.
	place(context.Background(), 10, -1)
	place(context.Background(), 30, 1)
	far, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	place(far, 21, 0)
	place(context.Background(), 20, 0)
	waiting(t, eng, 4)
	hooksMu.Lock()
	if len(hooks) != 0 {
		t.Errorf("places %v started while the slot was held", hooks)
	}
	hooksMu.Unlock()
	r.start(context.Background(), 2)
	waiting(t, eng, 5)

	release()
	for tag, res := range r.wait() {
		if res.err != nil {
			t.Errorf("run %d: %v", tag, res.err)
		}
	}
	if got, want := fmt.Sprint(orderSeenNow()), fmt.Sprint([]int{0, 30, 21, 1, 20, 2, 10}); got != want {
		t.Errorf("admission order %s, want %s", got, want)
	}
	if got, want := fmt.Sprint(hooks), fmt.Sprint([]int{30, 21, 20, 10}); got != want {
		t.Errorf("places started %s, want %s", got, want)
	}
	if st := eng.Stats(); st.Waiting != 0 || st.QueuedRuns != 6 {
		t.Errorf("stats %+v, want nothing waiting and 6 queued runs", st)
	}
}

// TestAdmissionUnclaimedSlotPasses: a place whose run never claims its
// granted slot gives it back when its context ends, and the slot goes on
// to the next waiter.
func TestAdmissionUnclaimedSlotPasses(t *testing.T) {
	eng, w := orderEngine(t, pushpull.WithWorkers(1), pushpull.WithResultCache(0), pushpull.WithSingleFlight(false))
	r := newRuns(eng, w)
	release := r.holdSlot(t)
	defer release()

	ctx, refuse := context.WithCancel(context.Background())
	eng.Enqueue(ctx, 1, func(context.Context) { refuse() })
	r.start(context.Background(), 1)
	waiting(t, eng, 2)
	release()
	if out := r.wait(); out[1].err != nil {
		t.Errorf("run behind the unclaimed place: %v", out[1].err)
	}
	if got, want := fmt.Sprint(orderSeenNow()), "[0 1]"; got != want {
		t.Errorf("runs executed %s, want %s", got, want)
	}
	if rep, err := eng.Run(context.Background(), w, "test-order", pushpull.WithIterations(2)); err != nil || rep.Stats.QueueWait != 0 {
		t.Errorf("run on the idle engine: %v, queue wait %v; want a free slot", err, rep.Stats.QueueWait)
	}
}

// TestAdmissionPlaceLeavesUnused: a place gives its slot up without its
// run executing when its context ends in the queue, when the engine
// answers its run from the cache, and while its run waits on an identical
// run as a coalesced follower — even one queued behind the place itself.
func TestAdmissionPlaceLeavesUnused(t *testing.T) {
	eng, w := orderEngine(t, pushpull.WithWorkers(1))
	r := newRuns(eng, w)
	place := func(ctx context.Context, tag, priority int) {
		eng.Enqueue(ctx, priority, func(ctx context.Context) { r.start(ctx, tag) })
	}

	// Canceled in the queue: the run starts, and fails.
	release := r.holdSlot(t)
	ctx, cancel := context.WithCancel(context.Background())
	place(ctx, 3, 0)
	waiting(t, eng, 1)
	cancel()
	waiting(t, eng, 0)

	// A follower of the identical run queued behind it: the follower's
	// place, granted first, must not hold the slot that run waits for.
	r.start(context.Background(), 4)
	waiting(t, eng, 1)
	followCtx, stop := context.WithCancel(context.Background())
	defer stop()
	place(followCtx, 4, 1)
	waiting(t, eng, 2)
	release()
	out := r.wait()
	if !errors.Is(out[3].err, context.Canceled) {
		t.Errorf("run canceled in the queue: %v, want context.Canceled", out[3].err)
	}
	if res := out[4]; res.err != nil || res.rep == nil {
		t.Errorf("leader or coalesced follower: %v", res.err)
	}
	if st := eng.Stats(); st.Coalesced != 1 {
		t.Errorf("stats %+v, want 1 coalesced", st)
	}

	// A cache hit, on a place granted at once (so its start is called
	// before Enqueue returns) and whose context stays live.
	var placed context.Context
	eng.Enqueue(context.Background(), 0, func(ctx context.Context) { placed = ctx })
	rep, err := eng.Run(placed, w, "test-order", pushpull.WithIterations(4))
	if err != nil || !rep.Stats.CacheHit {
		t.Fatalf("run on a cached result: %v, cache hit %v", err, rep != nil && rep.Stats.CacheHit)
	}
	// The slot the place was granted is free again: this run would wait
	// for it until its deadline otherwise.
	short, cancelShort := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancelShort()
	if _, err := eng.Run(short, w, "test-order", pushpull.WithIterations(5)); err != nil {
		t.Errorf("run after the cache hit: %v", err)
	}
	if got, want := fmt.Sprint(orderSeenNow()), "[0 4 5]"; got != want {
		t.Errorf("runs executed %s, want %s", got, want)
	}
}

// TestAdmissionQueueLimitShedsOnlySyncRuns: WithQueueLimit counts the
// waiters a synchronous run would queue behind — low-priority places do
// not count — and sheds synchronous runs only; a place is never shed.
func TestAdmissionQueueLimitShedsOnlySyncRuns(t *testing.T) {
	eng, w := orderEngine(t, pushpull.WithWorkers(1), pushpull.WithQueueLimit(1),
		pushpull.WithResultCache(0), pushpull.WithSingleFlight(false))
	r := newRuns(eng, w)
	release := r.holdSlot(t)
	defer release()
	place := func(tag, priority int) {
		eng.Enqueue(context.Background(), priority, func(ctx context.Context) { r.start(ctx, tag) })
	}

	place(10, -1)
	waiting(t, eng, 0)
	r.start(context.Background(), 1) // not shed: only a low place waits
	waiting(t, eng, 1)
	if _, err := eng.Run(context.Background(), w, "test-order", pushpull.WithIterations(2)); !errors.Is(err, pushpull.ErrOverloaded) {
		t.Errorf("synchronous run with one ahead under limit 1: %v, want ErrOverloaded", err)
	}
	place(20, 0)
	waiting(t, eng, 2)
	release()
	for tag, res := range r.wait() {
		if res.err != nil {
			t.Errorf("run %d: %v", tag, res.err)
		}
	}
	if got, want := fmt.Sprint(orderSeenNow()), "[0 1 20 10]"; got != want {
		t.Errorf("admission order %s, want %s", got, want)
	}
	if st := eng.Stats(); st.Rejected != 1 {
		t.Errorf("stats %+v, want 1 rejected", st)
	}
}

// TestAdmissionUnboundedGrantsPlacesAtOnce: an unbounded engine admits
// every place at once, as it admits every run, starting its run at once.
func TestAdmissionUnboundedGrantsPlacesAtOnce(t *testing.T) {
	eng, w := orderEngine(t, pushpull.WithWorkers(0), pushpull.WithResultCache(0), pushpull.WithSingleFlight(false))
	r := newRuns(eng, w)
	var hooks atomic.Int64
	const n = 4
	var releases []func()
	for tag := 1; tag <= n; tag++ {
		releases = append(releases, orderGate(tag))
		eng.Enqueue(context.Background(), 0, func(ctx context.Context) { hooks.Add(1); r.start(ctx, tag) })
	}
	waitFor(t, "every place runs", func() bool { return orderActive.Load() == n })
	for _, release := range releases {
		release()
	}
	r.wait()
	if hooks.Load() != n || orderPeak.Load() != n || eng.Stats().QueuedRuns != 0 {
		t.Errorf("%d hooks, %d runs at once, %d queued; want %d, %d, 0", hooks.Load(), orderPeak.Load(), eng.Stats().QueuedRuns, n, n)
	}
}
