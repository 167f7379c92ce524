package pushpull

// The Engine: the long-lived serving object behind Run. A one-shot call
// pays the full price of its kernels every time; a production service
// amortizes — the paper's direction-derived state (in-CSR, PA splits) is
// already memoized per Workload handle, and the Engine adds the
// request-level layers on top:
//
//   - one admission queue: at most WithWorkers runs execute at once, the
//     rest wait (bounded by WithQueueLimit, shed past it with
//     ErrOverloaded),
//   - single-flight deduplication: concurrent identical requests coalesce
//     onto the one run already executing (followers report
//     Stats.Coalesced and run nothing), and
//   - an LRU result cache keyed on (stable Workload content identity,
//     algorithm name, canonical options fingerprint), bounded by the bytes
//     its entries hold (WithResultCacheBytes) and by their number
//     (WithResultCache), with explicit invalidation wired to graph
//     mutation: re-registering a name with different content drops the
//     replaced graph's cached results. Keys name immutable content, so an
//     entry never goes stale and nothing evicts it by age.
//
// A GraphStore attached with AttachStore makes the name→Workload registry
// durable: registrations write through, deletions propagate, and a fresh
// Engine attaching the same store restores every persisted graph.
//
// pushpull.Run is a thin call on a lazily-initialized default Engine, so
// every pre-Engine call site keeps compiling and behaving identically:
// the default Engine is unbounded, uncached and never coalesces,
// preserving the facade's one-shot timing semantics (benchmarks and the
// paper harness must measure real kernel runs, never cache hits or
// coalesced copies). Serving layers construct their own Engine and opt in:
//
//	eng := pushpull.NewEngine(pushpull.WithQueueLimit(1024))
//	rep1, _ := eng.Run(ctx, w, "pr", pushpull.WithIterations(20))
//	rep2, _ := eng.Run(ctx, w, "pr", pushpull.WithIterations(20))
//	// rep2.Stats.CacheHit == true; no kernel ran.

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultCacheCapacity is the result-cache size (entries) of NewEngine
// when WithResultCache does not override it.
const DefaultCacheCapacity = 128

// DefaultCacheBytes is the result-cache byte budget of NewEngine when
// WithResultCacheBytes does not override it. It is what makes the cache's
// footprint a property of the configuration: an entry cap alone holds
// capacity × (whatever the results weigh), so faster kernels retain more.
const DefaultCacheBytes = 64 << 20

// Engine is a long-lived run scheduler: a bounded admission queue,
// single-flight deduplication, an LRU result cache, and a (optionally
// persistent) name→Workload registry for serving fronts. An Engine is
// safe for concurrent use; the zero value is not valid — use NewEngine
// (or the package-level Run, which uses the default Engine).
type Engine struct {
	// queue admits every run that executes; cache hits and coalesced
	// followers never reach it.
	queue admission

	// singleFlight enables coalescing of concurrent identical requests.
	singleFlight bool
	sfMu         sync.Mutex
	inflight     map[string]*flight

	cacheMu sync.Mutex
	cache   *resultCache // nil when caching is disabled

	// mutMu serializes registry *mutations* end to end (map write +
	// store write-through), so concurrent PUT/DELETE on one name cannot
	// leave the store disagreeing with the registry. wlMu alone guards
	// the map, keeping lookups on the run path free of store I/O stalls.
	mutMu     sync.Mutex
	wlMu      sync.RWMutex
	workloads map[string]*Workload
	store     GraphStore // nil until AttachStore

	hits, misses, uncacheable atomic.Uint64
	coalesced, encodingHits   atomic.Uint64
}

// EngineOption configures NewEngine.
type EngineOption func(*engineConfig)

type engineConfig struct {
	workers      int
	cacheCap     int
	cacheBytes   int64
	queueLimit   int
	singleFlight bool
}

// WithWorkers bounds the Engine to n concurrent runs; excess runs wait in
// its admission queue (their wait is reported as Stats.QueueWait). n ≤ 0
// removes the bound. NewEngine's default is GOMAXPROCS — one kernel's
// thread pool per hardware context.
func WithWorkers(n int) EngineOption {
	return func(c *engineConfig) { c.workers = n }
}

// WithResultCache sets the LRU result-cache capacity in entries;
// capacity ≤ 0 disables result caching entirely. NewEngine's default is
// DefaultCacheCapacity. The entry cap is the secondary bound: the byte
// budget of WithResultCacheBytes usually evicts first.
func WithResultCache(capacity int) EngineOption {
	return func(c *engineConfig) { c.cacheCap = capacity }
}

// WithResultCacheBytes sets the result cache's byte budget. Every entry is
// charged the slice bytes of its payload when it is stored, plus the bytes
// of its memoized encoding at the moment Report.Encoding fills that slot;
// whenever the total exceeds the budget, entries are evicted from the
// least-recently-used end. The most-recently-used entry is never the
// victim, so a single result larger than the whole budget is still served
// hot and the overshoot is bounded to that one entry. n ≤ 0 removes the
// byte bound and leaves the entry cap alone in charge. NewEngine's default
// is DefaultCacheBytes.
func WithResultCacheBytes(n int64) EngineOption {
	return func(c *engineConfig) { c.cacheBytes = n }
}

// WithQueueLimit bounds the admission queue to n waiting runs: a run
// arriving while all workers are busy and n runs already wait fails
// fast with ErrOverloaded instead of queueing (the rejection is counted
// in EngineStats.Rejected). n ≤ 0 — the default — queues unboundedly.
// Only meaningful on a bounded Engine (WithWorkers > 0); an unbounded
// Engine never queues. This is the truthful overload signal a serving
// front needs: under sustained overload an unbounded queue grows without
// limit while every client times out, whereas a bounded one sheds load
// the moment it cannot serve it.
func WithQueueLimit(n int) EngineOption {
	return func(c *engineConfig) { c.queueLimit = n }
}

// WithSingleFlight toggles coalescing of concurrent identical requests
// (same workload content, algorithm, and cacheable options fingerprint)
// onto one underlying run. NewEngine enables it; the default Engine
// behind the package-level Run disables it so one-shot calls always
// execute for real.
func WithSingleFlight(enabled bool) EngineOption {
	return func(c *engineConfig) { c.singleFlight = enabled }
}

// NewEngine builds an Engine admitting GOMAXPROCS concurrent runs, with a
// result cache of at most DefaultCacheCapacity entries and
// DefaultCacheBytes bytes and single-flight deduplication enabled, then
// applies opts.
func NewEngine(opts ...EngineOption) *Engine {
	cfg := engineConfig{
		workers:      runtime.GOMAXPROCS(0),
		cacheCap:     DefaultCacheCapacity,
		cacheBytes:   DefaultCacheBytes,
		singleFlight: true,
	}
	for _, opt := range opts {
		opt(&cfg)
	}
	e := &Engine{
		singleFlight: cfg.singleFlight,
		inflight:     map[string]*flight{},
		workloads:    map[string]*Workload{},
	}
	e.queue.queueLimit = cfg.queueLimit
	if cfg.workers > 0 {
		e.queue.sem = make(chan struct{}, cfg.workers)
	}
	if cfg.cacheCap > 0 {
		e.cache = newResultCache(cfg.cacheCap, cfg.cacheBytes)
	}
	return e
}

var (
	defaultEngineOnce sync.Once
	defaultEngine     *Engine
)

// DefaultEngine returns the process-wide Engine behind the package-level
// Run, initializing it on first use. It is deliberately unbounded,
// uncached and non-coalescing — the facade's one-shot semantics (every
// Run measures a real kernel execution) predate the Engine and must
// survive it; a serving layer wanting admission control, result caching
// or deduplication builds its own Engine with NewEngine.
func DefaultEngine() *Engine {
	defaultEngineOnce.Do(func() {
		defaultEngine = NewEngine(WithWorkers(0), WithResultCache(0), WithSingleFlight(false))
	})
	return defaultEngine
}

// Run executes the named algorithm on a Runnable exactly like the
// package-level Run, routed through this Engine's result cache,
// single-flight deduplication and admission queue.
//
// A run is served from cache when all of the following hold: the Engine
// caches (WithResultCache > 0), the caller passed a *Workload handle (a
// bare *Graph is single-use, so hashing it every call would be pure
// overhead), the options fingerprint as cacheable (no WithIterationHook,
// WithProbes, or custom switch policy), and an
// identical (workload content, algorithm, options) run completed before
// and is still cached. Cache hits bypass admission and return a shallow
// copy of the cached Report with Stats.CacheHit set.
//
// When the same key is already executing on a single-flight Engine, the
// call coalesces: it waits for that run and returns a shallow copy of its
// Report with Stats.Coalesced set, consuming no worker slot. Failed and
// canceled leading runs are never shared — followers rerun for real.
//
// On a caching or coalescing Engine the payload slices of a cacheable
// run are shared between the run that computed them and every hit or
// follower, so ALL callers — the first (miss) included — must treat them
// as read-only. Canceled (partial) runs and failed runs are never cached.
func (e *Engine) Run(ctx context.Context, on Runnable, algorithm string, opts ...Option) (*Report, error) {
	w, err := resolveWorkload(on)
	if err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	a, err := Lookup(algorithm)
	if err != nil {
		return nil, err
	}
	cfg := &Config{}
	for _, opt := range opts {
		opt(cfg)
	}
	if err := validateOptions(cfg); err != nil {
		return nil, err
	}
	if err := validateCaps(a, w, cfg); err != nil {
		return nil, err
	}

	// The run key doubles as the cache key and the single-flight key;
	// only *Workload handles with a cacheable fingerprint get one.
	_, isHandle := on.(*Workload)
	key := ""
	if isHandle && (e.cache != nil || e.singleFlight) {
		if fp, ok := cfg.fingerprint(); ok {
			key = w.ID() + "|" + a.Name() + "|" + fp
		}
	}
	// Every request lands in exactly one of the outcome counters: hit,
	// coalesced, miss (a cacheable run that executes), or uncacheable.
	cacheable := key != "" && e.cache != nil
	if !cacheable {
		e.uncacheable.Add(1)
	} else if rep, ok := e.cacheGet(key); ok {
		e.hits.Add(1)
		return cachedCopy(rep), nil
	}

	if key != "" && e.singleFlight {
		rep, err, f := e.coalesce(ctx, key)
		if f == nil {
			return rep, err // follower (Coalesced) or a late cache hit
		}
		// This call leads the flight: run, publish, wake the followers.
		if cacheable {
			e.misses.Add(1)
		}
		rep, err = e.runAdmitted(ctx, a, w, cfg, key)
		e.resolve(key, f, rep, err)
		return rep, err
	}
	if cacheable {
		e.misses.Add(1)
	}
	return e.runAdmitted(ctx, a, w, cfg, key)
}

// runAdmitted is the execution tail behind cache and single-flight: admit,
// execute, and cache a completed cacheable result.
func (e *Engine) runAdmitted(ctx context.Context, a Algorithm, w *Workload, cfg *Config, key string) (*Report, error) {
	wait, err := e.queue.admit(ctx)
	if err != nil {
		return nil, err
	}
	defer e.queue.release()

	rep, err := execute(ctx, a, w, cfg)
	if rep != nil {
		rep.Stats.QueueWait = wait
		if key != "" && e.cache != nil && err == nil && !rep.Stats.Canceled {
			// Store a snapshot of the struct so the miss-path caller
			// editing its Report fields cannot poison later hits. The
			// payload slices stay shared (deep-copying every result
			// shape would defeat the cache): on a caching Engine they
			// are read-only for every caller, miss and hit alike.
			snap := *rep
			e.cachePut(key, &snap)
		}
	}
	return rep, err
}

// execute is the dispatch tail shared by every Engine: capability checks
// are already done, so run the algorithm and normalize the Report.
func execute(ctx context.Context, a Algorithm, w *Workload, cfg *Config) (*Report, error) {
	rep, err := a.Run(ctx, w, cfg)
	if rep != nil {
		rep.Algorithm = a.Name()
		// Surface the cancellation only when the run actually stopped
		// early: a run that completed its final iteration just as ctx
		// fired — or an instrumented (WithProbes) run, which never
		// polls ctx — returns its complete result without error.
		if err == nil && rep.Stats.Canceled && ctx.Err() != nil {
			err = ctx.Err()
		}
	}
	return rep, err
}

// cachedCopy returns the per-request view of a cached report: a shallow
// copy flagged CacheHit, sharing the (read-only) payload of the original
// run while keeping that run's timings visible.
func cachedCopy(rep *Report) *Report {
	cp := *rep
	cp.Stats.CacheHit = true
	cp.Stats.QueueWait = 0
	return &cp
}

// Encoding is a serialized form of a Report's payload together with its
// lazily computed content hash.
type Encoding struct {
	Bytes []byte

	hashOnce sync.Once
	hash     string
}

// Hash returns the hex SHA-256 (first 128 bits) of Bytes: a name under
// which equal encodings can be stored once. Computed on first use.
func (e *Encoding) Hash() string {
	e.hashOnce.Do(func() {
		sum := sha256.Sum256(e.Bytes)
		e.hash = hex.EncodeToString(sum[:16])
	})
	return e.hash
}

// encodingMemo is the slot a result-cache entry keeps for the encoding of
// its payload. It is created empty with the entry and filled by the first
// hit that asks, so entries nobody hits retain no bytes; it is dropped
// with the entry.
type encodingMemo struct {
	mu  sync.Mutex // serializes builders; readers go through enc
	enc atomic.Pointer[Encoding]
	eng *Engine // the owning Engine: hit counter and byte accounting
	key string  // the cache key of the entry this slot belongs to
}

// Encoding returns the serialized form of the report's payload, calling
// build to produce it. A report served from an Engine's result cache
// (Stats.CacheHit) keeps the first build on its cache entry — every later
// hit of that entry gets the same bytes back without encoding anything.
// The entry is charged those bytes against the cache's byte budget
// (WithResultCacheBytes), and they are released when the entry is evicted
// or invalidated. Any other report (a miss, a coalesced copy,
// an uncached run) has no entry to keep it on: build runs on every call.
//
// The slot is single: all callers must pass builds that produce the same
// bytes for the same payload (the serving stack's one caller is
// api.Encode). The bytes are shared and read-only.
func (r *Report) Encoding(build func() []byte) *Encoding {
	m := r.memo
	if m == nil {
		return &Encoding{Bytes: build()}
	}
	enc, built := m.enc.Load(), false
	if enc == nil {
		enc, built = m.fill(build)
	}
	if !built {
		m.eng.encodingHits.Add(1)
		return enc
	}
	// Charged with m.mu already released: neither lock is ever taken while
	// the other is held. If they ever have to nest, the order is
	// encodingMemo.mu → cacheMu, never the reverse (cacheMu is held on the
	// hit path of every request).
	m.eng.cacheCharge(m, int64(len(enc.Bytes)))
	return enc
}

// fill returns the slot's encoding, building it if the slot is empty;
// built reports whether this call did.
func (m *encodingMemo) fill(build func() []byte) (enc *Encoding, built bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if enc := m.enc.Load(); enc != nil {
		return enc, false
	}
	enc = &Encoding{Bytes: build()}
	m.enc.Store(enc)
	return enc, true
}

func (e *Engine) cacheGet(key string) (*Report, bool) {
	e.cacheMu.Lock()
	defer e.cacheMu.Unlock()
	return e.cache.get(key)
}

// cachePut stores rep — the cache's own snapshot — with an empty encoding
// slot (see encodingMemo), charged its payload's bytes.
func (e *Engine) cachePut(key string, rep *Report) {
	rep.memo = &encodingMemo{eng: e, key: key}
	size := rep.payloadBytes()
	e.cacheMu.Lock()
	defer e.cacheMu.Unlock()
	e.cache.put(key, rep, size)
}

// cacheCharge adds the n bytes memo m just memoized to its entry's charge.
// The entry may be gone by now — evicted, invalidated, or
// overwritten by a newer run of the same key, which has its own memo —
// and then there is nothing to charge: the bytes die with the reports
// that still reference m.
func (e *Engine) cacheCharge(m *encodingMemo, n int64) {
	e.cacheMu.Lock()
	defer e.cacheMu.Unlock()
	e.cache.chargeEncoding(m, n)
}

// Invalidate drops every cached result computed on w's content, returning
// how many entries were removed. RegisterWorkload calls it automatically
// when a name is overwritten with different content; callers that mutate
// graph data in place behind a handle (unsupported but possible) or
// manage bindings outside the registry invalidate explicitly.
func (e *Engine) Invalidate(w *Workload) int {
	if w == nil || e.cache == nil {
		return 0
	}
	return e.invalidateID(w.ID())
}

// invalidateID removes all cache entries keyed under a content identity.
func (e *Engine) invalidateID(id string) int {
	if e.cache == nil {
		return 0
	}
	e.cacheMu.Lock()
	defer e.cacheMu.Unlock()
	return e.cache.invalidate(id + "|")
}

// EngineStats is a point-in-time snapshot of an Engine's serving
// telemetry.
type EngineStats struct {
	// CacheHits / CacheMisses count cacheable runs by outcome: a miss is
	// a cacheable run that actually executed. Together with Uncacheable
	// and Coalesced they partition all requests — a coalesced follower
	// counts only as Coalesced, never as a miss.
	CacheHits, CacheMisses uint64
	// Uncacheable counts runs that bypassed the cache (bare *Graph,
	// hooks, probes, caller-supplied PA layouts, custom policies, or a
	// cache-disabled Engine).
	Uncacheable uint64
	// Coalesced counts requests served by single-flight deduplication:
	// they joined an identical in-progress run instead of executing.
	Coalesced uint64
	// CacheEntries is the current number of cached reports. CacheBytes is
	// what they are charged against CacheBudget (WithResultCacheBytes; 0 =
	// no byte bound): payload slice bytes plus EncodingBytes. It exceeds
	// the budget by at most the most-recently-used entry's charge.
	CacheEntries int
	CacheBytes   int64
	CacheBudget  int64
	// EncodingHits counts Report.Encoding calls answered from a cache
	// entry's memoized bytes; EncodingBytes is what the live entries'
	// memos retain right now.
	EncodingHits  uint64
	EncodingBytes int64
	// Workers is the admission bound (WithWorkers): at most this many runs
	// execute at once. 0 means unbounded.
	Workers int
	// QueuedRuns counts runs that waited in the admission queue;
	// QueueWait is their cumulative wait. Waiting is the instantaneous
	// queue depth: unlike the cumulative counters it can go to zero
	// again, and serving fronts multiply it by the mean historical wait
	// to produce an honest Retry-After. Rejected counts runs shed with
	// ErrOverloaded under WithQueueLimit.
	QueuedRuns uint64
	QueueWait  time.Duration
	Waiting    int64
	Rejected   uint64
}

// Stats snapshots the Engine's cache, dedup and admission telemetry.
func (e *Engine) Stats() EngineStats {
	s := EngineStats{
		CacheHits:   e.hits.Load(),
		CacheMisses: e.misses.Load(),
		Uncacheable: e.uncacheable.Load(),
		Coalesced:   e.coalesced.Load(),

		EncodingHits: e.encodingHits.Load(),

		Workers:    cap(e.queue.sem),
		QueuedRuns: e.queue.queuedRuns.Load(),
		QueueWait:  time.Duration(e.queue.queueWaitNS.Load()),
		Waiting:    e.queue.waiting.Load(),
		Rejected:   e.queue.rejected.Load(),
	}
	if e.cache != nil {
		e.cacheMu.Lock()
		s.CacheEntries = e.cache.ll.Len()
		s.CacheBytes, s.EncodingBytes = e.cache.bytes, e.cache.encBytes
		e.cacheMu.Unlock()
		s.CacheBudget = e.cache.budget
	}
	return s
}

// ---- named workloads (the serving front's graph registry) ----

// RegisterWorkload binds name to a Workload handle on this Engine,
// replacing any previous binding (PUT semantics — re-uploading a graph
// under the same name is how a serving front refreshes it). Overwriting a
// name with different content invalidates the replaced graph's cached
// results: the result cache keys on content identity, so those entries
// could never hit again and would otherwise squat in the LRU until
// evicted. With a store attached the binding is persisted write-through;
// a persistence failure is reported wrapped in ErrStore (the in-memory
// registration stands).
func (e *Engine) RegisterWorkload(name string, w *Workload) error {
	if name == "" {
		return fmt.Errorf("pushpull: RegisterWorkload with empty name")
	}
	if w == nil || !w.hasGraph() {
		return fmt.Errorf("pushpull: RegisterWorkload(%q) with nil workload", name)
	}
	id := w.ID() // outside the locks: first computation is O(n + m)
	e.mutMu.Lock()
	defer e.mutMu.Unlock()
	e.wlMu.Lock()
	old := e.workloads[name]
	e.workloads[name] = w
	st := e.store
	e.wlMu.Unlock()
	if old != nil && old.ID() != id {
		e.invalidateID(old.ID())
	}
	if st != nil {
		//pushpull:allow lockheld write-through under mutMu by design: registry, cache invalidation and store must agree in mutation order
		if err := st.Put(name, w); err != nil {
			return fmt.Errorf("%w: put %q: %v", ErrStore, name, err)
		}
		// A store may have persisted the graph in the out-of-core block
		// format (DiskStore above its block threshold). If so, swap the
		// binding to the store's reopened pure file handle: the uploaded
		// in-memory CSR becomes garbage, and every later run streams the
		// blocks instead of holding the graph resident — this is how an
		// upload larger than the memory budget stays servable.
		if oc, ok := st.(interface {
			OutOfCoreHandle(string) (*Workload, bool, error)
		}); ok && w.g != nil {
			//pushpull:allow lockheld swap-after-put under mutMu by design: the binding must not interleave with another mutation of the name
			if nw, swapped, err := oc.OutOfCoreHandle(name); err == nil && swapped {
				e.wlMu.Lock()
				e.workloads[name] = nw
				e.wlMu.Unlock()
			}
		}
	}
	return nil
}

// DropWorkload removes the binding for name, invalidates the graph's
// cached results, and deletes it from the attached store (if any). It
// reports whether the name was bound; a store failure is returned wrapped
// in ErrStore (the in-memory removal stands).
func (e *Engine) DropWorkload(name string) (bool, error) {
	e.mutMu.Lock()
	defer e.mutMu.Unlock()
	e.wlMu.Lock()
	w, ok := e.workloads[name]
	delete(e.workloads, name)
	st := e.store
	e.wlMu.Unlock()
	if !ok {
		return false, nil
	}
	e.invalidateID(w.ID())
	if st != nil {
		//pushpull:allow lockheld write-through under mutMu by design: registry, cache invalidation and store must agree in mutation order
		if err := st.Delete(name); err != nil {
			return true, fmt.Errorf("%w: delete %q: %v", ErrStore, name, err)
		}
	}
	return true, nil
}

// AttachStore wires a GraphStore behind the workload registry: every
// graph the store holds is restored into the registry now, and every
// later RegisterWorkload/DropWorkload writes through. Restored bindings
// overwrite same-named in-memory ones (the store is the durable truth),
// and restore fidelity is the store's — DiskStore round-trips everything
// but the machine-local kind (see its doc). Attach before serving
// traffic; attaching a second store replaces the first without migrating
// its contents.
func (e *Engine) AttachStore(s GraphStore) error {
	if s == nil {
		return fmt.Errorf("pushpull: AttachStore(nil)")
	}
	e.mutMu.Lock()
	defer e.mutMu.Unlock()
	//pushpull:allow lockheld restore-on-attach holds mutMu by design: no mutation may interleave with the store's snapshot
	names, err := s.Names()
	if err != nil {
		return fmt.Errorf("%w: listing: %v", ErrStore, err)
	}
	restored := make(map[string]*Workload, len(names))
	for _, name := range names {
		//pushpull:allow lockheld restore-on-attach holds mutMu by design: no mutation may interleave with the store's snapshot
		w, err := s.Get(name)
		if err != nil {
			return fmt.Errorf("%w: restore %q: %v", ErrStore, name, err)
		}
		restored[name] = w
	}
	e.wlMu.Lock()
	for name, w := range restored {
		e.workloads[name] = w
	}
	e.store = s
	e.wlMu.Unlock()
	return nil
}

// Workload returns the handle registered under name, if any.
func (e *Engine) Workload(name string) (*Workload, bool) {
	e.wlMu.RLock()
	defer e.wlMu.RUnlock()
	w, ok := e.workloads[name]
	return w, ok
}

// WorkloadNames lists the registered workload names, sorted.
func (e *Engine) WorkloadNames() []string {
	e.wlMu.RLock()
	defer e.wlMu.RUnlock()
	names := make([]string, 0, len(e.workloads))
	for n := range e.workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ---- LRU result cache ----

// resultCache is an LRU over completed Reports, bounded by an entry cap
// and a byte budget; the Engine guards it with cacheMu (hits mutate
// recency, so even reads write).
type resultCache struct {
	capacity int
	budget   int64      // ≤ 0: no byte bound
	ll       *list.List // front = most recently used
	entries  map[string]*list.Element

	// Running totals over the live entries, maintained by put,
	// chargeEncoding and remove: bytes is every entry's payload + enc,
	// encBytes the enc part alone.
	bytes, encBytes int64
}

type cacheEntry struct {
	key string
	rep *Report
	// What the entry is charged: its payload's slice bytes, fixed at put,
	// and its memoized encoding's bytes, 0 until chargeEncoding.
	payload, enc int64
}

func newResultCache(capacity int, budget int64) *resultCache {
	if budget < 0 {
		budget = 0
	}
	return &resultCache{capacity: capacity, budget: budget, ll: list.New(), entries: map[string]*list.Element{}}
}

func (c *resultCache) get(key string) (*Report, bool) {
	el, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).rep, true
}

// put stores rep under key, charged payload bytes, as the most recently
// used entry; a previous entry of the key is released first.
func (c *resultCache) put(key string, rep *Report, payload int64) {
	if el, ok := c.entries[key]; ok {
		c.remove(el)
	}
	c.entries[key] = c.ll.PushFront(&cacheEntry{key: key, rep: rep, payload: payload})
	c.bytes += payload
	c.evict()
}

// chargeEncoding charges n bytes to the live entry whose memo is m, if
// there still is one.
func (c *resultCache) chargeEncoding(m *encodingMemo, n int64) {
	el, ok := c.entries[m.key]
	if !ok {
		return
	}
	ent := el.Value.(*cacheEntry)
	if ent.rep.memo != m {
		return
	}
	ent.enc = n
	c.bytes += n
	c.encBytes += n
	c.evict()
}

// evict drops least-recently-used entries while either bound is exceeded.
// The front entry is never dropped: a result larger than the budget stays
// servable, alone.
func (c *resultCache) evict() {
	for c.ll.Len() > 1 && (c.ll.Len() > c.capacity || (c.budget > 0 && c.bytes > c.budget)) {
		c.remove(c.ll.Back())
	}
}

// invalidate removes every entry whose key starts with prefix (the
// "<workload id>|" form groups all results of one graph), returning the
// number removed.
func (c *resultCache) invalidate(prefix string) int {
	removed := 0
	var next *list.Element
	for el := c.ll.Front(); el != nil; el = next {
		next = el.Next()
		if strings.HasPrefix(el.Value.(*cacheEntry).key, prefix) {
			c.remove(el)
			removed++
		}
	}
	return removed
}

func (c *resultCache) remove(el *list.Element) {
	ent := c.ll.Remove(el).(*cacheEntry)
	delete(c.entries, ent.key)
	c.bytes -= ent.payload + ent.enc
	c.encBytes -= ent.enc
}
