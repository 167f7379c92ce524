// Package serve exposes a pushpull.Engine over HTTP: the serving front
// of the engine-centric architecture. One long-lived Engine owns the
// worker pool, the LRU result cache, and the registered Workload handles
// (with their memoized transposes, PA splits and statistics); this
// package is a thin JSON front over it — upload or register graphs once,
// then POST runs against them and let the engine amortize everything the
// paper shows is worth amortizing.
//
// Endpoints:
//
//	GET    /healthz        liveness probe
//	GET    /algorithms     the registry: name, description, caps
//	GET    /graphs         registered workloads: name, n, m, kind, id
//	PUT    /graphs/{name}  register a workload from a text edge list (the
//	                       WriteWorkload format) or, with Content-Type
//	                       CSRContentType, a binary CSR (the
//	                       WriteWorkloadCSR format a cluster router
//	                       replicates); either header's kind flags —
//	                       directed, weighted — are honored; persisted
//	                       when the engine has a store attached, and
//	                       overwriting a name with different content
//	                       invalidates the old graph's cached results
//	DELETE /graphs/{name}  drop a workload (registry, cache, and store)
//	POST   /run            {"graph": ..., "algorithm": ..., "options": {...}}
//	GET    /stats          engine cache, dedup and admission-queue telemetry
//
// Run responses carry the uniform Report lowered to JSON: the payload
// (ranks/counts/colors/parents+levels where the algorithm has one), the
// direction trace, and the run stats including cache_hit and
// queue_wait_ns — the serving layer is benchmarkable end to end.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"mime"
	"net/http"
	"strconv"
	"sync"
	"time"

	"pushpull"
	"pushpull/api"
	"pushpull/jobs"
)

// MaxGraphBytes is the default bound on a PUT /graphs upload body
// (override with WithMaxUpload).
const MaxGraphBytes = 1 << 30

// EpochHeader is the replication-epoch header a cluster router stamps on
// the PUT/DELETE mutations it fans out to worker replicas. A worker
// records the epoch per graph name and rejects any mutation carrying an
// epoch no newer than the recorded one with 409 Conflict — so a delayed
// or retried replication write can never overwrite (or resurrect) the
// content of a newer one, and every replica converges on the router's
// latest mutation. Requests without the header (direct clients) bypass
// the guard entirely.
const EpochHeader = "X-Cluster-Epoch"

// ContentIDHeader carries the content ID (Workload.ID) a cluster router
// computed for the graph it replicates. A worker that gets it compares
// it with the ID of the graph it decoded and refuses a mismatch with 400
// naming both, so a replica never serves other content than the router's
// catalog names.
const ContentIDHeader = "X-Cluster-Content-ID"

// CSRContentType is the media type of a PUT /graphs body in the binary
// CSR format (pushpull.WriteWorkloadCSR), the form a cluster router
// replicates uploads in. A body of any other accepted type is a text edge
// list.
const CSRContentType = "application/x-pushpull-csr"

// Server is an http.Handler serving one Engine.
type Server struct {
	eng *pushpull.Engine
	mux *http.ServeMux

	// jobs is the async job manager behind the /jobs endpoints; nil
	// when the server is synchronous-only (those routes then 404).
	jobs *jobs.Manager

	// draining is closed by Drain: queued (not-yet-admitted) runs fail
	// with 503 while in-flight ones finish.
	draining  chan struct{}
	drainOnce sync.Once

	// maxUpload bounds PUT /graphs bodies; exceeding it is a 413.
	maxUpload int64

	// epochMu guards epochs, the per-graph replication epochs of the
	// EpochHeader guard. It is held across the engine mutation of an
	// epoch-carrying request so two replication writes cannot interleave
	// check and apply.
	epochMu sync.Mutex
	epochs  map[string]uint64
}

// Option configures a Server.
type Option func(*Server)

// WithMaxUpload bounds PUT /graphs request bodies to n bytes (default
// MaxGraphBytes); a larger upload is refused with 413 before it can
// exhaust the worker's memory. n ≤ 0 keeps the default.
func WithMaxUpload(n int64) Option {
	return func(s *Server) {
		if n > 0 {
			s.maxUpload = n
		}
	}
}

// WithJobManager wires an async job manager into the server, enabling
// the /jobs endpoints (submission, status, result, cancel, listing).
// Without it those routes 404: a synchronous-only worker advertises no
// async surface.
func WithJobManager(m *jobs.Manager) Option {
	return func(s *Server) { s.jobs = m }
}

// New builds a Server over eng.
func New(eng *pushpull.Engine, opts ...Option) *Server {
	s := &Server{
		eng:       eng,
		mux:       http.NewServeMux(),
		draining:  make(chan struct{}),
		maxUpload: MaxGraphBytes,
		epochs:    map[string]uint64{},
	}
	for _, opt := range opts {
		opt(s)
	}
	s.mux.HandleFunc("GET /healthz", s.healthz)
	s.mux.HandleFunc("GET /algorithms", s.algorithms)
	s.mux.HandleFunc("GET /graphs", s.graphs)
	s.mux.HandleFunc("PUT /graphs/{name}", s.putGraph)
	s.mux.HandleFunc("DELETE /graphs/{name}", s.deleteGraph)
	s.mux.HandleFunc("POST /run", s.run)
	s.mux.HandleFunc("GET /stats", s.stats)
	if s.jobs != nil {
		s.mux.HandleFunc("POST /jobs", s.submitJobs)
		s.mux.HandleFunc("GET /jobs", s.listJobs)
		s.mux.HandleFunc("GET /jobs/{id}", s.jobStatus)
		s.mux.HandleFunc("GET /jobs/{id}/result", s.jobResult)
		s.mux.HandleFunc("DELETE /jobs/{id}", s.cancelJob)
	}
	return s
}

// Drain puts the server into shutdown mode: runs already holding a
// worker slot finish normally, but runs parked in (or newly reaching)
// the admission queue fail immediately with 503 — a queue that will
// never move must not race the shutdown timeout. Call before
// http.Server.Shutdown; idempotent. Async jobs are unaffected (stop
// their Manager separately).
func (s *Server) Drain() {
	s.drainOnce.Do(func() { close(s.draining) })
}

// Jobs returns the job manager behind the /jobs endpoints, nil if none.
func (s *Server) Jobs() *jobs.Manager { return s.jobs }

// Engine returns the Engine the server fronts.
func (s *Server) Engine() *pushpull.Engine { return s.eng }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// ---- request/response shapes ----

// AlgorithmInfo is one GET /algorithms entry.
type AlgorithmInfo struct {
	Name        string `json:"name"`
	Description string `json:"description"`
	Caps        string `json:"caps"`
}

// GraphInfo is one GET /graphs entry (also the PUT /graphs response).
type GraphInfo struct {
	Name string `json:"name"`
	N    int    `json:"n"`
	M    int64  `json:"m"`
	Kind string `json:"kind"`
	ID   string `json:"id"`
}

// The run wire types live in pushpull/api (shared with pushpull/jobs and
// pushpull/cluster); the original serve names are kept as aliases so
// pre-jobs clients compile unchanged.

// RunRequest is the POST /run body.
type RunRequest = api.RunRequest

// RunOptions is the JSON projection of the engine's functional options.
type RunOptions = api.RunOptions

// RunResponse is the POST /run body on success.
type RunResponse = api.RunResponse

// RunStats is the JSON projection of the report's RunStats.
type RunStats = api.RunStats

// Floats is api.Floats: a float vector marshaling non-finite entries as
// null.
type Floats = api.Floats

// EngineStats is the GET /stats body. Workers is the engine's admission
// bound (0 = unbounded), which async jobs dispatch at most; Waiting is the
// instantaneous admission-queue depth (the cumulative counters only ever
// grow). QueueETAMS is the live estimate of how long a run arriving now
// would queue (depth × mean historical queue wait) — the same number 429
// responses send as Retry-After, rounded up to seconds there.
type EngineStats struct {
	CacheHits    uint64 `json:"cache_hits"`
	CacheMisses  uint64 `json:"cache_misses"`
	Uncacheable  uint64 `json:"uncacheable"`
	Coalesced    uint64 `json:"coalesced"`
	CacheEntries int    `json:"cache_entries"`
	// CacheBytes is what the cached results are charged — payload vectors
	// plus EncodedBytes — against CacheBudgetBytes (0 = no byte bound); the
	// engine evicts from the LRU tail to stay under it.
	CacheBytes       int64 `json:"cache_bytes"`
	CacheBudgetBytes int64 `json:"cache_budget_bytes"`
	// EncodedHits counts replies (POST /run hits and job results) whose
	// payload encoding came off a cache entry instead of being formatted;
	// EncodedBytes is what those memoized encodings hold right now.
	EncodedHits  uint64 `json:"encoded_hits"`
	EncodedBytes int64  `json:"encoded_bytes"`
	Workers      int    `json:"workers"`
	QueuedRuns   uint64 `json:"queued_runs"`
	QueueWaitNS  int64  `json:"queue_wait_ns"`
	Waiting      int64  `json:"waiting"`
	QueueETAMS   int64  `json:"queue_eta_ms"`
	Rejected     uint64 `json:"rejected"`
	Graphs       int    `json:"graphs"`
	// Jobs is the async job census and retention bookkeeping, present
	// when a job manager is wired.
	Jobs *jobs.Stats `json:"jobs,omitempty"`
}

type errorBody struct {
	Error string `json:"error"`
}

// ---- handlers ----

func (s *Server) healthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) algorithms(w http.ResponseWriter, r *http.Request) {
	names := pushpull.Algorithms()
	out := make([]AlgorithmInfo, 0, len(names))
	for _, n := range names {
		a, err := pushpull.Lookup(n)
		if err != nil {
			continue
		}
		out = append(out, AlgorithmInfo{Name: n, Description: a.Describe(), Caps: a.Caps().String()})
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) graphs(w http.ResponseWriter, r *http.Request) {
	names := s.eng.WorkloadNames()
	out := make([]GraphInfo, 0, len(names))
	for _, n := range names {
		if wl, ok := s.eng.Workload(n); ok {
			out = append(out, graphInfo(n, wl))
		}
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) putGraph(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	epoch, hasEpoch, err := epochFrom(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	csr, err := isCSR(r.Header.Get("Content-Type"))
	if err != nil {
		writeError(w, http.StatusUnsupportedMediaType, err)
		return
	}
	tooBig := func() {
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("upload exceeds the server's %d-byte graph limit; split the graph or raise -max-upload", s.maxUpload))
	}
	if csr && r.ContentLength > s.maxUpload {
		tooBig()
		return
	}
	body := http.MaxBytesReader(w, r.Body, s.maxUpload)
	var wl *pushpull.Workload
	if csr {
		// A declared length bounds what the header may claim, so a short
		// body claiming a huge graph is refused before any allocation.
		limit := s.maxUpload
		if r.ContentLength >= 0 {
			limit = min(limit, r.ContentLength)
		}
		wl, err = pushpull.ReadWorkloadCSR(body, limit)
	} else {
		wl, err = pushpull.ReadWorkload(body)
	}
	if err != nil {
		var maxErr *http.MaxBytesError
		if errors.As(err, &maxErr) {
			tooBig()
			return
		}
		what := "edge list"
		if csr {
			what = "CSR body"
		}
		writeError(w, http.StatusBadRequest, fmt.Errorf("parsing %s: %w", what, err))
		return
	}
	// The ID is memoized on the handle: registering it below costs no
	// second hash.
	if want := r.Header.Get(ContentIDHeader); want != "" && want != wl.ID() {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("content ID mismatch: the %s header names %s, the body hashes to %s", ContentIDHeader, want, wl.ID()))
		return
	}
	if hasEpoch {
		s.epochMu.Lock()
		defer s.epochMu.Unlock()
		if cur := s.epochs[name]; epoch <= cur {
			w.Header().Set(EpochHeader, strconv.FormatUint(cur, 10))
			writeError(w, http.StatusConflict,
				fmt.Errorf("stale cluster epoch %d for graph %q (current %d)", epoch, name, cur))
			return
		}
	}
	if err := s.eng.RegisterWorkload(name, wl); err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, pushpull.ErrStore) {
			// The graph is registered but not persisted: a server-side
			// fault, not a client mistake.
			status = http.StatusInternalServerError
		}
		writeError(w, status, err)
		return
	}
	if hasEpoch {
		s.epochs[name] = epoch
		w.Header().Set(EpochHeader, strconv.FormatUint(epoch, 10))
	}
	// Report the binding the engine actually serves: a store past its
	// memory budget swaps the upload for a pure out-of-core handle, and
	// the client should see that handle's kind and identity.
	if cur, ok := s.eng.Workload(name); ok {
		wl = cur
	}
	writeJSON(w, http.StatusCreated, graphInfo(name, wl))
}

func (s *Server) deleteGraph(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	epoch, hasEpoch, err := epochFrom(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if hasEpoch {
		s.epochMu.Lock()
		defer s.epochMu.Unlock()
		if cur := s.epochs[name]; epoch <= cur {
			w.Header().Set(EpochHeader, strconv.FormatUint(cur, 10))
			writeError(w, http.StatusConflict,
				fmt.Errorf("stale cluster epoch %d for graph %q (current %d)", epoch, name, cur))
			return
		}
		// Record the deletion epoch whether or not the name is bound, so
		// a delayed replication PUT from before this delete is fenced.
		s.epochs[name] = epoch
	}
	ok, err := s.eng.DropWorkload(name)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown graph %q", name))
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// isCSR reports whether a PUT /graphs Content-Type names the binary CSR
// format. A missing type, and the types clients send a text edge list
// as — text/plain, application/octet-stream (a generic byte stream), and
// application/x-www-form-urlencoded (curl's default for --data-binary) —
// name the text format; any other type is an error.
func isCSR(contentType string) (bool, error) {
	if contentType == "" {
		return false, nil
	}
	mt, _, err := mime.ParseMediaType(contentType)
	if err != nil {
		return false, fmt.Errorf("bad Content-Type %q: %w", contentType, err)
	}
	switch mt {
	case CSRContentType:
		return true, nil
	case "text/plain", "application/octet-stream", "application/x-www-form-urlencoded":
		return false, nil
	}
	return false, fmt.Errorf("unsupported Content-Type %q: send a text edge list or %s", mt, CSRContentType)
}

// epochFrom parses the optional EpochHeader of a cluster-replicated
// mutation.
func epochFrom(r *http.Request) (epoch uint64, ok bool, err error) {
	h := r.Header.Get(EpochHeader)
	if h == "" {
		return 0, false, nil
	}
	epoch, err = strconv.ParseUint(h, 10, 64)
	if err != nil {
		return 0, false, fmt.Errorf("bad %s header %q: %w", EpochHeader, h, err)
	}
	return epoch, true, nil
}

func (s *Server) run(w http.ResponseWriter, r *http.Request) {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	var req RunRequest
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("parsing run request: %w", err))
		return
	}
	if req.Graph == "" || req.Algorithm == "" {
		writeError(w, http.StatusBadRequest, errors.New(`"graph" and "algorithm" are required`))
		return
	}
	wl, ok := s.eng.Workload(req.Graph)
	if !ok {
		writeError(w, http.StatusNotFound,
			fmt.Errorf("unknown graph %q (registered: %v)", req.Graph, s.eng.WorkloadNames()))
		return
	}
	if _, err := pushpull.Lookup(req.Algorithm); err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	opts, err := req.Options.ToOptions()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// The drain signal rides the context so a queued (not-yet-admitted)
	// run fails the moment Drain is called, while admitted runs finish.
	ctx := pushpull.WithDrainSignal(r.Context(), s.draining)
	if req.Options.TimeoutMS > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.Options.TimeoutMS)*time.Millisecond)
		defer cancel()
	}
	rep, err := s.eng.Run(ctx, wl, req.Algorithm, opts...)
	if err != nil {
		if errors.Is(err, pushpull.ErrOverloaded) {
			// The engine shed this run instead of queueing it: tell the
			// client (or the cluster router, which fails over on 429)
			// when to come back rather than letting it queue forever.
			// The hint is honest — current queue depth × recent mean
			// queue wait — so clients back off longer as congestion
			// actually grows.
			w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(queueETA(s.eng.Stats()))))
			writeError(w, http.StatusTooManyRequests, err)
			return
		}
		if errors.Is(err, pushpull.ErrDraining) {
			// Shutting down: the queue this run was parked in will never
			// move again. 503 sends the client (or router) elsewhere.
			writeError(w, http.StatusServiceUnavailable, err)
			return
		}
		writeError(w, statusFor(err), err)
		return
	}
	// On an engine hit the tail — the payload, nearly all of the reply —
	// is the cache entry's memoized encoding: nothing is formatted, the
	// bytes are only written.
	reply := api.Encode(req.Graph, rep)
	writeBody(w, int64(reply.Len()), func() {
		w.Write(reply.Head)
		w.Write(reply.Tail.Bytes)
	})
}

func (s *Server) stats(w http.ResponseWriter, r *http.Request) {
	es := s.eng.Stats()
	out := EngineStats{
		CacheHits:    es.CacheHits,
		CacheMisses:  es.CacheMisses,
		Uncacheable:  es.Uncacheable,
		Coalesced:    es.Coalesced,
		CacheEntries: es.CacheEntries,

		CacheBytes:       es.CacheBytes,
		CacheBudgetBytes: es.CacheBudget,

		EncodedHits:  es.EncodingHits,
		EncodedBytes: es.EncodingBytes,
		Workers:      es.Workers,
		QueuedRuns:   es.QueuedRuns,
		QueueWaitNS:  int64(es.QueueWait),
		Waiting:      es.Waiting,
		QueueETAMS:   queueETA(es).Milliseconds(),
		Rejected:     es.Rejected,
		Graphs:       len(s.eng.WorkloadNames()),
	}
	if s.jobs != nil {
		js := s.jobs.Stats()
		out.Jobs = &js
	}
	writeJSON(w, http.StatusOK, out)
}

// queueETA estimates how long a run arriving now would wait: the live
// queue depth × the mean historical queue wait, capped at a minute (past
// that the number is a guess, not an estimate). Zero when nothing waits
// or no wait history exists yet.
func queueETA(es pushpull.EngineStats) time.Duration {
	if es.Waiting <= 0 || es.QueuedRuns == 0 {
		return 0
	}
	eta := time.Duration(es.Waiting) * (es.QueueWait / time.Duration(es.QueuedRuns))
	if eta > time.Minute {
		eta = time.Minute
	}
	return eta
}

// retryAfterSeconds rounds an ETA up to whole seconds (the Retry-After
// unit), at least 1: the floor of every 429's hint, and the whole hint
// while the queue has no wait history.
func retryAfterSeconds(eta time.Duration) int {
	secs := int((eta + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

// ---- lowering helpers ----

func graphInfo(name string, wl *pushpull.Workload) GraphInfo {
	return GraphInfo{Name: name, N: wl.N(), M: wl.M(), Kind: wl.Kind(), ID: wl.ID()}
}

// statusFor maps engine errors onto HTTP statuses: precondition failures
// are the client's (400), timeouts are gateway timeouts, the rest is a
// server-side 500.
func statusFor(err error) int {
	switch {
	case errors.Is(err, pushpull.ErrNeedsWeights),
		errors.Is(err, pushpull.ErrDirectedUnsupported),
		errors.Is(err, pushpull.ErrProbesUnsupported),
		errors.Is(err, pushpull.ErrOutOfCoreUnsupported),
		errors.Is(err, pushpull.ErrBadSource),
		errors.Is(err, pushpull.ErrBadOption):
		return http.StatusBadRequest
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	default:
		return http.StatusInternalServerError
	}
}

func writeJSON(w http.ResponseWriter, status int, body any) {
	// Marshal before touching the response: an encoding failure after
	// WriteHeader would send a truncated 200.
	buf, err := json.Marshal(body)
	if err != nil {
		buf = []byte(fmt.Sprintf(`{"error": "encoding response: %s"}`, err))
		status = http.StatusInternalServerError
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(buf)
	w.Write([]byte("\n"))
}

// writeBody sends a 200 JSON document of a known length that write
// produces in pieces, plus the newline every reply ends with. Declaring
// the length keeps a multi-megabyte reply out of chunked encoding and
// lets a relaying router, and the client, tell a complete body from one
// cut short. The newline is written on its own, last: one byte stays in
// the ResponseWriter's buffer until net/http flushes it after the handler
// has returned, so a reply is never complete on the wire while the
// server is still accounting for it.
func writeBody(w http.ResponseWriter, size int64, write func()) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.FormatInt(size+1, 10))
	w.WriteHeader(http.StatusOK)
	write()
	w.Write([]byte("\n"))
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorBody{Error: err.Error()})
}
