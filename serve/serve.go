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
//	PUT    /graphs/{name}  register a workload from a text edge list or,
//	                       as CSRContentType, a binary CSR, of the kind
//	                       its header records; persisted when the engine
//	                       has a store attached, and overwriting a name
//	                       with different content invalidates the old
//	                       graph's cached results
//	DELETE /graphs/{name}  drop a workload (registry, cache, and store)
//	POST   /run            {"graph": ..., "algorithm": ..., "options": {...}}
//	GET    /stats          engine cache, dedup and admission-queue telemetry
//
// Run responses carry the uniform Report lowered to JSON: the payload
// (ranks/counts/colors/parents+levels where the algorithm has one), the
// direction trace, and the run stats including cache_hit and
// queue_wait_ns — the serving layer is benchmarkable end to end. Bodies
// are read, judged, run and answered through pushpull/internal/edge,
// which the cluster router and the job plane share.
package serve

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"pushpull"
	"pushpull/api"
	"pushpull/internal/edge"
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

// OriginHeader carries the origin token a cluster router holds for the
// worker it forwards a POST /jobs to (jobs.ValidOrigin: 16 lowercase hex
// digits). The worker mints the submission's job and batch IDs under it
// (jobs.Origin reads it back), which is how a router finds a job's worker
// from its ID. A malformed token answers 400 with nothing recorded;
// requests without the header (direct clients) get IDs with no origin.
const OriginHeader = "X-Cluster-Origin"

// CSRContentType is the media type of a PUT /graphs body in the binary
// CSR format, the form a cluster router replicates uploads in.
const CSRContentType = edge.CSRContentType

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
	s.mux.HandleFunc("GET /algorithms", edge.Algorithms)
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

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// ---- request/response shapes ----

// GraphInfo is one GET /graphs entry (also the PUT /graphs response).
type GraphInfo struct {
	Name string `json:"name"`
	N    int    `json:"n"`
	M    int64  `json:"m"`
	Kind string `json:"kind"`
	ID   string `json:"id"`
}

// EngineStats is the GET /stats body: the engine's counters, then the
// worker's. QueueETAMS estimates how long a run arriving now would queue
// (depth × mean historical queue wait), the number a 429's Retry-After
// rounds up to seconds.
type EngineStats struct {
	pushpull.EngineStats
	QueueETAMS int64 `json:"queue_eta_ms"`
	Graphs     int   `json:"graphs"`
	// Jobs is the async job census and retention bookkeeping, present
	// when a job manager is wired.
	Jobs *jobs.Stats `json:"jobs,omitempty"`
}

// ---- handlers ----

func (s *Server) healthz(w http.ResponseWriter, r *http.Request) {
	edge.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) graphs(w http.ResponseWriter, r *http.Request) {
	names := s.eng.WorkloadNames()
	out := make([]GraphInfo, 0, len(names))
	for _, n := range names {
		if wl, ok := s.eng.Workload(n); ok {
			out = append(out, graphInfo(n, wl))
		}
	}
	edge.WriteJSON(w, http.StatusOK, out)
}

func (s *Server) putGraph(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	wl, ok := edge.ReadGraph(w, r, s.maxUpload)
	if !ok {
		return
	}
	// The ID is memoized on the handle: registering it below costs no
	// second hash.
	if want := r.Header.Get(ContentIDHeader); want != "" && want != wl.ID() {
		edge.WriteError(w, http.StatusBadRequest,
			fmt.Errorf("content ID mismatch: the %s header names %s, the body hashes to %s", ContentIDHeader, want, wl.ID()))
		return
	}
	epoch, release, ok := s.fence(w, r, name)
	if !ok {
		return
	}
	defer release()
	if err := s.eng.RegisterWorkload(name, wl); err != nil {
		// The graph is registered but not persisted (ErrStore): a fault
		// of the worker, not of the request.
		edge.WriteError(w, edge.Status(err), err)
		return
	}
	if epoch > 0 {
		s.epochs[name] = epoch
		w.Header().Set(EpochHeader, strconv.FormatUint(epoch, 10))
	}
	// Report the binding the engine actually serves: a store past its
	// memory budget swaps the upload for a pure out-of-core handle, and
	// the client should see that handle's kind and identity.
	if cur, ok := s.eng.Workload(name); ok {
		wl = cur
	}
	edge.WriteJSON(w, http.StatusCreated, graphInfo(name, wl))
}

func (s *Server) deleteGraph(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	epoch, release, ok := s.fence(w, r, name)
	if !ok {
		return
	}
	defer release()
	if epoch > 0 {
		// Record the deletion epoch whether or not the name is bound, so
		// a delayed replication PUT from before this delete is fenced.
		s.epochs[name] = epoch
	}
	ok, err := s.eng.DropWorkload(name)
	if err != nil {
		edge.WriteError(w, http.StatusInternalServerError, err)
		return
	}
	if !ok {
		edge.WriteError(w, http.StatusNotFound, fmt.Errorf("unknown graph %q", name))
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// fence is the EpochHeader guard of a mutation of name. A request
// without the header passes with epoch 0. One with it passes holding
// epochMu, which the caller keeps while it mutates and records the
// returned epoch, then drops with release. A malformed epoch (400), or
// one no newer than name's recorded epoch (409, naming the current one),
// is answered here, and ok is false.
func (s *Server) fence(w http.ResponseWriter, r *http.Request, name string) (epoch uint64, release func(), ok bool) {
	h := r.Header.Get(EpochHeader)
	if h == "" {
		return 0, func() {}, true
	}
	epoch, err := strconv.ParseUint(h, 10, 64)
	if err != nil {
		edge.WriteError(w, http.StatusBadRequest, fmt.Errorf("bad %s header %q: %w", EpochHeader, h, err))
		return 0, nil, false
	}
	s.epochMu.Lock()
	if cur := s.epochs[name]; epoch <= cur {
		s.epochMu.Unlock()
		w.Header().Set(EpochHeader, strconv.FormatUint(cur, 10))
		edge.WriteError(w, http.StatusConflict,
			fmt.Errorf("stale cluster epoch %d for graph %q (current %d)", epoch, name, cur))
		return 0, nil, false
	}
	return epoch, s.epochMu.Unlock, true
}

func (s *Server) run(w http.ResponseWriter, r *http.Request) {
	var req api.RunRequest
	if _, ok := edge.Decode(w, r, "run request", &req); !ok {
		return
	}
	// The drain signal rides the context so a queued (not-yet-admitted)
	// run fails the moment Drain is called, while admitted runs finish.
	ctx := pushpull.WithDrainSignal(r.Context(), s.draining)
	rep, err := edge.Run(ctx, s.eng, req.Graph, req.Algorithm, &req.Options)
	if err != nil {
		if errors.Is(err, pushpull.ErrOverloaded) {
			// The engine shed this run instead of queueing it: tell the
			// client (or the cluster router, which fails over on 429)
			// when to come back rather than letting it queue forever.
			// The hint is honest — current queue depth × recent mean
			// queue wait — so clients back off longer as congestion
			// actually grows.
			w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(queueETA(s.eng.Stats()))))
		}
		edge.WriteError(w, edge.Status(err), err)
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
	out := EngineStats{EngineStats: es, QueueETAMS: queueETA(es).Milliseconds(), Graphs: len(s.eng.WorkloadNames())}
	if s.jobs != nil {
		js := s.jobs.Stats()
		out.Jobs = &js
	}
	edge.WriteJSON(w, http.StatusOK, out)
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
