package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pushpull"
	"pushpull/api"
	"pushpull/internal/edge"
	"pushpull/serve"
)

// WorkerHeader names the worker that served a routed run.
const WorkerHeader = "X-Cluster-Worker"

// retryMax caps the backoff between a routed run's attempts.
const retryMax = time.Second

// Config configures a Router.
type Config struct {
	// Workers are the fleet's base URLs (e.g. http://10.0.0.1:8080).
	Workers []string
	// Replicas is the replication factor R for uploads (default 2,
	// capped by the fleet size at placement time).
	Replicas int
	// Retries bounds the extra attempts after a routed run's first
	// (default 3); attempts rotate through the graph's replicas.
	Retries int
	// RetryBase is the first retry's backoff (default 50ms); it doubles
	// per attempt, capped at 1s (retryMax).
	RetryBase time.Duration
	// HealthInterval is the background health-probe period (default 2s;
	// < 0 disables the loop). HealthTimeout bounds each probe (default
	// 1s).
	HealthInterval time.Duration
	HealthTimeout  time.Duration
	// MutateTimeout bounds one replicated mutation's whole fan-out
	// (default 30s). Mutations serialize on the router's mutation lock,
	// so without a bound a single hung worker would stall every later
	// PUT/DELETE behind it indefinitely.
	MutateTimeout time.Duration
	// MaxUpload bounds PUT /graphs bodies (default serve.MaxGraphBytes).
	MaxUpload int64
	// Client issues every worker-facing request (default: a plain
	// http.Client; per-request deadlines come from the incoming request
	// context and the health timeout).
	Client *http.Client
}

// Router is the cluster front: an http.Handler speaking the same API as
// a pushpull/serve worker, backed by a fleet of them. Uploads replicate
// to R workers by rendezvous placement on the graph's content ID; runs
// route to the primary replica with retry, exponential backoff and
// failover to secondaries on connection errors and the statuses
// edge.FailOver names (5xx but 504, a worker-side 404, 429); re-PUT and
// DELETE fan out with monotone epochs so no replica serves stale
// results.
type Router struct {
	cfg     Config
	placer  *Placer
	catalog *Catalog
	health  *Health
	proxy   *proxy
	mux     *http.ServeMux
	// owners maps each worker's origin token to its base URL: how a job
	// poll finds the worker its ID names. Built by New, never written
	// after, so it is read without a lock.
	owners map[string]string

	// mutMu serializes replicated mutations (PUT/DELETE fan-outs), so
	// two mutations of one name cannot interleave their worker writes;
	// the per-worker epoch guard would catch the inversion, but the
	// catalog must agree with what the fleet converged on.
	mutMu sync.Mutex

	routed, retried, failedOver atomic.Uint64
	failed, degraded            atomic.Uint64
	replicasCapped              atomic.Uint64
}

// New builds a Router over cfg.Workers. Call Start to begin health
// probing and Close to stop it.
func New(cfg Config) (*Router, error) {
	if len(cfg.Workers) == 0 {
		return nil, fmt.Errorf("cluster: no workers configured")
	}
	workers := make([]string, 0, len(cfg.Workers))
	owners := map[string]string{}
	for _, w := range cfg.Workers {
		w = strings.TrimRight(strings.TrimSpace(w), "/")
		if w == "" {
			continue
		}
		if !strings.HasPrefix(w, "http://") && !strings.HasPrefix(w, "https://") {
			return nil, fmt.Errorf("cluster: worker %q is not an http(s) base URL", w)
		}
		tok := originToken(w)
		if prev, taken := owners[tok]; taken {
			if prev == w {
				return nil, fmt.Errorf("cluster: duplicate worker %q", w)
			}
			return nil, fmt.Errorf("cluster: workers %q and %q share the origin token %s", prev, w, tok)
		}
		owners[tok] = w
		workers = append(workers, w)
	}
	if len(workers) == 0 {
		return nil, fmt.Errorf("cluster: no workers configured")
	}
	cfg.Workers = workers
	if cfg.Replicas <= 0 {
		cfg.Replicas = 2
	}
	if cfg.Retries < 0 {
		cfg.Retries = 0
	} else if cfg.Retries == 0 {
		cfg.Retries = 3
	}
	if cfg.RetryBase <= 0 {
		cfg.RetryBase = 50 * time.Millisecond
	}
	if cfg.HealthInterval == 0 {
		cfg.HealthInterval = 2 * time.Second
	}
	if cfg.HealthTimeout <= 0 {
		cfg.HealthTimeout = time.Second
	}
	if cfg.MutateTimeout <= 0 {
		cfg.MutateTimeout = 30 * time.Second
	}
	if cfg.MaxUpload <= 0 {
		cfg.MaxUpload = serve.MaxGraphBytes
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{}
	}

	rt := &Router{
		cfg:     cfg,
		placer:  NewPlacer(cfg.Replicas),
		catalog: NewCatalog(),
		health:  NewHealth(cfg.Workers, cfg.Client, cfg.HealthTimeout),
		proxy:   &proxy{client: cfg.Client},
		mux:     http.NewServeMux(),
		owners:  owners,
	}
	rt.mux.HandleFunc("GET /healthz", rt.healthz)
	rt.mux.HandleFunc("GET /algorithms", edge.Algorithms)
	rt.mux.HandleFunc("GET /graphs", rt.graphs)
	rt.mux.HandleFunc("PUT /graphs/{name}", rt.putGraph)
	rt.mux.HandleFunc("DELETE /graphs/{name}", rt.deleteGraph)
	rt.mux.HandleFunc("POST /run", rt.run)
	rt.mux.HandleFunc("POST /jobs", rt.submitJobs)
	rt.mux.HandleFunc("GET /jobs", rt.listJobs)
	rt.mux.HandleFunc("GET /jobs/{id}", rt.jobStatus)
	rt.mux.HandleFunc("GET /jobs/{id}/result", rt.jobResult)
	rt.mux.HandleFunc("DELETE /jobs/{id}", rt.cancelJob)
	rt.mux.HandleFunc("GET /stats", rt.stats)
	return rt, nil
}

// Start probes the fleet once synchronously, then launches the
// background health loop.
func (rt *Router) Start(ctx context.Context) {
	rt.health.Check(ctx)
	rt.health.Start(rt.cfg.HealthInterval)
}

// Close stops the health loop.
func (rt *Router) Close() { rt.health.Stop() }

// Catalog exposes the router's placement table (read-mostly; used by
// tests and operational tooling).
func (rt *Router) Catalog() *Catalog { return rt.catalog }

// Health exposes the fleet liveness tracker.
func (rt *Router) Health() *Health { return rt.health }

// ServeHTTP implements http.Handler.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) { rt.mux.ServeHTTP(w, r) }

// ---- handlers ----

func (rt *Router) healthz(w http.ResponseWriter, r *http.Request) {
	edge.WriteJSON(w, http.StatusOK, map[string]any{
		"status":     "ok",
		"role":       "router",
		"workers":    len(rt.cfg.Workers),
		"workers_up": len(rt.health.Up()),
	})
}

func (rt *Router) graphs(w http.ResponseWriter, r *http.Request) {
	edge.WriteJSON(w, http.StatusOK, rt.catalog.List())
}

func (rt *Router) putGraph(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	// The body is read and hashed once, here: the replicas get the graph
	// as a binary CSR, which they read at memory speed, check against the
	// ID, and persist as it is.
	wl, ok := edge.ReadGraph(w, r, rt.cfg.MaxUpload)
	if !ok {
		return
	}
	id := wl.ID()
	var csr bytes.Buffer
	if err := pushpull.WriteWorkloadCSR(&csr, wl); err != nil {
		edge.WriteError(w, http.StatusInternalServerError, fmt.Errorf("encoding the parsed graph: %w", err))
		return
	}

	// The fan-out below runs under the mutation lock by design (the
	// catalog must agree with what the fleet converged on), so bound its
	// duration: one hung worker must not stall every later mutation.
	ctx, cancel := context.WithTimeout(r.Context(), rt.cfg.MutateTimeout)
	defer cancel()

	rt.mutMu.Lock()
	defer rt.mutMu.Unlock()
	up := rt.health.Up()
	if len(up) == 0 {
		edge.WriteError(w, http.StatusServiceUnavailable, fmt.Errorf("no workers up (fleet of %d)", len(rt.cfg.Workers)))
		return
	}
	// Placement hashes the content ID — the same identity the workers'
	// result caches key on — so a graph's replica set survives router
	// restarts and renames.
	replicas := rt.placer.Place(id, up)
	if len(replicas) < rt.cfg.Replicas {
		// Fewer live workers than the requested replication factor: the
		// upload still lands, but under-replicated. Surfaced in /stats
		// (replicas_capped) and warned about at boot by `pushpull route`.
		rt.replicasCapped.Add(1)
	}
	epoch := rt.catalog.NextEpoch()

	//pushpull:allow lockheld mutation fan-outs serialize on mutMu by design; bounded by MutateTimeout
	acks := rt.fanPut(ctx, replicas, name, csr.Bytes(), id, epoch)
	acked := make([]string, 0, len(replicas))
	var failure error // the first replica's, unless a later one is the fleet's
	for i, wkr := range replicas {
		if acks[i] == nil {
			acked = append(acked, wkr)
		} else if failure == nil || edge.Status(acks[i]) >= 500 {
			failure = acks[i]
		}
	}
	if len(acked) == 0 {
		// Every replica refused the body (4xx): the client's fault.
		if status := edge.Status(failure); status < 500 {
			edge.WriteError(w, status, failure)
			return
		}
		rt.failed.Add(1)
		edge.WriteError(w, http.StatusBadGateway, fmt.Errorf("upload reached no replica: %v", failure))
		return
	}
	if len(acked) < len(replicas) {
		rt.degraded.Add(1)
	}

	// Every other worker that may hold the name drops it: an ex-replica
	// must not keep serving the old content, whichever router placed it
	// there. The epoch fences a racing stale write; a worker that stays
	// down is left to the next mutation (no anti-entropy in this tier
	// yet).
	old, _ := rt.catalog.Get(name)
	//pushpull:allow lockheld ex-replica cleanup rides the serialized mutation; bounded by MutateTimeout
	rt.fanDelete(ctx, rt.holders(old.Replicas, acked), name, epoch)

	pl := Placement{
		Name: name, ContentID: id,
		N: wl.N(), M: wl.M(), Kind: wl.Kind(),
		Replicas: acked, Epoch: epoch,
	}
	rt.catalog.Set(pl)
	edge.WriteJSON(w, http.StatusCreated, pl)
}

// fanPut replicates one upload, csr in the binary CSR format with content
// ID id, to every target concurrently; the result slice holds nil per
// acknowledged worker, the failure otherwise, classed with the worker's
// status if it answered.
func (rt *Router) fanPut(ctx context.Context, targets []string, name string, csr []byte, id string, epoch uint64) []error {
	resps, errs := rt.fanOut(targets, func(wkr string) (*workerResponse, error) {
		return rt.proxy.putGraph(ctx, wkr, name, csr, id, epoch)
	})
	for i, wkr := range targets {
		switch {
		case errs[i] != nil:
			errs[i] = fmt.Errorf("%s: %w", wkr, errs[i])
		case !resps[i].ok():
			errs[i] = edge.Class(resps[i].status, fmt.Errorf("%s: %s", wkr, errorFrom(resps[i])))
		}
	}
	return errs
}

// fanDelete deletes name, stamped with epoch, from every target
// concurrently and returns how many answered with a refusal; a 404 is
// none, the name being gone.
func (rt *Router) fanDelete(ctx context.Context, targets []string, name string, epoch uint64) int {
	resps, _ := rt.fanOut(targets, func(wkr string) (*workerResponse, error) {
		return rt.proxy.deleteGraph(ctx, wkr, name, epoch)
	})
	refused := 0
	for _, resp := range resps {
		if resp != nil && !resp.ok() && resp.status != http.StatusNotFound {
			refused++
		}
	}
	return refused
}

// fanOut sends one request to every target concurrently and returns each
// one's reply, or the error of a target it could not reach, which it
// marks down.
func (rt *Router) fanOut(targets []string, send func(wkr string) (*workerResponse, error)) ([]*workerResponse, []error) {
	resps, errs := make([]*workerResponse, len(targets)), make([]error, len(targets))
	var wg sync.WaitGroup
	for i, wkr := range targets {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if resps[i], errs[i] = send(wkr); errs[i] != nil {
				rt.health.MarkDown(wkr)
			}
		}()
	}
	wg.Wait()
	return resps, errs
}

// holders is every worker that may hold a copy of a name, less keep:
// each up worker, whichever router placed the name there, and each of
// known, the replicas this router's catalog placed it on, down or up,
// since one may have recovered since the last probe.
func (rt *Router) holders(known, keep []string) []string {
	var out []string
	for _, w := range rt.cfg.Workers {
		if (rt.health.IsUp(w) || slices.Contains(known, w)) && !slices.Contains(keep, w) {
			out = append(out, w)
		}
	}
	return out
}

func (rt *Router) deleteGraph(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	ctx, cancel := context.WithTimeout(r.Context(), rt.cfg.MutateTimeout)
	defer cancel()
	rt.mutMu.Lock()
	defer rt.mutMu.Unlock()
	pl, ok := rt.catalog.Get(name)
	if !ok {
		edge.WriteError(w, http.StatusNotFound, fmt.Errorf("unknown graph %q", name))
		return
	}
	epoch := rt.catalog.NextEpoch()
	// Every worker that may hold the name drops it, not only this
	// router's replicas: a router restarted since an earlier one placed
	// the name knows nothing of that copy. Best-effort: a worker that
	// stays down keeps its copy, but the epoch fence plus the catalog
	// removal stop it from ever being routed to.
	//pushpull:allow lockheld delete fan-out serializes on mutMu by design; bounded by MutateTimeout
	rt.degraded.Add(uint64(rt.fanDelete(ctx, rt.holders(pl.Replicas, nil), name, epoch)))
	rt.catalog.Delete(name)
	w.WriteHeader(http.StatusNoContent)
}

func (rt *Router) run(w http.ResponseWriter, r *http.Request) {
	var req api.RunRequest
	body, ok := edge.Decode(w, r, "run request", &req)
	if !ok {
		return
	}
	// Names are settled here, against the shared registry and the
	// catalog, so that a worker's 404 means only that it lost the graph.
	pl, err := rt.placement(req.Graph, req.Algorithm)
	if err != nil {
		edge.WriteError(w, edge.Status(err), err)
		return
	}

	resp, wkr, ok := rt.tryReplicas(r.Context(), w, fmt.Sprintf("graph %q", req.Graph), pl.Replicas,
		func(wkr string) (*workerResponse, error) {
			return rt.proxy.run(r.Context(), wkr, body)
		})
	if ok {
		rt.relay(r.Context(), w, resp, wkr)
	}
}

// tryReplicas drives the routing loop shared by synchronous runs and
// async job submissions: try the replicas, given in placement order, in
// turn (healthy ones first — upFirst keeps placement order within each
// liveness group, and a down replica may have recovered since the last
// probe, costing only one connection error), with exponential backoff
// between attempts. Connection errors mark the worker down — the fastest
// truthful signal, so concurrent requests stop picking it before the
// next probe. A status edge.FailOver names sends the request to the next
// candidate. Any other status is the answer —
// returned with the worker that served it. A failover is a run served by
// any but the first replica, whatever order upFirst chose. With no
// answer, tryReplicas has answered w itself: 504 when the client gave up
// mid-backoff, 502 naming what when no replica served.
func (rt *Router) tryReplicas(ctx context.Context, w http.ResponseWriter, what string, replicas []string,
	send func(worker string) (*workerResponse, error)) (*workerResponse, string, bool) {
	candidates := upFirst(replicas, rt.health)
	backoff := rt.cfg.RetryBase
	attempts := rt.cfg.Retries + 1
	var lastFailure string
	for attempt := 0; attempt < attempts; attempt++ {
		wkr := candidates[attempt%len(candidates)]
		if attempt > 0 {
			rt.retried.Add(1)
			select {
			case <-ctx.Done():
				edge.WriteError(w, http.StatusGatewayTimeout, ctx.Err())
				return nil, "", false
			case <-time.After(backoff):
			}
			backoff *= 2
			backoff = min(backoff, retryMax)
		}
		resp, err := send(wkr)
		if err != nil {
			rt.health.MarkDown(wkr)
			lastFailure = fmt.Sprintf("%s: %v", wkr, err)
			continue
		}
		if edge.FailOver(resp.status) {
			lastFailure = fmt.Sprintf("%s: %s", wkr, errorFrom(resp))
			continue
		}
		if wkr != replicas[0] {
			rt.failedOver.Add(1)
		}
		rt.routed.Add(1)
		return resp, wkr, true
	}
	rt.failed.Add(1)
	edge.WriteError(w, http.StatusBadGateway, fmt.Errorf("%s: all %d replica(s) failed after %d attempts (last: %s)",
		what, len(candidates), attempts, lastFailure))
	return nil, "", false
}

// relay copies a worker's answer to the client, naming the worker that
// served it. A streamed body is copied through as it arrives; the status
// and headers it follows were final before its first byte, so everything
// retry and failover could act on has been acted on. If the worker dies
// mid-body the client is left with a reply shorter than its declared
// length — which the connection closing tells it — and the router counts
// the request failed and the worker down. ctx is the client's request:
// when that is what ended, the broken copy is nobody's failure.
func (rt *Router) relay(ctx context.Context, w http.ResponseWriter, resp *workerResponse, wkr string) {
	h := w.Header()
	if ct := resp.header.Get("Content-Type"); ct != "" {
		h.Set("Content-Type", ct)
	}
	h.Set(WorkerHeader, wkr)
	if resp.stream == nil {
		w.WriteHeader(resp.status)
		w.Write(resp.body)
		return
	}
	defer resp.stream.Close()
	src := &sourceErr{r: resp.stream}
	if resp.length > 0 {
		// A declared length is passed on, and with it goes a duty: the
		// reply is complete on the wire the moment its last byte is, and
		// that must not happen while this handler still has the request —
		// what the client does next (read /stats, poll again) could then
		// overtake what the router records about what it just answered.
		// So the last byte is written on its own: one byte stays in the
		// ResponseWriter's buffer, which net/http flushes when the handler
		// has returned. (An undeclared length needs nothing: the chunked
		// terminator is sent at the same point.)
		h.Set("Content-Length", strconv.FormatInt(resp.length, 10))
		w.WriteHeader(resp.status)
		io.CopyN(w, src, resp.length-1)
		var last [1]byte
		if n, _ := io.ReadFull(src, last[:]); n == 1 {
			w.Write(last[:])
		}
	} else {
		w.WriteHeader(resp.status)
		io.Copy(w, src)
	}
	if src.err != nil && ctx.Err() == nil {
		rt.failed.Add(1)
		rt.health.MarkDown(wkr)
	}
}

// sourceErr remembers the error that ended a read side, so a copy that
// broke can be blamed on the right end.
type sourceErr struct {
	r   io.Reader
	err error
}

func (s *sourceErr) Read(p []byte) (int, error) {
	n, err := s.r.Read(p)
	if err != nil && err != io.EOF {
		s.err = err
	}
	return n, err
}

// ---- stats ----

// WorkerStatus is one fleet entry of the router's GET /stats body.
type WorkerStatus struct {
	URL string `json:"url"`
	Up  bool   `json:"up"`
	// Stats is the worker's own GET /stats body, verbatim; null when the
	// worker is down or the fetch failed.
	Stats json.RawMessage `json:"stats,omitempty"`
}

// RouterStats is the router's GET /stats body: fleet-level counters plus
// every worker's own stats.
type RouterStats struct {
	// Routed counts runs answered by a worker (any status the router
	// relays); Retried counts extra attempts; FailedOver counts runs
	// ultimately served by a non-primary replica; Failed counts requests
	// no replica could serve; ReplicasDegraded counts mutations that
	// reached fewer replicas than placed.
	Routed           uint64 `json:"routed"`
	Retried          uint64 `json:"retried"`
	FailedOver       uint64 `json:"failed_over"`
	Failed           uint64 `json:"failed"`
	ReplicasDegraded uint64 `json:"replicas_degraded"`
	// ReplicasCapped counts uploads placed on fewer replicas than the
	// configured factor because not enough workers were up.
	ReplicasCapped    uint64         `json:"replicas_capped"`
	HealthTransitions uint64         `json:"health_transitions"`
	Graphs            int            `json:"graphs"`
	Workers           []WorkerStatus `json:"workers"`
}

func (rt *Router) stats(w http.ResponseWriter, r *http.Request) {
	out := RouterStats{
		Routed:            rt.routed.Load(),
		Retried:           rt.retried.Load(),
		FailedOver:        rt.failedOver.Load(),
		Failed:            rt.failed.Load(),
		ReplicasDegraded:  rt.degraded.Load(),
		ReplicasCapped:    rt.replicasCapped.Load(),
		HealthTransitions: rt.health.Transitions(),
		Graphs:            rt.catalog.Len(),
		Workers:           make([]WorkerStatus, len(rt.cfg.Workers)),
	}
	ctx, cancel := context.WithTimeout(r.Context(), 2*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for i, wkr := range rt.cfg.Workers {
		out.Workers[i] = WorkerStatus{URL: wkr, Up: rt.health.IsUp(wkr)}
		if !out.Workers[i].Up {
			continue
		}
		wg.Add(1)
		go func(i int, wkr string) {
			defer wg.Done()
			if resp, err := rt.proxy.stats(ctx, wkr); err == nil && resp.ok() && json.Valid(resp.body) {
				out.Workers[i].Stats = resp.body
			}
		}(i, wkr)
	}
	wg.Wait()
	edge.WriteJSON(w, http.StatusOK, out)
}

// ---- helpers ----

// placement is the router's check of a run or job request: the names
// pass edge.CheckNames and the catalog places the graph (else 404).
func (rt *Router) placement(graph, algorithm string) (Placement, error) {
	if err := edge.CheckNames(graph, algorithm); err != nil {
		return Placement{}, err
	}
	pl, ok := rt.catalog.Get(graph)
	if !ok {
		return Placement{}, edge.NotFound(fmt.Errorf("unknown graph %q (catalog: %v)", graph, rt.catalogNames()))
	}
	return pl, nil
}

func (rt *Router) catalogNames() []string {
	pls := rt.catalog.List()
	names := make([]string, len(pls))
	for i, p := range pls {
		names[i] = p.Name
	}
	return names
}

// originToken is a worker's origin token: the FNV-1a 64 hash of its
// normalized base URL, in 16 hex digits (jobs.ValidOrigin). It is a
// function of the URL alone, so every router over the same worker list
// holds the same tokens.
func originToken(worker string) string { return fmt.Sprintf("%016x", placementHash(worker)) }

// upFirst orders candidates with the healthy ones (per the last probe)
// ahead, preserving placement order within each group.
func upFirst(replicas []string, h *Health) []string {
	out := make([]string, 0, len(replicas))
	var down []string
	for _, w := range replicas {
		if h.IsUp(w) {
			out = append(out, w)
		} else {
			down = append(down, w)
		}
	}
	return append(out, down...)
}

// errorFrom digs the worker's error message out of a failed reply.
func errorFrom(resp *workerResponse) string {
	var body struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(resp.body, &body) == nil && body.Error != "" {
		return fmt.Sprintf("%d: %s", resp.status, body.Error)
	}
	return fmt.Sprintf("status %d", resp.status)
}
