package cluster

// The async half of the router: /jobs endpoints over the worker fleet.
// Submission routes like a run — to the primary replica of the job's
// graph, with the same retry/backoff/failover loop — but the accepted
// job then LIVES on the worker that took it (job records are not
// replicated), so the router records a job→worker affinity in the
// catalog and pins every later status/result/cancel poll to it. A batch
// must land whole on one worker (one batch ID, one queue): only workers
// replicating every graph the batch touches are candidates, and a batch
// spanning disjoint replica sets is refused with 409 — split the batch.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"pushpull"
	"pushpull/jobs"
	"pushpull/serve"
)

func (rt *Router) submitJobs(w http.ResponseWriter, r *http.Request) {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	var req serve.JobRequest
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("parsing job request: %w", err))
		return
	}
	batch := len(req.Batch) > 0
	specs := req.Batch
	if batch {
		if req.Graph != "" || req.Algorithm != "" {
			writeError(w, http.StatusBadRequest,
				errors.New(`a job request is either one inline spec or a "batch", not both`))
			return
		}
	} else {
		specs = []jobs.Spec{req.Spec}
	}

	// Validate names router-side, like run(): the registry is shared, the
	// catalog is authoritative for graphs, and settling both here keeps a
	// worker-side 404 an unambiguous failover signal.
	graphs := make([]string, 0, len(specs))
	for i, spec := range specs {
		if spec.Graph == "" || spec.Algorithm == "" {
			writeError(w, http.StatusBadRequest,
				fmt.Errorf(`job spec %d: "graph" and "algorithm" are required`, i))
			return
		}
		if _, err := pushpull.Lookup(spec.Algorithm); err != nil {
			writeError(w, http.StatusNotFound, fmt.Errorf("job spec %d: %w", i, err))
			return
		}
		if _, ok := rt.catalog.Get(spec.Graph); !ok {
			writeError(w, http.StatusNotFound,
				fmt.Errorf("job spec %d: unknown graph %q (catalog: %v)", i, spec.Graph, rt.catalogNames()))
			return
		}
		graphs = append(graphs, spec.Graph)
	}
	if !batch {
		req.Spec = specs[0]
	}

	candidates, status, err := rt.jobTargets(graphs)
	if err != nil {
		writeError(w, status, err)
		return
	}
	body, err := json.Marshal(req)
	if err != nil {
		writeError(w, http.StatusInternalServerError, fmt.Errorf("re-encoding job request: %w", err))
		return
	}

	resp, wkr, err := rt.tryReplicas(r.Context(), candidates[0], upFirst(candidates, rt.health),
		func(wkr string) (*workerResponse, error) {
			return rt.proxy.submitJobs(r.Context(), wkr, body)
		})
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			writeError(w, http.StatusGatewayTimeout, err)
			return
		}
		writeError(w, http.StatusBadGateway, fmt.Errorf("job submission: %w", err))
		return
	}
	if resp.status == http.StatusAccepted {
		rt.recordAffinity(resp.body, batch, wkr)
	}
	rt.relay(r.Context(), w, resp, wkr)
}

// jobTargets computes the submission candidates for a job touching the
// named graphs: the workers replicating every one of them, in the first
// graph's placement order (so candidates[0] is that graph's primary). A
// batch spanning graphs with no common replica cannot run under one
// batch ID — 409.
func (rt *Router) jobTargets(graphs []string) ([]string, int, error) {
	pl, ok := rt.catalog.Get(graphs[0])
	if !ok {
		return nil, http.StatusNotFound, fmt.Errorf("unknown graph %q", graphs[0])
	}
	common := append([]string(nil), pl.Replicas...)
	for _, g := range graphs[1:] {
		if g == graphs[0] {
			continue
		}
		pl, ok := rt.catalog.Get(g)
		if !ok {
			return nil, http.StatusNotFound, fmt.Errorf("unknown graph %q", g)
		}
		holds := make(map[string]bool, len(pl.Replicas))
		for _, w := range pl.Replicas {
			holds[w] = true
		}
		kept := common[:0]
		for _, w := range common {
			if holds[w] {
				kept = append(kept, w)
			}
		}
		common = kept
	}
	if len(common) == 0 {
		return nil, http.StatusConflict,
			fmt.Errorf("no worker replicates all %d graphs of the batch — split the batch along replica sets", len(graphs))
	}
	return common, 0, nil
}

// recordAffinity parses an accepted submission reply and pins every
// returned job ID (and the batch ID) to the worker that took it. Best
// effort: an unparsable body is the client's problem to surface, not a
// reason to fail a submission the worker already accepted.
func (rt *Router) recordAffinity(body []byte, batch bool, wkr string) {
	if batch {
		var br serve.BatchResponse
		if json.Unmarshal(body, &br) != nil {
			return
		}
		if br.BatchID != "" {
			rt.catalog.SetJob(br.BatchID, wkr)
		}
		for _, j := range br.Jobs {
			if j != nil && j.ID != "" {
				rt.catalog.SetJob(j.ID, wkr)
			}
		}
		return
	}
	var j jobs.Job
	if json.Unmarshal(body, &j) == nil && j.ID != "" {
		rt.catalog.SetJob(j.ID, wkr)
	}
}

// jobStatus, jobResult and cancelJob pin to the affinity worker: job
// records live on exactly one worker, so failover would turn a live job
// into a phantom 404. A dead affinity worker is a truthful 502.
func (rt *Router) jobStatus(w http.ResponseWriter, r *http.Request) {
	rt.jobProxy(w, r, rt.proxy.jobStatus)
}

func (rt *Router) jobResult(w http.ResponseWriter, r *http.Request) {
	rt.jobProxy(w, r, rt.proxy.jobResult)
}

func (rt *Router) cancelJob(w http.ResponseWriter, r *http.Request) {
	rt.jobProxy(w, r, rt.proxy.cancelJob)
}

func (rt *Router) jobProxy(w http.ResponseWriter, r *http.Request,
	call func(ctx context.Context, worker, id string) (*workerResponse, error)) {
	id := r.PathValue("id")
	wkr, ok := rt.catalog.JobWorker(id)
	if !ok {
		writeError(w, http.StatusNotFound,
			fmt.Errorf("unknown job %q (not submitted through this router)", id))
		return
	}
	resp, err := call(r.Context(), wkr, id)
	if err != nil {
		rt.health.MarkDown(wkr)
		writeError(w, http.StatusBadGateway,
			fmt.Errorf("worker %s holding job %q is unreachable: %v", wkr, id, err))
		return
	}
	if resp.status == http.StatusNotFound || resp.status == http.StatusGone {
		// The worker no longer has the job (collected by its retention,
		// or lost with an unpersisted restart) or will never have a result
		// for it: nothing further can be asked of this affinity.
		rt.catalog.DropJob(id)
	}
	rt.relay(r.Context(), w, resp, wkr)
}

// listJobs fans GET /jobs out to every up worker and merges the lists
// (status views only — results never ride a listing), sorted by
// submission time. Filters (?state=, ?batch=) pass through verbatim;
// the state filter is validated here so a typo 400s instead of quietly
// merging nothing.
func (rt *Router) listJobs(w http.ResponseWriter, r *http.Request) {
	if s := r.URL.Query().Get("state"); s != "" {
		switch jobs.State(s) {
		case jobs.StateQueued, jobs.StateRunning, jobs.StateDone,
			jobs.StateFailed, jobs.StateCanceled, jobs.StateInterrupted:
		default:
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad state filter %q", s))
			return
		}
	}
	query := ""
	if r.URL.RawQuery != "" {
		query = "?" + r.URL.RawQuery
	}
	up := rt.health.Up()
	ctx, cancel := context.WithTimeout(r.Context(), 2*time.Second)
	defer cancel()
	lists := make([][]*jobs.Job, len(up))
	var wg sync.WaitGroup
	for i, wkr := range up {
		wg.Add(1)
		go func(i int, wkr string) {
			defer wg.Done()
			// Best effort, like the stats fan-out: a worker that errors
			// (or predates the jobs API) contributes nothing.
			if resp, err := rt.proxy.listJobs(ctx, wkr, query); err == nil && resp.ok() {
				json.Unmarshal(resp.body, &lists[i])
			}
		}(i, wkr)
	}
	wg.Wait()
	merged := []*jobs.Job{}
	for _, l := range lists {
		merged = append(merged, l...)
	}
	sort.Slice(merged, func(i, j int) bool {
		if merged[i].SubmittedMS != merged[j].SubmittedMS {
			return merged[i].SubmittedMS < merged[j].SubmittedMS
		}
		return merged[i].ID < merged[j].ID
	})
	writeJSON(w, http.StatusOK, merged)
}
