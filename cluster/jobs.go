package cluster

// The async half of the router: /jobs endpoints over the worker fleet.
// Submission routes like a run — to the primary replica of the job's
// graph, with the same retry/backoff/failover loop — and carries the
// serving worker's origin token (serve.OriginHeader), which the worker
// mints into every job and batch ID it accepts. Job records are not
// replicated, so a job LIVES on the worker that took it; a status,
// result or cancel poll goes to the worker its ID names (jobs.Origin),
// through the token map New builds once. The router keeps no job table:
// a restarted router, or a second one over the same workers, routes the
// same polls the same way. A batch must land whole on one worker (one
// batch ID, one queue): only workers replicating every graph the batch
// touches are candidates, and a batch spanning disjoint replica sets is
// refused with 409 — split the batch.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"pushpull/internal/edge"
	"pushpull/jobs"
	"pushpull/serve"
)

func (rt *Router) submitJobs(w http.ResponseWriter, r *http.Request) {
	var req serve.JobRequest
	body, ok := edge.Decode(w, r, "job request", &req)
	if !ok {
		return
	}
	specs, err := req.Specs()
	if err != nil {
		edge.WriteError(w, http.StatusBadRequest, err)
		return
	}
	pls := make([]Placement, len(specs))
	for i, spec := range specs {
		if pls[i], err = rt.placement(spec.Graph, spec.Algorithm); err != nil {
			edge.WriteError(w, edge.Status(err), fmt.Errorf("job spec %d: %w", i, err))
			return
		}
	}
	candidates, err := jobTargets(pls)
	if err != nil {
		edge.WriteError(w, http.StatusConflict, err)
		return
	}
	resp, wkr, ok := rt.tryReplicas(r.Context(), w, "job submission", candidates,
		func(wkr string) (*workerResponse, error) {
			return rt.proxy.submitJobs(r.Context(), wkr, originToken(wkr), body)
		})
	if ok {
		rt.relay(r.Context(), w, resp, wkr)
	}
}

// jobTargets computes the submission candidates for a job touching the
// placed graphs: the workers replicating every one of them, in the first
// graph's placement order (so candidates[0] is that graph's primary). A
// batch spanning graphs with no common replica cannot run under one
// batch ID: the caller answers 409.
func jobTargets(pls []Placement) ([]string, error) {
	common := append([]string(nil), pls[0].Replicas...)
	for _, pl := range pls[1:] {
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
		return nil, fmt.Errorf("no worker replicates all %d graphs of the batch — split the batch along replica sets", len(pls))
	}
	return common, nil
}

// jobStatus, jobResult and cancelJob go to the worker the job's ID
// names: job records live on exactly one worker, so failover would turn
// a live job into a phantom 404. A dead worker is a truthful 502.
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
	wkr, ok := rt.owners[jobs.Origin(id)]
	if !ok {
		edge.WriteError(w, http.StatusNotFound,
			fmt.Errorf("unknown job %q (its ID names no worker of this fleet)", id))
		return
	}
	resp, err := call(r.Context(), wkr, id)
	if err != nil {
		rt.health.MarkDown(wkr)
		edge.WriteError(w, http.StatusBadGateway,
			fmt.Errorf("worker %s holding job %q is unreachable: %v", wkr, id, err))
		return
	}
	rt.relay(r.Context(), w, resp, wkr)
}

// listJobs fans GET /jobs out to every up worker and merges the lists
// (status views only — results never ride a listing), sorted by
// submission time. Filters (?state=, ?batch=) pass through verbatim;
// the state filter is validated here so a typo 400s instead of quietly
// merging nothing.
func (rt *Router) listJobs(w http.ResponseWriter, r *http.Request) {
	if s := jobs.State(r.URL.Query().Get("state")); s != "" && !s.Valid() {
		edge.WriteError(w, http.StatusBadRequest, fmt.Errorf("bad state filter %q", s))
		return
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
	edge.WriteJSON(w, http.StatusOK, merged)
}
