package serve

// The async half of the HTTP surface: /jobs endpoints over a
// jobs.Manager (wired with WithJobManager). Submission returns
// immediately with 202 and a job (or batch) ID; clients poll status and
// fetch the result when done — the result body is byte-identical to
// what the synchronous POST /run would have returned.
//
//	POST   /jobs              submit one spec, or {"batch": [...]} of
//	                          many sharing one batch ID
//	GET    /jobs              list jobs (?state=..., ?batch=... filters)
//	GET    /jobs/{id}         status (no result payload)
//	GET    /jobs/{id}/result  the stored RunResponse of a done job
//	DELETE /jobs/{id}         cancel (queued → canceled now; running →
//	                          the run's context is canceled)

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"pushpull"
	"pushpull/jobs"
)

// JobRequest is the POST /jobs body: either one inline spec or a batch.
type JobRequest struct {
	jobs.Spec
	// Batch, when non-empty, submits every entry under one batch ID;
	// the inline spec fields must then be empty. Validation is
	// all-or-nothing: one bad entry rejects the whole batch.
	Batch []jobs.Spec `json:"batch,omitempty"`
}

// BatchResponse is the POST /jobs body for a batch submission.
type BatchResponse struct {
	BatchID string      `json:"batch_id"`
	Jobs    []*jobs.Job `json:"jobs"`
}

func (s *Server) submitJobs(w http.ResponseWriter, r *http.Request) {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	var req JobRequest
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("parsing job request: %w", err))
		return
	}
	if len(req.Batch) > 0 {
		if req.Graph != "" || req.Algorithm != "" {
			writeError(w, http.StatusBadRequest,
				errors.New(`a job request is either one inline spec or a "batch", not both`))
			return
		}
		for i, spec := range req.Batch {
			if status, err := s.checkSpec(spec); err != nil {
				writeError(w, status, fmt.Errorf("batch entry %d: %w", i, err))
				return
			}
		}
		batchID, submitted, err := s.jobs.SubmitBatch(req.Batch)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		writeJSON(w, http.StatusAccepted, BatchResponse{BatchID: batchID, Jobs: submitted})
		return
	}
	if status, err := s.checkSpec(req.Spec); err != nil {
		writeError(w, status, err)
		return
	}
	j, err := s.jobs.Submit(req.Spec)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusAccepted, j)
}

// checkSpec pre-validates a spec so submission failures carry the same
// statuses the synchronous run path uses: unknown names are the
// client's lookup problem (404), bad options a bad request (400).
func (s *Server) checkSpec(spec jobs.Spec) (int, error) {
	if spec.Graph == "" || spec.Algorithm == "" {
		return http.StatusBadRequest, errors.New(`"graph" and "algorithm" are required`)
	}
	if _, ok := s.eng.Workload(spec.Graph); !ok {
		return http.StatusNotFound,
			fmt.Errorf("unknown graph %q (registered: %v)", spec.Graph, s.eng.WorkloadNames())
	}
	if _, err := pushpull.Lookup(spec.Algorithm); err != nil {
		return http.StatusNotFound, err
	}
	if _, err := spec.Options.ToOptions(); err != nil {
		return http.StatusBadRequest, err
	}
	if spec.DeadlineMS < 0 {
		return http.StatusBadRequest, fmt.Errorf("negative deadline_ms %d", spec.DeadlineMS)
	}
	return 0, nil
}

func (s *Server) listJobs(w http.ResponseWriter, r *http.Request) {
	state := jobs.State(r.URL.Query().Get("state"))
	batch := r.URL.Query().Get("batch")
	list, err := s.jobs.List(state, batch)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, list)
}

func (s *Server) jobStatus(w http.ResponseWriter, r *http.Request) {
	j, err := s.jobs.Get(r.PathValue("id"))
	if err != nil {
		writeError(w, jobStatusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, j)
}

func (s *Server) jobResult(w http.ResponseWriter, r *http.Request) {
	j, err := s.jobs.Get(r.PathValue("id"))
	if err != nil {
		writeError(w, jobStatusFor(err), err)
		return
	}
	switch j.State {
	case jobs.StateDone:
		// The stored document is already an encoded api.RunResponse: the
		// job's head, then the payload streamed from the job store.
		body, err := s.jobs.OpenResult(j.ID)
		if err != nil {
			writeError(w, jobStatusFor(err), err)
			return
		}
		defer body.Close()
		writeBody(w, body.Size, func() { body.WriteTo(w) })
	case jobs.StateQueued, jobs.StateRunning:
		// Not ready: 202 with the status view so pollers can hit this
		// endpoint alone and branch on the code.
		writeJSON(w, http.StatusAccepted, j)
	case jobs.StateFailed:
		if j.Error == jobs.ErrDeadlineExceeded.Error() {
			writeError(w, http.StatusGatewayTimeout, fmt.Errorf("job %q: %s", j.ID, j.Error))
			return
		}
		writeError(w, http.StatusInternalServerError, fmt.Errorf("job %q failed: %s", j.ID, j.Error))
	default: // canceled, interrupted
		writeError(w, http.StatusGone, fmt.Errorf("job %q is %s: %s", j.ID, j.State, j.Error))
	}
}

func (s *Server) cancelJob(w http.ResponseWriter, r *http.Request) {
	j, err := s.jobs.Cancel(r.PathValue("id"))
	if err != nil {
		writeError(w, jobStatusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, j)
}

// jobStatusFor maps manager errors onto HTTP statuses.
func jobStatusFor(err error) int {
	switch {
	case errors.Is(err, jobs.ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, jobs.ErrNotDone):
		return http.StatusAccepted
	default:
		return http.StatusInternalServerError
	}
}
