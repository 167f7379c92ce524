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
	"errors"
	"fmt"
	"net/http"

	"pushpull/internal/edge"
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

// Specs returns what the request submits: the batch, or the one inline
// spec. A request carrying both is refused.
func (req *JobRequest) Specs() ([]jobs.Spec, error) {
	if len(req.Batch) == 0 {
		return []jobs.Spec{req.Spec}, nil
	}
	if req.Graph != "" || req.Algorithm != "" {
		return nil, errors.New(`a job request is either one inline spec or a "batch", not both`)
	}
	return req.Batch, nil
}

// submitJobs leaves the judging of each spec to the job manager, whose
// errors carry their status class (submitStatus).
func (s *Server) submitJobs(w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	if _, ok := edge.Decode(w, r, "job request", &req); !ok {
		return
	}
	specs, err := req.Specs()
	if err != nil {
		edge.WriteError(w, http.StatusBadRequest, err)
		return
	}
	var reply any
	if len(req.Batch) == 0 {
		reply, err = s.jobs.Submit(specs[0])
	} else {
		var br BatchResponse
		br.BatchID, br.Jobs, err = s.jobs.SubmitBatch(specs)
		reply = br
	}
	if err != nil {
		edge.WriteError(w, submitStatus(err), err)
		return
	}
	edge.WriteJSON(w, http.StatusAccepted, reply)
}

// submitStatus is the status a refused submission gets. A spec the
// manager judged gets edge.Status's 404 or 400. The other refusals are
// the worker's, not the request's: a closed manager answers 503, and a
// record the job store would not write answers 500.
func submitStatus(err error) int {
	switch {
	case errors.Is(err, jobs.ErrClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, jobs.ErrPersist):
		return http.StatusInternalServerError
	}
	return edge.Status(err)
}

func (s *Server) listJobs(w http.ResponseWriter, r *http.Request) {
	state := jobs.State(r.URL.Query().Get("state"))
	batch := r.URL.Query().Get("batch")
	list, err := s.jobs.List(state, batch)
	if err != nil {
		edge.WriteError(w, http.StatusBadRequest, err)
		return
	}
	edge.WriteJSON(w, http.StatusOK, list)
}

func (s *Server) jobStatus(w http.ResponseWriter, r *http.Request) {
	j, err := s.jobs.Get(r.PathValue("id"))
	if err != nil {
		edge.WriteError(w, jobStatusFor(err), err)
		return
	}
	edge.WriteJSON(w, http.StatusOK, j)
}

func (s *Server) jobResult(w http.ResponseWriter, r *http.Request) {
	j, err := s.jobs.Get(r.PathValue("id"))
	if err != nil {
		edge.WriteError(w, jobStatusFor(err), err)
		return
	}
	switch j.State {
	case jobs.StateDone:
		// The stored document is already an encoded api.RunResponse: the
		// job's head, then the payload streamed from the job store.
		body, err := s.jobs.OpenResult(j.ID)
		if err != nil {
			edge.WriteError(w, jobStatusFor(err), err)
			return
		}
		defer body.Close()
		writeBody(w, body.Size, func() { body.WriteTo(w) })
	case jobs.StateQueued, jobs.StateRunning:
		// Not ready: 202 with the status view so pollers can hit this
		// endpoint alone and branch on the code.
		edge.WriteJSON(w, http.StatusAccepted, j)
	case jobs.StateFailed:
		if j.Error == jobs.ErrDeadlineExceeded.Error() {
			edge.WriteError(w, http.StatusGatewayTimeout, fmt.Errorf("job %q: %s", j.ID, j.Error))
			return
		}
		edge.WriteError(w, http.StatusInternalServerError, fmt.Errorf("job %q failed: %s", j.ID, j.Error))
	default: // canceled, interrupted
		edge.WriteError(w, http.StatusGone, fmt.Errorf("job %q is %s: %s", j.ID, j.State, j.Error))
	}
}

func (s *Server) cancelJob(w http.ResponseWriter, r *http.Request) {
	j, err := s.jobs.Cancel(r.PathValue("id"))
	if err != nil {
		edge.WriteError(w, jobStatusFor(err), err)
		return
	}
	edge.WriteJSON(w, http.StatusOK, j)
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
