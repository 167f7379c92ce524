package serve

// The async half of the HTTP surface: /jobs endpoints over a
// jobs.Manager (wired with WithJobManager). Submission returns
// immediately with 202 and a job (or batch) ID; clients poll status and
// fetch the result when done — the result body is byte-identical to
// what the synchronous POST /run would have returned. A submission a
// cluster router forwards carries OriginHeader, the router's token for
// this worker, and the IDs minted for it carry the token: any router
// over the same fleet finds this worker from such an ID, with no job
// table of its own.
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

// submitJobs checks a router's origin header and leaves the judging of
// each spec to the job manager, whose errors carry their status class.
func (s *Server) submitJobs(w http.ResponseWriter, r *http.Request) {
	if h, routed := r.Header[OriginHeader]; routed && (len(h) != 1 || !jobs.ValidOrigin(h[0])) {
		edge.WriteError(w, http.StatusBadRequest, fmt.Errorf("bad %s header %q: want 16 lowercase hex digits", OriginHeader, h))
		return
	}
	var req JobRequest
	if _, ok := edge.Decode(w, r, "job request", &req); !ok {
		return
	}
	specs, err := req.Specs()
	if err != nil {
		edge.WriteError(w, http.StatusBadRequest, err)
		return
	}
	batchID, js, err := s.jobs.SubmitFrom(r.Header.Get(OriginHeader), len(req.Batch) > 0, specs...)
	if err != nil {
		edge.WriteError(w, edge.Status(err), err)
		return
	}
	if batchID == "" {
		edge.WriteJSON(w, http.StatusAccepted, js[0])
		return
	}
	edge.WriteJSON(w, http.StatusAccepted, BatchResponse{BatchID: batchID, Jobs: js})
}

func (s *Server) listJobs(w http.ResponseWriter, r *http.Request) {
	list, err := s.jobs.List(jobs.State(r.URL.Query().Get("state")), r.URL.Query().Get("batch"))
	reply(w, list, err)
}

func (s *Server) jobStatus(w http.ResponseWriter, r *http.Request) {
	j, err := s.jobs.Get(r.PathValue("id"))
	reply(w, j, err)
}

func (s *Server) jobResult(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	body, err := s.jobs.OpenResult(id)
	if errors.Is(err, jobs.ErrNotDone) {
		// Not ready: 202 with the status view so pollers can hit this
		// endpoint alone and branch on the code.
		var j *jobs.Job
		if j, err = s.jobs.Get(id); err == nil {
			edge.WriteJSON(w, http.StatusAccepted, j)
			return
		}
	}
	if err != nil {
		edge.WriteError(w, edge.Status(err), err)
		return
	}
	// The stored document is already an encoded api.RunResponse: the
	// job's head, then the payload streamed from the job store.
	defer body.Close()
	writeBody(w, body.Size, func() { body.WriteTo(w) })
}

func (s *Server) cancelJob(w http.ResponseWriter, r *http.Request) {
	j, err := s.jobs.Cancel(r.PathValue("id"))
	reply(w, j, err)
}

// reply answers a manager call: v with 200, or err with its status.
func reply(w http.ResponseWriter, v any, err error) {
	if err != nil {
		edge.WriteError(w, edge.Status(err), err)
		return
	}
	edge.WriteJSON(w, http.StatusOK, v)
}
