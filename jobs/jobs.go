// Package jobs turns synchronous engine runs into durable jobs: the async
// half of the serving stack. A Manager wraps a *pushpull.Engine; Submit
// returns a job ID at once, and the job waits for a worker slot in the
// engine's admission queue. Job state lives behind a JobStore, so a
// restart re-queues still-queued jobs and marks mid-run ones interrupted.
//
// The order is strict, with synchronous runs at normal priority: higher
// priority first; within a priority, earlier deadline first (no deadline
// sorts last); within that, submission order. A job whose deadline passes
// before it reaches a worker slot fails fast with ErrDeadlineExceeded — it
// never occupies a slot, so an overloaded worker sheds exactly the work
// that could no longer be useful.
package jobs

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"

	"pushpull/api"
	"pushpull/internal/edge"
)

// ErrDeadlineExceeded: the job's deadline passed before it could start
// executing. The manager fails such jobs when the deadline passes without
// consuming a worker slot; Result returns this error for them. Like the
// errors below, it carries the status that answers it (edge.Status): 504.
var ErrDeadlineExceeded = edge.Class(http.StatusGatewayTimeout, errors.New("jobs: deadline exceeded before the job could run"))

// ErrNotFound: no job with the requested ID — never submitted here, or
// terminal long enough ago to have been collected (WithRetention). 404.
var ErrNotFound = edge.NotFound(errors.New("jobs: no such job"))

// ErrNotDone: the job has no result yet (still queued or running). 202.
var ErrNotDone = edge.Class(http.StatusAccepted, errors.New("jobs: job has not finished"))

// ErrClosed: the Manager was closed and accepts no more submissions. 503.
var ErrClosed = edge.Class(http.StatusServiceUnavailable, errors.New("jobs: manager closed"))

// ErrPersist: the job store refused a record. A submission that meets it
// is refused whole, with none of its jobs kept in memory or in the store.
var ErrPersist = errors.New("jobs: persisting")

// Priority orders jobs in the manager's queue. The zero value is
// Normal, so specs that omit it behave like a plain run.
type Priority int

// Priorities, lowest to highest.
const (
	Low Priority = iota - 1
	Normal
	High
)

// String returns the wire name ("low", "normal", "high").
func (p Priority) String() string {
	switch p {
	case Low:
		return "low"
	case High:
		return "high"
	default:
		return "normal"
	}
}

// MarshalJSON encodes the wire name.
func (p Priority) MarshalJSON() ([]byte, error) {
	return json.Marshal(p.String())
}

// UnmarshalJSON accepts "low", "normal", "high" or the empty string
// (Normal); anything else is rejected so a typo cannot silently demote a
// job.
func (p *Priority) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	switch s {
	case "low":
		*p = Low
	case "", "normal":
		*p = Normal
	case "high":
		*p = High
	default:
		return fmt.Errorf(`jobs: bad priority %q (low, normal, high)`, s)
	}
	return nil
}

// State is a job's lifecycle position.
type State string

// The job lifecycle. queued → running → done/failed/canceled is the
// normal flow; canceled can also follow queued directly, and interrupted
// marks a job a restart found mid-run (the JobStore said running but the
// process that ran it is gone).
const (
	StateQueued      State = "queued"
	StateRunning     State = "running"
	StateDone        State = "done"
	StateFailed      State = "failed"
	StateCanceled    State = "canceled"
	StateInterrupted State = "interrupted"
)

// Terminal reports whether the state is final — no dispatch or run
// will touch the job again.
func (s State) Terminal() bool {
	switch s {
	case StateDone, StateFailed, StateCanceled, StateInterrupted:
		return true
	}
	return false
}

// Valid reports whether s is one of the lifecycle states: the check of a
// client-supplied state filter, on a worker and on a router alike.
func (s State) Valid() bool {
	switch s {
	case StateQueued, StateRunning, StateDone, StateFailed, StateCanceled, StateInterrupted:
		return true
	}
	return false
}

// Spec is what a client submits: one run, plus how urgently it matters.
type Spec struct {
	// Graph and Algorithm name a registered workload and a registry
	// algorithm, exactly as in a synchronous run request.
	Graph     string `json:"graph"`
	Algorithm string `json:"algorithm"`
	// Options is the same JSON options projection POST /run takes.
	Options api.RunOptions `json:"options"`
	// Priority orders the job among queued work (default normal).
	Priority Priority `json:"priority,omitempty"`
	// DeadlineMS, when > 0, bounds the job's useful lifetime in
	// milliseconds from submission: a job still queued when it elapses
	// fails with ErrDeadlineExceeded instead of running, and a job
	// running when it elapses is canceled.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// Job is the full record of one submitted run.
type Job struct {
	ID string `json:"id"`
	// BatchID groups jobs submitted together; empty for singles.
	BatchID string `json:"batch_id,omitempty"`
	Spec    Spec   `json:"spec"`
	State   State  `json:"state"`
	// Error is the failure message for failed/canceled/interrupted jobs.
	Error string `json:"error,omitempty"`
	// Head and Payload are a done job's result — byte-identical to what
	// the synchronous POST /run would have returned — in the two parts
	// api.Encode writes it in: Head is the per-request part, verbatim,
	// and Payload names the tail by its content hash in the JobStore,
	// where jobs with equal payloads share one copy. A record therefore
	// stays a few hundred bytes whatever the size of its result. Status
	// views omit Head (Manager.Result and GET /jobs/{id}/result serve
	// the two joined).
	Head    string `json:"head,omitempty"`
	Payload string `json:"payload,omitempty"`
	// Result is a whole result stored inline, the form records took
	// before payloads were shared. The Manager neither writes nor serves
	// it: recovery drops it, and fails a done record that names no
	// Payload.
	Result json.RawMessage `json:"result,omitempty"`
	// Stats is the completed run's stats, duplicated out of the result so
	// status polls see timings without fetching the payload.
	Stats *api.RunStats `json:"stats,omitempty"`
	// Submitted/Started/Finished are unix-millisecond timestamps; zero
	// means the job never reached that point.
	SubmittedMS int64 `json:"submitted_ms"`
	StartedMS   int64 `json:"started_ms,omitempty"`
	FinishedMS  int64 `json:"finished_ms,omitempty"`
	// DeadlineUnixMS is the absolute deadline (unix ms) derived from
	// Spec.DeadlineMS at submission; zero means none. Kept absolute so a
	// restart's recovered queue enforces the original deadline, not a
	// refreshed one.
	DeadlineUnixMS int64 `json:"deadline_unix_ms,omitempty"`
}

// StatusView returns a shallow copy without the result's Head: the shape
// status polls and job listings serve.
func (j *Job) StatusView() *Job {
	cp := *j
	cp.Head = ""
	return &cp
}

// A job ID is "j-", a batch ID "b-", then 16 random hex digits. A
// submission that names an origin — the token a cluster router holds for
// the worker it sends the submission to — mints "j-<origin>-<random>"
// and "b-<origin>-<random>" instead, so whoever holds the fleet's tokens
// finds a job's worker from its ID alone. An origin is 16 lowercase hex
// digits: it becomes part of a DiskJobStore file name, and no other form
// is accepted.

// newID returns a crypto-random identifier: prefix, then origin and a
// dash when origin is not empty, then 16 hex digits.
func newID(prefix, origin string) string {
	var b [8]byte
	rand.Read(b[:])
	if origin != "" {
		prefix += origin + "-"
	}
	return prefix + hex.EncodeToString(b[:])
}

// ValidOrigin reports whether tok is an origin token: 16 lowercase hex
// digits.
func ValidOrigin(tok string) bool {
	return len(tok) == 16 && strings.Trim(tok, "0123456789abcdef") == ""
}

// Origin returns the origin token a job or batch ID was minted under, or
// "" when the ID has no origin or is not one this package mints.
func Origin(id string) string {
	if len(id) != len("j-")+16+len("-")+16 || (id[:2] != "j-" && id[:2] != "b-") || id[18] != '-' ||
		!ValidOrigin(id[2:18]) || !ValidOrigin(id[19:]) {
		return ""
	}
	return id[2:18]
}
