// Package jobs turns synchronous engine runs into durable, schedulable
// jobs: the async half of the serving stack. A Manager wraps a
// *pushpull.Engine; Submit returns a job ID immediately and a scheduler
// drains a priority+deadline-aware queue into the engine's admission
// queue, at most as many jobs at once as the engine admits runs. Job
// state lives behind a JobStore, so a worker restart recovers the queue
// instead of forgetting it: still-queued jobs are re-queued, jobs that
// were mid-run are marked interrupted (their partial work is gone with
// the process).
//
// The scheduling order is strict: higher priority always dispatches
// first; within a priority, earlier deadline first (no deadline sorts
// last); within that, submission order. A job whose deadline passes
// before it reaches a worker slot fails fast with ErrDeadlineExceeded —
// it never occupies a slot, so an overloaded worker sheds exactly the
// work that could no longer be useful.
package jobs

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"

	"pushpull/api"
)

// ErrDeadlineExceeded: the job's deadline passed before it could start
// executing. The scheduler fails such jobs at dispatch time without
// consuming a worker slot; Result returns this error for them.
var ErrDeadlineExceeded = errors.New("jobs: deadline exceeded before the job could run")

// ErrNotFound: no job with the requested ID — never submitted here, or
// terminal long enough ago to have been collected (WithRetention).
var ErrNotFound = errors.New("jobs: no such job")

// ErrNotDone: the job has no result yet (still queued or running).
var ErrNotDone = errors.New("jobs: job has not finished")

// Priority orders jobs in the scheduler's queue. The zero value is
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

// Terminal reports whether the state is final — no scheduler or worker
// will touch the job again.
func (s State) Terminal() bool {
	switch s {
	case StateDone, StateFailed, StateCanceled, StateInterrupted:
		return true
	}
	return false
}

// valid reports whether s is one of the lifecycle states (used when
// filtering by a client-supplied state string).
func (s State) valid() bool {
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
	// Result is a whole result stored inline: the form records written
	// before payloads were shared carry, and which a record handed to
	// JobStore.Put may still use. The Manager writes Head and Payload.
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

// StatusView returns a shallow copy without the result (Head and any
// inline Result): the shape status polls and job listings serve.
func (j *Job) StatusView() *Job {
	cp := *j
	cp.Head, cp.Result = "", nil
	return &cp
}

// newID returns a crypto-random identifier: prefix + 16 hex digits.
func newID(prefix string) string {
	var b [8]byte
	rand.Read(b[:])
	return prefix + hex.EncodeToString(b[:])
}
