// Package api holds the JSON wire types shared by every HTTP-facing
// layer of the system: the worker front (pushpull/serve), the cluster
// router (pushpull/cluster), and the async job subsystem
// (pushpull/jobs). A run request, its options projection, and the
// lowered Report response have exactly one JSON shape — a job's stored
// result is byte-identical to what a synchronous POST /run would have
// returned, so clients (and the cluster router) can treat the two paths
// interchangeably.
package api

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"pushpull"
)

// AlgorithmInfo is one GET /algorithms entry.
type AlgorithmInfo struct {
	Name        string `json:"name"`
	Description string `json:"description"`
	Caps        string `json:"caps"`
}

// RunRequest is the POST /run body.
type RunRequest struct {
	// Graph names a workload registered on the engine (PUT /graphs or
	// server-side preload).
	Graph string `json:"graph"`
	// Algorithm is the registry name ("pr", "bfs", "sssp", ...).
	Algorithm string `json:"algorithm"`
	// Options carries the run options; zero values mean the engine
	// defaults, exactly like the With* functional options.
	Options RunOptions `json:"options"`
}

// RunOptions is the JSON projection of the engine's functional options.
// Unknown fields are rejected so a typo cannot silently run defaults.
type RunOptions struct {
	Direction  string   `json:"direction,omitempty"` // "push", "pull", "auto"
	Threads    int      `json:"threads,omitempty"`
	Iterations int      `json:"iterations,omitempty"`
	MaxIters   int      `json:"max_iters,omitempty"`
	Source     int      `json:"source,omitempty"`
	Sources    []int    `json:"sources,omitempty"`
	Delta      float64  `json:"delta,omitempty"`
	Damping    *float64 `json:"damping,omitempty"`
	// TimeoutMS bounds the run server-side: a synchronous run's from its
	// arrival, its queue wait included (the request context also cancels
	// it when the client disconnects); a job's from its grant, since the
	// job's deadline_ms bounds its wait.
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// ToOptions lowers the JSON projection into the engine's functional
// options, rejecting values no With* function would accept and values
// the lowering could not carry exactly: a vertex id outside
// [0, math.MaxInt32] or a timeout_ms that is negative or too large for a
// time.Duration. It also refuses more threads than the process runs at
// once, runtime.GOMAXPROCS(0): a kernel's scratch grows with its threads
// (pr push holds (t+1)·n·8 bytes), so one request must not choose it past
// what the machine can use.
func (o *RunOptions) ToOptions() ([]pushpull.Option, error) {
	var opts []pushpull.Option
	switch o.Direction {
	case "", "auto":
	case "push":
		opts = append(opts, pushpull.WithDirection(pushpull.Push))
	case "pull":
		opts = append(opts, pushpull.WithDirection(pushpull.Pull))
	default:
		return nil, fmt.Errorf(`bad "direction" %q (push, pull, auto)`, o.Direction)
	}
	if procs := runtime.GOMAXPROCS(0); o.Threads > procs {
		return nil, fmt.Errorf(`bad "threads" %d (at most %d, this process's GOMAXPROCS)`, o.Threads, procs)
	}
	if o.Threads != 0 {
		opts = append(opts, pushpull.WithThreads(o.Threads))
	}
	if o.Iterations != 0 {
		opts = append(opts, pushpull.WithIterations(o.Iterations))
	}
	if o.MaxIters != 0 {
		opts = append(opts, pushpull.WithMaxIters(o.MaxIters))
	}
	if o.Source != 0 {
		v, err := vertex("source", o.Source)
		if err != nil {
			return nil, err
		}
		opts = append(opts, pushpull.WithSource(v))
	}
	if len(o.Sources) > 0 {
		vs := make([]pushpull.V, len(o.Sources))
		for i, id := range o.Sources {
			v, err := vertex(fmt.Sprintf("sources[%d]", i), id)
			if err != nil {
				return nil, err
			}
			vs[i] = v
		}
		opts = append(opts, pushpull.WithSources(vs))
	}
	if o.Delta != 0 {
		opts = append(opts, pushpull.WithDelta(o.Delta))
	}
	if o.Damping != nil {
		opts = append(opts, pushpull.WithDamping(*o.Damping))
	}
	// The serving layers turn timeout_ms into a time.Duration of
	// nanoseconds; past this bound that product wraps negative. They
	// apply it only when positive, so a negative one would mean none.
	if o.TimeoutMS < 0 || time.Duration(o.TimeoutMS) > math.MaxInt64/time.Millisecond {
		return nil, fmt.Errorf(`bad "timeout_ms" %d (0 means none, at most %d)`, o.TimeoutMS, math.MaxInt64/time.Millisecond)
	}
	return opts, nil
}

// vertex converts a JSON vertex id to a pushpull.V, which is 32 bits wide:
// a plain conversion would wrap 2^32 to vertex 0.
func vertex(field string, id int) (pushpull.V, error) {
	if id < 0 || id > math.MaxInt32 {
		return 0, fmt.Errorf(`bad %q %d (vertex ids are 0..%d)`, field, id, math.MaxInt32)
	}
	return pushpull.V(id), nil
}

// RunResponse is the POST /run body on success — and, verbatim, the
// stored result payload of a completed async job.
type RunResponse struct {
	Algorithm  string   `json:"algorithm"`
	Graph      string   `json:"graph"`
	Summary    string   `json:"summary"`
	Stats      RunStats `json:"stats"`
	Directions []string `json:"directions,omitempty"`
	// Ranks holds float payloads (pr ranks, bc scores, sssp distances);
	// non-finite entries — the +Inf distance of an unreached vertex —
	// are encoded as null.
	Ranks   Floats  `json:"ranks,omitempty"`
	Counts  []int64 `json:"counts,omitempty"`
	Colors  []int32 `json:"colors,omitempty"`
	Parents []int64 `json:"parents,omitempty"`
	Levels  []int32 `json:"levels,omitempty"`
}

// RunStats is the JSON projection of the report's RunStats.
type RunStats struct {
	Direction   string `json:"direction"`
	Iterations  int    `json:"iterations"`
	ElapsedNS   int64  `json:"elapsed_ns"`
	QueueWaitNS int64  `json:"queue_wait_ns"`
	CacheHit    bool   `json:"cache_hit"`
	Coalesced   bool   `json:"coalesced"`
	Canceled    bool   `json:"canceled"`
}

// StatsOf lowers a Report's run stats into the wire shape.
func StatsOf(rep *pushpull.Report) RunStats {
	return RunStats{
		Direction:   statsDirection(rep),
		Iterations:  rep.Stats.Iterations,
		ElapsedNS:   int64(rep.Stats.Elapsed),
		QueueWaitNS: int64(rep.Stats.QueueWait),
		CacheHit:    rep.Stats.CacheHit,
		Coalesced:   rep.Stats.Coalesced,
		Canceled:    rep.Stats.Canceled,
	}
}

// BuildResponse lowers a completed Report into the wire shape, labeled
// with the graph name the run was requested against. It is the decoded
// form of what Encode writes: servers encode with Encode, clients decode
// into RunResponse, and the tests marshal this as Encode's oracle.
func BuildResponse(graph string, rep *pushpull.Report) RunResponse {
	resp := RunResponse{
		Algorithm: rep.Algorithm,
		Graph:     graph,
		Summary:   rep.Summary(),
		Stats:     StatsOf(rep),
	}
	for _, d := range rep.Directions {
		resp.Directions = append(resp.Directions, d.String())
	}
	resp.Ranks = Floats(rep.Ranks())
	resp.Counts = rep.Counts()
	resp.Colors = rep.Colors()
	if t := rep.Tree(); t != nil {
		resp.Parents = make([]int64, len(t.Parent))
		for i, p := range t.Parent {
			resp.Parents[i] = int64(p)
		}
		resp.Levels = t.Level
	}
	return resp
}

// statsDirection names the run's direction in the trace's lowercase
// vocabulary: "push"/"pull" for uniform runs, "mixed" when a switching
// run flipped mid-way.
func statsDirection(rep *pushpull.Report) string {
	if len(rep.Directions) == 0 {
		// No trace (a run that finished no iteration): fall back to the
		// stats block's paper-style name, lowered to the API vocabulary.
		switch rep.Stats.Direction.String() {
		case "Pushing":
			return "push"
		case "Pulling":
			return "pull"
		}
		return "auto"
	}
	first := rep.Directions[0]
	for _, d := range rep.Directions[1:] {
		if d != first {
			return "mixed"
		}
	}
	return first.String()
}

// Floats is a float vector that marshals non-finite entries (NaN, ±Inf —
// e.g. the +Inf distances sssp assigns unreached vertices) as null,
// which encoding/json rejects outright in a plain []float64.
type Floats []float64

// MarshalJSON implements json.Marshaler.
func (f Floats) MarshalJSON() ([]byte, error) {
	if f == nil {
		return []byte("null"), nil
	}
	return appendFloats(make([]byte, 0, floatsSize(len(f))), f), nil
}
