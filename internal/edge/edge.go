// Package edge is the request edge the worker (pushpull/serve), the
// cluster router (pushpull/cluster) and the job plane (pushpull/jobs)
// share, so that each of its rules is stated once and the tiers answer
// every request alike: the JSON reply and error writers; the body
// decoder; the reader of a PUT /graphs body (its types, the tier's byte
// limit, its parse errors); the checks of a run or job request and the
// start of a served run, timeout_ms included; the one table from an
// error to its status (Status), beside the router's failover rule; and
// the GET /algorithms listing.
package edge

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime"
	"net/http"
	"time"

	"pushpull"
	"pushpull/api"
	"pushpull/internal/graph"
)

// WriteJSON sends body as a JSON reply with the given status, plus the
// newline every reply ends with.
func WriteJSON(w http.ResponseWriter, status int, body any) {
	// Marshal before touching the response: an encoding failure after
	// WriteHeader would send a truncated 200.
	buf, err := json.Marshal(body)
	if err != nil {
		buf = []byte(fmt.Sprintf(`{"error": "encoding response: %s"}`, err))
		status = http.StatusInternalServerError
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(buf)
	w.Write([]byte("\n"))
}

// WriteError sends {"error": err} with the given status.
func WriteError(w http.ResponseWriter, status int, err error) {
	WriteJSON(w, status, map[string]string{"error": err.Error()})
}

// Decode reads r's body, at most 1 MiB, into v as one JSON document,
// whose fields v must all know, followed by nothing but JSON whitespace.
// It returns the body as read, so a tier that forwards the request sends
// the client's bytes. On failure it has answered 400 naming what, and
// returns false.
func Decode(w http.ResponseWriter, r *http.Request, what string, v any) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err == nil {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		err = dec.Decode(v)
		if err == nil {
			if rest := body[dec.InputOffset():]; len(bytes.TrimLeft(rest, " \t\r\n")) > 0 {
				err = fmt.Errorf("data after the JSON document at offset %d", dec.InputOffset())
			}
		}
	}
	if err != nil {
		WriteError(w, http.StatusBadRequest, fmt.Errorf("parsing %s: %w", what, err))
		return nil, false
	}
	return body, true
}

// CSRContentType is the media type of a PUT /graphs body in the binary
// CSR format (pushpull.WriteWorkloadCSR), the form a cluster router
// replicates uploads in.
const CSRContentType = "application/x-pushpull-csr"

// ReadGraph reads a PUT /graphs body, a text edge list or, sent as
// CSRContentType, a binary CSR, into a workload of the kind its header
// records. limit is the tier's upload limit: the body may take no more
// bytes, and a text header's vertices no more memory before any edge is
// read. On failure it has answered — 415 for a type isCSR refuses, 413
// past limit, 400 for a body that does not parse — and returns false.
func ReadGraph(w http.ResponseWriter, r *http.Request, limit int64) (*pushpull.Workload, bool) {
	csr, err := isCSR(r.Header.Get("Content-Type"))
	if err != nil {
		WriteError(w, http.StatusUnsupportedMediaType, err)
		return nil, false
	}
	if csr && r.ContentLength > limit {
		tooLarge(w, limit, fmt.Errorf("Content-Length %d", r.ContentLength))
		return nil, false
	}
	body := http.MaxBytesReader(w, r.Body, limit)
	var wl *pushpull.Workload
	what := "edge list"
	if csr {
		what = "CSR body"
		// A declared length, which is within limit, bounds what the header
		// may claim, so a short body claiming a huge graph is refused
		// before any allocation.
		room := limit
		if r.ContentLength >= 0 {
			room = r.ContentLength
		}
		wl, err = pushpull.ReadWorkloadCSR(body, room)
	} else {
		wl, err = readText(body, limit)
	}
	if err != nil {
		// A CSR header past its declared length is a malformed body.
		tooBig := errors.Is(err, graph.ErrTooLarge) && (!csr || r.ContentLength < 0)
		if tooBig || errors.As(err, new(*http.MaxBytesError)) {
			tooLarge(w, limit, err)
		} else {
			WriteError(w, http.StatusBadRequest, fmt.Errorf("parsing %s: %w", what, err))
		}
		return nil, false
	}
	return wl, true
}

// tooLarge answers an upload past limit bytes, for the reason given.
func tooLarge(w http.ResponseWriter, limit int64, why error) {
	WriteError(w, http.StatusRequestEntityTooLarge,
		fmt.Errorf("upload exceeds the %d-byte graph limit (%w); split the graph or raise -max-upload", limit, why))
}

// readText is pushpull.ReadWorkload with the header's vertex count
// charged against limit before the reader allocates for it.
func readText(body io.Reader, limit int64) (*pushpull.Workload, error) {
	g, directed, err := graph.ReadEdgeListLimit(body, limit)
	if err != nil {
		return nil, err
	}
	var kind []pushpull.WorkloadOption
	if directed {
		kind = append(kind, pushpull.AsDirected())
	}
	if g.Weighted() {
		kind = append(kind, pushpull.AsWeighted())
	}
	return pushpull.NewWorkload(g, kind...), nil
}

// isCSR reports whether a PUT /graphs Content-Type names the binary CSR
// format, or a type clients send text as (none; text/plain;
// application/octet-stream; curl's default for --data-binary,
// application/x-www-form-urlencoded); any other type is an error.
func isCSR(contentType string) (bool, error) {
	if contentType == "" {
		return false, nil
	}
	mt, _, err := mime.ParseMediaType(contentType)
	if err != nil {
		return false, fmt.Errorf("bad Content-Type %q: %w", contentType, err)
	}
	switch mt {
	case CSRContentType:
		return true, nil
	case "text/plain", "application/octet-stream", "application/x-www-form-urlencoded":
		return false, nil
	}
	return false, fmt.Errorf("unsupported Content-Type %q: send a text edge list or %s", mt, CSRContentType)
}

// CheckNames is the check every run and job request passes first: it
// names a graph and an algorithm, and the algorithm is registered. Router
// and worker share the registry, so a router that settles this keeps a
// worker's 404 an unambiguous sign that the worker lost the graph.
func CheckNames(graph, algorithm string) error {
	if graph == "" || algorithm == "" {
		return BadRequest(errors.New(`"graph" and "algorithm" are required`))
	}
	if _, err := pushpull.Lookup(algorithm); err != nil {
		return NotFound(err)
	}
	return nil
}

// Resolve is a worker's judge of a run request, answered at once or
// queued as a job: CheckNames, a graph eng holds (else NotFound), and
// options ToOptions accepts (else BadRequest). It returns the workload
// and the options.
func Resolve(eng *pushpull.Engine, graph, algorithm string, o *api.RunOptions) (*pushpull.Workload, []pushpull.Option, error) {
	if err := CheckNames(graph, algorithm); err != nil {
		return nil, nil, err
	}
	wl, ok := eng.Workload(graph)
	if !ok {
		return nil, nil, NotFound(fmt.Errorf("unknown graph %q (registered: %v)", graph, eng.WorkloadNames()))
	}
	opts, err := o.ToOptions()
	if err != nil {
		return nil, nil, BadRequest(err)
	}
	return wl, opts, nil
}

// Run starts a served run, answered at once or as a job: Resolve, then
// the request's timeout_ms as a deadline on ctx, then eng.Run.
func Run(ctx context.Context, eng *pushpull.Engine, graph, algorithm string, o *api.RunOptions) (*pushpull.Report, error) {
	wl, opts, err := Resolve(eng, graph, algorithm, o)
	if err != nil {
		return nil, err
	}
	if o.TimeoutMS > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(o.TimeoutMS)*time.Millisecond)
		defer cancel()
	}
	return eng.Run(ctx, wl, algorithm, opts...)
}

// classed marks an error with the status that answers it, without
// changing its message.
type classed struct {
	error
	status int
}

func (e classed) Unwrap() error { return e.error }

// Class marks err as answered with status, wherever in a chain Status
// meets it: how pushpull/jobs, which imports this package, classes its
// errors where it defines them.
func Class(status int, err error) error { return classed{err, status} }

// NotFound marks err as naming something the tier does not hold: 404.
func NotFound(err error) error { return Class(http.StatusNotFound, err) }

// BadRequest marks err as a fault of the request itself: 400.
func BadRequest(err error) error { return Class(http.StatusBadRequest, err) }

// Status is the one table from an error to the status that answers it:
// the class marked on the error, else the engine's — an option or a
// capability the run cannot have (400), a shed run (429), a queued run
// refused by a draining worker (503), a run past its own deadline (504)
// — else 500, a fault of the tier, such as a run that panicked.
func Status(err error) int {
	var c classed
	switch {
	case errors.As(err, &c):
		return c.status
	case errors.Is(err, pushpull.ErrNeedsWeights),
		errors.Is(err, pushpull.ErrDirectedUnsupported),
		errors.Is(err, pushpull.ErrProbesUnsupported),
		errors.Is(err, pushpull.ErrOutOfCoreUnsupported),
		errors.Is(err, pushpull.ErrBadSource),
		errors.Is(err, pushpull.ErrBadOption):
		return http.StatusBadRequest
	case errors.Is(err, pushpull.ErrOverloaded):
		return http.StatusTooManyRequests
	case errors.Is(err, pushpull.ErrDraining):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	}
	return http.StatusInternalServerError
}

// FailOver reports whether a router that got status from one replica
// tries the next: on a worker's fault (5xx) but 504, the run's own
// deadline, which every replica would meet again; on 429, an overloaded
// worker; and on 404, a worker that lost the graph (the router settles
// names itself). A run that panics answers 500: one run per attempt.
func FailOver(status int) bool {
	return status >= 500 && status != http.StatusGatewayTimeout ||
		status == http.StatusTooManyRequests || status == http.StatusNotFound
}

// Algorithms answers GET /algorithms from the local registry. Router and
// workers are the same binary, so the router answers it too, and the
// endpoint stays up when the whole fleet is down.
func Algorithms(w http.ResponseWriter, r *http.Request) {
	names := pushpull.Algorithms()
	out := make([]api.AlgorithmInfo, 0, len(names))
	for _, n := range names {
		a, err := pushpull.Lookup(n)
		if err != nil {
			continue
		}
		out = append(out, api.AlgorithmInfo{Name: n, Description: a.Describe(), Caps: a.Caps().String()})
	}
	WriteJSON(w, http.StatusOK, out)
}
