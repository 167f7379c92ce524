// Package edge is the request edge the worker (pushpull/serve), the
// cluster router (pushpull/cluster) and the job plane (pushpull/jobs)
// share, so that each of its rules is stated once: the JSON reply and
// error writers, the body decoder, the checks of a run or job request and
// the status a refused one gets, and the GET /algorithms listing.
package edge

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"pushpull"
	"pushpull/api"
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

// CheckNames is the check every run and job request passes first: it
// names a graph and an algorithm, and the algorithm is registered. Router
// and worker share the registry, so a router that settles this keeps a
// worker's 404 an unambiguous sign that the worker lost the graph.
func CheckNames(graph, algorithm string) error {
	if graph == "" || algorithm == "" {
		return errors.New(`"graph" and "algorithm" are required`)
	}
	if _, err := pushpull.Lookup(algorithm); err != nil {
		return NotFound(err)
	}
	return nil
}

// Resolve is a worker's judge of a run request, answered at once or
// queued as a job: CheckNames, a graph eng holds (else NotFound), and
// options ToOptions accepts. It returns the workload and the options.
func Resolve(eng *pushpull.Engine, graph, algorithm string, o *api.RunOptions) (*pushpull.Workload, []pushpull.Option, error) {
	if err := CheckNames(graph, algorithm); err != nil {
		return nil, nil, err
	}
	wl, ok := eng.Workload(graph)
	if !ok {
		return nil, nil, NotFound(fmt.Errorf("unknown graph %q (registered: %v)", graph, eng.WorkloadNames()))
	}
	opts, err := o.ToOptions()
	return wl, opts, err
}

// notFound marks a request error as naming a graph or algorithm the tier
// does not hold, without changing its message.
type notFound struct{ error }

func (e notFound) Unwrap() error { return e.error }

// NotFound marks err as naming something the tier does not hold: Status
// answers it with 404.
func NotFound(err error) error { return notFound{err} }

// Status is the status a refused request gets: 404 for an error NotFound
// marked, anywhere in its chain, and 400 for any other.
func Status(err error) int {
	if errors.As(err, new(notFound)) {
		return http.StatusNotFound
	}
	return http.StatusBadRequest
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
