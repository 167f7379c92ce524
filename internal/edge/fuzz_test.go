package edge_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"pushpull/api"
	"pushpull/internal/edge"
	"pushpull/serve"
)

// decode runs body through edge.Decode as a POST would bring it. A body
// Decode accepts must be one JSON document and nothing after it but
// whitespace; a body it refuses must have been answered 400 with an
// {"error": ...} document.
func decode(t *testing.T, body []byte, v any) ([]byte, bool) {
	t.Helper()
	rec := httptest.NewRecorder()
	fwd, ok := edge.Decode(rec, httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(body)), "request", v)
	if ok && !json.Valid(body) {
		t.Fatalf("accepted %q, which is not one JSON document plus whitespace", body)
	}
	if !ok {
		var reply struct{ Error string }
		if rec.Code != http.StatusBadRequest || json.Unmarshal(rec.Body.Bytes(), &reply) != nil || reply.Error == "" {
			t.Fatalf("refused %q with %d %q, want 400 and an error document", body, rec.Code, rec.Body)
		}
	}
	return fwd, ok
}

// FuzzDecode: no body panics the decoder, a body it accepts is one JSON
// document plus whitespace, and a body the router accepts as a run or a
// job request — decoded, its names checked — reaches the worker as the
// same bytes and decodes there to an equal value.
func FuzzDecode(f *testing.F) {
	for _, seed := range []string{
		`{"graph": "g", "algorithm": "pr"}`,
		`{"graph":"g","algorithm":"bfs","options":{"source":3,"direction":"push","damping":0.5,"sources":[]}}`,
		`{"batch": [{"graph": "g", "algorithm": "pr", "priority": "high", "deadline_ms": 5}, {"graph": "h", "algorithm": "tc"}]}`,
		`{"graph": "g", "algorithm": "pr", "batch": [{"graph": "g", "algorithm": "pr"}]}`,
		`{"graph": "g", "algorithm": "pr", "options": {"bogus": 1}}`,
		`{"GRAPH": "g", "Algorithm": "pr"} trailing`,
		`{"graph":"g","algorithm":"pr"} this is not json`,
		`{"graph":"g","algorithm":"pr"} {"graph":"h"}`,
		"{\"graph\":\"g\",\"algorithm\":\"pr\"} \t\r\n",
		`{"graph": "g", "graph": "h", "algorithm": "pr", "priority": "urgent"}`,
		`{"graph": "g", "algorithm": "nope"}`,
		``, `null`, `[]`, `{`, `{"options": null}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var run api.RunRequest
		if fwd, ok := decode(t, body, &run); ok && edge.CheckNames(run.Graph, run.Algorithm) == nil {
			var again api.RunRequest
			if _, ok := decode(t, fwd, &again); !ok || !bytes.Equal(fwd, body) || !reflect.DeepEqual(again, run) {
				t.Fatalf("run %q: the router accepted %+v, the worker got %q and decoded %+v", body, run, fwd, again)
			}
		}

		var job serve.JobRequest
		fwd, ok := decode(t, body, &job)
		if !ok {
			return
		}
		specs, err := job.Specs()
		if err != nil {
			return
		}
		for _, spec := range specs {
			if edge.CheckNames(spec.Graph, spec.Algorithm) != nil {
				return
			}
		}
		var again serve.JobRequest
		if _, ok := decode(t, fwd, &again); !ok || !bytes.Equal(fwd, body) || !reflect.DeepEqual(again, job) {
			t.Fatalf("job %q: the router accepted %+v, the worker got %q and decoded %+v", body, job, fwd, again)
		}
	})
}
