package edge_test

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"pushpull"
	"pushpull/internal/edge"
	"pushpull/jobs"
	"pushpull/serve"
)

// TestStatus walks every error that carries a status of its own through
// the table once, wrapped as callers wrap them, and an error that
// carries none, which is the tier's fault.
func TestStatus(t *testing.T) {
	plain := errors.New("plain")
	for _, c := range []struct {
		err  error
		want int
	}{
		{edge.NotFound(plain), http.StatusNotFound},
		{edge.BadRequest(plain), http.StatusBadRequest},
		{edge.Class(http.StatusConflict, plain), http.StatusConflict},
		{pushpull.ErrNeedsWeights, http.StatusBadRequest},
		{pushpull.ErrDirectedUnsupported, http.StatusBadRequest},
		{pushpull.ErrProbesUnsupported, http.StatusBadRequest},
		{pushpull.ErrOutOfCoreUnsupported, http.StatusBadRequest},
		{pushpull.ErrBadSource, http.StatusBadRequest},
		{pushpull.ErrBadOption, http.StatusBadRequest},
		{pushpull.ErrOverloaded, http.StatusTooManyRequests},
		{pushpull.ErrDraining, http.StatusServiceUnavailable},
		{context.DeadlineExceeded, http.StatusGatewayTimeout},
		{pushpull.ErrStore, http.StatusInternalServerError},
		{jobs.ErrNotFound, http.StatusNotFound},
		{jobs.ErrNotDone, http.StatusAccepted},
		{jobs.ErrClosed, http.StatusServiceUnavailable},
		{jobs.ErrPersist, http.StatusInternalServerError},
		{jobs.ErrDeadlineExceeded, http.StatusGatewayTimeout},
		{context.Canceled, http.StatusInternalServerError},
		{plain, http.StatusInternalServerError},
	} {
		err := fmt.Errorf("wrapped: %w", c.err)
		if got := edge.Status(err); got != c.want {
			t.Errorf("Status(%v) = %d, want %d", err, got, c.want)
		}
		if !errors.Is(err, c.err) || err.Error() != "wrapped: "+c.err.Error() {
			t.Errorf("%v: a mark changed what the error is or says", err)
		}
	}
}

// TestFailOver: a router tries the next replica on a worker's fault but
// a run's own deadline, on overload and on a lost graph; any other
// status is the answer.
func TestFailOver(t *testing.T) {
	for status, want := range map[int]bool{
		http.StatusOK: false, http.StatusCreated: false, http.StatusAccepted: false,
		http.StatusBadRequest: false, http.StatusConflict: false, http.StatusGone: false,
		http.StatusRequestEntityTooLarge: false, http.StatusUnsupportedMediaType: false,
		http.StatusNotFound: true, http.StatusTooManyRequests: true,
		http.StatusInternalServerError: true, http.StatusBadGateway: true, http.StatusServiceUnavailable: true,
		http.StatusGatewayTimeout: false,
	} {
		if got := edge.FailOver(status); got != want {
			t.Errorf("FailOver(%d) = %v, want %v", status, got, want)
		}
	}
}

// TestReadGraphChargesTheHeader: a text header's vertices are charged
// against the upload limit before the reader allocates for them. The
// 22-byte body of a 2^24-vertex graph is refused at a 64 MiB limit, and
// the largest vertex count the format allows at the default limit, each
// with 413 naming the bytes the graph would take, and neither read
// allocates anything near what those vertices would.
func TestReadGraphChargesTheHeader(t *testing.T) {
	for _, c := range []struct {
		body  string
		limit int64
		need  string
	}{
		{"# pushpull 16777216 0\n", 64 << 20, "16777216 vertices need 268435456 bytes"},
		{"# pushpull 2147483647 0\n", serve.MaxGraphBytes, "2147483647 vertices need 34359738352 bytes"},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rec := httptest.NewRecorder()
		_, ok := edge.ReadGraph(rec, httptest.NewRequest(http.MethodPut, "/graphs/g", strings.NewReader(c.body)), c.limit)
		runtime.ReadMemStats(&after)
		// Fatal: a reader that ignored the limit would, at the next case,
		// try to allocate 32 GiB.
		if ok || rec.Code != http.StatusRequestEntityTooLarge || !strings.Contains(rec.Body.String(), c.need) {
			t.Fatalf("%q at a %d-byte limit: accepted %v, %d %s; want 413 naming %q", c.body, c.limit, ok, rec.Code, rec.Body, c.need)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 8<<20 {
			t.Errorf("%q: refusing it allocated %d bytes", c.body, alloc)
		}
	}
}
