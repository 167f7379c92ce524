package cluster

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"

	"pushpull/serve"
)

// workerResponse is one proxied worker reply: the status, the headers the
// router may relay, and the body — read whole into body, or, for a 2xx
// answer to a streamed call, still on the wire in stream (length is its
// Content-Length, -1 if the worker did not declare one). Whoever ends up
// with a streamed reply closes it; relay does.
type workerResponse struct {
	status int
	header http.Header
	body   []byte
	stream io.ReadCloser
	length int64
}

// ok reports a 2xx status.
func (r *workerResponse) ok() bool { return r.status >= 200 && r.status < 300 }

// proxy is the router's client for one worker fleet: it shapes the
// worker-facing requests (replication epochs, content types). Control
// replies — mutations, submissions, status, stats — are read whole, so
// the handlers deal in values; the two calls whose replies carry a
// result vector (run, jobResult) are streamed, so the router's cost per
// reply is a copy through a fixed buffer, not an allocation its size.
type proxy struct {
	client *http.Client
}

// do issues one request, with hdr added to its headers, and slurps the
// reply. A non-nil error means the worker was unreachable (connection
// refused/reset, timeout) — the failover signal — while HTTP-level
// failures come back as statuses.
func (p *proxy) do(ctx context.Context, method, url string, body []byte, hdr http.Header) (*workerResponse, error) {
	return p.send(ctx, method, url, body, hdr, false)
}

// stream is do for a reply that may be large: a 2xx body is left unread
// in the response's stream. Everything the failover decision looks at —
// connection errors, the status, an error body (those are always read
// whole) — is settled before the first payload byte moves.
func (p *proxy) stream(ctx context.Context, method, url string, body []byte) (*workerResponse, error) {
	return p.send(ctx, method, url, body, nil, true)
}

// send issues one request. A body goes as application/octet-stream
// unless hdr names its type.
func (p *proxy) send(ctx context.Context, method, url string, body []byte, hdr http.Header, stream bool) (*workerResponse, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return nil, fmt.Errorf("cluster: building %s %s: %w", method, url, err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/octet-stream")
	}
	for k, v := range hdr {
		req.Header[k] = v
	}
	resp, err := p.client.Do(req)
	if err != nil {
		return nil, err
	}
	out := &workerResponse{status: resp.StatusCode, header: resp.Header}
	if stream && out.ok() {
		out.stream, out.length = resp.Body, resp.ContentLength
		return out, nil
	}
	defer resp.Body.Close()
	if out.body, err = io.ReadAll(resp.Body); err != nil {
		return nil, fmt.Errorf("cluster: reading %s %s reply: %w", method, url, err)
	}
	return out, nil
}

// putGraph replicates an upload to one worker: csr is the graph in the
// binary CSR format, and id its content ID, which the worker checks.
func (p *proxy) putGraph(ctx context.Context, worker, name string, csr []byte, id string, epoch uint64) (*workerResponse, error) {
	hdr := epochHeader(epoch)
	hdr.Set("Content-Type", serve.CSRContentType)
	hdr.Set(serve.ContentIDHeader, id)
	return p.do(ctx, http.MethodPut, worker+"/graphs/"+pathEscape(name), csr, hdr)
}

// deleteGraph propagates a delete (or a placement-change cleanup) to one
// worker.
func (p *proxy) deleteGraph(ctx context.Context, worker, name string, epoch uint64) (*workerResponse, error) {
	return p.do(ctx, http.MethodDelete, worker+"/graphs/"+pathEscape(name), nil, epochHeader(epoch))
}

// epochHeader is the header set that stamps a mutation with its epoch.
func epochHeader(epoch uint64) http.Header {
	return http.Header{serve.EpochHeader: {strconv.FormatUint(epoch, 10)}}
}

// run forwards a POST /run body to one worker; the reply is streamed.
func (p *proxy) run(ctx context.Context, worker string, body []byte) (*workerResponse, error) {
	return p.stream(ctx, http.MethodPost, worker+"/run", body)
}

// submitJobs forwards a POST /jobs body (single spec or batch) to one
// worker.
func (p *proxy) submitJobs(ctx context.Context, worker string, body []byte) (*workerResponse, error) {
	return p.do(ctx, http.MethodPost, worker+"/jobs", body, nil)
}

// jobStatus fetches one job's status view from the worker holding it.
func (p *proxy) jobStatus(ctx context.Context, worker, id string) (*workerResponse, error) {
	return p.do(ctx, http.MethodGet, worker+"/jobs/"+pathEscape(id), nil, nil)
}

// jobResult fetches one job's stored run result; the reply is streamed.
func (p *proxy) jobResult(ctx context.Context, worker, id string) (*workerResponse, error) {
	return p.stream(ctx, http.MethodGet, worker+"/jobs/"+pathEscape(id)+"/result", nil)
}

// cancelJob propagates a DELETE /jobs/{id} to the worker holding it.
func (p *proxy) cancelJob(ctx context.Context, worker, id string) (*workerResponse, error) {
	return p.do(ctx, http.MethodDelete, worker+"/jobs/"+pathEscape(id), nil, nil)
}

// listJobs fetches one worker's job list; query carries the caller's
// filter string ("" or "?state=...&batch=...").
func (p *proxy) listJobs(ctx context.Context, worker, query string) (*workerResponse, error) {
	return p.do(ctx, http.MethodGet, worker+"/jobs"+query, nil, nil)
}

// stats fetches one worker's GET /stats body.
func (p *proxy) stats(ctx context.Context, worker string) (*workerResponse, error) {
	return p.do(ctx, http.MethodGet, worker+"/stats", nil, nil)
}

// pathEscape keeps hostile graph names (slashes, dots, percent escapes)
// one opaque path segment on the worker side, mirroring what the
// worker's own mux decodes via PathValue.
func pathEscape(name string) string { return url.PathEscape(name) }
