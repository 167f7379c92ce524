package serve_test

// PUT /graphs in the binary CSR format a cluster router replicates: the
// worker decodes it into the graph, kind and content ID the text gives,
// checks the router's content ID, and refuses a type it does not know.

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"pushpull"
	"pushpull/serve"
)

// putBody sends one PUT /graphs and returns the status and body.
func putBody(t *testing.T, url string, body []byte, hdr map[string]string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPut, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	msg, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(msg)
}

func TestServeCSRUpload(t *testing.T) {
	ts, eng := newTestServer(t)
	w := pushpull.Directed(pushpull.WithUniformWeights(smallGraph(t), 1, 9, 3), pushpull.AsWeighted())
	var csr bytes.Buffer
	if err := pushpull.WriteWorkloadCSR(&csr, w); err != nil {
		t.Fatal(err)
	}
	status, msg := putBody(t, ts.URL+"/graphs/bin", csr.Bytes(), map[string]string{
		"Content-Type":        serve.CSRContentType,
		serve.ContentIDHeader: w.ID(),
	})
	if status != http.StatusCreated {
		t.Fatalf("binary PUT: %d %s", status, msg)
	}
	text := uploadGraph(t, ts, "text", w)
	got, ok := eng.Workload("bin")
	if !ok || got.ID() != w.ID() || got.ID() != text.ID || got.Kind() != text.Kind {
		t.Fatalf("binary upload registered %v (%s), the text one %s %s", ok, got.ID(), text.Kind, text.ID)
	}
}

// TestServeCSRUploadRefusals: a content ID that is not the body's, a body
// whose header claims more than it holds or marks a pull view, and a type
// the server does not know are refused without registering anything.
func TestServeCSRUploadRefusals(t *testing.T) {
	ts, eng := newTestServer(t)
	w := pushpull.NewWorkload(smallGraph(t))
	var csr bytes.Buffer
	if err := pushpull.WriteWorkloadCSR(&csr, w); err != nil {
		t.Fatal(err)
	}
	var text bytes.Buffer
	if err := pushpull.WriteWorkload(&text, w); err != nil {
		t.Fatal(err)
	}
	huge := make([]byte, 32)
	copy(huge, csr.Bytes()[:12])
	binary.LittleEndian.PutUint32(huge[12:], math.MaxInt32)
	binary.LittleEndian.PutUint64(huge[16:], 1<<40)
	// The same body with the header's pull-view flag (bit 2): the file an
	// out-of-core handle opens, never an upload.
	pullView := append([]byte(nil), csr.Bytes()...)
	pullView[8] |= 4
	const otherID = "w0123456789abcdef-n400"
	for _, c := range []struct {
		name   string
		body   []byte
		hdr    map[string]string
		status int
		want   []string
	}{
		{"id-mismatch", csr.Bytes(), map[string]string{"Content-Type": serve.CSRContentType, serve.ContentIDHeader: otherID},
			http.StatusBadRequest, []string{otherID, w.ID()}},
		{"text-id-mismatch", text.Bytes(), map[string]string{serve.ContentIDHeader: otherID},
			http.StatusBadRequest, []string{otherID, w.ID()}},
		{"huge-header", huge, map[string]string{"Content-Type": serve.CSRContentType},
			http.StatusBadRequest, []string{"do not fit in the 32-byte limit"}},
		{"text-as-csr", text.Bytes(), map[string]string{"Content-Type": serve.CSRContentType},
			http.StatusBadRequest, []string{"bad magic"}},
		{"pull-view", pullView, map[string]string{"Content-Type": serve.CSRContentType},
			http.StatusBadRequest, []string{"pull view"}},
		{"unknown-type", text.Bytes(), map[string]string{"Content-Type": "application/json"},
			http.StatusUnsupportedMediaType, []string{"application/json", serve.CSRContentType}},
		{"bad-type", text.Bytes(), map[string]string{"Content-Type": "text/"},
			http.StatusUnsupportedMediaType, []string{"Content-Type"}},
	} {
		status, msg := putBody(t, ts.URL+"/graphs/"+c.name, c.body, c.hdr)
		if status != c.status {
			t.Errorf("%s: status %d %s, want %d", c.name, status, msg, c.status)
		}
		for _, s := range c.want {
			if !strings.Contains(msg, s) {
				t.Errorf("%s: %s does not name %q", c.name, msg, s)
			}
		}
		if _, ok := eng.Workload(c.name); ok {
			t.Errorf("%s: refused upload registered a workload", c.name)
		}
	}
	// The types clients send text as keep working.
	for _, ct := range []string{"", "text/plain; charset=utf-8", "application/octet-stream", "application/x-www-form-urlencoded"} {
		if status, msg := putBody(t, ts.URL+"/graphs/t", text.Bytes(), map[string]string{"Content-Type": ct}); status != http.StatusCreated {
			t.Errorf("text PUT as %q: %d %s", ct, status, msg)
		}
	}
}

// TestServeCSRUploadOverLimit: a binary body past the server's upload
// limit answers 413, as a text one does.
func TestServeCSRUploadOverLimit(t *testing.T) {
	eng := pushpull.NewEngine()
	ts := httptest.NewServer(serve.New(eng, serve.WithMaxUpload(64)))
	t.Cleanup(ts.Close)
	var csr bytes.Buffer
	if err := pushpull.WriteWorkloadCSR(&csr, pushpull.NewWorkload(smallGraph(t))); err != nil {
		t.Fatal(err)
	}
	status, msg := putBody(t, ts.URL+"/graphs/big", csr.Bytes(), map[string]string{"Content-Type": serve.CSRContentType})
	if status != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized binary PUT: %d %s", status, msg)
	}
	if !strings.Contains(msg, "64") {
		t.Errorf("refusal %s does not name the 64-byte limit", msg)
	}
}
