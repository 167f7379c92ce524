package main

// Tracing from outside the program: spans are recorded by this
// benchmark's own code around the calls into each layer — the client's
// request, middleware around the router's and the workers' handlers —
// and completed with the durations the program already reports about
// itself (queue wait and kernel time in a run response). Spans inside
// the program are a later change (ROADMAP item 5).

import (
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary. Times are nanoseconds
// since the tracer was created. Parent is the ID of the span that caused
// it (-1 for a client operation) and Req the ID of that client
// operation, which every span below it shares.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	// Reported marks a span whose duration the program reported (a run
	// response's queue wait and kernel time) and whose position inside
	// its parent is therefore nominal.
	Reported bool `json:"reported,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans and boundary counts in memory until the run ends.
type tracer struct {
	t0 time.Time
	on atomic.Bool

	mu     sync.Mutex
	spans  []span
	counts map[string]int64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), counts: map[string]int64{}}
}

// record stores a finished span and returns its ID, or -1 while tracing
// is switched off.
func (t *tracer) record(name string, start, end time.Time) int {
	if t == nil || !t.on.Load() {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{
		ID: id, Name: name, Parent: -1, Req: -1,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)),
	})
	t.counts[name]++
	return id
}

// report hangs a program-reported duration under the client operation
// req; link moves it below the deepest server span of that operation.
func (t *tracer) report(req int, name string, d time.Duration) {
	if t == nil || req < 0 || d <= 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		ID: len(t.spans), Name: name, Parent: req, Req: req,
		Start: 0, End: int64(d), Reported: true,
	})
	t.counts[name]++
}

// count adds n to a boundary count.
func (t *tracer) count(name string, n int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[name] += n
	t.mu.Unlock()
}

// wrap records one span per request around h, named layer.kind after
// the route (see routeKind). With tracing off it costs one atomic load.
func (t *tracer) wrap(layer string, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		kind := routeKind(r.Method, r.URL.Path)
		if kind == "" || !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		t.record(layer+"."+kind, start, time.Now())
	})
}

// routeKind names the routes the workloads drive; health probes and
// stats reads return "" and are not traced.
func routeKind(method, path string) string {
	switch {
	case path == "/run":
		return "run"
	case strings.HasPrefix(path, "/graphs/"):
		switch method {
		case http.MethodPut:
			return "put"
		case http.MethodDelete:
			return "delete"
		}
	case path == "/jobs" && method == http.MethodPost:
		return "submit"
	case strings.HasPrefix(path, "/jobs/"):
		if strings.HasSuffix(path, "/result") {
			return "result"
		}
		return "status"
	}
	return ""
}

// depth orders the layers a request passes: a span's parent is always
// one of a shallower layer.
func depth(name string) int {
	switch {
	case strings.HasPrefix(name, "client."):
		return 0
	case strings.HasPrefix(name, "cluster."):
		return 1
	case strings.HasPrefix(name, "serve."):
		return 2
	}
	return 3
}

// link gives every measured span its parent and client operation by
// time containment: the parent is the deepest span of a shallower layer
// whose interval contains it. That is sound because the traced phases
// keep one client operation in flight (the router forwards no header to
// correlate on). Reported spans are then moved under the deepest server
// span of their operation, laid end to end from its start.
func link(spans []span) {
	order := make([]int, 0, len(spans))
	for i, s := range spans {
		if !s.Reported {
			order = append(order, i)
		}
	}
	sort.Slice(order, func(a, b int) bool {
		sa, sb := spans[order[a]], spans[order[b]]
		if sa.Start != sb.Start {
			return sa.Start < sb.Start
		}
		return depth(sa.Name) < depth(sb.Name)
	})
	for k, i := range order {
		s := &spans[i]
		d := depth(s.Name)
		if d == 0 {
			s.Parent, s.Req = -1, s.ID
			continue
		}
		best := -1
		for b := k - 1; b >= 0; b-- {
			c := spans[order[b]]
			cd := depth(c.Name)
			if cd < d && c.Start <= s.Start && c.End >= s.End &&
				(best < 0 || cd > depth(spans[best].Name)) {
				best = order[b]
			}
			if cd == 0 {
				break // an earlier client operation cannot contain this one
			}
		}
		if best >= 0 {
			s.Parent, s.Req = best, spans[best].Req
		}
	}
	// Deepest measured span per operation, and where the next reported
	// span under it starts.
	deepest := map[int]int{}
	for _, i := range order {
		s := spans[i]
		if s.Req < 0 {
			continue
		}
		if cur, ok := deepest[s.Req]; !ok || depth(s.Name) > depth(spans[cur].Name) {
			deepest[s.Req] = i
		}
	}
	cursor := map[int]int64{}
	for i := range spans {
		s := &spans[i]
		if !s.Reported {
			continue
		}
		p, ok := deepest[s.Req]
		if !ok {
			continue
		}
		at, seen := cursor[p]
		if !seen {
			at = spans[p].Start
		}
		d := s.dur()
		s.Parent, s.Start, s.End = p, at, at+d
		cursor[p] = at + d
	}
}

// selfTimes returns, per span, its duration minus the part of its
// interval that its child spans cover (children may overlap each other,
// as the two worker PUTs of a replicated upload do).
func selfTimes(spans []span) []int64 {
	kids := map[int][]span{}
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(a, b int) bool { return cs[a].Start < cs[b].Start })
		covered, end := int64(0), s.Start
		for _, c := range cs {
			lo, hi := max(c.Start, end), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				end = hi
			}
		}
		self[i] = s.dur() - covered
	}
	return self
}

// snapshot copies the spans (linked) and counts for analysis or output.
func (t *tracer) snapshot() ([]span, map[string]int64) {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	counts := make(map[string]int64, len(t.counts))
	for k, v := range t.counts {
		counts[k] = v
	}
	t.mu.Unlock()
	link(spans)
	return spans, counts
}
