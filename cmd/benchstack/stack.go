package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"pushpull"
	"pushpull/cluster"
	"pushpull/jobs"
	"pushpull/serve"
)

// The system under test, in-process on loopback, built from the public
// constructors the way the `pushpull serve` and `pushpull route`
// commands build it with their default flags: two workers — each its own
// Engine, DiskStore and durable job manager — behind one router with
// R = 2.

const stackWorkers = 2

type worker struct {
	url string
	eng *pushpull.Engine
	mgr *jobs.Manager
	srv *http.Server
	end chan struct{} // closed when Serve has returned
}

type stack struct {
	r       *run
	workers []*worker
	router  *cluster.Router
	srv     *http.Server
	end     chan struct{}
	url     string
	client  *http.Client
}

// listen serves h on a fresh loopback port with the commands' timeouts.
func listen(h http.Handler) (*http.Server, string, chan struct{}, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", nil, err
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second, IdleTimeout: 2 * time.Minute}
	end := make(chan struct{})
	go func() {
		defer close(end)
		srv.Serve(ln) // returns ErrServerClosed at shutdown
	}()
	return srv, "http://" + ln.Addr().String(), end, nil
}

// startWorker builds one worker the way `pushpull serve -store dir` does.
func startWorker(r *run, dir string) (*worker, error) {
	eng := pushpull.NewEngine(
		pushpull.WithResultCache(pushpull.DefaultCacheCapacity),
		pushpull.WithQueueLimit(1024))
	ds, err := pushpull.NewDiskStore(dir)
	if err != nil {
		return nil, err
	}
	if err := eng.AttachStore(ds); err != nil {
		return nil, err
	}
	js, err := jobs.NewDiskJobStore(filepath.Join(dir, "jobs"))
	if err != nil {
		return nil, err
	}
	mgr, err := jobs.NewManager(eng, jobs.WithStore(js))
	if err != nil {
		return nil, err
	}
	h := serve.New(eng, serve.WithMaxUpload(serve.MaxGraphBytes), serve.WithJobManager(mgr))
	srv, url, end, err := listen(r.tr.wrap("serve", h))
	if err != nil {
		mgr.Close()
		return nil, err
	}
	return &worker{url: url, eng: eng, mgr: mgr, srv: srv, end: end}, nil
}

// newStack starts a stack on fresh store directories: a set-up that is
// repeated must not find the previous one's graphs and jobs on disk.
func newStack(r *run) (_ *stack, err error) {
	s := &stack{r: r, client: &http.Client{Timeout: 2 * time.Minute}}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	dir, err := os.MkdirTemp(r.dir, "stack")
	if err != nil {
		return nil, err
	}
	var urls []string
	for i := 0; i < stackWorkers; i++ {
		w, err := startWorker(r, filepath.Join(dir, fmt.Sprintf("worker%d", i)))
		if err != nil {
			return nil, err
		}
		s.workers = append(s.workers, w)
		urls = append(urls, w.url)
	}
	if s.router, err = cluster.New(cluster.Config{Workers: urls, Replicas: 2}); err != nil {
		return nil, err
	}
	s.router.Start(r.ctx)
	if s.srv, s.url, s.end, err = listen(r.tr.wrap("cluster", s.router)); err != nil {
		return nil, err
	}
	return s, nil
}

// close stops every server and goroutine the stack started and waits
// for each to end.
func (s *stack) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	stop := func(srv *http.Server, end chan struct{}) {
		if srv == nil {
			return
		}
		if srv.Shutdown(ctx) != nil {
			srv.Close()
		}
		<-end
	}
	stop(s.srv, s.end)
	if s.router != nil {
		s.router.Close()
	}
	for _, w := range s.workers {
		stop(w.srv, w.end)
		w.mgr.Close()
	}
	s.client.CloseIdleConnections()
}

// reply is one HTTP exchange as the client saw it.
type reply struct {
	status int
	header http.Header
	body   []byte
	start  time.Time
	lat    time.Duration
	span   int // the client span's ID in a traced request, else -1
}

// do issues one request to the router and reads the whole reply; kind
// names the client span ("run", "put", …; "" records none).
func (s *stack) do(kind, method, path string, body []byte) (*reply, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(s.r.ctx, method, s.url+path, rd)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	buf, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	end := time.Now()
	span := -1
	if kind != "" {
		span = s.r.tr.record("client."+kind, start, end)
	}
	return &reply{
		status: resp.StatusCode, header: resp.Header, body: buf,
		start: start, lat: end.Sub(start), span: span,
	}, nil
}

// put uploads an edge list through the router and returns where the
// router placed it.
func (s *stack) put(name string, body []byte) (*cluster.Placement, *reply, error) {
	rep, err := s.do("put", http.MethodPut, "/graphs/"+name, body)
	if err != nil {
		return nil, nil, err
	}
	if rep.status != http.StatusCreated {
		return nil, rep, fmt.Errorf("PUT %s: status %d: %.200s", name, rep.status, rep.body)
	}
	var pl cluster.Placement
	if err := json.Unmarshal(rep.body, &pl); err != nil {
		return nil, rep, fmt.Errorf("PUT %s: %w", name, err)
	}
	if len(pl.Replicas) != stackWorkers {
		return nil, rep, fmt.Errorf("PUT %s: placed on %d replicas, want %d", name, len(pl.Replicas), stackWorkers)
	}
	return &pl, rep, nil
}

// edgeList serializes a workload the way a client uploads it.
func edgeList(w *pushpull.Workload) ([]byte, error) {
	var buf bytes.Buffer
	if err := pushpull.WriteWorkload(&buf, w); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// counters is the part of the router's GET /stats the workloads watch:
// its own retry counters and the engines' cache outcomes summed over
// the workers.
type counters struct {
	retried, failedOver, failed uint64
	hits, misses                uint64
}

func (s *stack) counters() (counters, error) {
	rep, err := s.do("", http.MethodGet, "/stats", nil)
	if err != nil {
		return counters{}, err
	}
	var rs cluster.RouterStats
	if err := json.Unmarshal(rep.body, &rs); err != nil {
		return counters{}, fmt.Errorf("router /stats: %w", err)
	}
	c := counters{retried: rs.Retried, failedOver: rs.FailedOver, failed: rs.Failed}
	for _, w := range rs.Workers {
		var es serve.EngineStats
		if err := json.Unmarshal(w.Stats, &es); err != nil {
			return counters{}, fmt.Errorf("worker %s /stats: %w", w.URL, err)
		}
		c.hits += es.CacheHits
		c.misses += es.CacheMisses
	}
	return c, nil
}

// timed runs a closed loop against the stack between two /stats
// snapshots, reports the boundary counts of the phase, and fails the run
// if the router had to retry in it.
func (s *stack) timed(seconds float64, iter func(p *phase, k int)) (*phase, error) {
	r := s.r
	before, err := s.counters()
	if err != nil {
		return nil, err
	}
	p := r.loop(seconds, iter)
	after, err := s.counters()
	if err != nil {
		return nil, err
	}
	hits, misses := after.hits-before.hits, after.misses-before.misses
	if hits+misses > 0 {
		r.set("engine.cache_hit_ratio", float64(hits)/float64(hits+misses))
	}
	retried, over := after.retried-before.retried, after.failedOver-before.failedOver
	r.set("cluster.retried", float64(retried))
	r.set("cluster.failed_over", float64(over))
	r.check(retried == 0 && over == 0 && after.failed == before.failed,
		"router retried %d, failed over %d, failed %d requests in a timed phase", retried, over, after.failed-before.failed)
	r.tr.count("engine.cache_hits", int64(hits))
	r.tr.count("engine.cache_misses", int64(misses))
	r.tr.count("cluster.retried", int64(retried))
	return p, nil
}
