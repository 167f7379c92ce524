package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"time"

	"pushpull"
	"pushpull/api"
	"pushpull/cluster"
)

// The synchronous serving workloads: one client driving POST /run on one
// graph through the router (the graph is replicated to both workers; its
// primary serves). One operation is one POST /run, timed from the
// request's first byte to the reply's last. One client, not nproc: on
// two cores a second client, the router, two workers and the collector
// oversubscribe the machine, and latency then measures the scheduler.

func runServeCold(r *run) error { return runServe(r, false) }
func runServeHot(r *run) error  { return runServe(r, true) }

// served is an uploaded graph and what replies about it must look like.
type served struct {
	name    string
	g       *pushpull.Graph
	primary string
	damping float64 // the base damping; cold request k uses damping + (k+1)·1e-7
	hotBody []byte  // the request every hot operation repeats
	hit     []byte  // the reply every engine hit must equal, byte for byte
}

// runStats accumulates what run replies report about themselves.
type runStats struct {
	kernel  []float64 // stats.elapsed_ns of runs that executed
	queue   []float64 // stats.queue_wait_ns of runs that executed
	latSum  time.Duration
	busySum time.Duration
}

func (rs *runStats) add(head *api.RunResponse, lat time.Duration) {
	rs.latSum += lat
	if !head.Stats.CacheHit {
		rs.kernel = append(rs.kernel, float64(head.Stats.ElapsedNS))
		rs.queue = append(rs.queue, float64(head.Stats.QueueWaitNS))
		rs.busySum += time.Duration(head.Stats.ElapsedNS)
	}
}

// report sets the kernel-layer metrics a serving workload can see from
// outside: the kernel clock of its runs and their share of client time.
func (rs *runStats) report(r *run, arcs int64) {
	if len(rs.kernel) > 0 {
		r.set("kernel.pr_ns_per_edge", median(rs.kernel)/(float64(arcs)*prIterations))
		r.set("kernel.pr_iterations", prIterations)
		r.set("engine.queue_wait_p50_ms", median(rs.queue)/1e6)
	}
	if rs.latSum > 0 {
		r.set("kernel.busy_share", rs.busySum.Seconds()/rs.latSum.Seconds())
	}
}

func runRequest(graph string, damping float64) []byte {
	body, err := json.Marshal(api.RunRequest{Graph: graph, Algorithm: "pr", Options: api.RunOptions{
		Direction: "pull", Threads: 1, Iterations: prIterations, Damping: &damping,
	}})
	if err != nil {
		panic(err) // strings and numbers
	}
	return body
}

var ranksKey = []byte(`,"ranks":[`)

// runHead decodes a run reply without its payload: everything before the
// ranks array, plus the number of ranks. Decoding megabytes of floats on
// every reply would make the client the bottleneck on a two-core box;
// the payload itself is checked in full on a sample and, for hits, by
// comparing bytes.
func runHead(body []byte) (*api.RunResponse, int, error) {
	i := bytes.Index(body, ranksKey)
	if i < 0 {
		return nil, 0, fmt.Errorf("reply has no ranks: %.120s", body)
	}
	var head api.RunResponse
	if err := json.Unmarshal(append(body[:i:i], '}'), &head); err != nil {
		return nil, 0, fmt.Errorf("reply head: %w", err)
	}
	return &head, bytes.Count(body[i+len(ranksKey):], []byte{','}) + 1, nil
}

// checkRun validates one run reply against the request that caused it
// and returns it decoded without its ranks. A non-zero mass asks for the
// payload to be decoded too, and its ranks to sum to that (see prMass).
func checkRun(rep *reply, sv *served, wantHit bool, mass float64) (*api.RunResponse, error) {
	if rep.status != http.StatusOK {
		return nil, fmt.Errorf("POST /run: status %d: %.200s", rep.status, rep.body)
	}
	if got := rep.header.Get(cluster.WorkerHeader); got != sv.primary {
		return nil, fmt.Errorf("POST /run on %s served by %s, not its primary %s", sv.name, got, sv.primary)
	}
	head, n, err := runHead(rep.body)
	if err != nil {
		return nil, err
	}
	st := head.Stats
	switch {
	case head.Algorithm != "pr" || head.Graph != sv.name:
		return nil, fmt.Errorf("reply is for %s on %s", head.Algorithm, head.Graph)
	case st.Iterations != prIterations || st.Canceled || st.Coalesced || st.Direction != "pull":
		return nil, fmt.Errorf("reply stats %+v", st)
	case st.CacheHit != wantHit:
		return nil, fmt.Errorf("cache_hit=%v, want %v", st.CacheHit, wantHit)
	case n != sv.g.N():
		return nil, fmt.Errorf("%d ranks for %d vertices", n, sv.g.N())
	}
	if wantHit && sv.hit != nil && !bytes.Equal(rep.body, sv.hit) {
		return nil, fmt.Errorf("engine hit differs from the first hit's reply")
	}
	if mass != 0 {
		var resp api.RunResponse
		if err := json.Unmarshal(rep.body, &resp); err != nil {
			return nil, fmt.Errorf("reply: %w", err)
		}
		if sum := pushpull.SumFloats(resp.Ranks); len(resp.Ranks) != sv.g.N() || !(math.Abs(sum-mass) <= 1e-9) {
			return nil, fmt.Errorf("%d ranks summing to %.12g, want %.12g", len(resp.Ranks), sum, mass)
		}
		return &resp, nil
	}
	return head, nil
}

// serveState is a serving workload after set-up.
type serveState struct {
	r     *run
	st    *stack
	sv    *served
	hot   bool
	stats runStats
}

func runServe(r *run, hot bool) error {
	g, err := r.graph("G17", scaleG17, r.cfg.seed)
	if err != nil {
		return err
	}
	name := fmt.Sprintf("g%d", r.cfg.seed)
	sv := &served{name: name, g: g, damping: 0.80 + 0.1*r.rng.Float64()}
	sv.hotBody = runRequest(name, sv.damping)
	body, err := edgeList(pushpull.NewWorkload(g, pushpull.AsWeighted()))
	if err != nil {
		return err
	}
	// The router's answer must be the library's answer.
	lib, err := pushpull.Run(r.ctx, pushpull.NewWorkload(g), "pr", pushpull.WithDirection(pushpull.Pull),
		pushpull.WithThreads(1), pushpull.WithIterations(prIterations), pushpull.WithDamping(sv.damping))
	if err != nil {
		return fmt.Errorf("library reference: %w", err)
	}

	s, setup, err := setups(r, func() (*serveState, error) {
		return setUpServe(r, sv, body, lib.Ranks(), hot)
	}, func(s *serveState) { s.st.close() })
	if err != nil {
		return err
	}
	defer s.st.close()

	seconds := r.phaseSeconds()
	p, err := s.st.timed(seconds, func(p *phase, k int) { s.op(p, k) })
	if err != nil {
		return err
	}
	r.endToEnd(p, setup)
	if ratio, ok := r.vals["engine.cache_hit_ratio"]; hot && (!ok || ratio < 0.98) || !hot && ratio > 0.02 {
		r.check(false, "engine cache hit ratio %.3f: the workload is not what it claims (hot=%v)", ratio, hot)
	}
	if !r.cfg.trace {
		return nil
	}

	r.tail(p)
	s.stats.report(r, g.M())
	if _, err := apiProbes(r, s.sv); err != nil {
		return err
	}
	if err := s.traced(seconds); err != nil {
		return err
	}
	if hot {
		return nil
	}
	if err := engineProbes(r, g); err != nil {
		return err
	}
	return s.failover()
}

// setUpServe is what an operator does before the first timed request: a
// fresh stack, the graph PUT through the router, and the first run, which
// builds the pull view; on serve-hot also the second, the first hit.
func setUpServe(r *run, proto *served, body []byte, libRanks []float64, hot bool) (_ *serveState, err error) {
	st, err := newStack(r)
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			st.close()
		}
	}()
	sv := *proto
	pl, _, err := st.put(sv.name, body)
	if err != nil {
		return nil, err
	}
	r.check(pl.N == sv.g.N() && pl.M == sv.g.M(), "PUT %s placed n=%d m=%d", sv.name, pl.N, pl.M)
	sv.primary = pl.Replicas[0]
	mass := prMass(sv.g, sv.damping, prIterations)
	first, err := st.do("run", http.MethodPost, "/run", sv.hotBody)
	if err != nil {
		return nil, err
	}
	r.attempt()
	if resp, err := checkRun(first, &sv, false, mass); err != nil {
		r.fail("warm-up run: %v", err)
	} else {
		d := pushpull.MaxDiff(resp.Ranks, libRanks)
		r.check(d <= 1e-9, "router ranks differ from the library's by %g", d)
	}
	if hot {
		second, err := st.do("run", http.MethodPost, "/run", sv.hotBody)
		if err != nil {
			return nil, err
		}
		r.attempt()
		if _, err := checkRun(second, &sv, true, mass); err != nil {
			r.fail("first hit: %v", err)
		}
		sv.hit = second.body
	}
	return &serveState{r: r, st: st, sv: &sv, hot: hot}, nil
}

// damping is the damp factor of operation k.
func (s *serveState) damping(k int) float64 {
	if s.hot {
		return s.sv.damping
	}
	return s.sv.damping + float64(k+1)*1e-7
}

// op is one timed POST /run; every sixteenth cold reply is decoded in
// full.
func (s *serveState) op(p *phase, k int) *reply {
	r, sv := s.r, s.sv
	r.attempt()
	d, body := s.damping(k), sv.hotBody
	if !s.hot {
		body = runRequest(sv.name, d)
	}
	rep, err := s.st.do("run", http.MethodPost, "/run", body)
	if err != nil {
		r.fail("POST /run: %v", err)
		return nil
	}
	var mass float64
	if !s.hot && k%16 == 0 {
		mass = prMass(sv.g, d, prIterations)
	}
	head, err := checkRun(rep, sv, s.hot, mass)
	if err != nil {
		r.fail("%v", err)
		return nil
	}
	s.stats.add(head, rep.lat)
	reportRun(r.tr, rep, head)
	p.done(rep.lat)
	return rep
}

// reportRun hangs the queue wait and kernel time a traced run's reply
// reports under its client span.
func reportRun(tr *tracer, rep *reply, head *api.RunResponse) {
	if rep.span >= 0 && !head.Stats.CacheHit {
		tr.report(rep.span, "engine.queue_wait", time.Duration(head.Stats.QueueWaitNS))
		tr.report(rep.span, "kernel.pr", time.Duration(head.Stats.ElapsedNS))
	}
}

// traced is the second half of the traced pass. After each traced
// operation the client encodes the same report once itself: the encode
// time subtracted from that operation's worker span was then measured
// under the same conditions, which on a shared machine change from one
// second to the next.
func (s *serveState) traced(seconds float64) error {
	r := s.r
	encode, err := encoder(r, s.sv)
	if err != nil {
		return err
	}
	encodeMS := map[int]float64{} // client span → encode time measured right after it
	const base = 1 << 20          // dampings no earlier request used
	if err := r.alternate(seconds, func(p *phase, k int, traced bool) []float64 {
		rep := s.op(p, base+k)
		if rep == nil {
			return nil
		}
		if traced {
			if enc, _, err := encode(); err == nil {
				encodeMS[rep.span] = enc
			}
		}
		return []float64{ms(rep.lat)}
	}); err != nil {
		return err
	}

	spans, _ := r.tr.snapshot()
	self := selfTimes(spans)
	var other, unattributed []float64
	for _, o := range reportRunSpans(r, spans, self) {
		enc, ok := encodeMS[spans[o.client].ID]
		if !ok {
			continue // the probe failed to encode; apiProbes reports that
		}
		rest := float64(self[o.worker])/1e6 - enc
		other = append(other, rest)
		unattributed = append(unattributed, rest/(float64(spans[o.client].dur())/1e6))
	}
	r.set("serve.run_other_ms", median(other))
	r.set("trace.unattributed_share", median(unattributed))
	// A smoke run's operations are so short that fixed costs nobody
	// claims dominate them; the limit is for the measured sizes.
	r.check(median(unattributed) <= 0.10 || r.cfg.smoke,
		"the layers' self times leave %.1f%% of a POST /run unexplained (limit 10%%)", 100*median(unattributed))
	return nil
}

// runSpans is the positions of one traced POST /run's client, router and
// worker spans.
type runSpans struct{ client, router, worker int }

// reportRunSpans finds every traced POST /run, sets the self-time
// metrics of its three layers — the router's hop, the client's transport
// and the worker handler — and returns the runs for further arithmetic.
func reportRunSpans(r *run, spans []span, self []int64) []runSpans {
	var runs []runSpans
	var hop, transport, worker []float64
	for _, op := range operations(spans, "client.run") {
		o := runSpans{op.find("client.run"), op.find("cluster.run"), op.find("serve.run")}
		if o.router < 0 || o.worker < 0 {
			r.check(false, "traced run has no router or worker span")
			continue
		}
		runs = append(runs, o)
		hop = append(hop, float64(self[o.router])/1e6)
		transport = append(transport, float64(self[o.client])/1e6)
		worker = append(worker, float64(self[o.worker])/1e6)
	}
	r.set("cluster.hop_ms", median(hop))
	r.set("cluster.client_transport_ms", median(transport))
	r.set("serve.run_self_ms", median(worker))
	return runs
}

// failover measures one run after the primary's listener is closed. It
// comes last: the worker stays down.
func (s *serveState) failover() error {
	r, st, sv := s.r, s.st, s.sv
	for _, w := range st.workers {
		if w.url == sv.primary {
			w.srv.Close()
			<-w.end
			w.srv, w.end = nil, nil
		}
	}
	rep, err := st.do("run", http.MethodPost, "/run", runRequest(sv.name, sv.damping+0.01))
	if err != nil {
		return fmt.Errorf("failover run: %w", err)
	}
	r.attempt()
	served := rep.header.Get(cluster.WorkerHeader)
	if rep.status != http.StatusOK || served == sv.primary || served == "" {
		r.fail("failover run: status %d from %q", rep.status, served)
		return nil
	}
	r.set("cluster.failover_run_ms", ms(rep.lat))
	return nil
}

// operation is the spans of one client operation.
type operation struct {
	spans []span
	idx   []int // positions in the full span slice
}

// find returns the position of the operation's first span named name.
func (o operation) find(name string) int {
	for i, s := range o.spans {
		if s.Name == name {
			return o.idx[i]
		}
	}
	return -1
}

// all returns the positions of every span named name.
func (o operation) all(name string) []int {
	var out []int
	for i, s := range o.spans {
		if s.Name == name {
			out = append(out, o.idx[i])
		}
	}
	return out
}

// operations groups linked spans by client operation, keeping those
// whose root is named root.
func operations(spans []span, root string) []operation {
	byReq := map[int]*operation{}
	var order []int
	for i, s := range spans {
		if s.Req < 0 {
			continue
		}
		o, ok := byReq[s.Req]
		if !ok {
			o = &operation{}
			byReq[s.Req] = o
			order = append(order, s.Req)
		}
		o.spans = append(o.spans, s)
		o.idx = append(o.idx, i)
	}
	var out []operation
	for _, req := range order {
		if spans[req].Name == root {
			out = append(out, *byReq[req])
		}
	}
	return out
}
