package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"pushpull"
	"pushpull/api"
)

// The write-side workload: one client, and per operation a PUT of G16
// declared directed (replicated to both workers, each writing through to
// its DiskStore), the first POST /run on it — the one that pays for the
// transpose — and a DELETE. The operation's latency is the sum of the
// three requests.

type uploadState struct {
	r    *run
	st   *stack
	g    *pushpull.Graph
	body []byte    // the edge list every PUT uploads
	ref  []float64 // the library's ranks
	mass float64   // what they sum to

	put, first []float64 // request latencies, ms
	stats      runStats
}

func runUploadFirstRun(r *run) error {
	g, err := r.graph("G16", scaleG16, r.cfg.seed)
	if err != nil {
		return err
	}
	proto := &uploadState{r: r, g: g}
	if proto.body, err = edgeList(pushpull.Directed(g, pushpull.AsWeighted())); err != nil {
		return err
	}
	lib, err := pushpull.Run(r.ctx, pushpull.Directed(g, pushpull.AsWeighted()), "pr",
		pushpull.WithDirection(pushpull.Pull), pushpull.WithThreads(1), pushpull.WithIterations(prIterations))
	if err != nil {
		return fmt.Errorf("library reference: %w", err)
	}
	proto.ref = lib.Ranks()
	proto.mass = prMass(g, libDamping, prIterations) // the run below leaves damping at the same default

	// Set-up is a fresh stack and one whole operation: connections, the
	// allocator and the page cache are warm after it.
	rep := 0
	s, setup, err := setups(r, func() (*uploadState, error) {
		st, err := newStack(r)
		if err != nil {
			return nil, err
		}
		s := &uploadState{r: r, st: st, g: g, body: proto.body, ref: proto.ref, mass: proto.mass}
		rep++
		s.op(nil, -rep)
		return s, nil
	}, func(s *uploadState) { s.st.close() })
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
	if !r.cfg.trace {
		return nil
	}

	r.tail(p)
	s.stats.report(r, g.M())
	r.set("client.put_ms", median(s.put))
	r.set("client.put_medges_s", float64(g.M())/1e6/(median(s.put)/1e3))
	r.set("client.first_run_ms", median(s.first))
	transpose, err := uploadProbes(r, g, s.body)
	if err != nil {
		return err
	}
	enc, err := apiProbes(r, &served{name: "probe", g: g, damping: 0.85,
		hotBody: runRequest("probe", 0.85)})
	if err != nil {
		return err
	}
	return s.traced(seconds, transpose+enc)
}

// op is one PUT + first run + DELETE under a fresh name. p is nil for
// the warm-up, which counts as a check rather than an operation.
func (s *uploadState) op(p *phase, k int) (lat time.Duration, ok bool) {
	r, st := s.r, s.st
	r.attempt()
	name := fmt.Sprintf("u%d-%d", r.cfg.seed, k)
	pl, put, err := st.put(name, s.body)
	if err != nil {
		r.fail("%v", err)
		return 0, false
	}
	if pl.N != s.g.N() || pl.M != s.g.M() {
		r.fail("PUT %s registered n=%d m=%d", name, pl.N, pl.M)
		return 0, false
	}
	sv := &served{name: name, g: s.g, primary: pl.Replicas[0]}
	body, err := json.Marshal(api.RunRequest{Graph: name, Algorithm: "pr", Options: api.RunOptions{
		Direction: "pull", Threads: 1, Iterations: prIterations,
	}})
	if err != nil {
		r.fail("%v", err)
		return 0, false
	}
	run, err := st.do("run", http.MethodPost, "/run", body)
	if err != nil {
		r.fail("POST /run: %v", err)
		return 0, false
	}
	resp, err := checkRun(run, sv, false, s.mass)
	if err != nil {
		r.fail("first run: %v", err)
		return 0, false
	}
	if d := pushpull.MaxDiff(resp.Ranks, s.ref); !(d <= 1e-9) {
		r.fail("first run's ranks differ from the library's by %g", d)
		return 0, false
	}
	del, err := st.do("delete", http.MethodDelete, "/graphs/"+name, nil)
	if err != nil || del.status != http.StatusNoContent {
		r.fail("DELETE %s: %v", name, err)
		return 0, false
	}
	lat = put.lat + run.lat + del.lat
	if p != nil {
		p.done(lat)
		s.put = append(s.put, ms(put.lat))
		s.first = append(s.first, ms(run.lat))
		s.stats.add(resp, lat)
		reportRun(r.tr, run, resp)
	}
	return lat, true
}

// traced runs operations with every other one traced. explained is the
// probe-measured cost, in ms, of the named steps inside the worker's run
// handler (transpose build and encoding); what remains of that handler's
// self time is the unattributed part of the operation.
func (s *uploadState) traced(seconds, explained float64) error {
	r := s.r
	const base = 1 << 20 // names no earlier operation used
	if err := r.alternate(seconds, func(p *phase, k int, _ bool) []float64 {
		lat, ok := s.op(p, base+k)
		if !ok {
			return nil
		}
		return []float64{ms(lat)}
	}); err != nil {
		return err
	}

	spans, _ := r.tr.snapshot()
	self := selfTimes(spans)
	var workerPut, fanout []float64
	for _, op := range operations(spans, "client.put") {
		rt, wks := op.find("cluster.put"), op.all("serve.put")
		if rt < 0 || len(wks) != stackWorkers {
			r.check(false, "traced PUT has %d worker spans and router span %d", len(wks), rt)
			continue
		}
		var slowest int64
		for _, w := range wks {
			slowest = max(slowest, spans[w].dur())
		}
		workerPut = append(workerPut, float64(slowest)/1e6)
		fanout = append(fanout, float64(spans[rt].dur()-slowest)/1e6)
	}
	r.set("serve.put_ms", median(workerPut))
	r.set("cluster.put_fanout_ms", median(fanout))

	reportRunSpans(r, spans, self)
	other := r.vals["serve.run_self_ms"] - explained
	r.set("serve.run_other_ms", other)
	r.set("trace.unattributed_share", other/r.vals["op_p50_ms"])
	return nil
}
