package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"time"

	"pushpull"
	"pushpull/api"
	"pushpull/jobs"
	"pushpull/serve"
)

// The async workload: batches of eight pr-pull jobs on G16 through the
// router, polled every 2 ms, each result fetched once its job is done.
// The eight dampings repeat in every batch, so after set-up every job is
// an engine hit and the job layer does the work. One operation is one
// job, timed from the batch's submission to its result body in hand.

const (
	batchSize    = 8
	pollInterval = 2 * time.Millisecond
)

type jobsState struct {
	r     *run
	st    *stack
	sv    *served
	specs []jobs.Spec
	body  []byte   // the POST /jobs request
	want  [][]byte // the stored result of spec i, byte for byte

	// Samples of the timed phases, in milliseconds.
	submit, fetch, batch, queueWait, runTime, unattributed []float64
	polls, jobs                                            int
}

func runJobsBatch(r *run) error {
	g, err := r.graph("G16", scaleG16, r.cfg.seed)
	if err != nil {
		return err
	}
	proto := &jobsState{r: r, sv: &served{name: fmt.Sprintf("j%d", r.cfg.seed), g: g, damping: 0.80 + 0.1*r.rng.Float64()}}
	proto.sv.hotBody = runRequest(proto.sv.name, proto.sv.damping)
	for i := 0; i < batchSize; i++ {
		d := proto.sv.damping + float64(i)*1e-3
		proto.specs = append(proto.specs, jobs.Spec{Graph: proto.sv.name, Algorithm: "pr", Options: api.RunOptions{
			Direction: "pull", Threads: 1, Iterations: prIterations, Damping: &d,
		}})
	}
	if proto.body, err = json.Marshal(serve.JobRequest{Batch: proto.specs}); err != nil {
		return err
	}
	graph, err := edgeList(pushpull.NewWorkload(g, pushpull.AsWeighted()))
	if err != nil {
		return err
	}

	s, setup, err := setups(r, func() (*jobsState, error) { return proto.setUp(graph) },
		func(s *jobsState) { s.st.close() })
	if err != nil {
		return err
	}
	defer s.st.close()

	seconds := r.phaseSeconds()
	p, err := s.st.timed(seconds, func(p *phase, _ int) { s.batchOp(p) })
	if err != nil {
		return err
	}
	r.endToEnd(p, setup)
	if ratio := r.vals["engine.cache_hit_ratio"]; ratio < 0.98 {
		r.check(false, "engine cache hit ratio %.3f: the jobs are not engine hits", ratio)
	}
	if !r.cfg.trace {
		return nil
	}

	r.tail(p)
	r.set("jobs.submit_ms", median(s.submit))
	r.set("jobs.result_fetch_ms", median(s.fetch))
	r.set("jobs.queue_wait_p50_ms", median(s.queueWait))
	r.set("jobs.run_p50_ms", median(s.runTime))
	r.set("jobs.polls_per_job", float64(s.polls)/float64(max(s.jobs, 1)))
	r.set("client.batch_ms", median(s.batch))
	r.set("trace.unattributed_share", median(s.unattributed))
	if _, err := apiProbes(r, s.sv); err != nil {
		return err
	}
	if err := s.traced(seconds); err != nil {
		return err
	}
	return jobsProbes(r, g, s.specs[0], s.want[0])
}

// setUp is a fresh stack with the graph PUT, the primary's engine cache
// filled through POST /run, and one batch run whose results become the
// expected bytes — after checking that each equals its POST /run reply
// apart from the stats.
func (proto *jobsState) setUp(graph []byte) (_ *jobsState, err error) {
	r := proto.r
	st, err := newStack(r)
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			st.close()
		}
	}()
	s := &jobsState{r: r, st: st, specs: proto.specs, body: proto.body}
	pl, _, err := st.put(proto.sv.name, graph)
	if err != nil {
		return nil, err
	}
	sv := *proto.sv
	sv.primary = pl.Replicas[0]
	s.sv = &sv

	sync := make([]api.RunResponse, batchSize)
	for i, spec := range s.specs {
		d := *spec.Options.Damping
		rep, err := st.do("run", http.MethodPost, "/run", runRequest(sv.name, d))
		if err != nil {
			return nil, err
		}
		r.attempt()
		if _, err := checkRun(rep, s.sv, false, prMass(sv.g, d, prIterations)); err != nil {
			r.fail("set-up run %d: %v", i, err)
		}
		if err := json.Unmarshal(rep.body, &sync[i]); err != nil {
			return nil, fmt.Errorf("set-up run %d: %w", i, err)
		}
	}
	s.want = make([][]byte, batchSize)
	err = s.batchOnce(nil, func(i int, result []byte) error {
		var async api.RunResponse
		if err := json.Unmarshal(result, &async); err != nil {
			return err
		}
		// A job's result is the synchronous reply apart from the stats
		// (and the summary line, which quotes them).
		a, b := async, sync[i]
		a.Stats, b.Stats, a.Summary, b.Summary = api.RunStats{}, api.RunStats{}, "", ""
		if !async.Stats.CacheHit || !reflect.DeepEqual(a, b) {
			return fmt.Errorf("job %d result differs from POST /run (cache_hit=%v)", i, async.Stats.CacheHit)
		}
		s.want[i] = result
		return nil
	})
	return s, err
}

// batchOp is one timed batch: every result must equal the bytes the
// set-up batch stored for that spec.
func (s *jobsState) batchOp(p *phase) {
	if err := s.batchOnce(p, func(i int, result []byte) error {
		if !bytes.Equal(result, s.want[i]) {
			return fmt.Errorf("job %d result differs from the set-up batch's", i)
		}
		return nil
	}); err != nil {
		s.r.fail("%v", err)
	}
}

// batchOnce submits the batch, polls each pending job's status every
// pollInterval, and fetches a job's result as soon as it reads done.
// With p set it counts and times the jobs as operations.
func (s *jobsState) batchOnce(p *phase, verify func(i int, result []byte) error) error {
	r, st := s.r, s.st
	timed := p != nil
	if timed {
		for range s.specs {
			r.attempt()
		}
	}
	sub, err := st.do("submit", http.MethodPost, "/jobs", s.body)
	if err != nil {
		return err
	}
	var accepted serve.BatchResponse
	if sub.status != http.StatusAccepted || json.Unmarshal(sub.body, &accepted) != nil || len(accepted.Jobs) != batchSize {
		return fmt.Errorf("POST /jobs: status %d: %.200s", sub.status, sub.body)
	}
	pending := make([]int, batchSize)
	for i := range pending {
		pending[i] = i
	}
	deadline := time.Now().Add(30 * time.Second)
	for len(pending) > 0 {
		if time.Now().After(deadline) {
			return fmt.Errorf("%d jobs of a batch still pending after 30s", len(pending))
		}
		var still []int
		for _, i := range pending {
			id := accepted.Jobs[i].ID
			status, err := st.do("status", http.MethodGet, "/jobs/"+id, nil)
			if err != nil {
				return err
			}
			var j jobs.Job
			if status.status != http.StatusOK || json.Unmarshal(status.body, &j) != nil {
				return fmt.Errorf("GET /jobs/%s: status %d: %.200s", id, status.status, status.body)
			}
			if timed {
				s.polls++
			}
			if !j.State.Terminal() {
				still = append(still, i)
				continue
			}
			if j.State != jobs.StateDone {
				r.fail("job %d ended %s: %s", i, j.State, j.Error)
				continue
			}
			res, err := st.do("result", http.MethodGet, "/jobs/"+id+"/result", nil)
			if err != nil {
				return err
			}
			if res.status != http.StatusOK {
				r.fail("GET /jobs/%s/result: status %d", id, res.status)
				continue
			}
			lat := res.start.Add(res.lat).Sub(sub.start)
			if err := verify(i, bytes.TrimSuffix(res.body, []byte("\n"))); err != nil {
				r.fail("%v", err)
				continue
			}
			if timed {
				p.done(lat)
				s.jobs++
				s.fetch = append(s.fetch, ms(res.lat))
				wait, ran := float64(j.StartedMS-j.SubmittedMS), float64(j.FinishedMS-j.StartedMS)
				s.queueWait = append(s.queueWait, wait)
				s.runTime = append(s.runTime, ran)
				s.unattributed = append(s.unattributed, 1-(ms(sub.lat)+wait+ran+ms(res.lat))/ms(lat))
			}
		}
		pending = still
		if len(pending) > 0 {
			time.Sleep(pollInterval)
		}
	}
	if timed {
		s.submit = append(s.submit, ms(sub.lat))
		s.batch = append(s.batch, ms(time.Since(sub.start)))
	}
	return nil
}

// traced runs batches with every other one traced and reports the
// router's and the client's share of a result fetch, the request that
// carries the payload.
func (s *jobsState) traced(seconds float64) error {
	r := s.r
	if err := r.alternate(seconds, func(p *phase, _ int, _ bool) []float64 {
		first := len(p.lat) // one client: nobody else appends meanwhile
		s.batchOp(p)
		return msAll(p.lat[first:])
	}); err != nil {
		return err
	}
	spans, _ := r.tr.snapshot()
	self := selfTimes(spans)
	var hop, transport []float64
	for _, op := range operations(spans, "client.result") {
		cl, rt := op.find("client.result"), op.find("cluster.result")
		if rt < 0 {
			r.check(false, "traced result fetch has no router span")
			continue
		}
		hop = append(hop, float64(self[rt])/1e6)
		transport = append(transport, float64(self[cl])/1e6)
	}
	r.set("cluster.hop_ms", median(hop))
	r.set("cluster.client_transport_ms", median(transport))
	return nil
}
