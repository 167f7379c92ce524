package main

// Direct timed calls into the layers' public functions, run in the
// traced pass after the workload's own phases. Each call is repeated and
// the median reported; view builds use a fresh handle per repetition and
// assert that exactly one build happened.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"pushpull"
	"pushpull/api"
	"pushpull/jobs"
)

const probeReps = 3

// reps is how often a probe repeats a call: n times, once in a smoke run.
func (r *run) reps(n int) int {
	if r.cfg.smoke {
		return 1
	}
	return n
}

// timeMS runs f reps times and returns the median in milliseconds.
func timeMS(reps int, f func() error) (float64, error) {
	var ds []float64
	for i := 0; i < reps; i++ {
		t := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		ds = append(ds, ms(time.Since(t)))
	}
	return median(ds), nil
}

// encoder returns a function that does, once, what a worker does to a
// finished report before it can write it — api.BuildResponse and
// json.Marshal — on a pr report of sv's graph, and returns the time in ms
// and the encoded size.
func encoder(r *run, sv *served) (func() (float64, int, error), error) {
	rep, err := pushpull.Run(r.ctx, pushpull.NewWorkload(sv.g), "pr", pushpull.WithDirection(pushpull.Pull),
		pushpull.WithThreads(1), pushpull.WithIterations(prIterations), pushpull.WithDamping(sv.damping))
	if err != nil {
		return nil, fmt.Errorf("api probe: %w", err)
	}
	return func() (float64, int, error) {
		t := time.Now()
		buf, err := json.Marshal(api.BuildResponse(sv.name, rep))
		return ms(time.Since(t)), len(buf), err
	}, nil
}

// apiProbes reports the encoder's median and the decoding of a run
// request. It returns the encode time.
func apiProbes(r *run, sv *served) (float64, error) {
	encode, err := encoder(r, sv)
	if err != nil {
		return 0, err
	}
	var size int
	enc, err := timeMS(r.reps(5), func() (err error) {
		_, size, err = encode()
		return err
	})
	if err != nil {
		return 0, err
	}
	r.set("api.encode_ms", enc)
	r.set("api.encode_ns_per_vertex", enc*1e6/float64(sv.g.N()))
	r.set("api.encode_bytes", float64(size))

	decodes := r.reps(2000)
	start := time.Now()
	for i := 0; i < decodes; i++ {
		dec := json.NewDecoder(bytes.NewReader(sv.hotBody))
		dec.DisallowUnknownFields()
		var req api.RunRequest
		if err := dec.Decode(&req); err != nil {
			return 0, err
		}
	}
	r.set("api.decode_request_us", float64(time.Since(start))/1e3/float64(decodes))
	return enc, nil
}

// engineProbes measures an Engine at the serve command's defaults from
// outside: the cost of a cache hit, what a miss adds to the kernel's own
// clock, and how many of 8×4 identical concurrent runs coalesce with the
// cache off.
func engineProbes(r *run, g *pushpull.Graph) error {
	w := pushpull.NewWorkload(g)
	opts := func(damping float64) []pushpull.Option {
		return []pushpull.Option{pushpull.WithDirection(pushpull.Pull), pushpull.WithThreads(1),
			pushpull.WithIterations(prIterations), pushpull.WithDamping(damping)}
	}
	eng := pushpull.NewEngine(pushpull.WithQueueLimit(1024))
	var over []float64
	for i := 0; i < r.reps(probeReps); i++ {
		start := time.Now()
		rep, err := eng.Run(r.ctx, w, "pr", opts(0.5+0.01*float64(i))...)
		if err != nil {
			return fmt.Errorf("engine miss probe: %w", err)
		}
		over = append(over, float64(time.Since(start)-rep.Stats.Elapsed-rep.Stats.QueueWait)/1e3)
	}
	r.set("engine.miss_overhead_us", median(over))

	hits := r.reps(20000)
	start := time.Now()
	for i := 0; i < hits; i++ {
		rep, err := eng.Run(r.ctx, w, "pr", opts(0.5)...)
		if err != nil || !rep.Stats.CacheHit {
			return fmt.Errorf("engine hit probe: hit=%v err=%v", rep != nil && rep.Stats.CacheHit, err)
		}
	}
	r.set("engine.hit_ns_per_op", float64(time.Since(start))/float64(hits))

	rounds, fan := r.reps(8), 4
	flights := pushpull.NewEngine(pushpull.WithResultCache(0))
	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		errs := make([]error, fan)
		for i := 0; i < fan; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				_, errs[i] = flights.Run(r.ctx, w, "pr", opts(0.6+0.01*float64(round))...)
			}(i)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return fmt.Errorf("coalescing probe: %w", err)
			}
		}
	}
	r.set("engine.coalesced_ratio", float64(flights.Stats().Coalesced)/float64(rounds*fan))
	return nil
}

// jobsProbes measures the job layer without HTTP: one DiskJobStore.Put
// of a record carrying result (the size the workload's jobs carry), and
// Manager.Submit → Wait throughput on cached specs.
func jobsProbes(r *run, g *pushpull.Graph, spec jobs.Spec, result []byte) error {
	dir := filepath.Join(r.dir, "jobprobe")
	store, err := jobs.NewDiskJobStore(dir)
	if err != nil {
		return err
	}
	record := &jobs.Job{ID: "probe", Spec: spec, State: jobs.StateDone, Result: result}
	put, err := timeMS(r.reps(20), func() error { return store.Put(record) })
	if err != nil {
		return err
	}
	r.set("jobs.persist_us_per_put", put*1e3)
	if err := store.Delete("probe"); err != nil {
		return err
	}

	eng := pushpull.NewEngine(pushpull.WithQueueLimit(1024))
	if err := eng.RegisterWorkload(spec.Graph, pushpull.NewWorkload(g, pushpull.AsWeighted())); err != nil {
		return err
	}
	mgr, err := jobs.NewManager(eng, jobs.WithStore(store))
	if err != nil {
		return err
	}
	defer mgr.Close()
	direct := func() error {
		j, err := mgr.Submit(spec)
		if err != nil {
			return err
		}
		j, err = mgr.Wait(r.ctx, j.ID, 100*time.Microsecond)
		if err != nil || j.State != jobs.StateDone {
			return fmt.Errorf("direct job ended %s: %v %s", j.State, err, j.Error)
		}
		return nil
	}
	if err := direct(); err != nil { // the miss that fills the cache
		return err
	}
	n, start := 0, time.Now()
	for n < smokeOps || !r.cfg.smoke && time.Since(start).Seconds() < r.cfg.seconds/10 {
		if err := direct(); err != nil {
			return err
		}
		n++
	}
	r.set("jobs.direct_ops_s", float64(n)/time.Since(start).Seconds())
	return nil
}

// uploadProbes times, on the directed graph the upload workload PUTs,
// the steps its operation is made of: graphio, the store, the content
// hash and every derived view. It returns the transpose build time.
func uploadProbes(r *run, g *pushpull.Graph, body []byte) (float64, error) {
	arcs := float64(g.M())
	fresh := func() *pushpull.Workload { return pushpull.Directed(g, pushpull.AsWeighted()) }

	write, err := timeMS(r.reps(probeReps), func() error {
		_, err := edgeList(fresh())
		return err
	})
	if err != nil {
		return 0, err
	}
	read, err := timeMS(r.reps(probeReps), func() error {
		_, err := pushpull.ReadWorkload(bytes.NewReader(body))
		return err
	})
	if err != nil {
		return 0, err
	}
	r.set("graphio.write_medges_s", arcs/1e6/(write/1e3))
	r.set("graphio.read_medges_s", arcs/1e6/(read/1e3))
	r.set("graphio.bytes_per_edge", float64(len(body))/arcs)

	// builds wraps one view construction: a fresh handle, optional
	// untimed preparation, the timed call, and the Builds() counter that
	// must read 1 afterwards.
	build := func(metric string, prepare, call func(w *pushpull.Workload), count func(b pushpull.WorkloadBuilds) int) (float64, error) {
		var ds []float64
		for i := 0; i < r.reps(probeReps); i++ {
			w := fresh()
			if prepare != nil {
				prepare(w)
			}
			before := count(w.Builds())
			t := time.Now()
			call(w)
			ds = append(ds, ms(time.Since(t)))
			if n := count(w.Builds()) - before; n != 1 {
				return 0, fmt.Errorf("%s: %d builds on a fresh handle, want 1", metric, n)
			}
			w.Close()
		}
		r.set(metric, median(ds))
		return median(ds), nil
	}
	transpose, err := build("workload.transpose_build_ms", nil,
		func(w *pushpull.Workload) { w.Transpose() },
		func(b pushpull.WorkloadBuilds) int { return b.Transposes })
	if err != nil {
		return 0, err
	}
	if _, err := build("workload.degree_sort_build_ms", nil,
		func(w *pushpull.Workload) { w.DegreeSorted() },
		func(b pushpull.WorkloadBuilds) int { return b.DegreeSorts }); err != nil {
		return 0, err
	}
	if _, err := build("workload.sorted_transpose_build_ms",
		func(w *pushpull.Workload) { w.DegreeSorted() },
		func(w *pushpull.Workload) { w.SortedTranspose() },
		func(b pushpull.WorkloadBuilds) int { return b.Transposes }); err != nil {
		return 0, err
	}
	if _, err := build("workload.pa_build_ms", nil,
		func(w *pushpull.Workload) { w.PA(r.nproc) },
		func(b pushpull.WorkloadBuilds) int { return b.PASplits }); err != nil {
		return 0, err
	}
	var openErr error
	if _, err := build("workload.block_open_ms", nil,
		func(w *pushpull.Workload) { _, openErr = w.OutOfCore() },
		func(b pushpull.WorkloadBuilds) int { return b.BlockBuilds }); err != nil || openErr != nil {
		return 0, fmt.Errorf("block view: %v %v", err, openErr)
	}
	hash, err := timeMS(r.reps(probeReps), func() error {
		fresh().ID()
		return nil
	})
	if err != nil {
		return 0, err
	}
	r.set("workload.id_hash_ms", hash)

	dir := filepath.Join(r.dir, "storeprobe")
	ds, err := pushpull.NewDiskStore(dir)
	if err != nil {
		return 0, err
	}
	put, err := timeMS(r.reps(probeReps), func() error { return ds.Put("probe", fresh()) })
	if err != nil {
		return 0, err
	}
	get, err := timeMS(r.reps(probeReps), func() error {
		_, err := ds.Get("probe")
		return err
	})
	if err != nil {
		return 0, err
	}
	r.set("store.disk_put_ms", put)
	r.set("store.disk_get_ms", get)
	if files, _ := filepath.Glob(filepath.Join(dir, "probe.*")); len(files) == 1 {
		if fi, err := os.Stat(files[0]); err == nil {
			r.set("store.bytes_per_edge", float64(fi.Size())/arcs)
		}
	}
	blk, err := pushpull.NewDiskStore(filepath.Join(r.dir, "blkprobe"), pushpull.WithBlockThreshold(1))
	if err != nil {
		return 0, err
	}
	blkPut, err := timeMS(r.reps(probeReps), func() error { return blk.Put("probe", fresh()) })
	if err != nil {
		return 0, err
	}
	r.set("store.blk_put_ms", blkPut)
	return transpose, nil
}
