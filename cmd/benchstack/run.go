package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"pushpull"
)

// config is one run: a workload, the seed its inputs come from, how long
// to measure, and whether this is the traced pass.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	traceOut string // spans are written here when set
	// smoke shrinks every graph 64-fold and replaces every clock-bound
	// loop by a fixed, small number of operations: what the tests run.
	smoke bool
	dir   string // scratch space; the caller creates and removes it
	spec  *spec
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run carries one run's state through set-up, the timed phases and the
// probes.
type run struct {
	cfg   config
	nproc int
	ctx   context.Context
	rng   *rand.Rand
	dir   string // scratch space
	tr    *tracer
	yard  *yardstick
	out   io.Writer

	vals map[string]float64 // metric name → value

	// Counted by the one client goroutine every workload has.
	attempted int
	failed    int
	reasons   map[string]int
}

func newRun(cfg config, out io.Writer) *run {
	r := &run{
		cfg:     cfg,
		nproc:   runtime.NumCPU(),
		ctx:     context.Background(),
		rng:     rand.New(rand.NewSource(int64(cfg.seed))),
		dir:     cfg.dir,
		yard:    newYardstick(runtime.NumCPU(), cfg.smoke),
		out:     out,
		vals:    map[string]float64{},
		reasons: map[string]int{},
	}
	if cfg.trace {
		r.tr = newTracer()
	}
	return r
}

// scratch makes the directory one run of the command writes to, under
// the working directory, and points TMPDIR at it: the library's own
// temporary block files (os.CreateTemp("") follows TMPDIR) then stay
// inside the checkout too. Only main calls it; the process ends with
// the run, so the variable is not restored.
func scratch(workload string) (dir string, cleanup func(), err error) {
	base, err := filepath.Abs(".benchstack_tmp")
	if err != nil {
		return "", nil, err
	}
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", nil, err
	}
	if dir, err = os.MkdirTemp(base, workload+"-"); err != nil {
		return "", nil, err
	}
	if err := os.Setenv("TMPDIR", dir); err != nil {
		return "", nil, err
	}
	return dir, func() {
		os.RemoveAll(dir)
		os.Remove(base) // succeeds once the last concurrent run has left
	}, nil
}

func (r *run) logf(format string, args ...any) {
	fmt.Fprintf(r.out, format+"\n", args...)
}

// set records a metric's value; a name BENCHMARK.json does not list is a
// bug in this program.
func (r *run) set(name string, v float64) {
	if r.cfg.spec.unit(name) == "" {
		panic("benchstack: metric " + name + " is not in the spec")
	}
	r.vals[name] = v
}

// attempt counts one operation (or one correctness check) as tried.
func (r *run) attempt() {
	r.attempted++
}

// fail counts a failed operation or check; the first few distinct
// reasons are printed with the result.
func (r *run) fail(format string, args ...any) {
	r.failed++
	r.reasons[fmt.Sprintf(format, args...)]++
}

// check is attempt plus fail-unless-ok, for set-up-time correctness gates.
func (r *run) check(ok bool, format string, args ...any) {
	r.attempt()
	if !ok {
		r.fail(format, args...)
	}
}

// The inputs: rmat graphs from the suite generator, named after log2 n.
const (
	scaleG18 = 4 // n = 2^18, ≈3.9 M arcs: one float64 per vertex fills a 2 MiB L2
	scaleG17 = 2 // n = 2^17, ≈2.0 M arcs, ≈3 MB of ranks as JSON
	scaleG16 = 1 // n = 2^16, ≈0.96 M arcs: the BENCH_pr*.json trajectory's graph
)

// graph generates a suite rmat graph with weights.
func (r *run) graph(label string, scale float64, seed uint64) (*pushpull.Graph, error) {
	if r.cfg.smoke {
		scale /= 64
	}
	g, err := pushpull.NamedWeightedGraph("rmat", scale, seed)
	if err != nil {
		return nil, fmt.Errorf("generating %s: %w", label, err)
	}
	vertexMB := float64(g.N()) * 8 / (1 << 20)
	r.logf("graph %s: rmat scale %g seed %d, n=%d arcs=%d, float64 vertex state %.2f MiB, CSR+weights %.1f MB",
		label, scale, seed, g.N(), g.M(), vertexMB,
		float64(8*(int64(g.N())+1)+8*g.M())/1e6)
	return g, nil
}

// source draws seed-dependent vertices until one has at least twice the
// mean degree: such a vertex sits in the giant component, so traversal
// cost does not depend on which seed was drawn.
func (r *run) source(g *pushpull.Graph) pushpull.V {
	want := 2 * g.M() / int64(g.N())
	for i := 0; i < 1<<20; i++ {
		v := pushpull.V(r.rng.Intn(g.N()))
		if g.Degree(v) >= want {
			return v
		}
	}
	return 0
}

// phase is one timed closed loop: one client calls its operation back to
// back until the time is up, and reports each completed operation.
type phase struct {
	yardstick *yardstick

	lat    []time.Duration // latency of each completed operation, as measured
	factor []float64       // calibrated ÷ measured time of the call it completed in
	busy   float64         // seconds in calls, calibrated; yardsticks excluded
	wall   time.Duration
	rss    float64

	// The call in progress: its segments so far, as measured and calibrated.
	segStart time.Time
	before   float64 // the yardstick before the current segment, ms
	raw, cal float64 // ms
}

func (p *phase) done(lat time.Duration) { p.lat = append(p.lat, lat) }

// split ends a segment of the call in progress: it times the yardstick
// for yardShare of the segment's length and calibrates the segment by the
// yardsticks on either side of it. loop splits after every call; a call
// that is long next to the seconds a disturbance lasts splits between its
// steps, so that each is calibrated by its own neighbours.
func (p *phase) split() {
	d := time.Since(p.segStart)
	after := p.yardstick.during(d)
	p.raw += ms(d)
	p.cal += ms(d) * yardRefMS * 2 / (p.before + after)
	p.before, p.segStart = after, time.Now()
}

// calibrated returns the operations' latencies in calibrated ms.
func (p *phase) calibrated() []float64 {
	out := make([]float64, len(p.lat))
	for i, d := range p.lat {
		out[i] = ms(d) * p.factor[i]
	}
	return out
}

// The shape of a run. Every timed loop is preceded by an unrecorded
// warm-up lap, so that the first operations — which fault in the pages
// the loop's start returned to the system — are not in the samples.
const (
	setupReps   = 3   // set-ups per run; setup_s is their median
	warmupShare = 0.1 // of the timed phase, at most warmupMax seconds
	warmupMax   = 1.0
	smokeOps    = 2 // operations per loop in a smoke run
)

// loop calls iter(k), k = 0, 1, …, back to back for `seconds` after the
// warm-up lap, timing the yardstick after every call and sampling
// resident memory throughout. One client: every workload is a closed
// loop with one operation in flight (see serve.go for why not nproc). A
// call that started before the deadline finishes; none starts after it,
// except that the loop makes at least two (the traced phase needs one of
// each kind). A smoke run makes exactly smokeOps calls and reads no
// clock to decide it.
func (r *run) loop(seconds float64, iter func(p *phase, k int)) *phase {
	// Start from a collected heap with freed pages returned, so that the
	// peak is this loop's steady state and not set-up's garbage.
	debug.FreeOSMemory()
	rss := startRSS()
	k := 0
	lap := func(seconds float64, atLeast int) *phase {
		p := &phase{yardstick: r.yard}
		start := time.Now()
		deadline := start.Add(time.Duration(seconds * float64(time.Second)))
		p.before = r.yard.during(0)
		for n := 0; n < atLeast || !r.cfg.smoke && time.Now().Before(deadline); n++ {
			first := len(p.lat)
			p.raw, p.cal, p.segStart = 0, 0, time.Now()
			iter(p, k)
			p.split()
			k++
			for range p.lat[first:] {
				p.factor = append(p.factor, p.cal/p.raw)
			}
			p.busy += p.cal / 1e3
		}
		p.wall = time.Since(start)
		return p
	}
	var p *phase
	if r.cfg.smoke {
		p = lap(0, smokeOps)
	} else {
		lap(min(warmupMax, warmupShare*seconds), 0)
		p = lap(seconds, 2)
	}
	p.rss = rss.peak()
	if over := p.wall.Seconds() / seconds; over > 1.5 && !r.cfg.smoke {
		r.logf("warning: timed phase ran %.1fs for a %.1fs budget (one operation is long next to the run length)",
			p.wall.Seconds(), seconds)
	}
	return p
}

// setups runs build setupReps times (once in a smoke run), tears down
// all but the last result, and returns that one with the median of the
// build times, each calibrated by the yardsticks before and after it:
// setup_s.
func setups[T any](r *run, build func() (T, error), teardown func(T)) (T, time.Duration, error) {
	reps := setupReps
	if r.cfg.smoke {
		reps = 1
	}
	var last T
	var took, raw []float64
	for i := 0; i < reps; i++ {
		if i > 0 {
			teardown(last)
		}
		before := r.yard.during(time.Second)
		start := time.Now()
		built, err := build()
		if err != nil {
			var zero T
			return zero, 0, err
		}
		d := time.Since(start)
		beside := (before + r.yard.during(d)) / 2
		raw = append(raw, d.Seconds())
		took = append(took, float64(d)*yardRefMS/beside)
		last = built
	}
	r.logf("set-up %d times: %.3f s each (median; %.3f s as measured)", reps, median(took)/1e9, median(raw))
	return last, time.Duration(median(took)), nil
}

// phaseSeconds is the length of one timed phase: the whole budget in the
// gated pass, half of it in the traced pass, whose other half goes to
// the traced phase or the probes.
func (r *run) phaseSeconds() float64 {
	if r.cfg.trace {
		return r.cfg.seconds / 2
	}
	return r.cfg.seconds
}

// alternate is the traced phase: one client, so that spans nest by time,
// with tracing switched on for every other call of op. op returns the
// latencies, in ms, of the operations it completed. The untraced calls
// are the baseline: trace.overhead_share is the traced median over the
// untraced one, minus 1. loop's minimum of two operations guarantees one
// call of each kind however slow the machine.
func (r *run) alternate(seconds float64, op func(p *phase, k int, traced bool) []float64) error {
	var on, off []float64
	r.loop(seconds, func(p *phase, k int) {
		traced := k%2 == 0
		r.tr.on.Store(traced)
		lat := op(p, k, traced)
		r.tr.on.Store(false)
		if traced {
			on = append(on, lat...)
		} else {
			off = append(off, lat...)
		}
	})
	if len(on) == 0 || len(off) == 0 {
		return fmt.Errorf("traced phase: %d traced and %d untraced operations succeeded", len(on), len(off))
	}
	r.set("trace.overhead_share", median(on)/median(off)-1)
	return nil
}

// endToEnd derives the gated metrics, in calibrated time, from the
// untraced timed phase.
func (r *run) endToEnd(p *phase, setup time.Duration) {
	lat := p.calibrated()
	r.set("op_p50_ms", median(lat))
	r.set("ops_per_s", float64(len(lat))/p.busy)
	r.set("peak_rss_mb", p.rss)
	r.set("setup_s", setup.Seconds())
	r.logf("timed phase: %d operations in %.2fs; as measured p50 %.4g ms, %.4g ops/s; yardstick p50 %.3f ms (reference %.3f)",
		len(lat), p.wall.Seconds(), median(msAll(p.lat)), float64(len(lat))/p.wall.Seconds(), yardRefMS/median(p.factor), yardRefMS)
}

// tail reports the client-side diagnostics of a phase.
func (r *run) tail(p *phase) {
	lat := sorted(msAll(p.lat))
	pct := tailPercentile(len(lat))
	r.set("client.op_tail_ms", percentile(lat, pct))
	r.set("client.op_tail_pct", pct)
	r.set("client.samples", float64(len(lat)))
}

// finish assembles the result line for the pass that ran.
func (r *run) finish() result {
	res := result{Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	add := func(m metricDef) {
		res.Metrics[m.Name] = metricValue{Value: r.vals[m.Name], Unit: m.Unit}
	}
	if r.cfg.trace {
		for _, m := range r.cfg.spec.PerLayer {
			add(m)
		}
	} else {
		for _, m := range r.cfg.spec.EndToEnd {
			add(m)
			if r.vals[m.Name] <= 0 {
				r.fail("end-to-end metric %s was not measured", m.Name)
			}
		}
		res.Failed = r.failed
	}
	if res.Attempted < 1 {
		res.Attempted = 1
	}
	res.Correct = res.Failed == 0
	return res
}

// printResult writes the human-readable table and, last, the result line.
func (r *run) printResult(res result) error {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	r.logf("%s seed=%d trace=%v:", r.cfg.workload, r.cfg.seed, r.cfg.trace)
	for _, n := range names {
		m := res.Metrics[n]
		if m.Value == 0 && r.cfg.trace {
			continue // a layer this workload does not exercise
		}
		r.logf("  %-36s %14.4f %s", n, m.Value, m.Unit)
	}
	if len(r.reasons) > 0 {
		whys := make([]string, 0, len(r.reasons))
		for w, n := range r.reasons {
			whys = append(whys, fmt.Sprintf("%d× %s", n, w))
		}
		sort.Strings(whys)
		if len(whys) > 8 {
			whys = whys[:8]
		}
		r.logf("failed %d of %d:\n  %s", res.Failed, res.Attempted, strings.Join(whys, "\n  "))
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(r.out, "%s\n", line)
	return err
}

// writeTrace dumps the spans and boundary counts of a traced run.
func (r *run) writeTrace() error {
	if r.tr == nil || r.cfg.traceOut == "" {
		return nil
	}
	spans, counts := r.tr.snapshot()
	buf, err := json.MarshalIndent(struct {
		Workload string           `json:"workload"`
		Seed     uint64           `json:"seed"`
		Spans    []span           `json:"spans"`
		Counts   map[string]int64 `json:"counts"`
	}{r.cfg.workload, r.cfg.seed, spans, counts}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(r.cfg.traceOut, buf, 0o644)
}

// runWorkload runs one workload start to finish and returns its state
// and result without printing the result.
func runWorkload(cfg config, out io.Writer) (*run, result, error) {
	run := runners[cfg.workload]
	if run == nil {
		return nil, result{}, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	r := newRun(cfg, out)
	r.logEnv()
	if err := run(r); err != nil {
		return r, result{}, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	return r, r.finish(), r.writeTrace()
}

// execute is runWorkload plus the printed table and result line.
func execute(cfg config, out io.Writer) (result, error) {
	r, res, err := runWorkload(cfg, out)
	if err != nil {
		return res, err
	}
	return res, r.printResult(res)
}

// logEnv records what the numbers depend on besides the code.
func (r *run) logEnv() {
	r.logf("benchstack %s: seed=%d seconds=%g trace=%v smoke=%v nproc=%d GOMAXPROCS=%d %s %s/%s caches: %s",
		r.cfg.workload, r.cfg.seed, r.cfg.seconds, r.cfg.trace, r.cfg.smoke, r.nproc,
		runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, cacheSizes())
}

// cacheSizes reads cpu0's cache hierarchy from sysfs.
func cacheSizes() string {
	var parts []string
	for i := 0; i < 8; i++ {
		base := fmt.Sprintf("/sys/devices/system/cpu/cpu0/cache/index%d/", i)
		size, err := os.ReadFile(base + "size")
		if err != nil {
			break
		}
		level, _ := os.ReadFile(base + "level")
		typ, _ := os.ReadFile(base + "type")
		parts = append(parts, fmt.Sprintf("L%s %s %s",
			strings.TrimSpace(string(level)), strings.ToLower(strings.TrimSpace(string(typ))), strings.TrimSpace(string(size))))
	}
	if len(parts) == 0 {
		return "unknown"
	}
	return strings.Join(parts, ", ")
}
