package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
)

func TestPercentiles(t *testing.T) {
	asc := make([]float64, 100)
	for i := range asc {
		asc[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {99, 99}, {100, 100}, {0.5, 1}} {
		if got := percentile(asc, c.p); got != c.want {
			t.Errorf("percentile(1..100, %g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
	// A tail is reported only with at least ten samples beyond it.
	for _, c := range []struct {
		n    int
		want float64
	}{{3, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99}, {10000, 99.9}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

// quartiles must match Python's statistics.quantiles(xs, n=4), which is
// what the run sets are judged with.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %g %g %g, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([3.1, 9.2, 4.7, 1.0, 6.5], n=4) == [2.05, 4.7, 7.85]
	q1, q2, q3 = quartiles([]float64{3.1, 9.2, 4.7, 1.0, 6.5})
	if math.Abs(q1-2.05) > 1e-12 || q2 != 4.7 || math.Abs(q3-7.85) > 1e-12 {
		t.Errorf("quartiles = %g %g %g, want 2.05 4.7 7.85", q1, q2, q3)
	}
	if s := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); s != 1 {
		t.Errorf("spread(1..10) = %g, want 1", s)
	}
}

func TestSpanLinkAndSelfTime(t *testing.T) {
	// One replicated PUT: client ⊃ router ⊃ two overlapping worker spans;
	// then one run whose reply reported 5 queued + 40 kernel.
	spans := []span{
		{ID: 0, Name: "client.put", Start: 0, End: 100},
		{ID: 1, Name: "cluster.put", Start: 10, End: 90},
		{ID: 2, Name: "serve.put", Start: 20, End: 70},
		{ID: 3, Name: "serve.put", Start: 25, End: 80},
		{ID: 4, Name: "client.run", Start: 200, End: 300},
		{ID: 5, Name: "serve.run", Start: 220, End: 280},
		{ID: 6, Name: "cluster.run", Start: 210, End: 290},
		{ID: 7, Name: "engine.queue_wait", Start: 0, End: 5, Parent: 4, Req: 4, Reported: true},
		{ID: 8, Name: "kernel.pr", Start: 0, End: 40, Parent: 4, Req: 4, Reported: true},
		// A health probe the router sent on its own: no client parent.
		{ID: 9, Name: "serve.status", Start: 400, End: 410, Parent: -1, Req: -1},
	}
	link(spans)
	wantParent := []int{-1, 0, 1, 1, -1, 6, 4, 5, 5, -1}
	wantReq := []int{0, 0, 0, 0, 4, 4, 4, 4, 4, -1}
	for i, s := range spans {
		if s.Parent != wantParent[i] || s.Req != wantReq[i] {
			t.Errorf("span %d %s: parent %d req %d, want %d %d", i, s.Name, s.Parent, s.Req, wantParent[i], wantReq[i])
		}
	}
	if spans[7].Start != 220 || spans[7].End != 225 || spans[8].Start != 225 || spans[8].End != 265 {
		t.Errorf("reported spans placed at %v %v", spans[7], spans[8])
	}
	// Self time = duration − the part of the interval children cover;
	// the two worker PUTs overlap, so the router's children cover 20..80.
	want := []int64{20, 20, 50, 55, 20, 15, 20, 5, 40, 10}
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("self time of span %d %s = %d, want %d", i, spans[i].Name, got, want[i])
		}
	}
	ops := operations(spans, "client.put")
	if len(ops) != 1 || len(ops[0].all("serve.put")) != 2 || ops[0].find("cluster.put") != 1 {
		t.Errorf("operations(client.put) = %+v", ops)
	}
}

func TestVerdicts(t *testing.T) {
	lower := metricDef{"op_p50_ms", "ms", "lower", 0.10}
	higher := metricDef{"ops_per_s", "1/s", "higher", 0.10}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	for _, c := range []struct {
		m    metricDef
		a, b []float64
		want string
	}{
		{lower, steady, steady, "agree"},
		{lower, steady, scaled(steady, 1.2), "worse"},
		{lower, steady, scaled(steady, 0.8), "agree"},
		{higher, steady, scaled(steady, 0.8), "worse"},
		// Its own spread exceeds the bound: unresolved, not unchanged.
		{lower, []float64{80, 120, 90, 110, 70, 130, 100, 100, 85, 115}, steady, "unresolved"},
		// setup_s is held to the same rule as every other metric.
		{metricDef{"setup_s", "s", "lower", 0.25}, []float64{1, 2, 1, 2, 1, 2}, []float64{1, 2, 1, 2, 1, 2}, "unresolved"},
		{lower, nil, steady, "missing"},
	} {
		if got := verdict(c.m, c.a, c.b); got != c.want {
			t.Errorf("verdict(%s, %v, %v) = %s, want %s", c.m.Name, c.a, c.b, got, c.want)
		}
	}
}

func scaled(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

// testSpec is BENCHMARK.json, which the tests' working directory is two
// levels below.
func testSpec(t *testing.T) *spec {
	t.Helper()
	sp, err := loadSpec("../../" + specFile)
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// The limits the driver refuses a BENCHMARK.json outside of.
func TestSpecMeetsContract(t *testing.T) {
	sp := testSpec(t)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q breaks the naming rule", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if len(sp.Workloads) < 2 || len(sp.Workloads) > 8 {
		t.Errorf("%d workloads", len(sp.Workloads))
	}
	for _, w := range sp.Workloads {
		use(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, m := range sp.EndToEnd {
		use(m.Name)
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %+v", m)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup || len(sp.EndToEnd) > 16 {
		t.Errorf("%d end-to-end metrics, setup_s in seconds among them: %v", len(sp.EndToEnd), setup)
	}
	if len(sp.PerLayer) < 1 || len(sp.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics", len(sp.PerLayer))
	}
	for _, m := range sp.PerLayer {
		use(m.Name)
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound != 0 {
			t.Errorf("per-layer metric %+v", m)
		}
	}
	if sp.RunSeconds < 1 || sp.RunSeconds > 60 {
		t.Errorf("run_seconds %d", sp.RunSeconds)
	}
	if len(sp.Paths) != 1 || sp.Paths[0] != "cmd/benchstack" || len(sp.Command) == 0 || len(sp.Command) > 32 {
		t.Errorf("paths %v command %v", sp.Paths, sp.Command)
	}
	if fi, err := os.Stat("../../" + specFile); err != nil || fi.Size() > 64<<10 {
		t.Errorf("%s: %v, %d bytes", specFile, err, fi.Size())
	}
}

// Every workload, end to end, on tiny graphs with fixed operation counts
// (nothing here reads a clock to decide how much to do). The traced pass
// runs the untraced phase, the traced phase and the probes, so one pass
// per workload covers every metric either pass can emit; over the six
// workloads every per-layer name BENCHMARK.json lists must come up.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("stands up the serving stack six times")
	}
	sp := testSpec(t)
	t.Setenv("TMPDIR", t.TempDir()) // where the library puts its temporary block files
	emitted := map[string]bool{}
	for _, w := range sp.Workloads {
		cfg := config{workload: w.Name, seed: 7, seconds: 1, smoke: true, trace: true, dir: t.TempDir(), spec: sp}
		r, res, err := runWorkload(cfg, io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s: %d of %d failed: %v", w.Name, res.Failed, res.Attempted, r.reasons)
		}
		if len(res.Metrics) != len(sp.PerLayer) {
			t.Errorf("%s: traced pass emitted %d metrics, BENCHMARK.json lists %d", w.Name, len(res.Metrics), len(sp.PerLayer))
		}
		for _, m := range sp.EndToEnd {
			if v := r.vals[m.Name]; !(v > 0) {
				t.Errorf("%s: end-to-end metric %s = %g; it may never be 0", w.Name, m.Name, v)
			}
		}
		for name := range r.vals {
			emitted[name] = true
		}
	}
	for _, m := range sp.PerLayer {
		if !emitted[m.Name] {
			t.Errorf("BENCHMARK.json lists %s, which no workload emitted", m.Name)
		}
	}

	// The untraced pass is what the driver gates: exactly the end-to-end
	// metrics, on the last line, as one JSON object.
	var out bytes.Buffer
	res, err := execute(config{workload: "serve-hot", seed: 7, seconds: 1, smoke: true, dir: t.TempDir(), spec: sp}, &out)
	if err != nil || !res.Correct {
		t.Fatalf("serve-hot untraced: %v %+v", err, res)
	}
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	var last map[string]json.RawMessage
	if err := json.Unmarshal(lines[len(lines)-1], &last); err != nil {
		t.Fatalf("last line is not JSON: %v: %s", err, lines[len(lines)-1])
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := last[k]; !ok {
			t.Errorf("result line lacks %q", k)
		}
	}
	if len(last) != 4 || len(res.Metrics) != len(sp.EndToEnd) {
		t.Errorf("result line has %d keys and %d metrics", len(last), len(res.Metrics))
	}
	for _, m := range sp.EndToEnd {
		if v, ok := res.Metrics[m.Name]; !ok || v.Unit != m.Unit || !(v.Value > 0) {
			t.Errorf("untraced pass: %s = %+v", m.Name, v)
		}
	}
}
