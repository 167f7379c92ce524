package dalgo

import (
	"testing"

	"pushpull/internal/algo/pr"
	"pushpull/internal/algo/sssp"
	"pushpull/internal/algo/tc"
	"pushpull/internal/counters"
	"pushpull/internal/gen"
	"pushpull/internal/graph"
)

const tol = 1e-9

func testGraph(t testing.TB) *graph.CSR {
	t.Helper()
	g, err := gen.RMAT(gen.DefaultRMAT(9, 8, 42))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func smPR(g *graph.CSR, L int) []float64 {
	return pr.Sequential(pr.Views{Out: g, In: g}, pr.Options{Iterations: L, Damping: 0.85})
}

func TestPRVariantsMatchSharedMemory(t *testing.T) {
	g := testGraph(t)
	want := smPR(g, 10)
	cfg := PRConfig{Ranks: 4, Iterations: 10}

	push, err := PRPushRMA(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if d := sssp.MaxDiff(push.Values, want); d > tol {
		t.Fatalf("push-RMA diff %g", d)
	}
	pull, err := PRPullRMA(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if d := sssp.MaxDiff(pull.Values, want); d > tol {
		t.Fatalf("pull-RMA diff %g", d)
	}
	msg, err := PRMsgPassing(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if d := sssp.MaxDiff(msg.Values, want); d > tol {
		t.Fatalf("msg-passing diff %g", d)
	}
}

// The Figure 3 a–d shape: Msg-Passing ≫ RMA variants for PR; pushing-RMA
// is the slowest (float accumulate locking protocol).
func TestPRSimTimeShape(t *testing.T) {
	g := testGraph(t)
	cfg := PRConfig{Ranks: 8, Iterations: 3}
	push, err := PRPushRMA(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pull, err := PRPullRMA(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	msg, err := PRMsgPassing(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !(msg.SimTime < pull.SimTime && pull.SimTime < push.SimTime) {
		t.Fatalf("simulated times: msg=%.0f pull=%.0f push=%.0f, want msg < pull < push",
			msg.SimTime, pull.SimTime, push.SimTime)
	}
	if push.SimTime < 5*msg.SimTime {
		t.Fatalf("push-RMA %.0f not ≫ msg-passing %.0f (paper: >10x)",
			push.SimTime, msg.SimTime)
	}
}

func TestPRCounterShapes(t *testing.T) {
	g := testGraph(t)
	cfg := PRConfig{Ranks: 4, Iterations: 2}
	push, _ := PRPushRMA(g, cfg)
	pull, _ := PRPullRMA(g, cfg)
	msg, _ := PRMsgPassing(g, cfg)

	if push.Report.Get(counters.RemoteAtomics) == 0 {
		t.Fatal("push-RMA issued no remote atomics")
	}
	if pull.Report.Get(counters.RemoteAtomics) != 0 {
		t.Fatal("pull-RMA issued remote atomics")
	}
	if pull.Report.Get(counters.RemoteReads) == 0 {
		t.Fatal("pull-RMA issued no remote reads")
	}
	if msg.Report.Get(counters.Collectives) == 0 {
		t.Fatal("msg-passing issued no collectives")
	}
	if msg.Report.Get(counters.RemoteAtomics) != 0 {
		t.Fatal("msg-passing issued remote atomics")
	}
}

func TestPRStrongScalingImproves(t *testing.T) {
	g := testGraph(t)
	t2, err := PRMsgPassing(g, PRConfig{Ranks: 2, Iterations: 3})
	if err != nil {
		t.Fatal(err)
	}
	t8, err := PRMsgPassing(g, PRConfig{Ranks: 8, Iterations: 3})
	if err != nil {
		t.Fatal(err)
	}
	if t8.SimTime >= t2.SimTime {
		t.Fatalf("no strong scaling: P=2 %.0f vs P=8 %.0f", t2.SimTime, t8.SimTime)
	}
}

func TestTCVariantsMatchSharedMemory(t *testing.T) {
	g := testGraph(t)
	want, _ := tc.Pull(g, tc.Options{})
	cfg := TCConfig{Ranks: 4}

	push, err := TCPushRMA(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !EqualCounts(push.Counts, want) {
		t.Fatal("push-RMA counts differ")
	}
	pull, err := TCPullRMA(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !EqualCounts(pull.Counts, want) {
		t.Fatal("pull-RMA counts differ")
	}
	msg, err := TCMsgPassing(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !EqualCounts(msg.Counts, want) {
		t.Fatal("msg-passing counts differ")
	}
}

// The Figure 3 e–f shape: RMA beats MP for TC; pulling beats pushing.
func TestTCSimTimeShape(t *testing.T) {
	g := testGraph(t)
	cfg := TCConfig{Ranks: 8}
	push, err := TCPushRMA(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pull, err := TCPullRMA(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	msg, err := TCMsgPassing(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !(pull.SimTime <= push.SimTime && push.SimTime < msg.SimTime) {
		t.Fatalf("simulated times: pull=%.0f push=%.0f msg=%.0f, want pull ≤ push < msg",
			pull.SimTime, push.SimTime, msg.SimTime)
	}
}

func TestTCCounterShapes(t *testing.T) {
	g := testGraph(t)
	cfg := TCConfig{Ranks: 4}
	push, _ := TCPushRMA(g, cfg)
	pull, _ := TCPullRMA(g, cfg)
	msg, _ := TCMsgPassing(g, cfg)

	if push.Report.Get(counters.RemoteAtomics) == 0 {
		t.Fatal("push-RMA issued no FAAs")
	}
	if pull.Report.Get(counters.RemoteAtomics) != 0 || pull.Report.Get(counters.Messages) != 0 {
		t.Fatal("pull-RMA communicated")
	}
	if msg.Report.Get(counters.Messages) == 0 {
		t.Fatal("msg-passing sent no messages")
	}
}

func TestValidation(t *testing.T) {
	g := gen.Ring(4)
	if _, err := PRPushRMA(g, PRConfig{Ranks: 10}); err == nil {
		t.Fatal("more ranks than vertices accepted")
	}
	if _, err := TCPushRMA(g, TCConfig{Ranks: 10}); err == nil {
		t.Fatal("more ranks than vertices accepted")
	}
}

func TestSingleRankDegenerate(t *testing.T) {
	g := gen.Ring(16)
	want := smPR(g, 5)
	res, err := PRPushRMA(g, PRConfig{Ranks: 1, Iterations: 5})
	if err != nil {
		t.Fatal(err)
	}
	if d := sssp.MaxDiff(res.Values, want); d > tol {
		t.Fatalf("single rank diff %g", d)
	}
	// No remote traffic with one rank.
	if res.Report.Get(counters.RemoteAtomics) != 0 {
		t.Fatal("single rank issued remote atomics")
	}
}

func BenchmarkPRMsgPassing(b *testing.B) {
	g := testGraph(b)
	cfg := PRConfig{Ranks: 8, Iterations: 2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := PRMsgPassing(g, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTCPullRMA(b *testing.B) {
	g := testGraph(b)
	cfg := TCConfig{Ranks: 8}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := TCPullRMA(g, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func TestPRMemoryEstimates(t *testing.T) {
	g := testGraph(t)
	ests := PRMemory(g, 8)
	if len(ests) != 4 {
		t.Fatalf("%d estimates", len(ests))
	}
	byName := map[string]MemEstimate{}
	for _, e := range ests {
		if e.Bytes < 0 || e.Formula == "" {
			t.Fatalf("bad estimate %+v", e)
		}
		byName[e.Variant] = e
	}
	// §6.3.1: RMA variants O(1); MP may need orders of magnitude more.
	if byName["Msg-Passing"].Bytes <= 100*byName["Pushing-RMA"].Bytes {
		t.Fatalf("MP buffer %d not ≫ RMA %d",
			byName["Msg-Passing"].Bytes, byName["Pushing-RMA"].Bytes)
	}
	if byName["Pushing-RMA"].String() == "" {
		t.Fatal("empty format")
	}
	// Degenerate rank counts must not divide by zero.
	if got := PRMemory(g, 0); len(got) != 4 {
		t.Fatal("p=0 estimate failed")
	}
}

func TestTCMemoryEstimates(t *testing.T) {
	g := testGraph(t)
	ests := TCMemory(g, 8, 0) // default threshold
	if len(ests) != 3 {
		t.Fatalf("%d estimates", len(ests))
	}
	// §6.3.2: the bulk-get extreme needs the most per-fetch staging, the
	// per-neighbor extreme the least.
	if ests[0].Bytes <= ests[1].Bytes {
		t.Fatalf("bulk %d not > per-get %d", ests[0].Bytes, ests[1].Bytes)
	}
}
