package pushpull_test

// Registry tests for the §6.3 distributed simulations: the dist-* names
// must appear in Algorithms(), return uniform Reports, and reproduce the
// outputs of the internal/dm/dalgo functions they wrap exactly (the
// simulation is deterministic).

import (
	"context"
	"math"
	"testing"

	"pushpull"
	"pushpull/internal/dm/dalgo"
)

func distGraph(t testing.TB) *pushpull.Graph {
	t.Helper()
	g, err := pushpull.RMAT(pushpull.DefaultRMAT(9, 8, 11))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestListIncludesDistAlgorithms(t *testing.T) {
	names := map[string]bool{}
	for _, n := range pushpull.Algorithms() {
		names[n] = true
	}
	for _, want := range []string{
		"dist-pr-push-rma", "dist-pr-pull-rma", "dist-pr-mp",
		"dist-tc-push-rma", "dist-tc-pull-rma", "dist-tc-mp",
	} {
		if !names[want] {
			t.Errorf("Algorithms() misses %q (have %v)", want, pushpull.Algorithms())
		}
	}
}

// TestDistPRMatchesWrappers cross-validates each dist-pr registry entry
// against the dalgo function it wraps: same gathered ranks, same simulated
// makespan, same remote-operation counters.
func TestDistPRMatchesWrappers(t *testing.T) {
	g := distGraph(t)
	const ranks, iters = 4, 5
	wrappers := map[string]func(*pushpull.Graph, pushpull.DistPRConfig) (*pushpull.DistResult, error){
		"dist-pr-push-rma": dalgo.PRPushRMA,
		"dist-pr-pull-rma": dalgo.PRPullRMA,
		"dist-pr-mp":       dalgo.PRMsgPassing,
	}
	for name, wrapper := range wrappers {
		rep := run(t, g, name, pushpull.WithRanks(ranks), pushpull.WithIterations(iters))
		want, err := wrapper(g, pushpull.DistPRConfig{Ranks: ranks, Iterations: iters})
		if err != nil {
			t.Fatal(err)
		}
		// Values are compared with a float tolerance: the RMA ranks
		// accumulate concurrently, so the addition order (not the result
		// up to rounding) varies between runs.
		if d := pushpull.MaxDiff(rep.Ranks(), want.Values); d > 1e-12 {
			t.Errorf("%s: registry ranks diverge from wrapper by %g", name, d)
		}
		// Stats.Elapsed is the makespan rounded to whole nanoseconds.
		if got := float64(rep.Stats.Elapsed); math.Abs(got-want.SimTime) > 0.5 {
			t.Errorf("%s: makespan %v ≠ wrapper %v", name, got, want.SimTime)
		}
		res, ok := rep.Result.(*pushpull.DistResult)
		if !ok {
			t.Fatalf("%s: payload is %T, want *DistResult", name, rep.Result)
		}
		if *rep.Counters != want.Report || res.Report != want.Report {
			t.Errorf("%s: counters diverge from wrapper", name)
		}
		if rep.Stats.Iterations != iters || len(rep.Directions) != iters {
			t.Errorf("%s: %d iterations, %d trace entries, want %d/%d",
				name, rep.Stats.Iterations, len(rep.Directions), iters, iters)
		}
	}
}

// TestDistTCMatchesWrappers does the same for the dist-tc entries, and
// checks the counts agree across all three mechanisms.
func TestDistTCMatchesWrappers(t *testing.T) {
	g := distGraph(t)
	const ranks = 4
	wrappers := map[string]func(*pushpull.Graph, pushpull.DistTCConfig) (*pushpull.DistResult, error){
		"dist-tc-push-rma": dalgo.TCPushRMA,
		"dist-tc-pull-rma": dalgo.TCPullRMA,
		"dist-tc-mp":       dalgo.TCMsgPassing,
	}
	var first []int64
	for name, wrapper := range wrappers {
		rep := run(t, g, name, pushpull.WithRanks(ranks))
		want, err := wrapper(g, pushpull.DistTCConfig{Ranks: ranks})
		if err != nil {
			t.Fatal(err)
		}
		if !pushpull.EqualCounts(rep.Counts(), want.Counts) {
			t.Errorf("%s: registry counts diverge from wrapper", name)
		}
		if got := float64(rep.Stats.Elapsed); math.Abs(got-want.SimTime) > 0.5 {
			t.Errorf("%s: makespan %v ≠ wrapper %v", name, got, want.SimTime)
		}
		if rep.Counters == nil {
			t.Fatalf("%s: no counters attached", name)
		}
		if first == nil {
			first = rep.Counts()
		} else if !pushpull.EqualCounts(first, rep.Counts()) {
			t.Errorf("%s: counts disagree with the other dist-tc mechanisms", name)
		}
	}
}

// TestDistOptions pins the option semantics of the dist entries: the
// mechanism fixes the direction, WithRanks sizes the cluster (falling back
// to WithThreads), and a shared-memory cross-check agrees.
func TestDistOptions(t *testing.T) {
	g := distGraph(t)
	// A pinned direction contradicting the variant name errors.
	if _, err := pushpull.Run(context.Background(), g, "dist-pr-push-rma",
		pushpull.WithDirection(pushpull.Pull)); err == nil {
		t.Error("dist-pr-push-rma accepted WithDirection(Pull)")
	}
	if _, err := pushpull.Run(context.Background(), g, "dist-tc-pull-rma",
		pushpull.WithDirection(pushpull.Push)); err == nil {
		t.Error("dist-tc-pull-rma accepted WithDirection(Push)")
	}
	if _, err := pushpull.Run(context.Background(), g, "dist-pr-mp",
		pushpull.WithDirection(pushpull.Pull)); err == nil {
		t.Error("dist-pr-mp (a hybrid) accepted a pinned direction")
	}
	// An agreeing pin is fine.
	if _, err := pushpull.Run(context.Background(), g, "dist-pr-push-rma",
		pushpull.WithDirection(pushpull.Push), pushpull.WithIterations(2)); err != nil {
		t.Errorf("dist-pr-push-rma rejected the agreeing WithDirection(Push): %v", err)
	}
	// WithThreads doubles as the rank count when WithRanks is absent.
	a := run(t, g, "dist-pr-mp", pushpull.WithRanks(4), pushpull.WithIterations(3))
	b := run(t, g, "dist-pr-mp", pushpull.WithThreads(4), pushpull.WithIterations(3))
	if float64(a.Stats.Elapsed) != float64(b.Stats.Elapsed) {
		t.Error("WithThreads(4) did not size the cluster like WithRanks(4)")
	}
	// The distributed ranks agree with the shared-memory engine.
	sm := run(t, g, "pr", pushpull.WithIterations(5))
	dm := run(t, g, "dist-pr-mp", pushpull.WithRanks(8), pushpull.WithIterations(5))
	if d := pushpull.MaxDiff(sm.Ranks(), dm.Ranks()); d > 1e-9 {
		t.Errorf("dist-pr-mp diverges from shared-memory pr by %g", d)
	}
}
