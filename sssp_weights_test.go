package pushpull_test

// sssp's weight domain: a zero weight is a weight (not 1), +Inf is a
// weight, and a negative or NaN weight fails the run with a typed error
// before any round, where push could loop until its context ended and
// pull return wrong distances without an error.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"pushpull"
)

// ssspRuns are the spellings of an sssp run that must agree.
var ssspRuns = []struct {
	name string
	opts []pushpull.Option
}{
	{"push", []pushpull.Option{pushpull.WithDirection(pushpull.Push)}},
	{"pull", []pushpull.Option{pushpull.WithDirection(pushpull.Pull)}},
	{"auto", nil},
	{"probed push", []pushpull.Option{pushpull.WithDirection(pushpull.Push), pushpull.WithProbes()}},
	{"probed pull", []pushpull.Option{pushpull.WithDirection(pushpull.Pull), pushpull.WithProbes()}},
	{"explicit delta", []pushpull.Option{pushpull.WithDelta(0.5)}},
}

// runSSSP runs sssp from 0 with a deadline, so a run that never ends
// fails the test instead of hanging it.
func runSSSP(t *testing.T, g *pushpull.Graph, opts []pushpull.Option) (*pushpull.Report, error) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	rep, err := pushpull.Run(ctx, g, "sssp", append([]pushpull.Option{pushpull.WithSource(0)}, opts...)...)
	if ctx.Err() != nil {
		t.Fatalf("sssp ran into its deadline: %v", err)
	}
	return rep, err
}

func TestSSSPZeroWeightFromEdgeList(t *testing.T) {
	g, err := pushpull.ReadEdgeList(strings.NewReader("# pushpull 3 2 1 0\n0 1 0\n1 2 2\n"))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range ssspRuns {
		rep, err := runSSSP(t, g, r.opts)
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		if got := fmt.Sprint(rep.Ranks()); got != "[0 0 2]" {
			t.Errorf("%s: dist = %s, want [0 0 2]", r.name, got)
		}
	}
}

func TestSSSPInfiniteWeight(t *testing.T) {
	b := pushpull.NewBuilder(4)
	b.AddEdgeW(0, 1, float32(math.Inf(1)))
	b.AddEdgeW(1, 2, 2)
	b.AddEdgeW(0, 3, 1)
	g := b.MustBuild()
	for _, r := range ssspRuns {
		rep, err := runSSSP(t, g, r.opts)
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		if got := fmt.Sprint(rep.Ranks()); got != "[0 +Inf +Inf 1]" {
			t.Errorf("%s: dist = %s, want [0 +Inf +Inf 1]", r.name, got)
		}
	}
}

func TestSSSPRefusesNegativeOrNaNWeight(t *testing.T) {
	for _, w := range []float32{-5, float32(math.NaN()), float32(math.Copysign(0, -1)) - 1e-45} {
		b := pushpull.NewBuilder(3)
		b.AddEdgeW(0, 1, w)
		b.AddEdgeW(1, 2, 2)
		g := b.MustBuild()
		for _, r := range ssspRuns {
			_, err := runSSSP(t, g, r.opts)
			if !errors.Is(err, pushpull.ErrNeedsWeights) || !strings.Contains(err.Error(), "arc (0,1)") {
				t.Errorf("weight %g, %s: err = %v, want ErrNeedsWeights naming arc (0,1)", w, r.name, err)
			}
		}
	}
	// -0 is zero, not negative.
	b := pushpull.NewBuilder(2)
	b.AddEdgeW(0, 1, float32(math.Copysign(0, -1)))
	if _, err := runSSSP(t, b.MustBuild(), nil); err != nil {
		t.Errorf("weight -0: %v", err)
	}
}
