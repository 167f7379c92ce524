package core

import (
	"strings"
	"testing"
	"time"

	"pushpull/internal/counters"
)

func TestDirectionString(t *testing.T) {
	if Push.String() != "Pushing" || Pull.String() != "Pulling" {
		t.Fatal("direction names wrong")
	}
	if !strings.Contains(Direction(9).String(), "Direction(") {
		t.Fatal("unknown direction name")
	}
}

func TestOptionsDefaults(t *testing.T) {
	var o Options
	o.Tick(0, time.Second) // no hook: must not panic
	var calls int
	o.OnIteration = func(iter int, e time.Duration) { calls++ }
	o.Tick(1, time.Millisecond)
	if calls != 1 {
		t.Fatal("OnIteration not invoked")
	}
}

func TestProfileValidate(t *testing.T) {
	p, g := CountingProfile(3)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.Len() != 3 {
		t.Fatalf("group len = %d", g.Len())
	}
	bad := Profile{Threads: 0}
	if err := bad.Validate(); err == nil {
		t.Fatal("zero threads validated")
	}
	bad = Profile{Threads: 2, Probes: []counters.Probe{counters.NopProbe{}}}
	if err := bad.Validate(); err == nil {
		t.Fatal("probe count mismatch validated")
	}
	bad = Profile{Threads: 1, Probes: []counters.Probe{nil}}
	if err := bad.Validate(); err == nil {
		t.Fatal("nil probe validated")
	}
}

func TestCountingProfileRecords(t *testing.T) {
	p, g := CountingProfile(2)
	p.Probes[0].Read(0, 8)
	p.Probes[1].Atomic(0, 8)
	rep := g.Report()
	if rep.Get(counters.Reads) != 1 || rep.Get(counters.Atomics) != 1 {
		t.Fatalf("report: %v", rep)
	}
}

func TestRunStats(t *testing.T) {
	var s RunStats
	if s.AvgIteration() != 0 {
		t.Fatal("empty stats avg != 0")
	}
	s.Record(10 * time.Millisecond)
	s.Record(20 * time.Millisecond)
	if s.Iterations != 2 {
		t.Fatalf("Iterations = %d", s.Iterations)
	}
	if s.Elapsed != 30*time.Millisecond {
		t.Fatalf("Elapsed = %v", s.Elapsed)
	}
	if s.AvgIteration() != 15*time.Millisecond {
		t.Fatalf("Avg = %v", s.AvgIteration())
	}
	if len(s.PerIteration) != 2 {
		t.Fatalf("PerIteration = %v", s.PerIteration)
	}
}

func TestGenericSwitch(t *testing.T) {
	gs := &GenericSwitch{Threshold: 2}
	// Iteration 0 never switches (no history).
	if a := gs.Decide(0, 0, 100, 1000); a != Stay {
		t.Fatalf("iter 0: %v", a)
	}
	// Healthy ratio: stay.
	if a := gs.Decide(1, 500, 100, 1000); a != Stay {
		t.Fatalf("healthy: %v", a)
	}
	// Conflicts dominate: switch once.
	if a := gs.Decide(2, 50, 100, 1000); a != SwitchDirection {
		t.Fatalf("thrash: %v", a)
	}
	// Never switches twice.
	if a := gs.Decide(3, 0, 100, 1000); a != Stay {
		t.Fatalf("second switch: %v", a)
	}
	// Zero conflicts: no division, stay.
	gs2 := &GenericSwitch{Threshold: 2}
	if a := gs2.Decide(1, 10, 0, 100); a != Stay {
		t.Fatalf("zero conflicts: %v", a)
	}
}

func TestGreedySwitch(t *testing.T) {
	gr := &GreedySwitch{Fraction: 0.1, Total: 1000}
	if a := gr.Decide(1, 0, 0, 500); a != Stay {
		t.Fatalf("much remaining: %v", a)
	}
	if a := gr.Decide(2, 0, 0, 99); a != GoSequential {
		t.Fatalf("little remaining: %v", a)
	}
	// Unconfigured policy is inert.
	inert := &GreedySwitch{}
	if a := inert.Decide(1, 0, 0, 0); a != Stay {
		t.Fatalf("inert: %v", a)
	}
}

func TestNeverSwitch(t *testing.T) {
	var n NeverSwitch
	if n.Decide(5, 0, 100, 0) != Stay {
		t.Fatal("NeverSwitch switched")
	}
}

func TestActionString(t *testing.T) {
	if Stay.String() != "stay" || SwitchDirection.String() != "switch-direction" ||
		GoSequential.String() != "go-sequential" {
		t.Fatal("action names wrong")
	}
	if !strings.Contains(Action(42).String(), "Action(") {
		t.Fatal("unknown action name")
	}
}
