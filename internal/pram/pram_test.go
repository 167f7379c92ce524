package pram

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"pushpull/internal/core"
)

func TestModelString(t *testing.T) {
	if EREW.String() != "EREW" || CREW.String() != "CREW" || CRCWCB.String() != "CRCW-CB" {
		t.Fatal("model names wrong")
	}
	if !strings.Contains(Model(9).String(), "Model(") {
		t.Fatal("unknown model name")
	}
}

func TestKRelaxationBounds(t *testing.T) {
	// Pulling never pays the CREW factor.
	pull := KRelaxation(1000, 10, 64, CREW, core.Pull)
	pushCB := KRelaxation(1000, 10, 64, CRCWCB, core.Push)
	pushCREW := KRelaxation(1000, 10, 64, CREW, core.Push)
	if pull != pushCB {
		t.Fatalf("pull %v != push/CRCW-CB %v", pull, pushCB)
	}
	if pushCREW.Time <= pushCB.Time || pushCREW.Work <= pushCB.Work {
		t.Fatalf("CREW push %v must exceed CRCW push %v", pushCREW, pushCB)
	}
	// Time is k̄ = max(1, k/P).
	if got := KRelaxation(5, 10, 4, CRCWCB, core.Push).Time; got != 1 {
		t.Fatalf("k < P time = %v, want 1", got)
	}
}

func defaultParams() AlgorithmParams {
	return AlgorithmParams{
		N: 1 << 20, M: 1 << 24, Dhat: 1 << 10, P: 64,
		L: 20, D: 12, Delta: 10, LDelta: 3,
	}
}

// The §4.9 complexity insight: for PR and TC, pulling beats pushing by a
// logarithmic factor in the CREW model but ties it under CRCW-CB.
func TestPullBeatsPushUnderCREW(t *testing.T) {
	p := defaultParams()
	type fn func(AlgorithmParams, Model, core.Direction) Cost
	for name, f := range map[string]fn{"PR": PageRank, "TC": TriangleCount, "BGC": BGC, "MST": MST} {
		pullCREW := f(p, CREW, core.Pull)
		pushCREW := f(p, CREW, core.Push)
		pushCB := f(p, CRCWCB, core.Push)
		if pushCREW.Work <= pullCREW.Work {
			t.Errorf("%s: CREW push work %v not > pull %v", name, pushCREW.Work, pullCREW.Work)
		}
		if pullCREW != pushCB {
			t.Errorf("%s: pull %v != CRCW-CB push %v", name, pullCREW, pushCB)
		}
	}
}

// Traversals flip the relation: pushing does less total work than pulling
// (§4.3, §4.4).
func TestPushBeatsPullForTraversals(t *testing.T) {
	p := defaultParams()
	if push, pull := BFS(p, CRCWCB, core.Push), BFS(p, CRCWCB, core.Pull); push.Work >= pull.Work {
		t.Fatalf("BFS push work %v not < pull %v", push.Work, pull.Work)
	}
	if push, pull := SSSPDelta(p, CRCWCB, core.Push), SSSPDelta(p, CRCWCB, core.Pull); push.Work >= pull.Work {
		t.Fatalf("SSSP push work %v not < pull %v", push.Work, pull.Work)
	}
	if push, pull := BC(p, CRCWCB, core.Push), BC(p, CRCWCB, core.Pull); push.Work >= pull.Work {
		t.Fatalf("BC push work %v not < pull %v", push.Work, pull.Work)
	}
}

// Property: cost is monotone in the processor count (more processors never
// increase time) for every algorithm bound.
func TestTimeMonotoneInP(t *testing.T) {
	f := func(pRaw uint8) bool {
		p1 := defaultParams()
		p2 := defaultParams()
		p1.P = float64(pRaw%63 + 1)
		p2.P = p1.P * 2
		for _, fn := range []func(AlgorithmParams, Model, core.Direction) Cost{
			PageRank, TriangleCount, BFS, SSSPDelta, BC, BGC, MST,
		} {
			for _, dir := range []core.Direction{core.Push, core.Pull} {
				if fn(p2, CRCWCB, dir).Time > fn(p1, CRCWCB, dir).Time+1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSummariesComplete(t *testing.T) {
	s := Summaries()
	if len(s) != 7 {
		t.Fatalf("%d summaries, want 7", len(s))
	}
	for _, row := range s {
		if row.Algorithm == "" || row.PushSync == "" || row.PullSync == "" {
			t.Fatalf("incomplete row %+v", row)
		}
	}
}

// ---- executable machine ----

func add(a, b int64) int64 { return a + b }

func TestMachineValidation(t *testing.T) {
	if _, err := NewMachine(CREW, 0, 8, nil); err == nil {
		t.Fatal("P=0 accepted")
	}
	if _, err := NewMachine(CRCWCB, 2, 8, nil); err == nil {
		t.Fatal("CRCW-CB without combiner accepted")
	}
	ma, err := NewMachine(CREW, 2, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := ma.Step([]Op{{Kind: Load, Addr: 99}, {}}); err == nil {
		t.Fatal("out-of-range address accepted")
	}
	if err := ma.Step([]Op{{Kind: Load, Addr: 1}}); err == nil {
		t.Fatal("wrong op count accepted")
	}
}

func TestMachineModelsEnforceRules(t *testing.T) {
	// EREW rejects concurrent reads.
	erew, _ := NewMachine(EREW, 2, 4, nil)
	err := erew.Step([]Op{{Kind: Load, Addr: 0}, {Kind: Load, Addr: 0}})
	if !errors.Is(err, ErrAccessConflict) {
		t.Fatalf("EREW concurrent read: %v", err)
	}
	// CREW allows concurrent reads, rejects concurrent writes.
	crew, _ := NewMachine(CREW, 2, 4, nil)
	if err := crew.Step([]Op{{Kind: Load, Addr: 0}, {Kind: Load, Addr: 0}}); err != nil {
		t.Fatalf("CREW concurrent read rejected: %v", err)
	}
	err = crew.Step([]Op{{Kind: Store, Addr: 0, Value: 1}, {Kind: Store, Addr: 0, Value: 2}})
	if !errors.Is(err, ErrAccessConflict) {
		t.Fatalf("CREW concurrent write: %v", err)
	}
	// Read+write of one cell in one step is forbidden everywhere.
	err = crew.Step([]Op{{Kind: Load, Addr: 1}, {Kind: Store, Addr: 1, Value: 2}})
	if !errors.Is(err, ErrAccessConflict) {
		t.Fatalf("read+write same cell: %v", err)
	}
	// CRCW-CB combines concurrent writes.
	cb, _ := NewMachine(CRCWCB, 3, 4, add)
	if err := cb.Step([]Op{
		{Kind: Store, Addr: 2, Value: 5},
		{Kind: Store, Addr: 2, Value: 7},
		{Kind: Store, Addr: 2, Value: 1},
	}); err != nil {
		t.Fatal(err)
	}
	if cb.Mem()[2] != 13 {
		t.Fatalf("combined value = %d, want 13", cb.Mem()[2])
	}
}

func TestMachineCounters(t *testing.T) {
	ma, _ := NewMachine(CREW, 2, 4, nil)
	// Idle-only step costs nothing.
	if err := ma.Step([]Op{{}, {}}); err != nil {
		t.Fatal(err)
	}
	if ma.Steps() != 0 || ma.Work() != 0 {
		t.Fatal("idle step counted")
	}
	if err := ma.Step([]Op{{Kind: Store, Addr: 0, Value: 9}, {Kind: LocalOp}}); err != nil {
		t.Fatal(err)
	}
	if ma.Steps() != 1 || ma.Work() != 2 {
		t.Fatalf("steps=%d work=%d", ma.Steps(), ma.Work())
	}
	if ma.Mem()[0] != 9 {
		t.Fatal("store lost")
	}
}

func TestRunKRelaxationCRCW(t *testing.T) {
	// k=8 updates from cells 0..7 into two targets; CRCW-CB combines them
	// within ⌈k/P⌉ store cycles.
	ma, _ := NewMachine(CRCWCB, 4, 16, add)
	for i := 0; i < 8; i++ {
		ma.Mem()[i] = int64(i + 1) // values 1..8
	}
	srcs := []int{0, 1, 2, 3, 4, 5, 6, 7}
	dsts := []int{8, 8, 8, 8, 9, 9, 9, 9}
	steps, work, err := RunKRelaxation(ma, srcs, dsts)
	if err != nil {
		t.Fatal(err)
	}
	if ma.Mem()[8] != 1+2+3+4 || ma.Mem()[9] != 5+6+7+8 {
		t.Fatalf("targets = %d, %d", ma.Mem()[8], ma.Mem()[9])
	}
	// Bound: loads (k/P cycles) + stores (k/P cycles) = 4 steps, work 2k.
	if steps > 4 || work != 16 {
		t.Fatalf("steps=%d work=%d", steps, work)
	}
}

func TestRunKRelaxationCREWSerializes(t *testing.T) {
	// Under CREW the same conflict pattern must take more store cycles
	// (one per conflicting writer) — the mechanism behind the §4 log/d̂
	// penalty for pushing on exclusive-write machines.
	crcw, _ := NewMachine(CRCWCB, 4, 16, add)
	crew, _ := NewMachine(CREW, 4, 16, add)
	for i := 0; i < 8; i++ {
		crcw.Mem()[i] = int64(i + 1)
		crew.Mem()[i] = int64(i + 1)
	}
	srcs := []int{0, 1, 2, 3, 4, 5, 6, 7}
	dsts := []int{8, 8, 8, 8, 8, 8, 8, 8} // all conflict
	sCB, _, err := RunKRelaxation(crcw, srcs, dsts)
	if err != nil {
		t.Fatal(err)
	}
	sCREW, _, err := RunKRelaxation(crew, srcs, dsts)
	if err != nil {
		t.Fatal(err)
	}
	if crew.Mem()[8] != 36 || crcw.Mem()[8] != 36 {
		t.Fatalf("sums: crew=%d crcw=%d", crew.Mem()[8], crcw.Mem()[8])
	}
	if sCREW <= sCB {
		t.Fatalf("CREW steps %d not > CRCW steps %d", sCREW, sCB)
	}
}

func TestRunKRelaxationErrors(t *testing.T) {
	ma, _ := NewMachine(CREW, 2, 8, nil) // no combiner
	if _, _, err := RunKRelaxation(ma, []int{0}, []int{1}); err == nil {
		t.Fatal("missing combiner accepted")
	}
	mb, _ := NewMachine(CRCWCB, 2, 8, add)
	if _, _, err := RunKRelaxation(mb, []int{0, 1}, []int{2}); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

func BenchmarkMachineStep(b *testing.B) {
	ma, _ := NewMachine(CRCWCB, 8, 1024, add)
	ops := make([]Op, 8)
	for i := range ops {
		ops[i] = Op{Kind: Store, Addr: i, Value: 1}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ma.Step(ops); err != nil {
			b.Fatal(err)
		}
	}
}
