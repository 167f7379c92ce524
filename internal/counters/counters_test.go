package counters

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestEventString(t *testing.T) {
	if got := Atomics.String(); got != "atomics" {
		t.Fatalf("Atomics.String() = %q", got)
	}
	if got := TLBInstMiss.String(); got != "TLB misses (inst)" {
		t.Fatalf("TLBInstMiss.String() = %q", got)
	}
	if got := Event(-1).String(); !strings.Contains(got, "Event(") {
		t.Fatalf("invalid event string = %q", got)
	}
	if got := Event(999).String(); !strings.Contains(got, "Event(") {
		t.Fatalf("invalid event string = %q", got)
	}
}

func TestRecorderAddGetReset(t *testing.T) {
	var r Recorder
	r.Add(Reads, 10)
	r.Inc(Reads)
	r.Add(Atomics, 3)
	if got := r.Get(Reads); got != 11 {
		t.Fatalf("Reads = %d, want 11", got)
	}
	if got := r.Get(Atomics); got != 3 {
		t.Fatalf("Atomics = %d, want 3", got)
	}
	r.Reset()
	if got := r.Get(Reads); got != 0 {
		t.Fatalf("Reads after reset = %d", got)
	}
}

func TestAggregate(t *testing.T) {
	a, b := &Recorder{}, &Recorder{}
	a.Add(Writes, 5)
	b.Add(Writes, 7)
	b.Add(Locks, 2)
	rep := Aggregate([]*Recorder{a, b, nil})
	if got := rep.Get(Writes); got != 12 {
		t.Fatalf("Writes = %d, want 12", got)
	}
	if got := rep.Get(Locks); got != 2 {
		t.Fatalf("Locks = %d, want 2", got)
	}
}

func TestReportArithmetic(t *testing.T) {
	a, b := &Recorder{}, &Recorder{}
	a.Add(Reads, 100)
	b.Add(Reads, 40)
	ra := Aggregate([]*Recorder{a})
	rb := Aggregate([]*Recorder{b})
	if got := ra.Add(rb).Get(Reads); got != 140 {
		t.Fatalf("Add: Reads = %d, want 140", got)
	}
	if got := ra.Sub(rb).Get(Reads); got != 60 {
		t.Fatalf("Sub: Reads = %d, want 60", got)
	}
	if got := ra.Scale(10).Get(Reads); got != 10 {
		t.Fatalf("Scale: Reads = %d, want 10", got)
	}
	if got := ra.Scale(0).Get(Reads); got != 100 {
		t.Fatalf("Scale(0) must be identity, got %d", got)
	}
}

func TestReportNonZeroAndString(t *testing.T) {
	var r Recorder
	r.Add(L1Miss, 1)
	r.Add(BranchesCond, 2)
	rep := Aggregate([]*Recorder{&r})
	s := rep.String()
	if !strings.Contains(s, "L1 misses") || !strings.Contains(s, "branches (cond)") {
		t.Fatalf("String() = %q", s)
	}
}

func TestGroup(t *testing.T) {
	g := NewGroup(4)
	if g.Len() != 4 {
		t.Fatalf("Len = %d", g.Len())
	}
	for i := 0; i < 4; i++ {
		g.Recorder(i).Add(Messages, int64(i))
	}
	if got := g.Report().Get(Messages); got != 6 {
		t.Fatalf("group Messages = %d, want 6", got)
	}
	g.Reset()
	if got := g.Report().Get(Messages); got != 0 {
		t.Fatalf("after Reset = %d", got)
	}
}

func TestHuman(t *testing.T) {
	cases := []struct {
		in   int64
		want string
	}{
		{0, "0"},
		{9999, "9999"},
		{10_000, "10.00k"},
		{234_000_000, "234.00M"},
		{1_066_000_000, "1.07B"},
		{3_169_000_000_000, "3.17T"},
		{-25_000, "-25.00k"},
	}
	for _, c := range cases {
		if got := Human(c.in); got != c.want {
			t.Errorf("Human(%d) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestTable1EventsOrder(t *testing.T) {
	evs := Table1Events()
	if len(evs) != 11 {
		t.Fatalf("Table1Events has %d entries, want 11", len(evs))
	}
	if evs[0] != L1Miss || evs[10] != BranchesCond {
		t.Fatalf("unexpected order: %v", evs)
	}
}

func TestDMEvents(t *testing.T) {
	evs := DMEvents()
	if len(evs) != 6 {
		t.Fatalf("DMEvents has %d entries", len(evs))
	}
}

func TestCountProbe(t *testing.T) {
	p := &CountProbe{Rec: &Recorder{}}
	p.Read(0, 8)
	p.Read(8, 8)
	p.Write(0, 8)
	p.Atomic(16, 8)
	p.Lock(24)
	p.Branch(true)
	p.Branch(false)
	p.Jump()
	p.Exec(0) // no-op for counting probe
	r := p.Rec
	if r.Get(Reads) != 2 || r.Get(Writes) != 1 || r.Get(Atomics) != 1 ||
		r.Get(Locks) != 1 || r.Get(BranchesCond) != 2 || r.Get(BranchesUncond) != 1 {
		t.Fatalf("unexpected counts: %+v", Aggregate([]*Recorder{r}))
	}
}

func TestMultiProbe(t *testing.T) {
	a, b := &CountProbe{Rec: &Recorder{}}, &CountProbe{Rec: &Recorder{}}
	m := MultiProbe{a, b}
	m.Read(0, 8)
	m.Write(0, 8)
	m.Atomic(0, 8)
	m.Lock(0)
	m.Branch(true)
	m.Jump()
	m.Exec(1)
	for i, p := range []*CountProbe{a, b} {
		if p.Rec.Get(Reads) != 1 || p.Rec.Get(Writes) != 1 || p.Rec.Get(Atomics) != 1 {
			t.Fatalf("probe %d missed events", i)
		}
	}
}

// Property: aggregation is order-independent and equals the sum of parts.
func TestAggregateCommutes(t *testing.T) {
	f := func(xs, ys []int8) bool {
		a, b := &Recorder{}, &Recorder{}
		for _, x := range xs {
			a.Add(Event(int(uint8(x))%int(NumEvents)), 1)
		}
		for _, y := range ys {
			b.Add(Event(int(uint8(y))%int(NumEvents)), 1)
		}
		ab := Aggregate([]*Recorder{a, b})
		ba := Aggregate([]*Recorder{b, a})
		for e := Event(0); e < NumEvents; e++ {
			if ab.Get(e) != ba.Get(e) {
				return false
			}
			if ab.Get(e) != a.Get(e)+b.Get(e) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSortedNames(t *testing.T) {
	names := SortedNames()
	if len(names) != int(NumEvents) {
		t.Fatalf("len = %d, want %d", len(names), NumEvents)
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] > names[i] {
			t.Fatalf("not sorted at %d: %q > %q", i, names[i-1], names[i])
		}
	}
}
