package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSplitMix64Deterministic(t *testing.T) {
	a, b := NewSplitMix64(42), NewSplitMix64(42)
	for i := 0; i < 100; i++ {
		if a.Next() != b.Next() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewSplitMix64(43)
	same := 0
	a = NewSplitMix64(42)
	for i := 0; i < 100; i++ {
		if a.Next() == c.Next() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds agree on %d/100 outputs", same)
	}
}

func TestNewNeverZeroState(t *testing.T) {
	// Even adversarial seeds must not produce a stuck generator.
	for _, seed := range []uint64{0, 1, ^uint64(0)} {
		r := New(seed)
		zeros := 0
		for i := 0; i < 10; i++ {
			if r.Uint64() == 0 {
				zeros++
			}
		}
		if zeros == 10 {
			t.Fatalf("seed %d produced a stuck generator", seed)
		}
	}
}

func TestRandDeterministic(t *testing.T) {
	a, b := New(7), New(7)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
}

func TestIntnRange(t *testing.T) {
	r := New(1)
	for i := 0; i < 10000; i++ {
		v := r.Intn(17)
		if v < 0 || v >= 17 {
			t.Fatalf("Intn(17) = %d", v)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	r.Intn(0)
}

func TestInt31nRange(t *testing.T) {
	r := New(2)
	for i := 0; i < 10000; i++ {
		v := r.Int31n(1000)
		if v < 0 || v >= 1000 {
			t.Fatalf("Int31n(1000) = %d", v)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 = %v", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("mean = %v, want ≈0.5", mean)
	}
}

func TestBoolProbability(t *testing.T) {
	r := New(4)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Bool(0.25) {
			hits++
		}
	}
	p := float64(hits) / n
	if math.Abs(p-0.25) > 0.01 {
		t.Fatalf("empirical p = %v, want ≈0.25", p)
	}
}

func TestPermIsPermutation(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%64) + 1
		p := New(seed).Perm(n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMix64Avalanche(t *testing.T) {
	// Flipping one input bit should flip roughly half the output bits.
	base := Mix64(0x0123456789abcdef)
	flipped := Mix64(0x0123456789abcdef ^ 1)
	diff := base ^ flipped
	ones := 0
	for ; diff != 0; diff &= diff - 1 {
		ones++
	}
	if ones < 16 || ones > 48 {
		t.Fatalf("avalanche: %d bits flipped", ones)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}
