package api

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"strconv"
	"testing"

	"pushpull"
)

// strconvFloats is the reply's float array as strconv spells it, null
// for NaN and ±Inf: the oracle the formatter and the encoder answer to.
func strconvFloats(dst []byte, v []float64) []byte {
	dst = append(dst, '[')
	for i, x := range v {
		if i > 0 {
			dst = append(dst, ',')
		}
		if math.IsInf(x, 0) || math.IsNaN(x) {
			dst = append(dst, "null"...)
		} else {
			dst = strconv.AppendFloat(dst, x, 'g', -1, 64)
		}
	}
	return append(dst, ']')
}

// shortestCorpus is the fixed part of the formatter's differential
// corpus: the values where a shortest-digit algorithm goes wrong if it
// does — binade edges, exact powers of ten, integers at the edge of the
// fast path, the extremes — plus the ranks of a small pr run.
func shortestCorpus(t testing.TB) []float64 {
	var c []float64
	for p := -1074; p <= 1023; p++ { // every power of two ±2 ulps
		b := math.Float64bits(math.Ldexp(1, p))
		for d := -2; d <= 2; d++ {
			c = append(c, math.Float64frombits(b+uint64(d)))
		}
	}
	for k := -325; k <= 308; k++ {
		x, err := strconv.ParseFloat("1e"+strconv.Itoa(k), 64)
		if err != nil {
			t.Fatal(err)
		}
		c = append(c, x)
	}
	for i := 1; i <= 1000; i++ {
		c = append(c, float64(1<<53-i), float64(1<<52+i), 1/float64(i+3))
	}
	c = append(c, 0, math.Copysign(0, -1), math.MaxFloat64, -math.MaxFloat64,
		math.SmallestNonzeroFloat64, math.Float64frombits(1<<52-1), // least and greatest subnormal
		0x1p-1022, math.Float64frombits(1<<52+1), // least normals
		123456, 1234567, 1e-4, 9.9999e-5, 0.1, 0.3, 2.5, 1e21, -1.5)
	b := pushpull.NewBuilder(64)
	for v := 0; v < 64; v++ {
		for _, w := range []int{v + 1, 3 * v, v * v} {
			b.AddEdge(pushpull.V(v), pushpull.V(w%64))
		}
	}
	rep, err := pushpull.Run(context.Background(), pushpull.NewWorkload(b.MustBuild()), "pr", pushpull.WithThreads(1))
	if err != nil {
		t.Fatal(err)
	}
	return append(c, rep.Ranks()...)
}

// TestAppendShortestMatchesStrconv holds the formatter to
// strconv.AppendFloat(dst, x, 'g', -1, 64), byte for byte, on the fixed
// corpus and on a million random bit patterns, every exponent alike.
func TestAppendShortestMatchesStrconv(t *testing.T) {
	check := func(x float64) {
		got := appendShortest([]byte("["), x)
		want := strconv.AppendFloat([]byte("["), x, 'g', -1, 64)
		if string(got) != string(want) {
			t.Fatalf("appendShortest(%#016x) = %s, strconv writes %s", math.Float64bits(x), got[1:], want[1:])
		}
	}
	for _, x := range shortestCorpus(t) {
		check(x)
	}
	rng := rand.New(rand.NewPCG(47, 1))
	for i := 0; i < 1<<20; i++ {
		if x := math.Float64frombits(rng.Uint64()); !math.IsInf(x, 0) && !math.IsNaN(x) {
			check(x)
		}
	}
}

// TestPut8 writes every value of each four-digit lane of put8's word,
// in both lanes.
func TestPut8(t *testing.T) {
	b := make([]byte, 8)
	for a := uint32(0); a < 10000; a++ {
		for _, v := range []uint32{a*10000 + a, a*10000 + 9999 - a} {
			if put8(b, v); string(b) != fmt.Sprintf("%08d", v) {
				t.Fatalf("put8(%d) wrote %q", v, b)
			}
		}
	}
}

// FuzzAppendShortest holds the formatter to strconv on any bit pattern;
// zero, subnormals, ±Inf and NaN pass straight through to it.
func FuzzAppendShortest(f *testing.F) {
	for i, x := range shortestCorpus(f) {
		if i%10 == 0 {
			f.Add(math.Float64bits(x))
		}
	}
	f.Fuzz(func(t *testing.T, b uint64) {
		x := math.Float64frombits(b)
		got := appendShortest(nil, x)
		if want := strconv.AppendFloat(nil, x, 'g', -1, 64); string(got) != string(want) {
			t.Fatalf("appendShortest(%#016x) = %s, strconv writes %s", b, got, want)
		}
	})
}

// TestAppendFloatsAllocs: once the table exists, writing a vector into a
// buffer sized for it allocates nothing.
func TestAppendFloatsAllocs(t *testing.T) {
	v := shortestCorpus(t)
	buf := appendFloats(make([]byte, 0, floatsSize(len(v))), v)
	if allocs := testing.AllocsPerRun(10, func() { buf = appendFloats(buf[:0], v) }); allocs != 0 {
		t.Errorf("appendFloats allocates %v times per vector", allocs)
	}
}

var floatsSink []byte

// BenchmarkAppendFloats writes the ranks of a 10-iteration pull pr on
// rmat at suite scale 2 (n = 131,072, the serve-cold reply's vector),
// with the reply's formatter and with strconv.
func BenchmarkAppendFloats(b *testing.B) {
	g, err := pushpull.NamedGraph("rmat", 2, 1)
	if err != nil {
		b.Fatal(err)
	}
	rep, err := pushpull.Run(context.Background(), pushpull.NewWorkload(g), "pr",
		pushpull.WithDirection(pushpull.Pull), pushpull.WithIterations(10))
	if err != nil {
		b.Fatal(err)
	}
	ranks := rep.Ranks()
	for _, bc := range []struct {
		name string
		fn   func([]byte, []float64) []byte
	}{{"shortest", appendFloats}, {"strconv", strconvFloats}} {
		b.Run(bc.name, func(b *testing.B) {
			buf := make([]byte, 0, floatsSize(len(ranks)))
			b.SetBytes(int64(len(bc.fn(buf, ranks))))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				floatsSink = bc.fn(buf[:0], ranks)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(ranks)), "ns/float")
		})
	}
}
