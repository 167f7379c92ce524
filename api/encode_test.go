package api

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"math"
	"testing"
	"time"

	"pushpull"
)

// encodeBoth returns the encoder's document and the oracle's:
// encoding/json over the decoded wire struct.
func encodeBoth(t testing.TB, graph string, rep *pushpull.Report) (got, want []byte) {
	t.Helper()
	want, err := json.Marshal(BuildResponse(graph, rep))
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	r := Encode(graph, rep)
	got = append(append([]byte{}, r.Head...), r.Tail.Bytes...)
	if r.Len() != len(got) {
		t.Errorf("Len() = %d, document is %d bytes", r.Len(), len(got))
	}
	return got, want
}

// TestEncodeParity holds head+tail to json.Marshal(BuildResponse(...)),
// byte for byte, on every payload shape a registry algorithm produces.
func TestEncodeParity(t *testing.T) {
	stats := pushpull.RunStats{Iterations: 7, Elapsed: 1234567 * time.Nanosecond, QueueWait: 89 * time.Microsecond}
	mixed := []pushpull.Direction{pushpull.Push, pushpull.Push, pushpull.Pull}
	cases := []struct {
		name  string
		graph string
		rep   *pushpull.Report
	}{
		{"nil payload", "g", &pushpull.Report{Algorithm: "mst", Stats: stats}},
		{"ranks", "g", &pushpull.Report{Algorithm: "pr", Stats: stats,
			Result:     []float64{0, 1, -1.5, 1e-7, 1.5258789062500003e-05, 1e21, 123456789.125, math.MaxFloat64, math.SmallestNonzeroFloat64},
			Directions: []pushpull.Direction{pushpull.Pull, pushpull.Pull}}},
		{"ranks with non-finite entries", "g", &pushpull.Report{Algorithm: "sssp", Stats: stats,
			Result:     &pushpull.SSSPResult{Dist: []float64{0, math.Inf(1), 2.5, math.Inf(-1), math.NaN(), math.Copysign(0, -1)}},
			Directions: mixed}},
		{"empty ranks", "g", &pushpull.Report{Algorithm: "pr", Stats: stats, Result: []float64{}}},
		{"bc scores", "g", &pushpull.Report{Algorithm: "bc", Stats: stats, Result: &pushpull.BCResult{BC: []float64{0.5, 3}}}},
		{"counts", "g", &pushpull.Report{Algorithm: "tc", Stats: stats, Result: []int64{0, 3, -1, math.MaxInt64, math.MinInt64},
			Directions: []pushpull.Direction{pushpull.Push}}},
		{"colors", "g", &pushpull.Report{Algorithm: "gc", Stats: stats,
			Result: &pushpull.ColoringResult{Colors: []int32{0, 1, 2, math.MaxInt32}}, Directions: mixed}},
		{"bfs parents and levels", "g", &pushpull.Report{Algorithm: "bfs", Stats: stats,
			Result:     &pushpull.BFSTree{Parent: []pushpull.V{0, 0, 1, -1}, Level: []int32{0, 1, 2, -1}},
			Directions: mixed}},
		{"empty bfs tree", "g", &pushpull.Report{Algorithm: "bfs", Stats: stats, Result: &pushpull.BFSTree{}}},
		{"dist values", "g", &pushpull.Report{Algorithm: "dist-pr-mp", Stats: stats,
			Result: &pushpull.DistResult{Values: []float64{0.25, 0.75}}}},
		{"dist values and counts", "g", &pushpull.Report{Algorithm: "dist-tc-mp", Stats: stats,
			Result: &pushpull.DistResult{Values: []float64{1, 2}, Counts: []int64{1, 2}}}},
		{"flags set", "g", &pushpull.Report{Algorithm: "pr", Result: []float64{1},
			Stats: pushpull.RunStats{CacheHit: true, Coalesced: true, Canceled: true}}},
		{"hostile graph name", "a\"b\\c<d>&e \x00\xff é", &pushpull.Report{Algorithm: "pr", Stats: stats, Result: []float64{1}}},
		{"text json leaves alone, and text it does not", "µs é \x7f \u2028 \u2029 \t", &pushpull.Report{Algorithm: "pr", Stats: stats, Result: []float64{1}}},
		{"unknown direction", "g", &pushpull.Report{Algorithm: "pr", Stats: stats, Result: []float64{1},
			Directions: []pushpull.Direction{pushpull.Direction(9)}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, want := encodeBoth(t, tc.graph, tc.rep)
			if !bytes.Equal(got, want) {
				t.Errorf("encoder and encoding/json disagree\n got: %s\nwant: %s", got, want)
			}
		})
	}
}

// TestEncodeParityRegistry runs real algorithms, so a payload shape a new
// registry entry brings is covered without anyone listing it above.
func TestEncodeParityRegistry(t *testing.T) {
	b := pushpull.NewBuilder(6)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 0}, {2, 3}, {3, 4}} {
		b.AddEdgeW(pushpull.V(e[0]), pushpull.V(e[1]), float32(1+e[0]))
	}
	w := pushpull.NewWorkload(b.MustBuild(), pushpull.AsWeighted())
	for _, name := range pushpull.Algorithms() {
		rep, err := pushpull.Run(context.Background(), w, name, pushpull.WithThreads(1))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got, want := encodeBoth(t, "tiny", rep); !bytes.Equal(got, want) {
			t.Errorf("%s: encoder and encoding/json disagree\n got: %s\nwant: %s", name, got, want)
		}
	}
}

// TestEncodeMemoized pins where the tail is kept: nowhere on a miss, on
// the cache entry from its first hit, and gone with the entry.
func TestEncodeMemoized(t *testing.T) {
	b := pushpull.NewBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	eng := pushpull.NewEngine()
	w := pushpull.NewWorkload(b.MustBuild())
	run := func() Reply {
		t.Helper()
		rep, err := eng.Run(context.Background(), w, "pr", pushpull.WithThreads(1))
		if err != nil {
			t.Fatal(err)
		}
		return Encode("g", rep)
	}
	miss := run()
	if st := eng.Stats(); st.EncodingBytes != 0 || st.EncodingHits != 0 {
		t.Fatalf("after the miss: %d encoding bytes retained, %d hits; want none", st.EncodingBytes, st.EncodingHits)
	}
	first, second := run(), run()
	if first.Tail != second.Tail {
		t.Error("two hits of one entry got different tail encodings")
	}
	if !bytes.Equal(first.Tail.Bytes, miss.Tail.Bytes) || first.Tail.Hash() != miss.Tail.Hash() {
		t.Error("hit and miss tails differ")
	}
	if bytes.Equal(first.Head, miss.Head) {
		t.Error("hit and miss heads are equal: cache_hit is not in the head")
	}
	if st := eng.Stats(); st.EncodingBytes != int64(len(first.Tail.Bytes)) || st.EncodingHits != 1 {
		t.Errorf("after two hits: %d bytes retained, %d hits; want %d and 1", st.EncodingBytes, st.EncodingHits, len(first.Tail.Bytes))
	}
	eng.Invalidate(w)
	if st := eng.Stats(); st.EncodingBytes != 0 {
		t.Errorf("after invalidation: %d encoding bytes still retained", st.EncodingBytes)
	}
}

// floatsOf reads data as consecutive little-endian float64 bit patterns.
func floatsOf(data []byte) []float64 {
	out := make([]float64, len(data)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
	}
	return out
}

// FuzzEncodeRanks feeds arbitrary float64 bit patterns through the tail
// encoder: the ranks array must be Floats.MarshalJSON's, the document
// must be encoding/json's, and decoding must give the values back with
// null exactly where the input was not finite.
func FuzzEncodeRanks(f *testing.F) {
	seed := func(vs ...float64) {
		var b []byte
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		f.Add(b)
	}
	seed()
	seed(0, 1, -1, 0.1, 1e-5, 1e21, 1e-310)
	seed(math.Inf(1), math.Inf(-1), math.NaN(), math.Copysign(0, -1))
	seed(math.MaxFloat64, math.SmallestNonzeroFloat64, 1.5258789062500003e-05)
	f.Fuzz(func(t *testing.T, data []byte) {
		ranks := floatsOf(data)
		rep := &pushpull.Report{Algorithm: "pr", Result: ranks}
		tail := AppendTail(nil, rep)
		if len(ranks) == 0 {
			if string(tail) != "}" {
				t.Fatalf("tail of an empty payload is %q", tail)
			}
			return
		}
		arr, err := Floats(ranks).MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		if want := `,"ranks":` + string(arr) + `}`; string(tail) != want {
			t.Fatalf("tail %q, want %q", tail, want)
		}
		got, want := encodeBoth(t, "g", rep)
		if !bytes.Equal(got, want) {
			t.Fatalf("encoder and encoding/json disagree\n got: %s\nwant: %s", got, want)
		}
		var back struct {
			Ranks []*float64 `json:"ranks"`
		}
		if err := json.Unmarshal(got, &back); err != nil {
			t.Fatalf("document does not decode: %v\n%s", err, got)
		}
		if len(back.Ranks) != len(ranks) {
			t.Fatalf("%d ranks decoded from %d", len(back.Ranks), len(ranks))
		}
		for i, v := range ranks {
			finite := !math.IsInf(v, 0) && !math.IsNaN(v)
			switch p := back.Ranks[i]; {
			case finite && (p == nil || *p != v):
				t.Fatalf("rank %d: %v did not survive the round trip", i, v)
			case !finite && p != nil:
				t.Fatalf("rank %d: %v decoded as %v, want null", i, v, *p)
			}
		}
	})
}
