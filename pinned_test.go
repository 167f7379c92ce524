package pushpull_test

// Pinned payload digests. Every built-in algorithm runs in each of its
// directions, in every layout a run can read — the plain one,
// WithDegreeSorted where its Caps allow it, and a handle an Engine serves
// by name — at 1, 2 and 7 threads, unprobed and probed. A cell's report
// folds into one FNV-1a digest: the payload, the run's direction and
// iteration count, and its direction trace; a probed cell's counters fold
// into a second. The literals were computed before the degree relabelling
// and the report assembly moved into one run boundary, so a layout or
// report change that moves one bit of any payload fails here. The
// unprobed pr push cells at 2 and 7 threads were taken again when push
// began to deal its row chunks by arc count: their bits follow the deal,
// and each of their layouts fills at least two of the deal's accumulators.

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"strings"
	"testing"

	"pushpull"
	"pushpull/internal/counters"
)

// pinCell is one pinned run: algo on a handle with opts.
type pinCell struct {
	name    string
	on      *pushpull.Workload
	algo    string
	threads int
	opts    []pushpull.Option
}

// pinnedCells lists every cell: the undirected weighted rmat(8, 8) for
// every algorithm, and its directed twin for pr, the one algorithm that
// runs directed.
func pinnedCells(t testing.TB) []pinCell {
	g, err := pushpull.RMAT(pushpull.DefaultRMAT(8, 8, 9701))
	if err != nil {
		t.Fatal(err)
	}
	g = pushpull.WithUniformWeights(g, 1, 10, 3)
	dg := directedSkewedGraph(t, 300, 9701)
	handles := func(fresh func() *pushpull.Workload) (plain, served *pushpull.Workload) {
		served = fresh()
		if err := pushpull.NewEngine().RegisterWorkload("g", served); err != nil {
			t.Fatal(err)
		}
		return fresh(), served
	}
	plain, served := handles(func() *pushpull.Workload { return pushpull.NewWorkload(g, pushpull.AsWeighted()) })
	dplain, dserved := handles(func() *pushpull.Workload { return pushpull.Directed(dg) })

	bc := []pushpull.V{0, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144}
	algos := []struct {
		algo string
		dirs []pushpull.Direction
		opts []pushpull.Option
	}{
		{"pr", []pushpull.Direction{pushpull.Push, pushpull.Pull}, []pushpull.Option{pushpull.WithIterations(12)}},
		{"tc", []pushpull.Direction{pushpull.Push, pushpull.Pull}, nil},
		{"bfs", []pushpull.Direction{pushpull.Push, pushpull.Pull, pushpull.Auto}, []pushpull.Option{pushpull.WithSource(3)}},
		{"sssp", []pushpull.Direction{pushpull.Push, pushpull.Pull, pushpull.Auto}, []pushpull.Option{pushpull.WithSource(3)}},
		{"bc", []pushpull.Direction{pushpull.Push, pushpull.Pull}, []pushpull.Option{pushpull.WithSources(bc)}},
		{"gc", []pushpull.Direction{pushpull.Push, pushpull.Pull}, nil},
		{"gc-fe", []pushpull.Direction{pushpull.Push, pushpull.Pull}, nil},
		{"gc-cr", []pushpull.Direction{pushpull.Auto}, nil},
		{"mst", []pushpull.Direction{pushpull.Push, pushpull.Pull}, nil},
	}
	var cells []pinCell
	add := func(kind string, plain, served *pushpull.Workload, algo string, dirs []pushpull.Direction, opts []pushpull.Option) {
		a, err := pushpull.Lookup(algo)
		if err != nil {
			t.Fatal(err)
		}
		for _, dir := range dirs {
			for _, threads := range []int{1, 2, 7} {
				for _, probed := range []bool{false, true} {
					o := append([]pushpull.Option{pushpull.WithDirection(dir), pushpull.WithThreads(threads)}, opts...)
					suffix := ""
					if probed {
						o = append(o, pushpull.WithProbes())
						suffix = "/probed"
					}
					name := fmt.Sprintf("%s/%s/%v/t%d", algo, kind, dir, threads)
					cells = append(cells, pinCell{name + "/plain" + suffix, plain, algo, threads, o})
					if a.Caps().DegreeSort {
						cells = append(cells, pinCell{name + "/ds" + suffix, plain, algo, threads, append(o, pushpull.WithDegreeSorted())})
					}
					cells = append(cells, pinCell{name + "/served" + suffix, served, algo, threads, o})
				}
			}
		}
	}
	for _, a := range algos {
		add("undirected", plain, served, a.algo, a.dirs, a.opts)
	}
	add("directed", dplain, dserved, "pr", algos[0].dirs, algos[0].opts)
	return cells
}

// digestWords folds words into h as 8-byte little-endian values.
func digestWords(h hash.Hash64, words ...uint64) {
	var b [8]byte
	for _, w := range words {
		binary.LittleEndian.PutUint64(b[:], w)
		h.Write(b[:])
	}
}

func digestFloats(h hash.Hash64, xs []float64) {
	digestWords(h, uint64(len(xs)))
	for _, x := range xs {
		digestWords(h, math.Float64bits(x))
	}
}

func digestInts[T int32 | int64](h hash.Hash64, xs []T) {
	digestWords(h, uint64(len(xs)))
	for _, x := range xs {
		digestWords(h, uint64(int64(x)))
	}
}

// payloadDigest folds rep's payload, direction, iteration count and
// direction trace into one digest.
func payloadDigest(t testing.TB, rep *pushpull.Report) string {
	t.Helper()
	h := fnv.New64a()
	switch r := rep.Result.(type) {
	case []float64:
		digestFloats(h, r)
	case []int64:
		digestInts(h, r)
	case *pushpull.BFSTree:
		digestInts(h, r.Parent)
		digestInts(h, r.Level)
	case *pushpull.SSSPResult:
		digestFloats(h, r.Dist)
		digestWords(h, uint64(r.Epochs), uint64(r.Inner))
	case *pushpull.BCResult:
		digestFloats(h, r.BC)
	case *pushpull.ColoringResult:
		digestInts(h, r.Colors)
		digestWords(h, uint64(r.Iterations), uint64(r.NumColors))
	case *pushpull.MSTResult:
		digestWords(h, uint64(len(r.Edges)), math.Float64bits(r.TotalWeight), uint64(r.Iterations))
		for _, e := range r.Edges {
			digestWords(h, uint64(e.U), uint64(e.V), uint64(math.Float32bits(e.Weight)))
		}
	default:
		t.Fatalf("payload %T has no digest", rep.Result)
	}
	digestWords(h, uint64(rep.Stats.Direction), uint64(rep.Stats.Iterations), uint64(len(rep.Directions)))
	for _, d := range rep.Directions {
		digestWords(h, uint64(d))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// counterDigest folds a probed report's counters into one digest.
func counterDigest(rep *pushpull.Report) string {
	h := fnv.New64a()
	for e := counters.Event(0); e < counters.NumEvents; e++ {
		digestWords(h, uint64(rep.Counters.Get(e)))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func runCell(t testing.TB, c pinCell) (payload, ctrs string) {
	t.Helper()
	rep, err := pushpull.Run(context.Background(), c.on, c.algo, c.opts...)
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	payload = payloadDigest(t, rep)
	if rep.Counters != nil {
		ctrs = counterDigest(rep)
	}
	return payload, ctrs
}

// leftOut names why a cell is not pinned: its payload already varied
// from run to run before the boundary moved, so no literal holds it.
func leftOut(c pinCell) string {
	unprobed := !strings.HasSuffix(c.name, "/probed")
	multi := !strings.Contains(c.name, "/t1/")
	switch {
	case unprobed && multi && c.algo == "bfs" && !strings.Contains(c.name, "/pull/"):
		return "bfs push rounds, Auto's included, claim each parent with a race: which pusher wins varies"
	case unprobed && multi && c.algo == "bc" && strings.Contains(c.name, "/push/"):
		return "bc push adds dependencies with atomic float adds, in an order that varies"
	}
	return ""
}

// TestPinnedPayloadDigests holds every cell's digests to the literals.
func TestPinnedPayloadDigests(t *testing.T) {
	seen := 0
	for _, c := range pinnedCells(t) {
		if leftOut(c) != "" {
			continue
		}
		seen++
		want, ok := pinnedDigests[c.name]
		if !ok {
			t.Errorf("%s: no pinned digest", c.name)
			continue
		}
		if c.algo == "pr" && c.threads > 1 && strings.Contains(c.name, "/push/") && !strings.HasSuffix(c.name, "/probed") {
			g := c.on.Graph()
			if strings.HasSuffix(c.name, "/ds") {
				g = c.on.DegreeSorted().G
			}
			if filled := dealFills(g, c.threads); filled < 2 {
				t.Errorf("%s: the push deal fills %d accumulator(s)", c.name, filled)
			}
		}
		payload, ctrs := runCell(t, c)
		got := payload
		if ctrs != "" {
			got += "/" + ctrs
		}
		if got != want {
			t.Errorf("%s: digest %s, pinned %s", c.name, got, want)
		}
	}
	if seen != len(pinnedDigests) {
		t.Errorf("%d cells ran, %d are pinned", seen, len(pinnedDigests))
	}
}

// pinnedDigests maps each cell to its payload digest, and a probed cell's
// to that and its counter digest, "payload/counters".
var pinnedDigests = map[string]string{
	"pr/undirected/push/t1/plain":            "b118c63cde2a2bab",
	"pr/undirected/push/t1/ds":               "a1191ecd3587f9e6",
	"pr/undirected/push/t1/served":           "b118c63cde2a2bab",
	"pr/undirected/push/t1/plain/probed":     "b118c63cde2a2bab/025c2918a7b7c5a5",
	"pr/undirected/push/t1/ds/probed":        "a1191ecd3587f9e6/025c2918a7b7c5a5",
	"pr/undirected/push/t1/served/probed":    "b118c63cde2a2bab/025c2918a7b7c5a5",
	"pr/undirected/push/t2/plain":            "56967bc4dec75ea1",
	"pr/undirected/push/t2/ds":               "3fc91b161b65339f",
	"pr/undirected/push/t2/served":           "56967bc4dec75ea1",
	"pr/undirected/push/t2/plain/probed":     "b118c63cde2a2bab/025c2918a7b7c5a5",
	"pr/undirected/push/t2/ds/probed":        "a1191ecd3587f9e6/025c2918a7b7c5a5",
	"pr/undirected/push/t2/served/probed":    "b118c63cde2a2bab/025c2918a7b7c5a5",
	"pr/undirected/push/t7/plain":            "6cd60b3b2f809437",
	"pr/undirected/push/t7/ds":               "e3e7440d46b619e4",
	"pr/undirected/push/t7/served":           "6cd60b3b2f809437",
	"pr/undirected/push/t7/plain/probed":     "b118c63cde2a2bab/025c2918a7b7c5a5",
	"pr/undirected/push/t7/ds/probed":        "a1191ecd3587f9e6/025c2918a7b7c5a5",
	"pr/undirected/push/t7/served/probed":    "b118c63cde2a2bab/025c2918a7b7c5a5",
	"pr/undirected/pull/t1/plain":            "e2c12613133542e6",
	"pr/undirected/pull/t1/ds":               "e2c12613133542e6",
	"pr/undirected/pull/t1/served":           "e2c12613133542e6",
	"pr/undirected/pull/t1/plain/probed":     "e2c12613133542e6/f44a8d778becc5f5",
	"pr/undirected/pull/t1/ds/probed":        "e2c12613133542e6/f44a8d778becc5f5",
	"pr/undirected/pull/t1/served/probed":    "e2c12613133542e6/f44a8d778becc5f5",
	"pr/undirected/pull/t2/plain":            "e2c12613133542e6",
	"pr/undirected/pull/t2/ds":               "e2c12613133542e6",
	"pr/undirected/pull/t2/served":           "e2c12613133542e6",
	"pr/undirected/pull/t2/plain/probed":     "e2c12613133542e6/f44a8d778becc5f5",
	"pr/undirected/pull/t2/ds/probed":        "e2c12613133542e6/f44a8d778becc5f5",
	"pr/undirected/pull/t2/served/probed":    "e2c12613133542e6/f44a8d778becc5f5",
	"pr/undirected/pull/t7/plain":            "e2c12613133542e6",
	"pr/undirected/pull/t7/ds":               "e2c12613133542e6",
	"pr/undirected/pull/t7/served":           "e2c12613133542e6",
	"pr/undirected/pull/t7/plain/probed":     "e2c12613133542e6/f44a8d778becc5f5",
	"pr/undirected/pull/t7/ds/probed":        "e2c12613133542e6/f44a8d778becc5f5",
	"pr/undirected/pull/t7/served/probed":    "e2c12613133542e6/f44a8d778becc5f5",
	"tc/undirected/push/t1/plain":            "1466eb9d59bd9085",
	"tc/undirected/push/t1/served":           "1466eb9d59bd9085",
	"tc/undirected/push/t1/plain/probed":     "1466eb9d59bd9085/5cb9d2e61d9d9ecd",
	"tc/undirected/push/t1/served/probed":    "1466eb9d59bd9085/5cb9d2e61d9d9ecd",
	"tc/undirected/push/t2/plain":            "1466eb9d59bd9085",
	"tc/undirected/push/t2/served":           "1466eb9d59bd9085",
	"tc/undirected/push/t2/plain/probed":     "1466eb9d59bd9085/5cb9d2e61d9d9ecd",
	"tc/undirected/push/t2/served/probed":    "1466eb9d59bd9085/5cb9d2e61d9d9ecd",
	"tc/undirected/push/t7/plain":            "1466eb9d59bd9085",
	"tc/undirected/push/t7/served":           "1466eb9d59bd9085",
	"tc/undirected/push/t7/plain/probed":     "1466eb9d59bd9085/5cb9d2e61d9d9ecd",
	"tc/undirected/push/t7/served/probed":    "1466eb9d59bd9085/5cb9d2e61d9d9ecd",
	"tc/undirected/pull/t1/plain":            "89673ea5b2f976e7",
	"tc/undirected/pull/t1/served":           "89673ea5b2f976e7",
	"tc/undirected/pull/t1/plain/probed":     "89673ea5b2f976e7/8d439f7b7fe310e8",
	"tc/undirected/pull/t1/served/probed":    "89673ea5b2f976e7/8d439f7b7fe310e8",
	"tc/undirected/pull/t2/plain":            "89673ea5b2f976e7",
	"tc/undirected/pull/t2/served":           "89673ea5b2f976e7",
	"tc/undirected/pull/t2/plain/probed":     "89673ea5b2f976e7/8d439f7b7fe310e8",
	"tc/undirected/pull/t2/served/probed":    "89673ea5b2f976e7/8d439f7b7fe310e8",
	"tc/undirected/pull/t7/plain":            "89673ea5b2f976e7",
	"tc/undirected/pull/t7/served":           "89673ea5b2f976e7",
	"tc/undirected/pull/t7/plain/probed":     "89673ea5b2f976e7/8d439f7b7fe310e8",
	"tc/undirected/pull/t7/served/probed":    "89673ea5b2f976e7/8d439f7b7fe310e8",
	"bfs/undirected/push/t1/plain":           "6c75554889ee1cf2",
	"bfs/undirected/push/t1/ds":              "807994684226923e",
	"bfs/undirected/push/t1/served":          "6c75554889ee1cf2",
	"bfs/undirected/push/t1/plain/probed":    "6c75554889ee1cf2/a1983f4177ce2cba",
	"bfs/undirected/push/t1/ds/probed":       "807994684226923e/a1983f4177ce2cba",
	"bfs/undirected/push/t1/served/probed":   "6c75554889ee1cf2/a1983f4177ce2cba",
	"bfs/undirected/push/t2/plain/probed":    "6c75554889ee1cf2/a1983f4177ce2cba",
	"bfs/undirected/push/t2/ds/probed":       "807994684226923e/a1983f4177ce2cba",
	"bfs/undirected/push/t2/served/probed":   "6c75554889ee1cf2/a1983f4177ce2cba",
	"bfs/undirected/push/t7/plain/probed":    "6c75554889ee1cf2/a1983f4177ce2cba",
	"bfs/undirected/push/t7/ds/probed":       "807994684226923e/a1983f4177ce2cba",
	"bfs/undirected/push/t7/served/probed":   "6c75554889ee1cf2/a1983f4177ce2cba",
	"bfs/undirected/pull/t1/plain":           "dc8da4e804cda691",
	"bfs/undirected/pull/t1/ds":              "f091e407bd061bdd",
	"bfs/undirected/pull/t1/served":          "dc8da4e804cda691",
	"bfs/undirected/pull/t1/plain/probed":    "dc8da4e804cda691/7e6fe89aef8327b9",
	"bfs/undirected/pull/t1/ds/probed":       "f091e407bd061bdd/e8dcad8aa284e16d",
	"bfs/undirected/pull/t1/served/probed":   "dc8da4e804cda691/7e6fe89aef8327b9",
	"bfs/undirected/pull/t2/plain":           "dc8da4e804cda691",
	"bfs/undirected/pull/t2/ds":              "f091e407bd061bdd",
	"bfs/undirected/pull/t2/served":          "dc8da4e804cda691",
	"bfs/undirected/pull/t2/plain/probed":    "dc8da4e804cda691/7e6fe89aef8327b9",
	"bfs/undirected/pull/t2/ds/probed":       "f091e407bd061bdd/e8dcad8aa284e16d",
	"bfs/undirected/pull/t2/served/probed":   "dc8da4e804cda691/7e6fe89aef8327b9",
	"bfs/undirected/pull/t7/plain":           "dc8da4e804cda691",
	"bfs/undirected/pull/t7/ds":              "f091e407bd061bdd",
	"bfs/undirected/pull/t7/served":          "dc8da4e804cda691",
	"bfs/undirected/pull/t7/plain/probed":    "dc8da4e804cda691/7e6fe89aef8327b9",
	"bfs/undirected/pull/t7/ds/probed":       "f091e407bd061bdd/e8dcad8aa284e16d",
	"bfs/undirected/pull/t7/served/probed":   "dc8da4e804cda691/7e6fe89aef8327b9",
	"bfs/undirected/auto/t1/plain":           "40584c0ac0d7b032",
	"bfs/undirected/auto/t1/ds":              "545c8b2a7910257e",
	"bfs/undirected/auto/t1/served":          "40584c0ac0d7b032",
	"bfs/undirected/auto/t1/plain/probed":    "40584c0ac0d7b032/4579d4d3901840cf",
	"bfs/undirected/auto/t1/ds/probed":       "545c8b2a7910257e/209dcd19adbf6da3",
	"bfs/undirected/auto/t1/served/probed":   "40584c0ac0d7b032/4579d4d3901840cf",
	"bfs/undirected/auto/t2/plain/probed":    "40584c0ac0d7b032/4579d4d3901840cf",
	"bfs/undirected/auto/t2/ds/probed":       "545c8b2a7910257e/209dcd19adbf6da3",
	"bfs/undirected/auto/t2/served/probed":   "40584c0ac0d7b032/4579d4d3901840cf",
	"bfs/undirected/auto/t7/plain/probed":    "40584c0ac0d7b032/4579d4d3901840cf",
	"bfs/undirected/auto/t7/ds/probed":       "545c8b2a7910257e/209dcd19adbf6da3",
	"bfs/undirected/auto/t7/served/probed":   "40584c0ac0d7b032/4579d4d3901840cf",
	"sssp/undirected/push/t1/plain":          "a9d46b90f672365a",
	"sssp/undirected/push/t1/served":         "a9d46b90f672365a",
	"sssp/undirected/push/t1/plain/probed":   "48a9b38bfaea5952/99248cec2c2ed86a",
	"sssp/undirected/push/t1/served/probed":  "48a9b38bfaea5952/99248cec2c2ed86a",
	"sssp/undirected/push/t2/plain":          "a9d46b90f672365a",
	"sssp/undirected/push/t2/served":         "a9d46b90f672365a",
	"sssp/undirected/push/t2/plain/probed":   "48a9b38bfaea5952/a6982d546ce7976d",
	"sssp/undirected/push/t2/served/probed":  "48a9b38bfaea5952/a6982d546ce7976d",
	"sssp/undirected/push/t7/plain":          "a9d46b90f672365a",
	"sssp/undirected/push/t7/served":         "a9d46b90f672365a",
	"sssp/undirected/push/t7/plain/probed":   "48a9b38bfaea5952/a21789918cccfb02",
	"sssp/undirected/push/t7/served/probed":  "48a9b38bfaea5952/a21789918cccfb02",
	"sssp/undirected/pull/t1/plain":          "f4a2ed64ffa8cbfb",
	"sssp/undirected/pull/t1/served":         "f4a2ed64ffa8cbfb",
	"sssp/undirected/pull/t1/plain/probed":   "f4a2ed64ffa8cbfb/5e7113350f87812f",
	"sssp/undirected/pull/t1/served/probed":  "f4a2ed64ffa8cbfb/5e7113350f87812f",
	"sssp/undirected/pull/t2/plain":          "f4a2ed64ffa8cbfb",
	"sssp/undirected/pull/t2/served":         "f4a2ed64ffa8cbfb",
	"sssp/undirected/pull/t2/plain/probed":   "f4a2ed64ffa8cbfb/bdc97fa2e03a6f5f",
	"sssp/undirected/pull/t2/served/probed":  "f4a2ed64ffa8cbfb/bdc97fa2e03a6f5f",
	"sssp/undirected/pull/t7/plain":          "f4a2ed64ffa8cbfb",
	"sssp/undirected/pull/t7/served":         "f4a2ed64ffa8cbfb",
	"sssp/undirected/pull/t7/plain/probed":   "f4a2ed64ffa8cbfb/34210413987c4473",
	"sssp/undirected/pull/t7/served/probed":  "f4a2ed64ffa8cbfb/34210413987c4473",
	"sssp/undirected/auto/t1/plain":          "1a5dd7d9a36c86b9",
	"sssp/undirected/auto/t1/served":         "1a5dd7d9a36c86b9",
	"sssp/undirected/auto/t1/plain/probed":   "48a9b38bfaea5952/99248cec2c2ed86a",
	"sssp/undirected/auto/t1/served/probed":  "48a9b38bfaea5952/99248cec2c2ed86a",
	"sssp/undirected/auto/t2/plain":          "1a5dd7d9a36c86b9",
	"sssp/undirected/auto/t2/served":         "1a5dd7d9a36c86b9",
	"sssp/undirected/auto/t2/plain/probed":   "48a9b38bfaea5952/a6982d546ce7976d",
	"sssp/undirected/auto/t2/served/probed":  "48a9b38bfaea5952/a6982d546ce7976d",
	"sssp/undirected/auto/t7/plain":          "1a5dd7d9a36c86b9",
	"sssp/undirected/auto/t7/served":         "1a5dd7d9a36c86b9",
	"sssp/undirected/auto/t7/plain/probed":   "48a9b38bfaea5952/a21789918cccfb02",
	"sssp/undirected/auto/t7/served/probed":  "48a9b38bfaea5952/a21789918cccfb02",
	"bc/undirected/push/t1/plain":            "0c121b728d1eef03",
	"bc/undirected/push/t1/served":           "0c121b728d1eef03",
	"bc/undirected/push/t1/plain/probed":     "50425ebdd7fa25c5/facdfe1a8b2d7817",
	"bc/undirected/push/t1/served/probed":    "50425ebdd7fa25c5/facdfe1a8b2d7817",
	"bc/undirected/push/t2/plain/probed":     "50425ebdd7fa25c5/facdfe1a8b2d7817",
	"bc/undirected/push/t2/served/probed":    "50425ebdd7fa25c5/facdfe1a8b2d7817",
	"bc/undirected/push/t7/plain/probed":     "50425ebdd7fa25c5/facdfe1a8b2d7817",
	"bc/undirected/push/t7/served/probed":    "50425ebdd7fa25c5/facdfe1a8b2d7817",
	"bc/undirected/pull/t1/plain":            "05275256ba9dace1",
	"bc/undirected/pull/t1/served":           "05275256ba9dace1",
	"bc/undirected/pull/t1/plain/probed":     "fb173786b1254ba2/d117ccd1b1f4cf11",
	"bc/undirected/pull/t1/served/probed":    "fb173786b1254ba2/d117ccd1b1f4cf11",
	"bc/undirected/pull/t2/plain":            "05275256ba9dace1",
	"bc/undirected/pull/t2/served":           "05275256ba9dace1",
	"bc/undirected/pull/t2/plain/probed":     "fb173786b1254ba2/d117ccd1b1f4cf11",
	"bc/undirected/pull/t2/served/probed":    "fb173786b1254ba2/d117ccd1b1f4cf11",
	"bc/undirected/pull/t7/plain":            "05275256ba9dace1",
	"bc/undirected/pull/t7/served":           "05275256ba9dace1",
	"bc/undirected/pull/t7/plain/probed":     "fb173786b1254ba2/d117ccd1b1f4cf11",
	"bc/undirected/pull/t7/served/probed":    "fb173786b1254ba2/d117ccd1b1f4cf11",
	"gc/undirected/push/t1/plain":            "ecd09e9e0390c9cd",
	"gc/undirected/push/t1/ds":               "f89fd4eaf7c57849",
	"gc/undirected/push/t1/served":           "ecd09e9e0390c9cd",
	"gc/undirected/push/t1/plain/probed":     "ecd09e9e0390c9cd/c481328731d5efca",
	"gc/undirected/push/t1/ds/probed":        "f89fd4eaf7c57849/c481328731d5efca",
	"gc/undirected/push/t1/served/probed":    "ecd09e9e0390c9cd/c481328731d5efca",
	"gc/undirected/push/t2/plain":            "2bff643d4bba5caf",
	"gc/undirected/push/t2/ds":               "f6be5bb4260e45c9",
	"gc/undirected/push/t2/served":           "2bff643d4bba5caf",
	"gc/undirected/push/t2/plain/probed":     "2bff643d4bba5caf/39677f375c0c3798",
	"gc/undirected/push/t2/ds/probed":        "f6be5bb4260e45c9/b2d0e62c5f30ffaf",
	"gc/undirected/push/t2/served/probed":    "2bff643d4bba5caf/39677f375c0c3798",
	"gc/undirected/push/t7/plain":            "30cb1690c430d8bc",
	"gc/undirected/push/t7/ds":               "667614f422069e6b",
	"gc/undirected/push/t7/served":           "30cb1690c430d8bc",
	"gc/undirected/push/t7/plain/probed":     "30cb1690c430d8bc/b7d5a294c4ba28f1",
	"gc/undirected/push/t7/ds/probed":        "667614f422069e6b/a79b969730e5f9ad",
	"gc/undirected/push/t7/served/probed":    "30cb1690c430d8bc/b7d5a294c4ba28f1",
	"gc/undirected/pull/t1/plain":            "61d0f1a65cccb02f",
	"gc/undirected/pull/t1/ds":               "6da027f351015eab",
	"gc/undirected/pull/t1/served":           "61d0f1a65cccb02f",
	"gc/undirected/pull/t1/plain/probed":     "61d0f1a65cccb02f/c481328731d5efca",
	"gc/undirected/pull/t1/ds/probed":        "6da027f351015eab/c481328731d5efca",
	"gc/undirected/pull/t1/served/probed":    "61d0f1a65cccb02f/c481328731d5efca",
	"gc/undirected/pull/t2/plain":            "9c71a1e6ac5643ed",
	"gc/undirected/pull/t2/ds":               "03d5b5048fc1268b",
	"gc/undirected/pull/t2/served":           "9c71a1e6ac5643ed",
	"gc/undirected/pull/t2/plain/probed":     "9c71a1e6ac5643ed/bd421cf25893af1c",
	"gc/undirected/pull/t2/ds/probed":        "03d5b5048fc1268b/7348075e2e05994a",
	"gc/undirected/pull/t2/served/probed":    "9c71a1e6ac5643ed/bd421cf25893af1c",
	"gc/undirected/pull/t7/plain":            "58ca37badabb6bde",
	"gc/undirected/pull/t7/ds":               "993c1c511fe4f3c9",
	"gc/undirected/pull/t7/served":           "58ca37badabb6bde",
	"gc/undirected/pull/t7/plain/probed":     "58ca37badabb6bde/b01ef26b0f8ab7af",
	"gc/undirected/pull/t7/ds/probed":        "993c1c511fe4f3c9/47a6d7a8e87d9c63",
	"gc/undirected/pull/t7/served/probed":    "58ca37badabb6bde/b01ef26b0f8ab7af",
	"gc-fe/undirected/push/t1/plain":         "3cd0a6bbb99fb683",
	"gc-fe/undirected/push/t1/ds":            "46671c8efbf18f65",
	"gc-fe/undirected/push/t1/served":        "3cd0a6bbb99fb683",
	"gc-fe/undirected/push/t1/plain/probed":  "3cd0a6bbb99fb683/03dcd01a9e2f44be",
	"gc-fe/undirected/push/t1/ds/probed":     "46671c8efbf18f65/482d7db39009ff4e",
	"gc-fe/undirected/push/t1/served/probed": "3cd0a6bbb99fb683/03dcd01a9e2f44be",
	"gc-fe/undirected/push/t2/plain":         "3cd0a6bbb99fb683",
	"gc-fe/undirected/push/t2/ds":            "46671c8efbf18f65",
	"gc-fe/undirected/push/t2/served":        "3cd0a6bbb99fb683",
	"gc-fe/undirected/push/t2/plain/probed":  "3cd0a6bbb99fb683/03dcd01a9e2f44be",
	"gc-fe/undirected/push/t2/ds/probed":     "46671c8efbf18f65/482d7db39009ff4e",
	"gc-fe/undirected/push/t2/served/probed": "3cd0a6bbb99fb683/03dcd01a9e2f44be",
	"gc-fe/undirected/push/t7/plain":         "3cd0a6bbb99fb683",
	"gc-fe/undirected/push/t7/ds":            "46671c8efbf18f65",
	"gc-fe/undirected/push/t7/served":        "3cd0a6bbb99fb683",
	"gc-fe/undirected/push/t7/plain/probed":  "3cd0a6bbb99fb683/03dcd01a9e2f44be",
	"gc-fe/undirected/push/t7/ds/probed":     "46671c8efbf18f65/482d7db39009ff4e",
	"gc-fe/undirected/push/t7/served/probed": "3cd0a6bbb99fb683/03dcd01a9e2f44be",
	"gc-fe/undirected/pull/t1/plain":         "233a9f2dd699df82",
	"gc-fe/undirected/pull/t1/ds":            "fb989abaf2baf9c4",
	"gc-fe/undirected/pull/t1/served":        "233a9f2dd699df82",
	"gc-fe/undirected/pull/t1/plain/probed":  "233a9f2dd699df82/8a95231e300967bc",
	"gc-fe/undirected/pull/t1/ds/probed":     "fb989abaf2baf9c4/8819960b33530490",
	"gc-fe/undirected/pull/t1/served/probed": "233a9f2dd699df82/8a95231e300967bc",
	"gc-fe/undirected/pull/t2/plain":         "233a9f2dd699df82",
	"gc-fe/undirected/pull/t2/ds":            "fb989abaf2baf9c4",
	"gc-fe/undirected/pull/t2/served":        "233a9f2dd699df82",
	"gc-fe/undirected/pull/t2/plain/probed":  "233a9f2dd699df82/8a95231e300967bc",
	"gc-fe/undirected/pull/t2/ds/probed":     "fb989abaf2baf9c4/8819960b33530490",
	"gc-fe/undirected/pull/t2/served/probed": "233a9f2dd699df82/8a95231e300967bc",
	"gc-fe/undirected/pull/t7/plain":         "233a9f2dd699df82",
	"gc-fe/undirected/pull/t7/ds":            "fb989abaf2baf9c4",
	"gc-fe/undirected/pull/t7/served":        "233a9f2dd699df82",
	"gc-fe/undirected/pull/t7/plain/probed":  "233a9f2dd699df82/8a95231e300967bc",
	"gc-fe/undirected/pull/t7/ds/probed":     "fb989abaf2baf9c4/8819960b33530490",
	"gc-fe/undirected/pull/t7/served/probed": "233a9f2dd699df82/8a95231e300967bc",
	"gc-cr/undirected/auto/t1/plain":         "ecd09e9e0390c9cd",
	"gc-cr/undirected/auto/t1/served":        "ecd09e9e0390c9cd",
	"gc-cr/undirected/auto/t1/plain/probed":  "ecd09e9e0390c9cd/dca45bc5a819e335",
	"gc-cr/undirected/auto/t1/served/probed": "ecd09e9e0390c9cd/dca45bc5a819e335",
	"gc-cr/undirected/auto/t2/plain":         "2669a45e94217f4c",
	"gc-cr/undirected/auto/t2/served":        "2669a45e94217f4c",
	"gc-cr/undirected/auto/t2/plain/probed":  "2669a45e94217f4c/31a1255e6bb266d2",
	"gc-cr/undirected/auto/t2/served/probed": "2669a45e94217f4c/31a1255e6bb266d2",
	"gc-cr/undirected/auto/t7/plain":         "ecd09e9e0390c9cd",
	"gc-cr/undirected/auto/t7/served":        "ecd09e9e0390c9cd",
	"gc-cr/undirected/auto/t7/plain/probed":  "ecd09e9e0390c9cd/89c7287208148a9b",
	"gc-cr/undirected/auto/t7/served/probed": "ecd09e9e0390c9cd/89c7287208148a9b",
	"mst/undirected/push/t1/plain":           "50cb9e9ea9f0a0e8",
	"mst/undirected/push/t1/served":          "50cb9e9ea9f0a0e8",
	"mst/undirected/push/t1/plain/probed":    "50cb9e9ea9f0a0e8/26e6c77edf97bc3a",
	"mst/undirected/push/t1/served/probed":   "50cb9e9ea9f0a0e8/26e6c77edf97bc3a",
	"mst/undirected/push/t2/plain":           "50cb9e9ea9f0a0e8",
	"mst/undirected/push/t2/served":          "50cb9e9ea9f0a0e8",
	"mst/undirected/push/t2/plain/probed":    "50cb9e9ea9f0a0e8/26e6c77edf97bc3a",
	"mst/undirected/push/t2/served/probed":   "50cb9e9ea9f0a0e8/26e6c77edf97bc3a",
	"mst/undirected/push/t7/plain":           "50cb9e9ea9f0a0e8",
	"mst/undirected/push/t7/served":          "50cb9e9ea9f0a0e8",
	"mst/undirected/push/t7/plain/probed":    "50cb9e9ea9f0a0e8/26e6c77edf97bc3a",
	"mst/undirected/push/t7/served/probed":   "50cb9e9ea9f0a0e8/26e6c77edf97bc3a",
	"mst/undirected/pull/t1/plain":           "7a083cbc1fd02009",
	"mst/undirected/pull/t1/served":          "7a083cbc1fd02009",
	"mst/undirected/pull/t1/plain/probed":    "7a083cbc1fd02009/76d6bf3d005662a1",
	"mst/undirected/pull/t1/served/probed":   "7a083cbc1fd02009/76d6bf3d005662a1",
	"mst/undirected/pull/t2/plain":           "7a083cbc1fd02009",
	"mst/undirected/pull/t2/served":          "7a083cbc1fd02009",
	"mst/undirected/pull/t2/plain/probed":    "7a083cbc1fd02009/76d6bf3d005662a1",
	"mst/undirected/pull/t2/served/probed":   "7a083cbc1fd02009/76d6bf3d005662a1",
	"mst/undirected/pull/t7/plain":           "7a083cbc1fd02009",
	"mst/undirected/pull/t7/served":          "7a083cbc1fd02009",
	"mst/undirected/pull/t7/plain/probed":    "7a083cbc1fd02009/76d6bf3d005662a1",
	"mst/undirected/pull/t7/served/probed":   "7a083cbc1fd02009/76d6bf3d005662a1",
	"pr/directed/push/t1/plain":              "8f4483c4a8abf037",
	"pr/directed/push/t1/ds":                 "bdc93ecd8724350e",
	"pr/directed/push/t1/served":             "8f4483c4a8abf037",
	"pr/directed/push/t1/plain/probed":       "8f4483c4a8abf037/a38d984ca99acbf5",
	"pr/directed/push/t1/ds/probed":          "bdc93ecd8724350e/a38d984ca99acbf5",
	"pr/directed/push/t1/served/probed":      "8f4483c4a8abf037/a38d984ca99acbf5",
	"pr/directed/push/t2/plain":              "7a1b8ed393eeba14",
	"pr/directed/push/t2/ds":                 "d2048e8bc5763f01",
	"pr/directed/push/t2/served":             "7a1b8ed393eeba14",
	"pr/directed/push/t2/plain/probed":       "8f4483c4a8abf037/a38d984ca99acbf5",
	"pr/directed/push/t2/ds/probed":          "bdc93ecd8724350e/a38d984ca99acbf5",
	"pr/directed/push/t2/served/probed":      "8f4483c4a8abf037/a38d984ca99acbf5",
	"pr/directed/push/t7/plain":              "dee042686318e511",
	"pr/directed/push/t7/ds":                 "cd942225a5b234ce",
	"pr/directed/push/t7/served":             "dee042686318e511",
	"pr/directed/push/t7/plain/probed":       "8f4483c4a8abf037/a38d984ca99acbf5",
	"pr/directed/push/t7/ds/probed":          "bdc93ecd8724350e/a38d984ca99acbf5",
	"pr/directed/push/t7/served/probed":      "8f4483c4a8abf037/a38d984ca99acbf5",
	"pr/directed/pull/t1/plain":              "6089c80c683f6d27",
	"pr/directed/pull/t1/ds":                 "6089c80c683f6d27",
	"pr/directed/pull/t1/served":             "6089c80c683f6d27",
	"pr/directed/pull/t1/plain/probed":       "6089c80c683f6d27/1665797be1a6d473",
	"pr/directed/pull/t1/ds/probed":          "6089c80c683f6d27/1665797be1a6d473",
	"pr/directed/pull/t1/served/probed":      "6089c80c683f6d27/1665797be1a6d473",
	"pr/directed/pull/t2/plain":              "6089c80c683f6d27",
	"pr/directed/pull/t2/ds":                 "6089c80c683f6d27",
	"pr/directed/pull/t2/served":             "6089c80c683f6d27",
	"pr/directed/pull/t2/plain/probed":       "6089c80c683f6d27/1665797be1a6d473",
	"pr/directed/pull/t2/ds/probed":          "6089c80c683f6d27/1665797be1a6d473",
	"pr/directed/pull/t2/served/probed":      "6089c80c683f6d27/1665797be1a6d473",
	"pr/directed/pull/t7/plain":              "6089c80c683f6d27",
	"pr/directed/pull/t7/ds":                 "6089c80c683f6d27",
	"pr/directed/pull/t7/served":             "6089c80c683f6d27",
	"pr/directed/pull/t7/plain/probed":       "6089c80c683f6d27/1665797be1a6d473",
	"pr/directed/pull/t7/ds/probed":          "6089c80c683f6d27/1665797be1a6d473",
	"pr/directed/pull/t7/served/probed":      "6089c80c683f6d27/1665797be1a6d473",
}
