package gc

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"
	"testing/quick"

	"pushpull/internal/core"
	"pushpull/internal/counters"
	"pushpull/internal/gen"
	"pushpull/internal/graph"
	"pushpull/internal/rng"
)

func rmat(t testing.TB, scale, ef int, seed uint64) *graph.CSR {
	t.Helper()
	g, err := gen.RMAT(gen.DefaultRMAT(scale, ef, seed))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestGreedyValid(t *testing.T) {
	for _, g := range []*graph.CSR{gen.Ring(10), gen.Complete(6), gen.Star(8), rmat(t, 9, 6, 1)} {
		res := Greedy(g)
		if err := Validate(g, res.Colors); err != nil {
			t.Fatal(err)
		}
	}
	// Greedy on K6 uses exactly 6 colors; on a star exactly 2.
	if got := Greedy(gen.Complete(6)).NumColors; got != 6 {
		t.Fatalf("K6 colors = %d", got)
	}
	if got := Greedy(gen.Star(8)).NumColors; got != 2 {
		t.Fatalf("star colors = %d", got)
	}
}

func TestBomanPushValid(t *testing.T) {
	g := rmat(t, 10, 8, 5)
	part := graph.NewPartition(g.N(), 4)
	res, err := Push(g, part, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(g, res.Colors); err != nil {
		t.Fatal(err)
	}
	if res.Iterations < 1 {
		t.Fatal("no iterations recorded")
	}
	if res.NumColors < 2 {
		t.Fatalf("colors = %d", res.NumColors)
	}
}

func TestBomanPullValid(t *testing.T) {
	g := rmat(t, 10, 8, 6)
	part := graph.NewPartition(g.N(), 4)
	res, err := Pull(g, part, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(g, res.Colors); err != nil {
		t.Fatal(err)
	}
}

func TestBomanSinglePartitionConvergesInOneIteration(t *testing.T) {
	// P=1: no border, no conflicts; one iteration must suffice.
	g := rmat(t, 8, 6, 7)
	part := graph.NewPartition(g.N(), 1)
	res, err := Push(g, part, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 1 {
		t.Fatalf("iterations = %d, want 1", res.Iterations)
	}
	if err := Validate(g, res.Colors); err != nil {
		t.Fatal(err)
	}
}

func TestBomanPartitionMismatch(t *testing.T) {
	g := gen.Ring(10)
	if _, err := Push(g, graph.NewPartition(5, 2), Options{}); err == nil {
		t.Fatal("partition mismatch accepted")
	}
}

func TestFrontierExploitValid(t *testing.T) {
	for _, dir := range []core.Direction{core.Push, core.Pull} {
		g := rmat(t, 10, 8, 8)
		opt := Options{MaxIters: 4096}
		res := FrontierExploit(g, opt, dir, nil)
		if err := Validate(g, res.Colors); err != nil {
			t.Fatalf("dir %v: %v", dir, err)
		}
		if res.Iterations < 2 {
			t.Fatalf("dir %v: iterations = %d", dir, res.Iterations)
		}
	}
}

func TestFrontierExploitRoadFewIterations(t *testing.T) {
	// On a road network FE finishes in few rounds (Fig 6b: rca +FE = 5)
	// because the initial independent set saturates the sparse graph.
	g, err := gen.RoadGrid(40, 40, 0.8, 3)
	if err != nil {
		t.Fatal(err)
	}
	res := FrontierExploit(g, Options{MaxIters: 4096}, core.Push, nil)
	if err := Validate(g, res.Colors); err != nil {
		t.Fatal(err)
	}
	if res.Iterations > 12 {
		t.Fatalf("road FE iterations = %d, want small", res.Iterations)
	}
}

func TestGrSReducesIterations(t *testing.T) {
	g := rmat(t, 10, 8, 9)
	opt := Options{MaxIters: 4096}
	plain := FrontierExploit(g, opt, core.Push, nil)
	grs := GrS(g, opt, core.Push, 0.1)
	if err := Validate(g, grs.Colors); err != nil {
		t.Fatal(err)
	}
	if grs.Iterations > plain.Iterations {
		t.Fatalf("GrS iterations %d > plain FE %d", grs.Iterations, plain.Iterations)
	}
}

func TestGSValid(t *testing.T) {
	g := rmat(t, 10, 8, 10)
	res := GS(g, Options{MaxIters: 4096}, core.Push, 1.0)
	if err := Validate(g, res.Colors); err != nil {
		t.Fatal(err)
	}
}

func TestConflictRemoval(t *testing.T) {
	g := rmat(t, 10, 8, 11)
	part := graph.NewPartition(g.N(), 4)
	res, err := ConflictRemoval(g, part, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 1 {
		t.Fatalf("CR iterations = %d, want exactly 1", res.Iterations)
	}
	if err := Validate(g, res.Colors); err != nil {
		t.Fatal(err)
	}
	if _, err := ConflictRemoval(g, graph.NewPartition(3, 2), Options{}); err == nil {
		t.Fatal("partition mismatch accepted")
	}
}

func TestValidateCatchesBadColorings(t *testing.T) {
	g := gen.Ring(4)
	if err := Validate(g, []int32{0, 1}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if err := Validate(g, []int32{0, -1, 0, 1}); err == nil {
		t.Fatal("uncolored vertex accepted")
	}
	if err := Validate(g, []int32{0, 0, 1, 2}); err == nil {
		t.Fatal("monochromatic edge accepted")
	}
	if err := Validate(g, []int32{0, 1, 0, 1}); err != nil {
		t.Fatalf("valid 2-coloring rejected: %v", err)
	}
}

func TestCountColors(t *testing.T) {
	if got := CountColors([]int32{0, 2, 2, 5, -1}); got != 3 {
		t.Fatalf("CountColors = %d", got)
	}
	if got := CountColors(nil); got != 0 {
		t.Fatalf("CountColors(nil) = %d", got)
	}
	// Against the map it replaced: random colorings with uncolored (−1)
	// entries, dense small palettes, and a few colors up to 2^31−1, which
	// take the sorted path.
	r := rng.New(7)
	for trial := 0; trial < 200; trial++ {
		colors := make([]int32, r.Intn(300))
		palette := int32(1 + r.Intn(200))
		for i := range colors {
			switch x := r.Intn(10); {
			case x == 0:
				colors[i] = -1
			case x == 1 && trial%2 == 1:
				colors[i] = r.Int31n(1<<31 - 1)
			default:
				colors[i] = r.Int31n(palette)
			}
		}
		seen := map[int32]bool{}
		for _, c := range colors {
			if c >= 0 {
				seen[c] = true
			}
		}
		if got := CountColors(colors); got != len(seen) {
			t.Fatalf("trial %d: CountColors = %d, the map counts %d (%v)", trial, got, len(seen), colors)
		}
	}
	if got := CountColors([]int32{-1, -1, -5}); got != 0 {
		t.Fatalf("CountColors of uncolored entries = %d", got)
	}
	if got := CountColors([]int32{1<<31 - 1, 0, 1<<31 - 1}); got != 2 {
		t.Fatalf("CountColors with the largest int32 = %d", got)
	}
}

func TestEmptyGraphs(t *testing.T) {
	g := graph.NewBuilder(0).MustBuild()
	part := graph.NewPartition(0, 2)
	if res, err := Push(g, part, Options{}); err != nil || len(res.Colors) != 0 {
		t.Fatal("empty push")
	}
	if res := FrontierExploit(g, Options{}, core.Push, nil); len(res.Colors) != 0 {
		t.Fatal("empty FE")
	}
}

// Property: every variant yields a valid coloring on random graphs.
func TestAllVariantsValidProperty(t *testing.T) {
	f := func(seed uint64) bool {
		g, err := gen.ErdosRenyi(120, 4, seed)
		if err != nil {
			return false
		}
		part := graph.NewPartition(g.N(), 3)
		opt := Options{MaxIters: 256}
		if r, err := Push(g, part, opt); err != nil || Validate(g, r.Colors) != nil {
			return false
		}
		if r, err := Pull(g, part, opt); err != nil || Validate(g, r.Colors) != nil {
			return false
		}
		if r := FrontierExploit(g, Options{MaxIters: 4096}, core.Push, nil); Validate(g, r.Colors) != nil {
			return false
		}
		if r, err := ConflictRemoval(g, part, opt); err != nil || Validate(g, r.Colors) != nil {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestProfiledValidAndCounterShapes(t *testing.T) {
	g := rmat(t, 9, 8, 13)
	part := graph.NewPartition(g.N(), 4)
	opt := Options{}

	profPush, gPush := core.CountingProfile(4)
	rp, err := PushProfiled(g, part, opt, profPush, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(g, rp.Colors); err != nil {
		t.Fatalf("profiled push: %v", err)
	}
	push := gPush.Report()

	profPull, gPull := core.CountingProfile(4)
	rl, err := PullProfiled(g, part, opt, profPull, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(g, rl.Colors); err != nil {
		t.Fatalf("profiled pull: %v", err)
	}
	pull := gPull.Report()

	// Table 1 BGC shapes: atomics 0 in both; locks > 0 in both; pull
	// strictly more reads (full border rescans).
	if push.Get(counters.Atomics) != 0 || pull.Get(counters.Atomics) != 0 {
		t.Fatal("BGC must use locks, not atomics")
	}
	if push.Get(counters.Locks) == 0 || pull.Get(counters.Locks) == 0 {
		t.Fatalf("locks: push %d pull %d, both must be > 0",
			push.Get(counters.Locks), pull.Get(counters.Locks))
	}
	if pull.Get(counters.Reads) <= push.Get(counters.Reads) {
		t.Fatalf("pull reads %d not > push reads %d",
			pull.Get(counters.Reads), push.Get(counters.Reads))
	}
}

func TestProfiledValidation(t *testing.T) {
	g := gen.Ring(10)
	part := graph.NewPartition(10, 2)
	bad := core.Profile{Threads: 2, Probes: []counters.Probe{counters.NopProbe{}}}
	if _, err := PushProfiled(g, part, Options{}, bad, nil); err == nil {
		t.Fatal("bad profile accepted")
	}
}

func BenchmarkBomanPush(b *testing.B) {
	g := rmat(b, 11, 8, 1)
	part := graph.NewPartition(g.N(), 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Push(g, part, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBomanPull(b *testing.B) {
	g := rmat(b, 11, 8, 1)
	part := graph.NewPartition(g.N(), 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Pull(g, part, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGrS(b *testing.B) {
	g := rmat(b, 11, 8, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GrS(g, Options{MaxIters: 4096}, core.Push, 0.1)
	}
}

// colorDigest folds a coloring and its iteration count into one word.
func colorDigest(colors []int32, iters int) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, c := range append([]int32{int32(iters)}, colors...) {
		binary.LittleEndian.PutUint32(b[:], uint32(c))
		h.Write(b[:])
	}
	return h.Sum64()
}

// The Boman kernels decide "same partition" with a range test against
// part.Range hoisted out of the neighbor scan. The digests below were
// taken from the per-edge part.Owner(u) form; colorings and iteration
// counts of all four kernels must stay identical at every partition count,
// including the degenerate split with more partitions than vertices.
func TestBomanColoringsPinned(t *testing.T) {
	graphs := map[string]*graph.CSR{"rmat": rmat(t, 9, 8, 13), "ring5": gen.Ring(5)}
	want := map[string]uint64{
		"rmat/p1": 0x69ad62fa68e5dd6a, "rmat/p2": 0xc2b681c3750b0c06,
		"rmat/p4": 0xde0d18a0f0eb3c1f, "rmat/p7": 0xcc7f082341be6523,
		"ring5/p1": 0xcb233d6af7637fe6, "ring5/p2": 0xe2289a7ca85207d5,
		"ring5/p4": 0x9887dfc119606264, "ring5/p7": 0x1d0b69bb4de52ca4,
	}
	for name, g := range graphs {
		for _, p := range []int{1, 2, 4, 7} {
			key := fmt.Sprintf("%s/p%d", name, p)
			part := graph.NewPartition(g.N(), p)
			prof, _ := core.CountingProfile(p)
			push, err := Push(g, part, Options{})
			if err != nil {
				t.Fatal(err)
			}
			pull, err := Pull(g, part, Options{})
			if err != nil {
				t.Fatal(err)
			}
			pushP, err := PushProfiled(g, part, Options{}, prof, nil)
			if err != nil {
				t.Fatal(err)
			}
			pullP, err := PullProfiled(g, part, Options{}, prof, nil)
			if err != nil {
				t.Fatal(err)
			}
			for kernel, d := range map[string]uint64{
				"push":          colorDigest(push.Colors, push.Iterations),
				"pull":          colorDigest(pull.Colors, pull.Iterations),
				"push-profiled": colorDigest(pushP.Colors, pushP.Iterations),
				"pull-profiled": colorDigest(pullP.Colors, pullP.Iterations),
			} {
				if d != want[key] {
					t.Errorf("%s %s: digest %#x, want %#x", key, kernel, d, want[key])
				}
			}
		}
	}
}

// feDigest folds a Frontier-Exploit run — colors, iteration count and the
// per-iteration direction trace — into one word.
func feDigest(res *Result) uint64 {
	h := fnv.New64a()
	var b [4]byte
	put := func(x int32) {
		binary.LittleEndian.PutUint32(b[:], uint32(x))
		h.Write(b[:])
	}
	put(int32(res.Iterations))
	put(int32(len(res.Dirs)))
	for _, d := range res.Dirs {
		put(int32(d))
	}
	for _, c := range res.Colors {
		put(c)
	}
	return h.Sum64()
}

// The digests below were taken from the Frontier-Exploit round that sorted
// per-thread claim lists and rescanned every candidate's adjacency; the
// bitmap-ordered, winner-blocking round must reproduce them exactly, fast
// and probed, in both starting directions, at every thread count and under
// all three policies. The 100-clique colors one vertex per round, so it
// runs into the default MaxIters and ends on the greedy tail. Conflict
// removal rides along: it shares the greedy helper. On the small dense
// graphs nearly every vertex is a border vertex, so CR's coloring does not
// depend on the partition count; the road grid has real interiors.
func TestFrontierExploitPinned(t *testing.T) {
	grid, err := gen.RoadGrid(20, 20, 0.8, 3)
	if err != nil {
		t.Fatal(err)
	}
	graphs := map[string]*graph.CSR{
		"rmat": rmat(t, 9, 8, 13), "ring5": gen.Ring(5), "k100": gen.Complete(100), "grid": grid,
	}
	policies := map[string]func(n int) core.SwitchPolicy{
		"never":   func(int) core.SwitchPolicy { return core.NeverSwitch{} },
		"generic": func(int) core.SwitchPolicy { return &core.GenericSwitch{Threshold: 1} },
		"greedy":  func(n int) core.SwitchPolicy { return &core.GreedySwitch{Fraction: 0.1, Total: n} },
	}
	want := map[string]uint64{
		"fe/rmat/Pushing/never": 0x39b200d4da65846b, "fe/rmat/Pulling/never": 0x4a9d41021d64011a,
		"fe/rmat/Pushing/generic": 0x2fb06b3895534d8a, "fe/rmat/Pulling/generic": 0x549ed69e627637fb,
		"fe/rmat/Pushing/greedy": 0xcc3baa3589d9a12b, "fe/rmat/Pulling/greedy": 0x68a9f554e22da88a,
		"fe/ring5/Pushing/never": 0x9844d52b32805cd7, "fe/ring5/Pulling/never": 0x230c1b290f9dcb26,
		"fe/ring5/Pushing/generic": 0x9844d52b32805cd7, "fe/ring5/Pulling/generic": 0x230c1b290f9dcb26,
		"fe/ring5/Pushing/greedy": 0x9844d52b32805cd7, "fe/ring5/Pulling/greedy": 0x230c1b290f9dcb26,
		"fe/k100/Pushing/never": 0xc258edc1c768e805, "fe/k100/Pulling/never": 0xe8a16f6f924ed674,
		"fe/k100/Pushing/generic": 0xef0409a03a2bddc4, "fe/k100/Pulling/generic": 0x592bead9114c2235,
		"fe/k100/Pushing/greedy": 0xc258edc1c768e805, "fe/k100/Pulling/greedy": 0xe8a16f6f924ed674,
		"fe/grid/Pushing/never": 0x05ab864bb6cffd94, "fe/grid/Pulling/never": 0x6d296190de2a4e55,
		"fe/grid/Pushing/generic": 0x05ab864bb6cffd94, "fe/grid/Pulling/generic": 0x6d296190de2a4e55,
		"fe/grid/Pushing/greedy": 0x05ab864bb6cffd94, "fe/grid/Pulling/greedy": 0x6d296190de2a4e55,
		"cr/rmat/p1": 0x69ad62fa68e5dd6a, "cr/rmat/p2": 0x69ad62fa68e5dd6a,
		"cr/rmat/p4": 0x69ad62fa68e5dd6a, "cr/rmat/p7": 0x69ad62fa68e5dd6a,
		"cr/ring5/p1": 0xcb233d6af7637fe6, "cr/ring5/p2": 0xcb233d6af7637fe6,
		"cr/ring5/p4": 0xcb233d6af7637fe6, "cr/ring5/p7": 0xcb233d6af7637fe6,
		"cr/k100/p1": 0x2d24f2b22d4bd3a4, "cr/k100/p2": 0x2d24f2b22d4bd3a4,
		"cr/k100/p4": 0x2d24f2b22d4bd3a4, "cr/k100/p7": 0x2d24f2b22d4bd3a4,
		"cr/grid/p1": 0xdd2178ad0164a715, "cr/grid/p2": 0x7490de6766fca956,
		"cr/grid/p4": 0x9699a7132930b2b5, "cr/grid/p7": 0xcc983686eb1c0db7,
	}
	for name, g := range graphs {
		for _, dir := range []core.Direction{core.Push, core.Pull} {
			for pname, policy := range policies {
				key := fmt.Sprintf("fe/%s/%v/%s", name, dir, pname)
				for _, th := range []int{1, 2, 4, 7} {
					opt := Options{Options: core.Options{Threads: th}}
					fast := FrontierExploit(g, opt, dir, policy(g.N()))
					prof, _ := core.CountingProfile(th)
					probed, err := FrontierExploitProfiled(g, opt, dir, policy(g.N()), prof, nil)
					if err != nil {
						t.Fatal(err)
					}
					for kernel, res := range map[string]*Result{"fast": fast, "probed": probed} {
						if err := Validate(g, res.Colors); err != nil {
							t.Fatalf("%s t%d %s: %v", key, th, kernel, err)
						}
						if d := feDigest(res); d != want[key] {
							t.Errorf("%s t%d %s: digest %#x, want %#x", key, th, kernel, d, want[key])
						}
					}
				}
			}
		}
		for _, p := range []int{1, 2, 4, 7} {
			key := fmt.Sprintf("cr/%s/p%d", name, p)
			part := graph.NewPartition(g.N(), p)
			fast, err := ConflictRemoval(g, part, Options{})
			if err != nil {
				t.Fatal(err)
			}
			prof, _ := core.CountingProfile(p)
			probed, err := ConflictRemovalProfiled(g, part, Options{}, prof, nil)
			if err != nil {
				t.Fatal(err)
			}
			for kernel, res := range map[string]*Result{"fast": fast, "probed": probed} {
				if d := colorDigest(res.Colors, res.Iterations); d != want[key] {
					t.Errorf("%s %s: digest %#x, want %#x", key, kernel, d, want[key])
				}
			}
		}
	}
}
