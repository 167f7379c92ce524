package pr

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"pushpull/internal/core"
	"pushpull/internal/counters"
	"pushpull/internal/gen"
	"pushpull/internal/graph"
	"pushpull/internal/memsim"
)

// rankDigest folds the bits of a rank vector into one word (FNV-1a).
func rankDigest(ranks []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, x := range ranks {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
	return h.Sum64()
}

// reportDigest folds every event count of a report into one word.
func reportDigest(rep counters.Report) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for e := counters.Event(0); e < counters.NumEvents; e++ {
		binary.LittleEndian.PutUint64(b[:], uint64(rep.Get(e)))
		h.Write(b[:])
	}
	return h.Sum64()
}

// orient keeps one arc per undirected edge, directed by endpoint-sum
// parity (the orientation `pushpull run -directed` uses): deterministic,
// and not a DAG by construction, so rank circulates.
func orient(t *testing.T, g *graph.CSR) *graph.CSR {
	t.Helper()
	b := graph.NewBuilder(g.N()).Directed()
	for v := graph.V(0); int(v) < g.N(); v++ {
		for _, u := range g.Neighbors(v) {
			if u < v {
				continue
			}
			from, to := v, u
			if (int(v)+int(u))%2 == 1 {
				from, to = u, v
			}
			b.AddEdge(from, to)
		}
	}
	out, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// The kernels used to come in an undirected and a directed copy each. The
// literals below were taken at the last commit that had both — from Push,
// Pull and their profiled twins for the undirected graph, from
// PushDirected, PullDirected and theirs for the directed one — and the
// merged kernels must reproduce them: the same rank bits, the same full
// counters.Report, the same modeled misses (the memsim report under the
// stock hierarchy, which depends on where every array sits in the address
// space). Fast push is pinned at one thread only; with more, its float
// adds race and the bits differ run to run, so it is held to 1e-12 of the
// pinned result's twin instead.
func TestKernelsPinned(t *testing.T) {
	g, err := gen.RMAT(gen.DefaultRMAT(9, 8, 13))
	if err != nil {
		t.Fatal(err)
	}
	out := orient(t, g)
	threadCounts := []int{1, 2, 4, 7}
	type pins struct {
		push, pull             uint64    // rank bits, fast == profiled
		pushBill, pullBill     uint64    // counting report, equal at every thread count
		pushMisses, pullMisses [4]uint64 // memsim report per thread count
	}
	for name, c := range map[string]struct {
		vw   Views
		want pins
	}{
		"undirected": {Views{g, g}, pins{
			push: 0xe99e6464d8147b83, pull: 0xf1c2f7f20223302c,
			pushBill: 0xf5b8f2929cea6f45, pullBill: 0x7e107e14fe83dfbd,
			pushMisses: [4]uint64{0x2319ccc3b7e149bd, 0xa676fc9fd76f5c21, 0xbc6f0d2c6320dd07, 0xf8279453cb802152},
			pullMisses: [4]uint64{0xd75bf5d94364fca6, 0x5f849669b24e48c9, 0xcd7edcd28c4ab13, 0xcef282d2897c6944},
		}},
		"directed": {Views{out, out.Transpose()}, pins{
			push: 0xed61d6263fe699d8, pull: 0x3d8365bedbd156a4,
			pushBill: 0x471488458e94af05, pullBill: 0xe5c14a852222f539,
			pushMisses: [4]uint64{0x9b5e99416b42b0e6, 0x65357ad8309f62cf, 0xb59cb6c1404c71b1, 0xcae23e3866ec3644},
			pullMisses: [4]uint64{0xf7a4166b143df055, 0x939eb5b0c3492c7d, 0x13c42ea78df06061, 0xe8aaa0bb146e97e1},
		}},
	} {
		for ti, threads := range threadCounts {
			at := fmt.Sprintf("%s/t%d", name, threads)
			check := func(what string, got, want uint64) {
				t.Helper()
				if got != want {
					t.Errorf("%s %s: digest %#x, want %#x", at, what, got, want)
				}
			}
			opt := Options{Iterations: 4}
			opt.Threads = threads

			pull, _ := Pull(c.vw, opt)
			check("pull ranks", rankDigest(pull), c.want.pull)

			prof, grp := core.CountingProfile(threads)
			pushP, err := PushProfiled(c.vw, opt, prof, nil)
			if err != nil {
				t.Fatal(err)
			}
			check("push profiled ranks", rankDigest(pushP), c.want.push)
			check("push bill", reportDigest(grp.Report()), c.want.pushBill)

			prof, grp = core.CountingProfile(threads)
			pullP, err := PullProfiled(c.vw, opt, prof, nil)
			if err != nil {
				t.Fatal(err)
			}
			check("pull profiled ranks", rankDigest(pullP), c.want.pull)
			check("pull bill", reportDigest(grp.Report()), c.want.pullBill)

			push, _ := Push(c.vw, opt)
			if threads == 1 {
				check("push ranks", rankDigest(push), c.want.push)
			} else if d := MaxDiff(push, pushP); d > 1e-12 {
				t.Errorf("%s push: %g from its twin", at, d)
			}

			machine := memsim.NewMachine(memsim.XeonE5SandyBridge(), threads)
			prof = core.Profile{Threads: threads, Probes: machine.Probes()}
			if _, err := PushProfiled(c.vw, opt, prof, machine.Space()); err != nil {
				t.Fatal(err)
			}
			check("push modeled misses", reportDigest(machine.Report()), c.want.pushMisses[ti])

			machine = memsim.NewMachine(memsim.XeonE5SandyBridge(), threads)
			prof = core.Profile{Threads: threads, Probes: machine.Probes()}
			if _, err := PullProfiled(c.vw, opt, prof, machine.Space()); err != nil {
				t.Fatal(err)
			}
			check("pull modeled misses", reportDigest(machine.Report()), c.want.pullMisses[ti])
		}
	}
}
