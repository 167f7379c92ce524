package pushpull_test

import (
	"fmt"
	"math"
	"path/filepath"
	"testing"

	"pushpull"
	"pushpull/internal/algo/pr"
	"pushpull/internal/graph"
	"pushpull/internal/rng"
)

// TestRankMassSpec pins pr's rank-mass specification: a vertex without
// out-edges sends nothing and its rank is not redistributed, so after L
// iterations the ranks sum to S_L, where S_0 = 1 and
// S_{l+1} = (1−f) + f·(S_l − H_l), H_l being the rank held by vertices
// without out-edges after l iterations. H_l is read off Sequential; S_L
// is the recurrence, never a kernel's own sum. Every kernel, at every
// thread count, must land on S_L.
func TestRankMassSpec(t *testing.T) {
	const (
		n     = 240
		iters = 7
		f     = 0.85
	)
	r := rng.New(29)
	// Undirected: edges among the low 180 ids, so the top 60 are isolated.
	ub := graph.NewBuilder(n)
	// Directed: sources among the low 180 ids, targets anywhere, so the
	// top 60 are dangling — most receive rank, none sends it on.
	db := graph.NewBuilder(n).Directed()
	for i := 0; i < 6*n; i++ {
		ub.AddEdge(graph.V(r.Intn(180)), graph.V(r.Intn(180)))
		db.AddEdge(graph.V(r.Intn(180)), graph.V(r.Intn(n)))
	}
	und, dir := ub.MustBuild(), db.MustBuild()

	for _, c := range []struct {
		name     string
		g        *graph.CSR
		directed bool
	}{{"undirected", und, false}, {"directed", dir, true}} {
		vw := pr.Views{Out: c.g, In: c.g}
		var outDeg []int64
		if c.directed {
			vw.In = c.g.Transpose()
			outDeg = make([]int64, n)
			for v := range outDeg {
				outDeg[v] = c.g.Degree(graph.V(v))
			}
		}
		// pr.Push and pr.Pull read only graphs that passed Check; Run
		// checks its own.
		for _, g := range []*graph.CSR{vw.Out, vw.In} {
			if err := g.Check(); err != nil {
				t.Fatal(err)
			}
		}
		opts := func(l, threads int) pr.Options {
			o := pr.Options{Iterations: l}
			o.SetDamping(f)
			o.Threads = threads
			return o
		}
		mass := 1.0
		for l := 0; l < iters; l++ {
			held := 0.0
			if l == 0 {
				for v := 0; v < n; v++ {
					if c.g.Degree(graph.V(v)) == 0 {
						held += 1.0 / n
					}
				}
			} else {
				for v, x := range pr.Sequential(vw, opts(l, 1)) {
					if c.g.Degree(graph.V(v)) == 0 {
						held += x
					}
				}
			}
			mass = (1 - f) + f*(mass-held)
		}
		if math.Abs(mass-1) < 1e-3 {
			t.Fatalf("%s: mass %g ≈ 1, the fixture loses none", c.name, mass)
		}

		path := filepath.Join(t.TempDir(), c.name+".csr")
		writePullViewFile(t, path, vw.In, outDeg)
		bg, err := graph.OpenBlockCSR(path, false)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { bg.Close() })
		wl := pushpull.NewWorkload(c.g)
		if c.directed {
			wl = pushpull.Directed(c.g)
		}
		facade := func(d pushpull.Direction, threads int) []float64 {
			rep := run(t, wl, "pr", pushpull.WithDegreeSorted(), pushpull.WithDirection(d),
				pushpull.WithThreads(threads), pushpull.WithIterations(iters), pushpull.WithDamping(f))
			return rep.Ranks()
		}

		check := func(row string, ranks []float64) {
			t.Helper()
			if got := pr.Sum(ranks); math.Abs(got-mass) > 1e-12 {
				t.Errorf("%s %s: Sum = %.17g, recurrence %.17g (off by %g)", c.name, row, got, mass, got-mass)
			}
		}
		check("Sequential", pr.Sequential(vw, opts(iters, 1)))
		for _, threads := range []int{1, 2, 4} {
			at := fmt.Sprintf("t%d", threads)
			push, _ := pr.Push(vw, opts(iters, threads))
			check(at+" Push", push)
			pull, _ := pr.Pull(vw, opts(iters, threads))
			check(at+" Pull", pull)
			blocked, _, err := pr.PullBlocked(bg, opts(iters, threads))
			if err != nil {
				t.Fatal(err)
			}
			check(at+" PullBlocked", blocked)
			check(at+" degree-sorted push", facade(pushpull.Push, threads))
			check(at+" degree-sorted pull", facade(pushpull.Pull, threads))
		}
	}
}
