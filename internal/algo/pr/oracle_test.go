package pr

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"testing"

	"pushpull/internal/gen"
	"pushpull/internal/graph"
	"pushpull/internal/rng"
	"pushpull/internal/sched"
)

// pushDealOracle replays Push's deal one worker after another on the
// calling goroutine, with the deal dealOracle computes. Worker w runs its
// chunks in increasing index, each row's updates in row order, into its
// own accumulator; the fold then starts every slot from the teleport term
// and adds the accumulators in worker order. It holds for t ≥ 2 only: at
// one thread Push adds its updates onto the teleport term instead.
func pushDealOracle(vw Views, opt Options) []float64 {
	opt.defaults()
	g := vw.Out
	n := g.N()
	t := sched.Clamp(opt.Threads, n)
	owner, grain := dealOracle(g, t)
	pr := make([]float64, n)
	for i := range pr {
		pr[i] = 1 / float64(n)
	}
	acc := make([][]float64, t)
	for w := range acc {
		acc[w] = make([]float64, n)
	}
	base := (1 - opt.Damping) / float64(n)
	for l := 0; l < opt.Iterations; l++ {
		for w := range acc {
			for c, o := range owner {
				if o != w {
					continue
				}
				for v := c * grain; v < min((c+1)*grain, n); v++ {
					d := g.Degree(graph.V(v))
					if d == 0 {
						continue
					}
					x := opt.Damping * pr[v] / float64(d)
					for _, u := range g.Neighbors(graph.V(v)) {
						acc[w][u] += x
					}
				}
			}
		}
		for i := range pr {
			s := base
			for _, a := range acc {
				s += a[i]
				a[i] = 0
			}
			pr[i] = s
		}
	}
	return pr
}

// dealOracle returns the worker the deal hands each chunk of g's rows to,
// and the chunk's row count: chunks of min(1024, n/(2t)) rows (at least
// one), ordered by arc count, heaviest first and ties by index, handed out
// boustrophedon — workers 0…t−1, then t−1…0, and so on.
func dealOracle(g *graph.CSR, t int) (owner []int, grain int) {
	n := g.N()
	grain = max(1, min(1024, n/(2*t)))
	chunks := (n + grain - 1) / grain
	arcs := func(c int) int64 { return g.Offsets[min((c+1)*grain, n)] - g.Offsets[c*grain] }
	byArcs := make([]int, chunks)
	for c := range byArcs {
		byArcs[c] = c
	}
	sort.SliceStable(byArcs, func(i, k int) bool { return arcs(byArcs[i]) > arcs(byArcs[k]) })
	owner = make([]int, chunks)
	for k, c := range byArcs {
		w := k % t
		if (k/t)%2 == 1 {
			w = t - 1 - w
		}
		owner[c] = w
	}
	return owner, grain
}

// filledAccumulators counts the workers whose dealt chunks of g's rows
// hold at least one arc at t threads: a push digest pinned at t > 1 says
// something about the fold only if two or more accumulators meet there.
func filledAccumulators(g *graph.CSR, t int) int {
	d := dealRows(g, t)
	filled := 0
	for w := 0; w < t; w++ {
		for _, c := range d.chunks[d.off[w]:d.off[w+1]] {
			lo := int(c) * d.grain
			if g.Offsets[min(lo+d.grain, g.N())] > g.Offsets[lo] {
				filled++
				break
			}
		}
	}
	return filled
}

// shuffleRows returns g with every row's neighbors in a random order:
// pushpull.Graph exposes its arrays, and nothing guarantees sorted rows.
func shuffleRows(t *testing.T, g *graph.CSR, seed uint64) *graph.CSR {
	t.Helper()
	s := &graph.CSR{NumV: g.NumV, Offsets: g.Offsets, Adj: slices.Clone(g.Adj)}
	r := rng.New(seed)
	sorted := 0
	for v := graph.V(0); v < g.NumV; v++ {
		row := s.Adj[g.Offsets[v]:g.Offsets[v+1]]
		for i := len(row) - 1; i > 0; i-- {
			j := r.Intn(i + 1)
			row[i], row[j] = row[j], row[i]
		}
		if slices.IsSorted(row) {
			sorted++
		}
	}
	if sorted == g.N() {
		t.Fatal("shuffle left every row sorted")
	}
	return s
}

// Push deals its rows' chunks to workers by arc count, once per run, and
// folds the accumulators in worker order: its bits must equal the
// sequential replay of that deal at every thread count, on an undirected
// graph, a digraph and shuffled rows, and stay within 1e-12 of
// Sequential.
func TestPushMatchesDealOracle(t *testing.T) {
	g := testGraph(t)
	for name, vw := range map[string]Views{
		"undirected": und(g),
		"directed":   directedFixture(t, 600, 4000, 11),
		"shuffled":   und(shuffleRows(t, g, 3)),
	} {
		opt := Options{Iterations: 10}
		want := Sequential(vw, opt)
		for _, threads := range []int{2, 3, 4, 7} {
			opt.Threads = threads
			at := fmt.Sprintf("%s t=%d", name, threads)
			got, _ := Push(vw, opt)
			bitsEqual(t, at, got, pushDealOracle(vw, opt))
			if d := MaxDiff(got, want); d > 1e-12 {
				t.Errorf("%s: %g from Sequential", at, d)
			}
		}
	}
}

// The deal on a skewed graph, whose hubs hold the low ids: every chunk
// goes to exactly one worker, the oracle's, in increasing index within
// each worker; the workers' chunk counts differ by at most one, and
// their arc counts by at most the heaviest chunk's.
func TestPushDealBalanced(t *testing.T) {
	g, err := gen.RMAT(gen.DefaultRMAT(13, 8, 42))
	if err != nil {
		t.Fatal(err)
	}
	n := g.N()
	if _, hi := sched.BlockRange(n, 2, 0); float64(g.Offsets[hi]) < 0.7*float64(g.M()) {
		t.Fatalf("fixture not skewed: the static split gives worker 0 of two %d of %d arcs", g.Offsets[hi], g.M())
	}
	for _, threads := range []int{2, 3, 7} {
		d := dealRows(g, threads)
		owner, grain := dealOracle(g, threads)
		chunks := len(owner)
		if d.grain != grain || len(d.chunks) != chunks || d.off[0] != 0 || d.off[threads] != chunks {
			t.Fatalf("t=%d: %d chunks of %d rows, offsets %v; want %d of %d", threads, len(d.chunks), d.grain, d.off, chunks, grain)
		}
		seen := make([]bool, chunks)
		var heaviest int64
		counts := make([]int, threads)
		arcs := make([]int64, threads)
		for w := 0; w < threads; w++ {
			mine := d.chunks[d.off[w]:d.off[w+1]]
			if !slices.IsSorted(mine) {
				t.Errorf("t=%d: worker %d's chunks %v are not in increasing index", threads, w, mine)
			}
			for _, c := range mine {
				if seen[c] {
					t.Fatalf("t=%d: chunk %d dealt twice", threads, c)
				}
				seen[c] = true
				if owner[c] != w {
					t.Errorf("t=%d: chunk %d dealt to worker %d, the oracle deals it to %d", threads, c, w, owner[c])
				}
				lo := int(c) * d.grain
				a := g.Offsets[min(lo+d.grain, n)] - g.Offsets[lo]
				heaviest = max(heaviest, a)
				counts[w]++
				arcs[w] += a
			}
		}
		if slices.Max(counts)-slices.Min(counts) > 1 {
			t.Errorf("t=%d: chunks per worker %v differ by more than one", threads, counts)
		}
		if spread := slices.Max(arcs) - slices.Min(arcs); spread > heaviest {
			t.Errorf("t=%d: arcs per worker %v spread %d, more than the heaviest chunk's %d", threads, arcs, spread, heaviest)
		}
	}
}

// However small the graph, n ≥ 2t rows are dealt over all t workers,
// and a path fills every accumulator.
func TestPushDealSmallGraphs(t *testing.T) {
	for _, threads := range []int{2, 3, 7} {
		for n := 2 * threads; n < 2*threads+20; n++ {
			b := graph.NewBuilder(n)
			for v := 1; v < n; v++ {
				b.AddEdge(graph.V(v-1), graph.V(v))
			}
			g, err := b.Build()
			if err != nil {
				t.Fatal(err)
			}
			d := dealRows(g, threads)
			for w := 0; w < threads; w++ {
				if d.off[w+1] == d.off[w] {
					t.Errorf("n=%d t=%d: worker %d got no chunk (%d chunks of %d rows)", n, threads, w, len(d.chunks), d.grain)
				}
			}
			if filled := filledAccumulators(g, threads); filled != threads {
				t.Errorf("n=%d t=%d: %d of %d accumulators filled", n, threads, filled, threads)
			}
		}
	}
}

// Push's scratch is its bill: the rank vector and one accumulator at one
// thread, 2·n·8 bytes, and the rank vector and t accumulators at t,
// (t+1)·n·8. Nothing else of size n may be allocated.
func TestPushScratchBytes(t *testing.T) {
	g, err := gen.RMAT(gen.DefaultRMAT(16, 4, 5))
	if err != nil {
		t.Fatal(err)
	}
	n := g.N()
	for _, threads := range []int{1, 2, 4} {
		opt := Options{Iterations: 3}
		opt.Threads = threads
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		Push(und(g), opt)
		runtime.ReadMemStats(&after)
		got := float64(after.TotalAlloc - before.TotalAlloc)
		want := float64((threads + 1) * n * 8)
		if got < 0.9*want || got > 1.1*want {
			t.Errorf("t=%d: push allocated %.0f bytes, want %.0f ± 10%%", threads, got, want)
		}
	}
}
