package pushpull_test

// The degree-ordered pull view behind served handles and WithDegreeSorted:
// pr pull through it, probed or not, equals the plain pull bit for bit, a
// served handle builds it once and no transpose beside it, and a caller's
// own handle never builds it.

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"

	"pushpull"
)

// sameRankBits fails unless got and want are the same ranks, bit for bit.
func sameRankBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d ranks, want %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: rank %d is %v, want %v", what, i, got[i], want[i])
		}
	}
}

// pullFixtures are fresh handles over the graphs whose pulls must not
// depend on the layout: an undirected skewed graph; a directed weighted
// one with dangling vertices (no out-arc) and isolated ones; multi-arcs,
// directed and undirected; one vertex; none.
func pullFixtures(t *testing.T) map[string]func() *pushpull.Workload {
	skewed := skewedGraph(t)
	b := pushpull.NewBuilder(300).Directed()
	for i := 0; i < 2000; i++ {
		u, v := pushpull.V(i*7%250), pushpull.V(i*i%250)
		if u%5 != 0 { // every fifth vertex below 250 dangles; 250..299 are isolated
			b.AddEdgeW(u, v, float32(i%9+1))
		}
	}
	dangling := b.MustBuild()
	dupes := func(directed bool) *pushpull.Graph {
		b := pushpull.NewBuilder(60).KeepDuplicates()
		if directed {
			b.Directed()
		}
		for i := 0; i < 900; i++ {
			b.AddEdge(pushpull.V(i*i%60), pushpull.V(i*13%60/(i%3+1)))
		}
		return b.MustBuild()
	}
	directedDupes, undirectedDupes := dupes(true), dupes(false)
	one, none := pushpull.NewBuilder(1).MustBuild(), pushpull.NewBuilder(0).MustBuild()
	return map[string]func() *pushpull.Workload{
		"undirected skewed":          func() *pushpull.Workload { return pushpull.NewWorkload(skewed) },
		"directed weighted dangling": func() *pushpull.Workload { return pushpull.Directed(dangling, pushpull.AsWeighted()) },
		"directed multi-arcs":        func() *pushpull.Workload { return pushpull.Directed(directedDupes) },
		"undirected multi-arcs":      func() *pushpull.Workload { return pushpull.NewWorkload(undirectedDupes) },
		"n=1":                        func() *pushpull.Workload { return pushpull.NewWorkload(one) },
		"n=0":                        func() *pushpull.Workload { return pushpull.NewWorkload(none) },
	}
}

// TestDegreePullBitIdentical runs pr pull four ways on every fixture at
// 1, 2 and 7 threads: on a handle an Engine serves, on a caller's own
// handle, and with WithDegreeSorted, unprobed and probed (pr's profiled
// twin over the same view). All four, at every thread count, give the
// caller's one-thread ranks bit for bit, and all but the second build the
// degree-ordered pull view.
func TestDegreePullBitIdentical(t *testing.T) {
	ctx := context.Background()
	for name, fresh := range pullFixtures(t) {
		t.Run(name, func(t *testing.T) {
			want := ranksOf(t, run(t, fresh(), "pr", pushpull.WithDirection(pushpull.Pull), pushpull.WithThreads(1)))
			for _, threads := range []int{1, 2, 7} {
				opts := []pushpull.Option{pushpull.WithDirection(pushpull.Pull), pushpull.WithThreads(threads)}

				served := fresh()
				eng := pushpull.NewEngine()
				if err := eng.RegisterWorkload("g", served); err != nil {
					t.Fatal(err)
				}
				rep, err := eng.Run(ctx, served, "pr", opts...)
				if err != nil {
					t.Fatal(err)
				}
				sameRankBits(t, fmt.Sprintf("served at t=%d", threads), ranksOf(t, rep), want)
				if served.DegreePullBuilds() != 1 {
					t.Errorf("served at t=%d: the run built no degree-ordered pull view", threads)
				}

				own := fresh()
				sameRankBits(t, fmt.Sprintf("own handle at t=%d", threads), ranksOf(t, run(t, own, "pr", opts...)), want)
				if own.DegreePullBuilds() != 0 {
					t.Errorf("own handle at t=%d: built the degree-ordered pull view", threads)
				}

				sorted := fresh()
				rep = run(t, sorted, "pr", append(opts, pushpull.WithDegreeSorted())...)
				sameRankBits(t, fmt.Sprintf("WithDegreeSorted at t=%d", threads), ranksOf(t, rep), want)
				if sorted.DegreePullBuilds() != 1 {
					t.Errorf("WithDegreeSorted at t=%d: the run built no degree-ordered pull view", threads)
				}

				probed := fresh()
				rep = run(t, probed, "pr", append(opts, pushpull.WithDegreeSorted(), pushpull.WithProbes())...)
				sameRankBits(t, fmt.Sprintf("probed WithDegreeSorted at t=%d", threads), ranksOf(t, rep), want)
				if rep.Counters == nil || probed.DegreePullBuilds() != 1 {
					t.Errorf("probed WithDegreeSorted at t=%d: counters %v, %d degree-ordered pull views; want counters and 1",
						threads, rep.Counters != nil, probed.DegreePullBuilds())
				}
			}
		})
	}
}

// Concurrent first pr pulls on a served directed handle build its
// degree-ordered pull view once, build no transpose, and agree bit for
// bit with a caller's own handle.
func TestWorkloadViewDegreePullConcurrent(t *testing.T) {
	g := directedGraph(t, 400, false)
	want := ranksOf(t, run(t, pushpull.Directed(g), "pr", pushpull.WithDirection(pushpull.Pull)))
	w := pushpull.Directed(g)
	if err := pushpull.NewEngine().RegisterWorkload("g", w); err != nil {
		t.Fatal(err)
	}
	const N = 8
	got := make([][]float64, N)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			rep, err := pushpull.Run(context.Background(), w, "pr", pushpull.WithDirection(pushpull.Pull), pushpull.WithThreads(2))
			if err != nil {
				t.Error(err)
				return
			}
			got[i] = rep.Ranks()
		}()
	}
	close(start)
	wg.Wait()
	for i, ranks := range got {
		sameRankBits(t, fmt.Sprintf("caller %d", i), ranks, want)
	}
	if n := w.DegreePullBuilds(); n != 1 {
		t.Errorf("%d concurrent first pulls built %d degree-ordered pull views, want 1", N, n)
	}
	if b := w.Builds(); b.Transposes != 0 {
		t.Errorf("a served directed pull built a transpose beside the view: Builds() = %+v", b)
	}
}

// A caller's own handle never builds the view: its pr pull builds the
// transpose. On a served handle a push keeps the plain view, and a probed
// pull reads the view its unprobed twin reads, with no transpose beside it.
func TestDegreePullOnlyForServedPulls(t *testing.T) {
	g := directedGraph(t, 400, false)
	own := pushpull.Directed(g)
	run(t, own, "pr", pushpull.WithDirection(pushpull.Pull))
	if own.DegreePullBuilds() != 0 || own.Builds().Transposes != 1 {
		t.Errorf("own handle: %d degree-ordered pull views, Builds() = %+v; want 0 and one transpose", own.DegreePullBuilds(), own.Builds())
	}
	served := pushpull.Directed(g)
	if err := pushpull.NewEngine().RegisterWorkload("g", served); err != nil {
		t.Fatal(err)
	}
	run(t, served, "pr", pushpull.WithDirection(pushpull.Push))
	if served.DegreePullBuilds() != 0 {
		t.Error("a served handle's push built the degree-ordered pull view")
	}
	rep := run(t, served, "pr", pushpull.WithDirection(pushpull.Pull), pushpull.WithProbes())
	if rep.Counters == nil || served.DegreePullBuilds() != 1 || served.Builds().Transposes != 0 {
		t.Errorf("a served handle's probed pull: counters %v, %d degree-ordered pull views, Builds() = %+v; want counters, 1 and no transpose",
			rep.Counters != nil, served.DegreePullBuilds(), served.Builds())
	}
}

// A served directed handle that also runs WithDegreeSorted pr push and
// pull holds one degree relabelling: its degree-sorted view holds the
// Perm and Inv the handle un-permutes its pull view's ranks through, and
// it builds one degree-sorted view, whatever the runs' thread counts and
// probes.
func TestOneRelabellingPerHandle(t *testing.T) {
	g := directedSkewedGraph(t, 500, 7)
	w := pushpull.Directed(g)
	if err := pushpull.NewEngine().RegisterWorkload("g", w); err != nil {
		t.Fatal(err)
	}
	want := ranksOf(t, run(t, pushpull.Directed(g), "pr", pushpull.WithDirection(pushpull.Pull)))
	for _, threads := range []int{1, 2, 7} {
		for _, probes := range [][]pushpull.Option{nil, {pushpull.WithProbes()}} {
			opts := append([]pushpull.Option{pushpull.WithThreads(threads)}, probes...)
			run(t, w, "pr", append(opts, pushpull.WithDegreeSorted(), pushpull.WithDirection(pushpull.Push))...)
			for _, ds := range [][]pushpull.Option{nil, {pushpull.WithDegreeSorted()}} {
				rep := run(t, w, "pr", append(append(opts, ds...), pushpull.WithDirection(pushpull.Pull))...)
				sameRankBits(t, fmt.Sprintf("pull at t=%d, degree-sorted %v, probed %v", threads, ds != nil, probes != nil), ranksOf(t, rep), want)
			}
		}
	}
	if b := w.Builds(); b.DegreeSorts != 1 || b.Transposes != 0 || w.DegreePullBuilds() != 1 {
		t.Errorf("Builds() = %+v with %d degree-ordered pull views; want one degree sort, one pull view, no transpose", b, w.DegreePullBuilds())
	}
	if !w.RelabellingShared() {
		t.Error("the degree-sorted view holds a relabelling of its own, not the handle's")
	}
}

// A re-PUT with different content serves the new handle, which builds a
// view of its own; a store's restored handles are served too.
func TestDegreePullRePutAndRestore(t *testing.T) {
	ctx := context.Background()
	pull := pushpull.WithDirection(pushpull.Pull)
	eng := pushpull.NewEngine()
	first := pushpull.Directed(directedGraph(t, 400, false))
	if err := eng.RegisterWorkload("g", first); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(ctx, first, "pr", pull); err != nil {
		t.Fatal(err)
	}
	g2 := directedSkewedGraph(t, 500, 3)
	if err := eng.RegisterWorkload("g", pushpull.Directed(g2)); err != nil {
		t.Fatal(err)
	}
	second, _ := eng.Workload("g")
	rep, err := eng.Run(ctx, second, "pr", pull)
	if err != nil {
		t.Fatal(err)
	}
	sameRankBits(t, "re-PUT", ranksOf(t, rep), ranksOf(t, run(t, pushpull.Directed(g2), "pr", pull)))
	if first.DegreePullBuilds() != 1 || second.DegreePullBuilds() != 1 {
		t.Errorf("views built: first handle %d, second %d; want 1 each", first.DegreePullBuilds(), second.DegreePullBuilds())
	}

	store, err := pushpull.NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Put("g", pushpull.Directed(g2)); err != nil {
		t.Fatal(err)
	}
	restoring := pushpull.NewEngine()
	if err := restoring.AttachStore(store); err != nil {
		t.Fatal(err)
	}
	restored, _ := restoring.Workload("g")
	run(t, restored, "pr", pull)
	if restored.DegreePullBuilds() != 1 {
		t.Error("a restored handle's pr pull built no degree-ordered pull view")
	}
}
