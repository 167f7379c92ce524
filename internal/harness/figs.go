package harness

import (
	"context"
	"fmt"
	"math"
	"time"

	"pushpull"
	"pushpull/internal/algo/pr"
	"pushpull/internal/atomicx"
	"pushpull/internal/dm/dalgo"
	"pushpull/internal/graph"
	"pushpull/internal/sched"
)

// Fig1 regenerates the coloring figure: per-iteration times of Pulling,
// Pushing (Boman) and GrS (FE + Greedy-Switch) on the orc, ljn and rca
// stand-ins, up to 50 iterations.
func Fig1(cfg Config) error {
	cfg.defaults()
	header(cfg.Out, "Figure 1", "BGC time per iteration [ms]: Pulling vs Pushing vs GrS")
	const maxShown = 50
	for _, name := range []string{"orc", "ljn", "rca"} {
		g, err := loadGraph(name, cfg, false)
		if err != nil {
			return err
		}
		collect := func(opts ...pushpull.Option) ([]time.Duration, int, error) {
			var per []time.Duration
			opts = append(opts,
				pushpull.WithThreads(cfg.Threads),
				pushpull.WithIterationHook(func(i int, d time.Duration) {
					if i < maxShown {
						per = append(per, d)
					}
				}))
			rep, err := pushpull.Run(context.Background(), g, "gc", opts...)
			if err != nil {
				return nil, 0, err
			}
			return per, rep.Stats.Iterations, nil
		}
		pull, pullIters, err := collect(pushpull.WithDirection(pushpull.Pull))
		if err != nil {
			return err
		}
		push, pushIters, err := collect(pushpull.WithDirection(pushpull.Push))
		if err != nil {
			return err
		}
		grs, grsIters, err := collect(pushpull.WithDirection(pushpull.Push),
			pushpull.WithMaxIters(4096),
			pushpull.WithSwitchPolicy(&pushpull.GreedySwitch{Fraction: 0.1, Total: g.N()}))
		if err != nil {
			return err
		}
		fmt.Fprintf(cfg.Out, "%s (iterations to finish: pull=%d push=%d GrS=%d)\n",
			name, pullIters, pushIters, grsIters)
		fmt.Fprintf(cfg.Out, "%-5s %10s %10s %10s\n", "iter", "Pulling", "Pushing", "GrS")
		rows := len(pull)
		if len(push) > rows {
			rows = len(push)
		}
		if len(grs) > rows {
			rows = len(grs)
		}
		at := func(s []time.Duration, i int) string {
			if i < len(s) {
				return ms(s[i])
			}
			return "-"
		}
		for i := 0; i < rows; i++ {
			fmt.Fprintf(cfg.Out, "%-5d %10s %10s %10s\n", i, at(pull, i), at(push, i), at(grs, i))
		}
	}
	return nil
}

// Fig2 regenerates the Δ-stepping figure: per-iteration times for push and
// pull on orc and am, plus the Δ sweep on orc showing the gap closing as Δ
// grows.
func Fig2(cfg Config) error {
	cfg.defaults()
	header(cfg.Out, "Figure 2", "SSSP-Δ per-iteration time [ms] and the Δ sweep")
	const maxShown = 12
	for _, name := range []string{"orc", "am"} {
		g, err := loadGraph(name, cfg, true)
		if err != nil {
			return err
		}
		collect := func(dir pushpull.Direction) ([]time.Duration, error) {
			var per []time.Duration
			_, err := pushpull.Run(context.Background(), g, "sssp",
				pushpull.WithDirection(dir), pushpull.WithThreads(cfg.Threads),
				pushpull.WithSource(0),
				pushpull.WithIterationHook(func(i int, d time.Duration) {
					if i < maxShown {
						per = append(per, d)
					}
				}))
			return per, err
		}
		push, err := collect(pushpull.Push)
		if err != nil {
			return err
		}
		pull, err := collect(pushpull.Pull)
		if err != nil {
			return err
		}
		fmt.Fprintf(cfg.Out, "%s\n%-5s %10s %10s\n", name, "iter", "Pushing", "Pulling")
		rows := len(push)
		if len(pull) > rows {
			rows = len(pull)
		}
		at := func(s []time.Duration, i int) string {
			if i < len(s) {
				return ms(s[i])
			}
			return "-"
		}
		for i := 0; i < rows; i++ {
			fmt.Fprintf(cfg.Out, "%-5d %10s %10s\n", i, at(push, i), at(pull, i))
		}
	}
	// Δ sweep (orc): total time per variant as Δ grows.
	g, err := loadGraph("orc", cfg, true)
	if err != nil {
		return err
	}
	fmt.Fprintf(cfg.Out, "Δ sweep (orc)\n%-10s %12s %12s\n", "Delta", "Pushing [ms]", "Pulling [ms]")
	for _, delta := range []float64{5, 20, 80, 320, 1280, 5120} {
		sweep := func(dir pushpull.Direction) (*pushpull.Report, error) {
			return pushpull.Run(context.Background(), g, "sssp",
				pushpull.WithDirection(dir), pushpull.WithThreads(cfg.Threads),
				pushpull.WithSource(0), pushpull.WithDelta(delta))
		}
		push, err := sweep(pushpull.Push)
		if err != nil {
			return err
		}
		pull, err := sweep(pushpull.Pull)
		if err != nil {
			return err
		}
		fmt.Fprintf(cfg.Out, "%-10.0f %12s %12s\n", delta,
			ms(push.Stats.Elapsed), ms(pull.Stats.Elapsed))
	}
	return nil
}

// Fig3 regenerates the distributed strong-scaling figure: simulated
// makespan vs rank count for PR (orc, ljn, rmat) and TC (orc, ljn) with
// Pushing-RMA, Pulling-RMA and Msg-Passing, run on dalgo's simulated
// cluster. The makespan is rounded to whole nanoseconds before it is
// shown in milliseconds.
func Fig3(cfg Config) error {
	cfg.defaults()
	header(cfg.Out, "Figure 3", "DM strong scaling (simulated makespan [ms] vs P)")
	ranks := []int{2, 4, 8, 16, 32, 64, 128, 256}
	simMS := func(res *dalgo.Result) float64 { return math.Round(res.SimTime) / 1e6 }

	prGraphs := []string{"orc", "ljn", "rmat"}
	for _, name := range prGraphs {
		g, err := loadGraph(name, cfg, false)
		if err != nil {
			return err
		}
		fmt.Fprintf(cfg.Out, "PR, %s (per iteration)\n%-6s %14s %14s %14s\n",
			name, "P", "Pushing-RMA", "Pulling-RMA", "Msg-Passing")
		const iters = 2
		for _, p := range ranks {
			if p > g.N() {
				break
			}
			row := make([]float64, 0, 3)
			for _, run := range []func(*graph.CSR, dalgo.PRConfig) (*dalgo.Result, error){
				dalgo.PRPushRMA, dalgo.PRPullRMA, dalgo.PRMsgPassing} {
				res, err := run(g, dalgo.PRConfig{Ranks: p, Iterations: iters})
				if err != nil {
					return err
				}
				row = append(row, simMS(res)/iters)
			}
			fmt.Fprintf(cfg.Out, "%-6d %14.3f %14.3f %14.3f\n", p, row[0], row[1], row[2])
		}
	}

	tcCfgBase := cfg
	tcCfgBase.Scale = cfg.Scale * 0.5
	for _, name := range []string{"orc", "ljn"} {
		g, err := loadGraph(name, tcCfgBase, false)
		if err != nil {
			return err
		}
		fmt.Fprintf(cfg.Out, "TC, %s (total)\n%-6s %14s %14s %14s\n",
			name, "P", "Pushing-RMA", "Pulling-RMA", "Msg-Passing")
		for _, p := range ranks {
			if p > g.N() {
				break
			}
			row := make([]float64, 0, 3)
			for _, run := range []func(*graph.CSR, dalgo.TCConfig) (*dalgo.Result, error){
				dalgo.TCPushRMA, dalgo.TCPullRMA, dalgo.TCMsgPassing} {
				res, err := run(g, dalgo.TCConfig{Ranks: p})
				if err != nil {
					return err
				}
				row = append(row, simMS(res))
			}
			fmt.Fprintf(cfg.Out, "%-6d %14.3f %14.3f %14.3f\n", p, row[0], row[1], row[2])
		}
	}

	// The §6.3 memory-consumption analysis at a representative P.
	const memP = 32
	g, err := loadGraph("orc", cfg, false)
	if err != nil {
		return err
	}
	fmt.Fprintf(cfg.Out, "per-process auxiliary memory at P=%d (§6.3):\n", memP)
	for _, e := range dalgo.PRMemory(g, memP) {
		fmt.Fprintf(cfg.Out, "  PR %s\n", e)
	}
	for _, e := range dalgo.TCMemory(g, memP, 0) {
		fmt.Fprintf(cfg.Out, "  TC %s\n", e)
	}
	return nil
}

// Fig4 regenerates the MST phase figure: per-iteration times of the
// Find-Minimum, Build-Merge-Tree and Merge phases, push vs pull.
func Fig4(cfg Config) error {
	cfg.defaults()
	header(cfg.Out, "Figure 4", "Borůvka phases per iteration [ms], push vs pull")
	g, err := loadGraph("orc", cfg, true)
	if err != nil {
		return err
	}
	boruvka := func(dir pushpull.Direction) (*pushpull.MSTResult, error) {
		rep, err := pushpull.Run(context.Background(), g, "mst",
			pushpull.WithDirection(dir), pushpull.WithThreads(cfg.Threads))
		if err != nil {
			return nil, err
		}
		return rep.Result.(*pushpull.MSTResult), nil
	}
	push, err := boruvka(pushpull.Push)
	if err != nil {
		return err
	}
	pull, err := boruvka(pushpull.Pull)
	if err != nil {
		return err
	}
	fmt.Fprintf(cfg.Out, "%-5s %12s %12s %12s %12s %12s %12s\n", "iter",
		"FM push", "FM pull", "BMT push", "BMT pull", "M push", "M pull")
	rows := push.Iterations
	if pull.Iterations > rows {
		rows = pull.Iterations
	}
	at := func(s []time.Duration, i int) string {
		if i < len(s) {
			return ms(s[i])
		}
		return "-"
	}
	for i := 0; i < rows; i++ {
		fmt.Fprintf(cfg.Out, "%-5d %12s %12s %12s %12s %12s %12s\n", i,
			at(push.PhaseFM, i), at(pull.PhaseFM, i),
			at(push.PhaseBMT, i), at(pull.PhaseBMT, i),
			at(push.PhaseM, i), at(pull.PhaseM, i))
	}
	fmt.Fprintf(cfg.Out, "total: push=%s ms pull=%s ms (weight %.1f, %d edges each)\n",
		ms(push.Stats.Elapsed), ms(pull.Stats.Elapsed), push.TotalWeight, len(push.Edges))
	return nil
}

// Fig5 regenerates the BC thread-scaling figure: first-BFS, second-BFS and
// total runtimes for push and pull as threads grow.
func Fig5(cfg Config) error {
	cfg.defaults()
	header(cfg.Out, "Figure 5", "BC runtimes [ms] vs threads (sampled sources)")
	g, err := loadGraph("orc", cfg, false)
	if err != nil {
		return err
	}
	sources := []graph.V{0, 1, 2, 3, 4, 5, 6, 7}
	fmt.Fprintf(cfg.Out, "%-8s %12s %12s %12s %12s %12s %12s\n", "threads",
		"BFS1 push", "BFS1 pull", "BFS2 push", "BFS2 pull", "total push", "total pull")
	for t := 1; t <= cfg.Threads; t *= 2 {
		row := map[pushpull.Direction]*pushpull.BCResult{}
		for _, dir := range []pushpull.Direction{pushpull.Push, pushpull.Pull} {
			rep, err := pushpull.Run(context.Background(), g, "bc",
				pushpull.WithDirection(dir), pushpull.WithThreads(t),
				pushpull.WithSources(sources))
			if err != nil {
				return err
			}
			row[dir] = rep.Result.(*pushpull.BCResult)
		}
		push, pull := row[pushpull.Push], row[pushpull.Pull]
		fmt.Fprintf(cfg.Out, "%-8d %12s %12s %12s %12s %12s %12s\n", t,
			ms(push.Phase1), ms(pull.Phase1),
			ms(push.Phase2), ms(pull.Phase2),
			ms(push.Phase1+push.Phase2), ms(pull.Phase1+pull.Phase2))
	}
	return nil
}

// pushAlgorithm1 times Algorithm 1's push as the paper states it: an
// atomic float add on every arc, at every thread count, with its loops
// under schedule s. It is Figure 6a's baseline column and the ablation's
// schedule row, nothing else — the library's push issues no atomic — and
// returns the mean wall time of one of iters iterations.
func pushAlgorithm1(g *graph.CSR, threads, iters int, s sched.Schedule) time.Duration {
	n := g.N()
	if n == 0 || iters <= 0 {
		return 0
	}
	t := sched.Clamp(threads, n)
	ranks := make([]float64, n)
	for i := range ranks {
		ranks[i] = 1 / float64(n)
	}
	next := make([]uint64, n)
	const f = pr.DefaultDamping
	baseBits := math.Float64bits((1 - f) / float64(n))
	clearNext := func(w, lo, hi int) {
		for i := lo; i < hi; i++ {
			next[i] = baseBits
		}
	}
	scatter := func(w, lo, hi int) {
		for vi := lo; vi < hi; vi++ {
			v := graph.V(vi)
			if d := g.Degree(v); d > 0 {
				c := f * ranks[v] / float64(d)
				for _, u := range g.Neighbors(v) {
					atomicx.AddFloat64(&next[u], c)
				}
			}
		}
	}
	commit := func(w, lo, hi int) {
		for i := lo; i < hi; i++ {
			ranks[i] = math.Float64frombits(next[i])
		}
	}
	start := time.Now()
	for l := 0; l < iters; l++ {
		sched.ParallelFor(n, t, s, 0, clearNext)
		sched.ParallelFor(n, t, s, 0, scatter)
		sched.ParallelFor(n, t, s, 0, commit)
	}
	return time.Since(start) / time.Duration(iters)
}

// Fig6 regenerates the acceleration-strategy panel: (a) PR per-iteration
// times for Push (Algorithm 1) vs Push+PA vs Pull; (b) BGC
// iterations-to-finish for Push, +FE, +GS, +GrS. The Push+PA column times
// the library's push: every update goes into the pushing worker's private
// accumulator, folded in worker order, instead of an atomic.
func Fig6(cfg Config) error {
	cfg.defaults()
	header(cfg.Out, "Figure 6a", "PR time per iteration [ms]: Push vs Push+PA (per-worker accumulators + ordered fold) vs Pull")
	fmt.Fprintf(cfg.Out, "%-8s %10s %10s %10s\n", "graph", "Push", "Push+PA", "Pull")
	const iters = 10
	for _, name := range workloadNames {
		g, err := loadGraph(name, cfg, false)
		if err != nil {
			return err
		}
		ranks := func(dir pushpull.Direction) (pushpull.RunStats, error) {
			rep, err := pushpull.Run(context.Background(), g, "pr", pushpull.WithDirection(dir),
				pushpull.WithThreads(cfg.Threads), pushpull.WithIterations(iters))
			if err != nil {
				return pushpull.RunStats{}, err
			}
			return rep.Stats, nil
		}
		sPA, err := ranks(pushpull.Push)
		if err != nil {
			return err
		}
		sPull, err := ranks(pushpull.Pull)
		if err != nil {
			return err
		}
		fmt.Fprintf(cfg.Out, "%-8s %10s %10s %10s\n", name,
			ms(pushAlgorithm1(g, cfg.Threads, iters, sched.Static)), ms(sPA.AvgIteration()), ms(sPull.AvgIteration()))
	}

	header(cfg.Out, "Figure 6b", "BGC iterations to finish: Push vs +FE vs +GS vs +GrS")
	fmt.Fprintf(cfg.Out, "%-8s %8s %8s %8s %8s\n", "graph", "Push", "+FE", "+GS", "+GrS")
	for _, name := range workloadNames {
		g, err := loadGraph(name, cfg, false)
		if err != nil {
			return err
		}
		iters := func(algo string, opts ...pushpull.Option) (int, error) {
			rep, err := pushpull.Run(context.Background(), g, algo, append(opts,
				pushpull.WithDirection(pushpull.Push), pushpull.WithThreads(cfg.Threads))...)
			if err != nil {
				return 0, err
			}
			return rep.Stats.Iterations, nil
		}
		push, err := iters("gc")
		if err != nil {
			return err
		}
		fe, err := iters("gc-fe", pushpull.WithMaxIters(4096))
		if err != nil {
			return err
		}
		gs, err := iters("gc", pushpull.WithMaxIters(4096),
			pushpull.WithSwitchPolicy(&pushpull.GenericSwitch{Threshold: 1.0}))
		if err != nil {
			return err
		}
		grs, err := iters("gc", pushpull.WithMaxIters(4096),
			pushpull.WithSwitchPolicy(&pushpull.GreedySwitch{Fraction: 0.1, Total: g.N()}))
		if err != nil {
			return err
		}
		fmt.Fprintf(cfg.Out, "%-8s %8d %8d %8d %8d\n", name,
			push, fe, gs, grs)
	}
	return nil
}
