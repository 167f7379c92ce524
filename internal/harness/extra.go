package harness

import (
	"context"
	"fmt"

	"pushpull"
	"pushpull/internal/dm"
	"pushpull/internal/dm/dalgo"
	"pushpull/internal/gen"
	"pushpull/internal/graph"
	"pushpull/internal/sched"
)

// WeakScaling runs the §6 weak-scaling companion to Figure 3: the per-rank
// workload is held constant while ranks are added (n ∝ P), so a perfectly
// weak-scaling variant draws a flat line. Msg-Passing stays near-flat
// (per-rank compute constant, collective setup grows mildly); the RMA
// variants inherit the per-edge remote-operation costs.
func WeakScaling(cfg Config) error {
	cfg.defaults()
	header(cfg.Out, "§6 (weak)", "DM PageRank weak scaling: simulated ms/iter, n ∝ P")
	perRank := int(2048 * cfg.Scale)
	if perRank < 64 {
		perRank = 64
	}
	cost := dm.AriesCostModel()
	const iters = 2
	fmt.Fprintf(cfg.Out, "per-rank vertices: %d\n", perRank)
	fmt.Fprintf(cfg.Out, "%-6s %-10s %14s %14s %14s\n", "P", "n", "Pushing-RMA", "Pulling-RMA", "Msg-Passing")
	for _, p := range []int{2, 4, 8, 16, 32} {
		n := perRank * p
		scaleExp := 0
		for 1<<scaleExp < n {
			scaleExp++
		}
		g, err := gen.RMAT(gen.DefaultRMAT(scaleExp, 8, cfg.Seed))
		if err != nil {
			return err
		}
		push, err := dalgo.PRPushRMA(g, dalgo.PRConfig{Ranks: p, Iterations: iters, Cost: cost})
		if err != nil {
			return err
		}
		pull, err := dalgo.PRPullRMA(g, dalgo.PRConfig{Ranks: p, Iterations: iters, Cost: cost})
		if err != nil {
			return err
		}
		msg, err := dalgo.PRMsgPassing(g, dalgo.PRConfig{Ranks: p, Iterations: iters, Cost: cost})
		if err != nil {
			return err
		}
		fmt.Fprintf(cfg.Out, "%-6d %-10d %14.3f %14.3f %14.3f\n", p, g.N(),
			push.SimTime/iters/1e6, pull.SimTime/iters/1e6, msg.SimTime/iters/1e6)
	}
	return nil
}

// Ablation isolates two design choices the paper evaluates alongside the
// main results: the OpenMP-style static vs dynamic loop schedule (§6,
// "Selected Benchmarks & Parameters"), timed on Algorithm 1's push with an
// atomic per arc, the push the paper measured (the library's kernels fix
// their own schedules), and the Partition-Awareness layout's dependence on
// the partition count (§5 bounds the atomics by the remote-edge count,
// from 0 for component-aligned partitions to 2m for a bipartite split).
func Ablation(cfg Config) error {
	cfg.defaults()
	header(cfg.Out, "§5/§6 (ablation)", "loop schedule of Algorithm 1's push and PA partition sweep")
	g, err := loadGraph("orc", cfg, false)
	if err != nil {
		return err
	}

	ctx := context.Background()
	fmt.Fprintf(cfg.Out, "schedule ablation on orc (skewed degrees):\n")
	fmt.Fprintf(cfg.Out, "%-24s %10s %10s\n", "", "static", "dynamic")
	fmt.Fprintf(cfg.Out, "%-24s %10s %10s\n", "PR push [ms/iter]",
		ms(pushAlgorithm1(g, cfg.Threads, 5, sched.Static)),
		ms(pushAlgorithm1(g, cfg.Threads, 5, sched.Dynamic)))
	// TC uses dynamic internally; compare against a static run of the
	// same kernel by timing the pull kernel under both decompositions.
	tcPull := func(threads int) (pushpull.RunStats, error) {
		rep, err := pushpull.Run(ctx, g, "tc",
			pushpull.WithDirection(pushpull.Pull), pushpull.WithThreads(threads))
		if err != nil {
			return pushpull.RunStats{}, err
		}
		return rep.Stats, nil
	}
	tcDyn, err := tcPull(cfg.Threads)
	if err != nil {
		return err
	}
	seqStats, err := tcPull(1)
	if err != nil {
		return err
	}
	fmt.Fprintf(cfg.Out, "%-24s %10s %10s   (T=1 vs dynamic T=%d)\n",
		"TC pull total [s]", secs(seqStats.Elapsed), secs(tcDyn.Elapsed), cfg.Threads)

	fmt.Fprintf(cfg.Out, "\nPA partition sweep on orc (2m = %d adjacency slots):\n", g.M())
	fmt.Fprintf(cfg.Out, "%-6s %14s %10s %18s\n", "P", "remote slots", "fraction", "PR push [ms/iter]")
	// One Workload handle across the sweep memoizes each partition
	// count's split. The timed run uses P threads, as many accumulators
	// as the split has parts; push deals its rows to them by arc count,
	// not in the split's contiguous blocks.
	wl := pushpull.NewWorkload(g)
	for _, p := range []int{2, 4, 8, 16, 32} {
		rep, err := pushpull.Run(ctx, wl, "pr",
			pushpull.WithThreads(p),
			pushpull.WithDirection(pushpull.Push),
			pushpull.WithIterations(5))
		if err != nil {
			return err
		}
		pa := wl.PA(p) // the split of P owners
		fmt.Fprintf(cfg.Out, "%-6d %14d %9.1f%% %18s\n", p, pa.RemoteEdges(),
			100*float64(pa.RemoteEdges())/float64(g.M()), ms(rep.Stats.AvgIteration()))
	}
	// The §5 extremes: a bipartite graph split across two owners pushes
	// every update remotely; a component-aligned partition pushes none.
	bip := gen.BipartiteFull(64, 64)
	paBip := graph.BuildPA(bip, graph.NewPartition(bip.N(), 2))
	fmt.Fprintf(cfg.Out, "bipartite K64,64 split across 2 threads: remote fraction %.0f%% (upper bound)\n",
		100*float64(paBip.RemoteEdges())/float64(bip.M()))
	return nil
}
