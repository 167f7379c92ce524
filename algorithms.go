package pushpull

// The built-in algorithm adapters: each lowers the uniform Config onto
// one internal algorithm package and lifts its result into a Report.
// They are the only glue between the public facade and internal/algo.

import (
	"context"
	"fmt"
	"time"

	"pushpull/internal/algo/bc"
	"pushpull/internal/algo/bfs"
	"pushpull/internal/algo/gc"
	"pushpull/internal/algo/mst"
	"pushpull/internal/algo/pr"
	"pushpull/internal/algo/sssp"
	"pushpull/internal/algo/tc"
	"pushpull/internal/core"
)

// builtin implements Algorithm around an adapter function and a static
// capability declaration.
type builtin struct {
	name string
	desc string
	caps Caps
	run  func(ctx context.Context, w *Workload, cfg *Config) (*Report, error)
}

func (b *builtin) Name() string     { return b.name }
func (b *builtin) Describe() string { return b.desc }
func (b *builtin) Caps() Caps       { return b.caps }
func (b *builtin) Run(ctx context.Context, w *Workload, cfg *Config) (*Report, error) {
	return b.run(ctx, w, cfg)
}

func init() {
	for _, b := range []*builtin{
		{"pr", "PageRank (§3.1, Algorithm 1; one kernel per direction, a directed workload only changes the views §4.8; push owns targets per chunk as in §5 and sends the rest to private accumulators, no atomics; out-of-core block pull)",
			Caps{Directed: true, Probes: true, DegreeSort: true, OutOfCore: true}, runPR},
		{"tc", "triangle counting (§3.2, Algorithm 2; push combines a pair's hits into one atomic)",
			Caps{Probes: true}, runTC},
		{"bfs", "generalized breadth-first search (§3.3, Algorithm 3; Auto = direction-optimizing; out-of-core block pull)",
			Caps{NeedsSource: true, Probes: true, DegreeSort: true, OutOfCore: true}, runBFS},
		{"sssp", "Δ-stepping shortest paths (§3.4, Algorithm 4; Auto = adaptive switching)",
			Caps{NeedsWeights: true, NeedsSource: true, Probes: true}, runSSSP},
		{"bc", "Brandes betweenness centrality (§3.5, Algorithm 5)",
			Caps{NeedsSource: true, Probes: true}, runBC},
		{"gc", "Boman graph coloring (§3.6, Algorithm 6; WithSwitchPolicy = Frontier-Exploit+GS/GrS §5)",
			Caps{Probes: true, DegreeSort: true}, runGC},
		{"gc-fe", "Frontier-Exploit coloring (§5), optionally with a switch policy",
			Caps{Probes: true, DegreeSort: true}, runGCFE},
		{"gc-cr", "Conflict-Removal coloring (§5, Algorithm 9)",
			Caps{Probes: true}, runGCCR},
		{"mst", "Borůvka minimum spanning tree (§3.7, Algorithm 7)",
			Caps{NeedsWeights: true, Probes: true}, runMST},
	} {
		MustRegister(b)
	}
}

// partitionProfileThreads resolves the simulated thread count of a probed
// partition-based run (Boman coloring, Conflict-Removal): those
// kernels run one worker per partition, so an explicit WithThreads that
// disagrees with the partition count cannot be honored and errors instead
// of being silently ignored.
func partitionProfileThreads(algo string, cfg *Config, parts int) (int, error) {
	if cfg.Threads > 0 && cfg.Threads != parts {
		return 0, fmt.Errorf("pushpull: %s probes simulate one thread per partition (%d); WithThreads(%d) conflicts — drop it or set WithPartitions(%d)",
			algo, parts, cfg.Threads, cfg.Threads)
	}
	return parts, nil
}

// coreTrace lifts a recorded per-iteration direction sequence (bfs and
// sssp rounds, Frontier-Exploit — including mid-run Generic-Switch
// flips) into the public trace.
func coreTrace(dirs []core.Direction) []Direction {
	out := make([]Direction, len(dirs))
	for i, d := range dirs {
		out[i] = dirFromCore(d)
	}
	return out
}

// ---- PageRank ----

// runPR is the one PageRank adapter. There is one kernel per direction
// (§4.8): a directed workload changes only the pair of views the kernel is
// handed — out-edges to push along, the memoized transpose to pull along —
// and an undirected one hands the same graph as both. The push kernel
// scatters into per-worker private accumulators over the plain out-view,
// with no remote atomic; probed, it bills Algorithm 1. A file handle has no CSR view at all and runs the
// block pull kernel (validateCaps has already rejected push, probes and
// the degree sort there).
func runPR(ctx context.Context, w *Workload, cfg *Config) (*Report, error) {
	opt := pr.Options{Options: cfg.coreOptions(ctx), Iterations: cfg.Iterations}
	if cfg.DampingSet {
		opt.SetDamping(cfg.Damping)
	}
	if w.IsOutOfCore() {
		// The block file stores the pull view (the transpose plus an
		// out-degree sidecar, for directed workloads); the ranks equal
		// in-memory pull runs bit for bit.
		blk, err := w.OutOfCore()
		if err != nil {
			return nil, err
		}
		ranks, stats, err := pr.PullBlocked(blk, opt)
		if err != nil {
			return nil, err
		}
		return &Report{Result: ranks, Stats: stats, Directions: uniformTrace(core.Pull, stats.Iterations)}, nil
	}
	// Pulling needs no synchronization at all (§3.1): the Auto default.
	dir := cfg.resolveDir(core.Pull)

	// Degree sorting swaps in the permuted pair of views. Only pulling
	// iterates in-edges, and Transpose/SortedTranspose return the graph
	// itself unless the workload is directed — so the in-CSR of a directed
	// graph is built lazily, for pull runs alone.
	views := pr.Views{Out: w.Graph()}
	ds := sortedView(w, cfg)
	if ds != nil {
		views.Out = ds.G
	}
	if dir == core.Pull {
		if ds != nil {
			views.In = w.SortedTranspose()
		} else {
			views.In = w.Transpose()
		}
	}
	if err := checkGraphs(views.Out, views.In); err != nil {
		return nil, err
	}

	if cfg.Probes {
		start := time.Now()
		prof, grp := core.CountingProfile(cfg.effectiveThreads(w.N()))
		var ranks []float64
		var err error
		if dir == core.Push {
			ranks, err = pr.PushProfiled(views, opt, prof, nil)
		} else {
			ranks, err = pr.PullProfiled(views, opt, prof, nil)
		}
		if err != nil {
			return nil, err
		}
		if ds != nil {
			ranks = unpermuteFloats(ds, ranks)
		}
		rep := grp.Report()
		iters := cfg.Iterations
		if iters <= 0 {
			iters = pr.DefaultIterations
		}
		// Wall time covers the whole instrumented pass (it includes the
		// probe bookkeeping, so it is slower than a plain run).
		return &Report{Result: ranks,
			Stats:      RunStats{Direction: dir, Iterations: iters, Elapsed: time.Since(start)},
			Directions: uniformTrace(dir, iters), Counters: &rep}, nil
	}

	var ranks []float64
	var stats core.RunStats
	if dir == core.Push {
		ranks, stats = pr.Push(views, opt)
	} else {
		ranks, stats = pr.Pull(views, opt)
	}
	if ds != nil {
		ranks = unpermuteFloats(ds, ranks)
	}
	return &Report{Result: ranks, Stats: stats, Directions: uniformTrace(dir, stats.Iterations)}, nil
}

// ---- Triangle counting ----

func runTC(ctx context.Context, w *Workload, cfg *Config) (*Report, error) {
	g := w.Graph()
	opt := tc.Options{Options: cfg.coreOptions(ctx)}
	// Pulling accumulates privately with no atomics (§4.9): Auto default.
	dir := cfg.resolveDir(core.Pull)

	if cfg.Probes {
		start := time.Now()
		prof, grp := core.CountingProfile(cfg.effectiveThreads(g.N()))
		var counts []int64
		var err error
		if dir == core.Push {
			counts, err = tc.PushProfiled(g, prof, nil)
		} else {
			counts, err = tc.PullProfiled(g, prof, nil)
		}
		if err != nil {
			return nil, err
		}
		rep := grp.Report()
		// The instrumented kernel is one deterministic pass; the wall
		// time includes the probe bookkeeping.
		return &Report{Result: counts,
			Stats:      RunStats{Direction: dir, Iterations: 1, Elapsed: time.Since(start)},
			Directions: uniformTrace(dir, 1), Counters: &rep}, nil
	}

	var counts []int64
	var stats core.RunStats
	if dir == core.Push {
		counts, stats = tc.Push(g, opt)
	} else {
		counts, stats = tc.Pull(g, opt)
	}
	return &Report{Result: counts, Stats: stats, Directions: uniformTrace(dir, stats.Iterations)}, nil
}

// ---- BFS ----

func runBFS(ctx context.Context, w *Workload, cfg *Config) (*Report, error) {
	if w.IsOutOfCore() {
		return runBFSBlocked(ctx, w, cfg)
	}
	// Source range is validated by the NeedsSource capability gate.
	g := w.Graph()
	mode := bfs.Auto // the direction-optimizing switch of Beamer et al.
	switch cfg.Direction {
	case Push:
		mode = bfs.ForcePush
	case Pull:
		mode = bfs.ForcePull
	}
	// Degree-sorted: the traversal runs on the permuted graph from the
	// permuted root and the tree is un-permuted at the boundary.
	ds := sortedView(w, cfg)
	root := cfg.Source
	if ds != nil {
		g = ds.G
		root = ds.Inv[root]
	}
	if cfg.Probes {
		// Auto stays supported: the Beamer heuristic decides from frontier
		// sizes, which the instrumented pass reproduces deterministically.
		prof, grp := core.CountingProfile(cfg.effectiveThreads(g.N()))
		tree, dirs, stats, err := bfs.TraverseFromProfiled(g, root, mode, cfg.coreOptions(ctx), prof, nil)
		if err != nil {
			return nil, err
		}
		if ds != nil {
			tree = unpermuteTree(ds, tree)
		}
		rep := grp.Report()
		return &Report{Result: tree, Stats: stats, Directions: coreTrace(dirs), Counters: &rep}, nil
	}
	tree, dirs, stats := bfs.TraverseFrom(g, root, mode, cfg.coreOptions(ctx))
	if ds != nil {
		tree = unpermuteTree(ds, tree)
	}
	return &Report{Result: tree, Stats: stats, Directions: coreTrace(dirs)}, nil
}

// runBFSBlocked runs BFS on a file handle: every round is a block-sequential
// bottom-up (pull) pass with a per-block frontier summary skipping cold
// blocks; validateCaps has already rejected ForcePush and probes. Levels match the
// in-memory kernels exactly; parents are valid tree edges (the
// deterministic block-scan order claims them, not a push race).
func runBFSBlocked(ctx context.Context, w *Workload, cfg *Config) (*Report, error) {
	bg, err := w.OutOfCore()
	if err != nil {
		return nil, err
	}
	tree, dirs, stats, err := bfs.TraverseBlocked(bg, cfg.Source, cfg.coreOptions(ctx))
	if err != nil {
		return nil, err
	}
	return &Report{Result: tree, Stats: stats, Directions: coreTrace(dirs)}, nil
}

// ---- SSSP ----

func runSSSP(ctx context.Context, w *Workload, cfg *Config) (*Report, error) {
	g := w.Graph()
	// Source range is validated by the NeedsSource capability gate.
	opt := sssp.Options{Options: cfg.coreOptions(ctx), Source: cfg.Source, Delta: cfg.Delta}
	// The weight check, the heuristic Δ and its light view are the
	// workload's, derived once; an explicit Δ derives its own light view
	// per run, never memoized.
	view := w.ssspView()
	if err := view.Err(); err != nil {
		return nil, fmt.Errorf("pushpull: sssp: %v: %w", err, ErrNeedsWeights)
	}
	if cfg.Delta == 0 {
		opt.View = view
	}
	if cfg.Probes {
		// A deterministic measurement pass needs a fixed direction; the
		// adaptive switcher's decisions come from runtime frontier costs
		// an instrumented replay should not depend on, so Auto takes the
		// push baseline (the trace reports what actually ran).
		prof, grp := core.CountingProfile(cfg.effectiveThreads(g.N()))
		var res *sssp.Result
		var err error
		if cfg.resolveDir(core.Push) == core.Push {
			res, err = sssp.PushProfiled(g, opt, prof, nil)
		} else {
			res, err = sssp.PullProfiled(g, opt, prof, nil)
		}
		if err != nil {
			return nil, err
		}
		if res.OverBudget {
			return nil, deltaOverBudget(cfg, g)
		}
		rep := grp.Report()
		return &Report{Result: res, Stats: res.Stats, Counters: &rep,
			Directions: uniformTrace(res.Stats.Direction, res.Stats.Iterations)}, nil
	}

	opt.Mode = sssp.Auto // per-round switching (§7.2)
	switch cfg.Direction {
	case Push:
		opt.Mode = sssp.ForcePush
	case Pull:
		opt.Mode = sssp.ForcePull
	}
	res := sssp.Run(g, opt)
	if res.OverBudget {
		return nil, deltaOverBudget(cfg, g)
	}
	return &Report{Result: res, Stats: res.Stats, Directions: coreTrace(res.Dirs)}, nil
}

// deltaOverBudget is the error of an sssp run that stopped because its Δ
// put a distance in a bucket past the kernels' budget of n + M buckets.
func deltaOverBudget(cfg *Config, g *Graph) error {
	return fmt.Errorf("pushpull: sssp WithDelta(%g): %w (delta too small for these distances: a bucket index would pass n + M = %d buckets; 0 picks the heuristic)",
		cfg.Delta, ErrBadOption, int64(g.N())+g.M())
}

// ---- Betweenness centrality ----

func runBC(ctx context.Context, w *Workload, cfg *Config) (*Report, error) {
	// Source ranges are validated by the NeedsSource capability gate.
	g := w.Graph()
	opt := bc.Options{Options: cfg.coreOptions(ctx), Sources: cfg.Sources}
	dir := cfg.resolveDir(core.Push) // bc defaults to push (§3.5 baseline)
	if dir == core.Push {
		opt.Mode = bfs.ForcePush
	} else {
		opt.Mode = bfs.ForcePull
	}
	if cfg.Probes {
		prof, grp := core.CountingProfile(cfg.effectiveThreads(g.N()))
		res, err := bc.RunProfiled(g, opt, prof, nil)
		if err != nil {
			return nil, err
		}
		res.Stats.Direction = dir
		rep := grp.Report()
		return &Report{Result: res, Stats: res.Stats,
			Directions: uniformTrace(dir, res.Stats.Iterations), Counters: &rep}, nil
	}
	res := bc.Run(g, opt)
	res.Stats.Direction = dir
	return &Report{Result: res, Stats: res.Stats, Directions: uniformTrace(dir, res.Stats.Iterations)}, nil
}

// ---- Graph coloring ----

func runGC(ctx context.Context, w *Workload, cfg *Config) (*Report, error) {
	g := w.Graph()
	// A switching policy turns the run into Frontier-Exploit steered by
	// that policy (Generic-Switch / Greedy-Switch, §5); probes carry over.
	if cfg.Switch != nil {
		return runGCFE(ctx, w, cfg)
	}
	opt := gc.Options{Options: cfg.coreOptions(ctx), MaxIters: cfg.MaxIters}
	dir := cfg.resolveDir(core.Push) // push maintains the exact dirty set
	// Degree sorting runs the coloring over the permuted graph; the colors
	// are un-permuted at the boundary. The permuted run may pick different
	// (still proper) colors than a plain one: iteration order is part of
	// Boman coloring's outcome.
	ds := sortedView(w, cfg)
	if ds != nil {
		g = ds.G
	}
	part := NewPartition(g.N(), cfg.partitions(g.N()))

	if cfg.Probes {
		t, tErr := partitionProfileThreads("gc", cfg, part.P)
		if tErr != nil {
			return nil, tErr
		}
		start := time.Now()
		prof, grp := core.CountingProfile(t)
		var res *gc.ProfiledResult
		var err error
		if dir == core.Push {
			res, err = gc.PushProfiled(g, part, opt, prof, nil)
		} else {
			res, err = gc.PullProfiled(g, part, opt, prof, nil)
		}
		if err != nil {
			return nil, err
		}
		colors := res.Colors
		if ds != nil {
			colors = unpermuteColors(ds, colors)
		}
		rep := grp.Report()
		return &Report{
			Result:     &gc.Result{Colors: colors, Iterations: res.Iterations, NumColors: gc.CountColors(colors)},
			Stats:      RunStats{Direction: dir, Iterations: res.Iterations, Elapsed: time.Since(start)},
			Directions: uniformTrace(dir, res.Iterations),
			Counters:   &rep,
		}, nil
	}

	var res *gc.Result
	var err error
	if dir == core.Push {
		res, err = gc.Push(g, part, opt)
	} else {
		res, err = gc.Pull(g, part, opt)
	}
	if err != nil {
		return nil, err
	}
	if ds != nil {
		res = unpermuteColoring(ds, res)
	}
	return &Report{Result: res, Stats: res.Stats, Directions: uniformTrace(dir, res.Stats.Iterations)}, nil
}

func runGCFE(ctx context.Context, w *Workload, cfg *Config) (*Report, error) {
	g := w.Graph()
	opt := gc.Options{Options: cfg.coreOptions(ctx), MaxIters: cfg.MaxIters}
	dir := cfg.resolveDir(core.Push)
	ds := sortedView(w, cfg)
	if ds != nil {
		g = ds.G
	}
	// The built-in policies are re-instantiated per run: GenericSwitch
	// latches one-shot state after flipping, so handing the caller's
	// pointer straight to the algorithm would silently disable switching
	// on every reuse (and race under concurrent Runs). A GreedySwitch
	// without a Total measures its Fraction against the graph's vertex
	// count; left at zero it would never switch.
	policy := cfg.Switch
	switch p := policy.(type) {
	case *core.GenericSwitch:
		policy = &core.GenericSwitch{Threshold: p.Threshold}
	case *core.GreedySwitch:
		total := p.Total
		if total <= 0 {
			total = g.N()
		}
		policy = &core.GreedySwitch{Fraction: p.Fraction, Total: total}
	}
	if cfg.Probes {
		prof, grp := core.CountingProfile(cfg.effectiveThreads(g.N()))
		res, err := gc.FrontierExploitProfiled(g, opt, dir, policy, prof, nil)
		if err != nil {
			return nil, err
		}
		if ds != nil {
			res = unpermuteColoring(ds, res)
		}
		rep := grp.Report()
		return &Report{Result: res, Stats: res.Stats, Directions: coreTrace(res.Dirs), Counters: &rep}, nil
	}
	res := gc.FrontierExploit(g, opt, dir, policy)
	if ds != nil {
		res = unpermuteColoring(ds, res)
	}
	// The trace records each iteration's actual direction, so a
	// GenericSwitch flip mid-run is visible in Directions.
	return &Report{Result: res, Stats: res.Stats, Directions: coreTrace(res.Dirs)}, nil
}

func runGCCR(ctx context.Context, w *Workload, cfg *Config) (*Report, error) {
	g := w.Graph()
	opt := gc.Options{Options: cfg.coreOptions(ctx), MaxIters: cfg.MaxIters}
	part := NewPartition(g.N(), cfg.partitions(g.N()))
	if cfg.Probes {
		t, tErr := partitionProfileThreads("gc-cr", cfg, part.P)
		if tErr != nil {
			return nil, tErr
		}
		prof, grp := core.CountingProfile(t)
		res, err := gc.ConflictRemovalProfiled(g, part, opt, prof, nil)
		if err != nil {
			return nil, err
		}
		rep := grp.Report()
		return &Report{Result: res, Stats: res.Stats,
			Directions: uniformTrace(core.Push, res.Stats.Iterations), Counters: &rep}, nil
	}
	res, err := gc.ConflictRemoval(g, part, opt)
	if err != nil {
		return nil, err
	}
	return &Report{Result: res, Stats: res.Stats,
		Directions: uniformTrace(core.Push, res.Stats.Iterations)}, nil
}

// ---- MST ----

func runMST(ctx context.Context, w *Workload, cfg *Config) (*Report, error) {
	g := w.Graph()
	opt := mst.Options{Options: cfg.coreOptions(ctx)}
	// Pulling writes only owned slots, avoiding the O(n²) push-side lock
	// conflicts of §4.7: the Auto default.
	dir := cfg.resolveDir(core.Pull)
	if cfg.Probes {
		prof, grp := core.CountingProfile(cfg.effectiveThreads(g.N()))
		res, err := mst.BoruvkaProfiled(g, opt, dir, prof, nil)
		if err != nil {
			return nil, err
		}
		rep := grp.Report()
		return &Report{Result: res, Stats: res.Stats,
			Directions: uniformTrace(dir, res.Stats.Iterations), Counters: &rep}, nil
	}
	res := mst.Boruvka(g, opt, dir)
	return &Report{Result: res, Stats: res.Stats, Directions: uniformTrace(dir, res.Stats.Iterations)}, nil
}
