package pushpull

// The built-in algorithm adapters and the one run boundary they share.
// builtin.Run decides the run's layout, builds the views its kernels read
// in it, un-permutes the payload and assembles the Report; each adapter
// only lowers the uniform Config onto one internal algorithm package and
// calls its fast kernel or its instrumented twin. They are the only glue
// between the public facade and internal/algo.

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
	"pushpull/internal/counters"
	"pushpull/internal/graph"
)

// builtin implements Algorithm around an adapter and a static capability
// declaration.
type builtin struct {
	name string
	desc string
	caps Caps
	// dir is the direction Auto resolves to for a run in one fixed
	// direction. bfs and sssp read Auto as per-round switching.
	dir core.Direction
	// pullView marks pr, whose pulls gather along in-rows: the transpose,
	// or in the relabelled layout the degree-ordered pull view, which a
	// served handle's pulls read unasked.
	pullView bool
	run      func(p *pass) (outcome, error)
}

// A pass is what the boundary hands an adapter: the run's context and
// options, the direction Auto resolved to, the probe profile of an
// instrumented run, and the views its kernels read, in the run's layout.
type pass struct {
	ctx  context.Context
	w    *Workload
	cfg  *Config
	dir  core.Direction
	prof core.Profile // probed runs only

	g      *Graph          // out-rows; a directed pr pull view has none
	in     *Graph          // a pr pull's in-rows
	outDeg []uint32        // a directed degree-ordered pull view's out-degrees
	blk    *graph.BlockCSR // a file handle's block view, which holds no other
	rl     *relabelling    // nil: the graph's own ids
}

// An outcome is what an adapter's kernel returned: the payload in the
// run's layout, its statistics, and the direction of every iteration of a
// run that may switch (nil: each ran stats.Direction).
type outcome struct {
	result any
	stats  core.RunStats
	dirs   []core.Direction
}

// trace lifts the direction of every iteration into the public trace.
func (o *outcome) trace() []Direction {
	n := len(o.dirs)
	if o.dirs == nil {
		n = o.stats.Iterations
	}
	out := make([]Direction, n)
	for i := range out {
		d := o.stats.Direction
		if o.dirs != nil {
			d = o.dirs[i]
		}
		out[i] = dirFromCore(d)
	}
	return out
}

func (b *builtin) Name() string     { return b.name }
func (b *builtin) Describe() string { return b.desc }
func (b *builtin) Caps() Caps       { return b.caps }

// Run is the boundary every built-in run crosses.
func (b *builtin) Run(ctx context.Context, w *Workload, cfg *Config) (*Report, error) {
	p := &pass{ctx: ctx, w: w, cfg: cfg, dir: cfg.resolveDir(b.dir)}
	pullView := b.pullView && p.dir == core.Pull
	if err := p.views(pullView, b.relabels(w, cfg, pullView)); err != nil {
		return nil, err
	}
	var grp *counters.Group
	if cfg.Probes {
		p.prof, grp = core.CountingProfile(cfg.effectiveThreads(w.N()))
	}
	start := time.Now()
	out, err := b.run(p)
	if err != nil {
		return nil, err
	}
	rep := &Report{Result: out.result, Stats: out.stats, Directions: out.trace()}
	if p.rl != nil {
		rep.Result = p.rl.unpermute(out.result)
	}
	if grp != nil {
		c := grp.Report()
		rep.Counters = &c
		// The wall time covers the whole instrumented pass, probe
		// bookkeeping included, so it is slower than a plain run.
		rep.Stats.Elapsed = time.Since(start)
	}
	return rep, nil
}

// relabels is the one layout decision of a built-in run: whether its
// kernels read the handle's degree relabelling in place of the graph's
// own ids. WithDegreeSorted asks for it where the Caps allow it, and a pr
// pull on a served handle takes it unasked, since repeated runs pay back
// the pull view's one build. Where the pull view cannot be built
// (graph.PullFits), pr pulls along the transpose instead, whose ranks are
// the same bits. Probed runs decide as unprobed ones do.
func (b *builtin) relabels(w *Workload, cfg *Config, pullView bool) bool {
	if w.IsOutOfCore() || pullView && !graph.PullFits(w.g, w.directed) {
		return false
	}
	return cfg.DegreeSorted && b.caps.DegreeSort || pullView && w.served.Load()
}

// views builds what the run's kernels read: a file handle's block view;
// else, relabelled, the degree-ordered pull view for a pr pull and the
// degree-sorted rows for any other run; else the graph, and for a pr pull
// its transpose. Every CSR view passes Check once.
func (p *pass) views(pullView, relabel bool) error {
	w := p.w
	switch {
	case w.IsOutOfCore():
		var err error
		p.blk, err = w.OutOfCore()
		return err
	case relabel && pullView:
		dp, err := w.degreePull()
		if err != nil {
			return err
		}
		p.in, p.outDeg = dp.In, dp.OutDeg
		if dp.OutDeg == nil {
			p.g = dp.In // an undirected view's row lengths are its out-degrees
		}
	case relabel:
		p.g = w.DegreeSorted().G
	default:
		p.g = w.Graph()
		if pullView {
			p.in = w.Transpose()
		}
	}
	if relabel {
		p.rl = w.relabelling()
	}
	return checkGraphs(p.g, p.in)
}

// unpermute lifts a payload computed in the relabelled layout back to the
// graph's own ids, with one rule per payload a relabelled run returns:
// ranks and colors move with their vertex; a bfs tree's levels move with
// their vertex, and its parents, being vertex ids, map through perm too,
// keeping an unreached vertex's -1.
func (rl *relabelling) unpermute(res any) any {
	switch r := res.(type) {
	case []float64:
		return permuted(rl.perm, r)
	case *bfs.Tree:
		out := &bfs.Tree{Parent: permuted(rl.perm, r.Parent), Level: permuted(rl.perm, r.Level)}
		for v, p := range out.Parent {
			if p >= 0 {
				out.Parent[v] = rl.perm[p]
			}
		}
		return out
	case *gc.Result:
		out := *r
		out.Colors = permuted(rl.perm, r.Colors)
		return &out
	}
	panic(fmt.Sprintf("pushpull: no relabelling rule for a %T payload", res))
}

// permuted moves each value from its new id to its old: out[perm[new]] =
// in[new].
func permuted[T any](perm []V, in []T) []T {
	out := make([]T, len(in))
	for nw, old := range perm {
		out[old] = in[nw]
	}
	return out
}

func init() {
	for _, b := range []*builtin{
		{"pr", "PageRank (§3.1, Algorithm 1; one kernel per direction, a directed workload only changes the views §4.8; push scatters the row chunks dealt to each worker into its private accumulator, no atomics; out-of-core block pull)",
			Caps{Directed: true, Probes: true, DegreeSort: true, OutOfCore: true}, core.Pull, true, runPR},
		{"tc", "triangle counting (§3.2, Algorithm 2; push combines a pair's hits into one atomic)",
			Caps{Probes: true}, core.Pull, false, runTC},
		{"bfs", "generalized breadth-first search (§3.3, Algorithm 3; Auto = direction-optimizing; out-of-core block pull)",
			Caps{NeedsSource: true, Probes: true, DegreeSort: true, OutOfCore: true}, core.Push, false, runBFS},
		{"sssp", "Δ-stepping shortest paths (§3.4, Algorithm 4; Auto = adaptive switching)",
			Caps{NeedsWeights: true, NeedsSource: true, Probes: true}, core.Push, false, runSSSP},
		{"bc", "Brandes betweenness centrality (§3.5, Algorithm 5)",
			Caps{NeedsSource: true, Probes: true}, core.Push, false, runBC},
		{"gc", "Boman graph coloring (§3.6, Algorithm 6; WithSwitchPolicy = Frontier-Exploit+GS/GrS §5)",
			Caps{Probes: true, DegreeSort: true}, core.Push, false, runGC},
		{"gc-fe", "Frontier-Exploit coloring (§5), optionally with a switch policy",
			Caps{Probes: true, DegreeSort: true}, core.Push, false, runGCFE},
		{"gc-cr", "Conflict-Removal coloring (§5, Algorithm 9)",
			Caps{Probes: true}, core.Push, false, runGCCR},
		{"mst", "Borůvka minimum spanning tree (§3.7, Algorithm 7)",
			Caps{NeedsWeights: true, Probes: true}, core.Pull, false, runMST},
	} {
		MustRegister(b)
	}
}

// ---- PageRank ----

// runPR is the one PageRank adapter, pulling by default: pulling needs no
// synchronization at all (§3.1). There is one kernel per direction
// (§4.8): a directed workload changes only the views the kernel is
// handed, out-rows to push along and in-rows to pull along, and an
// undirected one hands the same graph as both. The push kernel scatters
// into per-worker private accumulators, with no remote atomic; probed, it
// bills Algorithm 1. A file handle runs the block pull kernel, whose
// ranks equal in-memory pull runs bit for bit.
func runPR(p *pass) (outcome, error) {
	cfg := p.cfg
	opt := pr.Options{Options: cfg.coreOptions(p.ctx), Iterations: cfg.Iterations}
	if cfg.DampingSet {
		opt.SetDamping(cfg.Damping)
	}
	if p.blk != nil {
		ranks, stats, err := pr.PullBlocked(p.blk, opt)
		return outcome{result: ranks, stats: stats}, err
	}
	views := pr.Views{Out: p.g, In: p.in, OutDeg: p.outDeg}
	if !cfg.Probes {
		kernel := pr.Pull
		if p.dir == core.Push {
			kernel = pr.Push
		}
		ranks, stats := kernel(views, opt)
		return outcome{result: ranks, stats: stats}, nil
	}
	kernel := pr.PullProfiled
	if p.dir == core.Push {
		kernel = pr.PushProfiled
	}
	ranks, err := kernel(views, opt, p.prof, nil)
	iters := cfg.Iterations
	if iters <= 0 {
		iters = pr.DefaultIterations
	}
	return outcome{result: ranks, stats: core.RunStats{Direction: p.dir, Iterations: iters}}, err
}

// ---- Triangle counting ----

// runTC pulls by default: pulling accumulates privately with no atomics
// (§4.9). The instrumented kernel is one deterministic pass.
func runTC(p *pass) (outcome, error) {
	if !p.cfg.Probes {
		kernel := tc.Pull
		if p.dir == core.Push {
			kernel = tc.Push
		}
		counts, stats := kernel(p.g, tc.Options{Options: p.cfg.coreOptions(p.ctx)})
		return outcome{result: counts, stats: stats}, nil
	}
	kernel := tc.PullProfiled
	if p.dir == core.Push {
		kernel = tc.PushProfiled
	}
	counts, err := kernel(p.g, p.prof, nil)
	return outcome{result: counts, stats: core.RunStats{Direction: p.dir, Iterations: 1}}, err
}

// ---- BFS ----

// runBFS runs Auto as the direction-optimizing switch of Beamer et al.,
// which the instrumented pass reproduces deterministically, since the
// heuristic decides from frontier sizes. The source is validated by the
// NeedsSource capability gate and, relabelled, renumbered with the graph.
// A file handle runs every round as a block-sequential bottom-up pass
// that skips cold blocks; its levels match the in-memory kernels exactly,
// and its parents are valid tree edges, claimed in block-scan order.
func runBFS(p *pass) (outcome, error) {
	if p.blk != nil {
		tree, dirs, stats, err := bfs.TraverseBlocked(p.blk, p.cfg.Source, p.cfg.coreOptions(p.ctx))
		return outcome{result: tree, stats: stats, dirs: dirs}, err
	}
	mode := bfs.Auto
	switch p.cfg.Direction {
	case Push:
		mode = bfs.ForcePush
	case Pull:
		mode = bfs.ForcePull
	}
	root := p.cfg.Source
	if p.rl != nil {
		root = p.rl.inv[root]
	}
	if !p.cfg.Probes {
		tree, dirs, stats := bfs.TraverseFrom(p.g, root, mode, p.cfg.coreOptions(p.ctx))
		return outcome{result: tree, stats: stats, dirs: dirs}, nil
	}
	tree, dirs, stats, err := bfs.TraverseFromProfiled(p.g, root, mode, p.cfg.coreOptions(p.ctx), p.prof, nil)
	return outcome{result: tree, stats: stats, dirs: dirs}, err
}

// ---- SSSP ----

// runSSSP switches per round under Auto (§7.2). The weight check, the
// heuristic Δ and its light view are the workload's, derived once; an
// explicit Δ derives its own light view per run, never memoized. A
// deterministic measurement pass needs a fixed direction: the adaptive
// switcher decides from runtime frontier costs an instrumented replay
// should not depend on, so a probed Auto takes the push baseline.
func runSSSP(p *pass) (outcome, error) {
	cfg := p.cfg
	opt := sssp.Options{Options: cfg.coreOptions(p.ctx), Source: cfg.Source, Delta: cfg.Delta}
	view := p.w.ssspView()
	if err := view.Err(); err != nil {
		return outcome{}, fmt.Errorf("pushpull: sssp: %v: %w", err, ErrNeedsWeights)
	}
	if cfg.Delta == 0 {
		opt.View = view
	}
	var res *sssp.Result
	var err error
	switch {
	case !cfg.Probes:
		opt.Mode = sssp.Auto
		switch cfg.Direction {
		case Push:
			opt.Mode = sssp.ForcePush
		case Pull:
			opt.Mode = sssp.ForcePull
		}
		res = sssp.Run(p.g, opt)
	case p.dir == core.Push:
		res, err = sssp.PushProfiled(p.g, opt, p.prof, nil)
	default:
		res, err = sssp.PullProfiled(p.g, opt, p.prof, nil)
	}
	if err != nil {
		return outcome{}, err
	}
	if res.OverBudget {
		return outcome{}, fmt.Errorf("pushpull: sssp WithDelta(%g): %w (delta too small for these distances: a bucket index would pass n + M = %d buckets; 0 picks the heuristic)",
			cfg.Delta, ErrBadOption, int64(p.g.N())+p.g.M())
	}
	return outcome{result: res, stats: res.Stats, dirs: res.Dirs}, nil
}

// ---- Betweenness centrality ----

// runBC pushes by default, the §3.5 baseline. The sources are validated
// by the NeedsSource capability gate.
func runBC(p *pass) (outcome, error) {
	opt := bc.Options{Options: p.cfg.coreOptions(p.ctx), Sources: p.cfg.Sources, Mode: bfs.ForcePush}
	if p.dir == core.Pull {
		opt.Mode = bfs.ForcePull
	}
	var res *bc.Result
	var err error
	if !p.cfg.Probes {
		res = bc.Run(p.g, opt)
	} else {
		res, err = bc.RunProfiled(p.g, opt, p.prof, nil)
	}
	if err != nil {
		return outcome{}, err
	}
	res.Stats.Direction = p.dir
	return outcome{result: res, stats: res.Stats}, nil
}

// ---- Graph coloring ----

// runGC pushes by default, since push maintains the exact dirty set. One
// worker owns each partition, so the thread count is the partition
// count. In the relabelled layout the coloring may pick other (still
// proper) colors than a plain run: iteration order is part of Boman
// coloring's outcome. A switching policy turns the run into
// Frontier-Exploit steered by that policy (Generic-Switch /
// Greedy-Switch, §5); probes carry over.
func runGC(p *pass) (outcome, error) {
	if p.cfg.Switch != nil {
		return runGCFE(p)
	}
	opt := gc.Options{Options: p.cfg.coreOptions(p.ctx), MaxIters: p.cfg.MaxIters}
	part := NewPartition(p.g.N(), p.cfg.effectiveThreads(p.g.N()))
	if !p.cfg.Probes {
		kernel := gc.Pull
		if p.dir == core.Push {
			kernel = gc.Push
		}
		res, err := kernel(p.g, part, opt)
		if err != nil {
			return outcome{}, err
		}
		return outcome{result: res, stats: res.Stats}, nil
	}
	kernel := gc.PullProfiled
	if p.dir == core.Push {
		kernel = gc.PushProfiled
	}
	res, err := kernel(p.g, part, opt, p.prof, nil)
	if err != nil {
		return outcome{}, err
	}
	return outcome{
		result: &gc.Result{Colors: res.Colors, Iterations: res.Iterations, NumColors: gc.CountColors(res.Colors)},
		stats:  core.RunStats{Direction: p.dir, Iterations: res.Iterations},
	}, nil
}

// runGCFE records each iteration's actual direction, so a GenericSwitch
// flip mid-run shows in the trace. The built-in policies are
// re-instantiated per run: GenericSwitch latches one-shot state after
// flipping, so handing the caller's pointer straight to the algorithm
// would silently disable switching on every reuse (and race under
// concurrent Runs). A GreedySwitch without a Total measures its Fraction
// against the graph's vertex count; left at zero it would never switch.
func runGCFE(p *pass) (outcome, error) {
	opt := gc.Options{Options: p.cfg.coreOptions(p.ctx), MaxIters: p.cfg.MaxIters}
	policy := p.cfg.Switch
	switch s := policy.(type) {
	case *core.GenericSwitch:
		policy = &core.GenericSwitch{Threshold: s.Threshold}
	case *core.GreedySwitch:
		total := s.Total
		if total <= 0 {
			total = p.g.N()
		}
		policy = &core.GreedySwitch{Fraction: s.Fraction, Total: total}
	}
	var res *gc.Result
	var err error
	if !p.cfg.Probes {
		res = gc.FrontierExploit(p.g, opt, p.dir, policy)
	} else {
		res, err = gc.FrontierExploitProfiled(p.g, opt, p.dir, policy, p.prof, nil)
	}
	if err != nil {
		return outcome{}, err
	}
	return outcome{result: res, stats: res.Stats, dirs: res.Dirs}, nil
}

// runGCCR always pushes, one worker per partition.
func runGCCR(p *pass) (outcome, error) {
	opt := gc.Options{Options: p.cfg.coreOptions(p.ctx), MaxIters: p.cfg.MaxIters}
	part := NewPartition(p.g.N(), p.cfg.effectiveThreads(p.g.N()))
	var res *gc.Result
	var err error
	if !p.cfg.Probes {
		res, err = gc.ConflictRemoval(p.g, part, opt)
	} else {
		res, err = gc.ConflictRemovalProfiled(p.g, part, opt, p.prof, nil)
	}
	if err != nil {
		return outcome{}, err
	}
	return outcome{result: res, stats: res.Stats}, nil
}

// ---- MST ----

// runMST pulls by default: pulling writes only owned slots, avoiding the
// O(n²) push-side lock conflicts of §4.7.
func runMST(p *pass) (outcome, error) {
	opt := mst.Options{Options: p.cfg.coreOptions(p.ctx)}
	var res *mst.Result
	var err error
	if !p.cfg.Probes {
		res = mst.Boruvka(p.g, opt, p.dir)
	} else {
		res, err = mst.BoruvkaProfiled(p.g, opt, p.dir, p.prof, nil)
	}
	if err != nil {
		return outcome{}, err
	}
	return outcome{result: res, stats: res.Stats}, nil
}
