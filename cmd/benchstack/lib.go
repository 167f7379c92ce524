package main

import (
	"fmt"
	"math"
	"os"
	"strings"
	"time"

	"pushpull"
)

// The library workloads: pushpull.Run called directly on a warm handle.
// One operation is one cycle pr(10 iterations) → bfs → sssp → gc-fe in
// the workload's direction at nproc threads; lib-pull adds a pull-pr
// over a buffered block-file handle to every cycle.

const (
	prIterations = 10
	libDamping   = 0.85 // passed explicitly so that prMass can follow it
)

func runLibPush(r *run) error { return runLib(r, pushpull.Push) }
func runLibPull(r *run) error { return runLib(r, pushpull.Pull) }

// libAlgs is the cycle, in order, with the metric stem of each step.
var libAlgs = []struct{ alg, stem string }{
	{"pr", "pr"}, {"bfs", "bfs"}, {"sssp", "sssp"}, {"gc-fe", "gcfe"},
}

// libState is what a cycle needs: the handle, the reference payloads of
// the opposite direction, and per-step samples for the traced pass.
type libState struct {
	r       *run
	dir     pushpull.Direction
	g       *pushpull.Graph
	w       *pushpull.Workload
	ooc     *pushpull.Workload // lib-pull only
	src     pushpull.V
	refPR   []float64
	mass    float64 // what the ranks must sum to
	refBFS  []int32
	reached int

	blkPut, blkOpen time.Duration // lib-pull only

	wall   map[string][]float64 // stem → Run wall times, ns
	kernel map[string][]float64 // stem → Stats.Elapsed, ns
	iters  map[string]float64
	facade []float64 // wall − kernel per Run, µs
}

func opposite(d pushpull.Direction) pushpull.Direction {
	if d == pushpull.Push {
		return pushpull.Pull
	}
	return pushpull.Push
}

func runLib(r *run, dir pushpull.Direction) error {
	g, err := r.graph("G18", scaleG18, r.cfg.seed)
	if err != nil {
		return err
	}
	ref := &libState{r: r, dir: dir, g: g, src: r.source(g), mass: prMass(g, libDamping, prIterations)}

	// The other direction's payloads are the correctness reference: push
	// and pull must agree on every cycle. Computing them is the
	// benchmark's work, not the library's set-up.
	w := pushpull.NewWorkload(g, pushpull.AsWeighted())
	rep, err := pushpull.Run(r.ctx, w, "pr", ref.opts(opposite(dir), r.nproc)...)
	if err != nil {
		return fmt.Errorf("reference pr: %w", err)
	}
	ref.refPR = rep.Ranks()
	rep, err = pushpull.Run(r.ctx, w, "bfs", ref.opts(opposite(dir), r.nproc)...)
	if err != nil {
		return fmt.Errorf("reference bfs: %w", err)
	}
	ref.refBFS = rep.Tree().Level
	for _, l := range ref.refBFS {
		if l >= 0 {
			ref.reached++
		}
	}

	s, setup, err := setups(r, ref.setUp, (*libState).close)
	if err != nil {
		return err
	}
	defer s.close()

	seconds := r.cfg.seconds
	if r.cfg.trace {
		seconds /= 2 // the other half goes to the kernel probes below
		r.tr.on.Store(true)
	}
	p := r.loop(seconds, func(p *phase, _ int) { s.cycle(p) })
	r.endToEnd(p, setup)
	if !r.cfg.trace {
		return nil
	}

	r.tail(p)
	m := float64(g.M())
	for _, a := range libAlgs {
		div := m
		if a.alg == "pr" {
			div *= prIterations
		}
		r.set("kernel."+a.stem+"_ns_per_edge", median(s.kernel[a.stem])/div)
		r.set("kernel."+a.stem+"_iterations", s.iters[a.stem])
	}
	if s.ooc != nil {
		r.set("kernel.pr_ooc_ns_per_edge", median(s.kernel["pr_ooc"])/(m*prIterations))
		r.set("store.blk_put_ms", ms(s.blkPut))
		r.set("workload.block_open_ms", ms(s.blkOpen))
	}
	var wallSum, kernelSum float64
	for stem, ws := range s.wall {
		for i, w := range ws {
			wallSum += w
			kernelSum += s.kernel[stem][i]
		}
	}
	r.set("kernel.busy_share", kernelSum/wallSum)
	r.set("facade.run_overhead_us", median(s.facade))
	r.set("trace.unattributed_share", 1-kernelSum/wallSum)
	return s.probes()
}

// setUp is what a caller of the library does before its first timed Run:
// a handle on the graph, on lib-pull the block file written and reopened
// buffered, and every kernel of the cycle once, which builds the derived
// views and pays the first-touch page faults.
func (ref *libState) setUp() (*libState, error) {
	r := ref.r
	s := *ref
	s.w = pushpull.NewWorkload(s.g, pushpull.AsWeighted())
	s.wall, s.kernel, s.iters = map[string][]float64{}, map[string][]float64{}, map[string]float64{}
	if s.dir == pushpull.Pull {
		dir, err := os.MkdirTemp(r.dir, "blk")
		if err != nil {
			return nil, err
		}
		ds, err := pushpull.NewDiskStore(dir, pushpull.WithBlockThreshold(1), pushpull.WithBufferedBlocks())
		if err != nil {
			return nil, err
		}
		t := time.Now()
		if err := ds.Put("g18", s.w); err != nil {
			return nil, err
		}
		s.blkPut = time.Since(t)
		t = time.Now()
		ooc, ok, err := ds.OutOfCoreHandle("g18")
		if err != nil || !ok {
			return nil, fmt.Errorf("reopening the block file: ok=%v err=%v", ok, err)
		}
		s.blkOpen = time.Since(t)
		s.ooc = ooc
	}
	for _, a := range libAlgs {
		opts := append(s.opts(s.dir, r.nproc), pushpull.WithIterations(1))
		if _, err := pushpull.Run(r.ctx, s.w, a.alg, opts...); err != nil {
			s.close()
			return nil, fmt.Errorf("warm-up %s: %w", a.alg, err)
		}
	}
	return &s, nil
}

func (s *libState) close() {
	if s.ooc != nil {
		s.ooc.Close()
	}
	s.w.Close()
}

// opts is the option set of one Run in the cycle.
func (s *libState) opts(dir pushpull.Direction, threads int) []pushpull.Option {
	return []pushpull.Option{
		pushpull.WithDirection(dir), pushpull.WithThreads(threads),
		pushpull.WithIterations(prIterations), pushpull.WithDamping(libDamping), pushpull.WithSource(s.src),
	}
}

// timed runs one algorithm and records its wall and kernel time.
func (s *libState) timed(stem string, on pushpull.Runnable, alg string, opts ...pushpull.Option) (*pushpull.Report, time.Duration, error) {
	r := s.r
	start := time.Now()
	rep, err := pushpull.Run(r.ctx, on, alg, opts...)
	end := time.Now()
	wall := end.Sub(start)
	if err != nil {
		return nil, wall, err
	}
	s.wall[stem] = append(s.wall[stem], float64(wall))
	s.kernel[stem] = append(s.kernel[stem], float64(rep.Stats.Elapsed))
	s.iters[stem] = float64(rep.Stats.Iterations)
	s.facade = append(s.facade, float64(wall-rep.Stats.Elapsed)/1e3)
	if id := r.tr.record("client.run_"+stem, start, end); id >= 0 {
		r.tr.report(id, "kernel."+stem, rep.Stats.Elapsed)
	}
	return rep, wall, nil
}

// cycle is one operation: the four Runs (five on lib-pull), each checked
// against the other direction's payload. The operation's latency is the
// sum of the Run wall times; the checks are the client's own work.
func (s *libState) cycle(p *phase) {
	r := s.r
	r.attempt()
	var lat time.Duration
	var why []string
	bad := func(format string, args ...any) { why = append(why, fmt.Sprintf(format, args...)) }
	var prRanks []float64
	for _, a := range libAlgs {
		rep, wall, err := s.timed(a.stem, s.w, a.alg, s.opts(s.dir, r.nproc)...)
		lat += wall
		p.split()
		if err != nil {
			bad("Run %s: %v", a.alg, err)
			continue
		}
		switch a.alg {
		case "pr":
			prRanks = rep.Ranks()
			if d := pushpull.MaxDiff(prRanks, s.refPR); !(d <= 1e-6) {
				bad("pr %v vs %v ranks differ by %g", s.dir, opposite(s.dir), d)
			}
			if sum := pushpull.SumFloats(prRanks); !(math.Abs(sum-s.mass) <= 1e-9) {
				bad("pr ranks sum to %.12g, want %.12g", sum, s.mass)
			}
		case "bfs":
			if !equalLevels(rep.Tree().Level, s.refBFS) {
				bad("bfs %v levels differ from %v", s.dir, opposite(s.dir))
			}
		case "sssp":
			// Same source, same component: sssp must reach exactly the
			// vertices bfs reached, at distance 0 from the source.
			dist := rep.Ranks()
			reached := 0
			for _, d := range dist {
				if !math.IsInf(d, 0) {
					reached++
				}
			}
			if reached != s.reached || dist[s.src] != 0 {
				bad("sssp reached %d vertices, bfs %d; dist[source]=%g", reached, s.reached, dist[s.src])
			}
		case "gc-fe":
			if err := pushpull.ValidateColoring(s.g, rep.Colors()); err != nil {
				bad("gc-fe colouring: %v", err)
			}
		}
	}
	if s.ooc != nil {
		rep, wall, err := s.timed("pr_ooc", s.ooc, "pr", s.opts(pushpull.Pull, r.nproc)...)
		lat += wall
		if err != nil {
			bad("Run pr over .blk: %v", err)
		} else if d := pushpull.MaxDiff(rep.Ranks(), prRanks); prRanks == nil || !(d <= 1e-9) {
			bad("pr over .blk differs from in-memory pr by %g", d)
		}
	}
	if len(why) > 0 {
		r.fail("%s", strings.Join(why, "; "))
		return
	}
	p.done(lat)
}

// prMass is what pr's ranks sum to after iters iterations. The kernels
// do not redistribute the rank of vertices without out-edges, so the sum
// is 1 only on a graph that has none; otherwise it follows the recurrence
// S' = (1−d) + d·(S − rank held by such vertices), with S = 1 at the start.
// g must be symmetric (a dangling vertex is then an isolated one, whose
// rank is the teleport term alone).
func prMass(g *pushpull.Graph, damping float64, iters int) float64 {
	n := float64(g.N())
	var isolated float64
	for v := 0; v < g.N(); v++ {
		if g.Degree(pushpull.V(v)) == 0 {
			isolated++
		}
	}
	sum, held := 1.0, isolated/n
	for i := 0; i < iters; i++ {
		sum = (1 - damping) + damping*(sum-held)
		held = isolated * (1 - damping) / n
	}
	return sum
}

func equalLevels(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// probes are the direct timed calls of the traced pass: the
// single-thread baseline, the degree-sorted layout, and on the old
// trajectory's graph (G16) tc/bc/mst and the same pr for the size ratio
// (ns/edge on G18 ÷ on G16: above 1 where memory, not arithmetic, bounds
// the kernel).
func (s *libState) probes() error {
	r := s.r
	m := float64(s.g.M()) * prIterations
	kernelNS := func(on pushpull.Runnable, alg string, opts ...pushpull.Option) (float64, error) {
		var best []float64
		for i := 0; i < r.reps(2); i++ {
			rep, err := pushpull.Run(r.ctx, on, alg, opts...)
			if err != nil {
				return 0, fmt.Errorf("probe %s: %w", alg, err)
			}
			best = append(best, float64(rep.Stats.Elapsed))
		}
		return median(best), nil
	}

	t1, err := kernelNS(s.w, "pr", s.opts(s.dir, 1)...)
	if err != nil {
		return err
	}
	r.set("kernel.pr_t1_ns_per_edge", t1/m)
	if tn := r.vals["kernel.pr_ns_per_edge"]; tn > 0 {
		r.set("kernel.pr_speedup", t1/m/tn)
	}

	ds, err := kernelNS(s.w, "pr", append(s.opts(s.dir, r.nproc), pushpull.WithDegreeSorted())...)
	if err != nil {
		return err
	}
	r.set("kernel.pr_ds_ns_per_edge", ds/m)

	g16, err := r.graph("G16", scaleG16, r.cfg.seed)
	if err != nil {
		return err
	}
	w16 := pushpull.NewWorkload(g16, pushpull.AsWeighted())
	m16 := float64(g16.M())
	small, err := kernelNS(w16, "pr", s.opts(s.dir, r.nproc)...)
	if err != nil {
		return err
	}
	if small > 0 {
		r.set("kernel.pr_scale_ratio", r.vals["kernel.pr_ns_per_edge"]/(small/(m16*prIterations)))
	}
	sources := make([]pushpull.V, 4)
	for i := range sources {
		sources[i] = pushpull.V(r.rng.Intn(g16.N()))
	}
	for _, p := range []struct {
		alg string
		div float64
	}{{"tc", m16}, {"bc", m16 * float64(len(sources))}, {"mst", m16}} {
		ns, err := kernelNS(w16, p.alg, pushpull.WithDirection(s.dir),
			pushpull.WithThreads(r.nproc), pushpull.WithSources(sources))
		if err != nil {
			return err
		}
		r.set("kernel."+p.alg+"_ns_per_edge", ns/p.div)
	}
	return nil
}
