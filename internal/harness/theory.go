package harness

import (
	"context"
	"fmt"
	"time"

	"pushpull"
	prdirect "pushpull/internal/algo/pr"
	"pushpull/internal/algo/sssp"
	"pushpull/internal/core"
	"pushpull/internal/la"
	"pushpull/internal/pram"
)

// PRAMTable prints the §4 complexity table — time and work for every
// algorithm under pulling, pushing/CRCW-CB and pushing/CREW — followed by
// the §4.9 conflict/synchronization summary, and validates the executable
// PRAM machine against the primitive bounds.
func PRAMTable(cfg Config) error {
	cfg.defaults()
	header(cfg.Out, "§4", "PRAM bounds (time | work), n=2^20 m=2^24 d̂=2^10 P=64")
	p := pram.AlgorithmParams{
		N: 1 << 20, M: 1 << 24, Dhat: 1 << 10, P: 64,
		L: 20, D: 12, Delta: 10, LDelta: 3,
	}
	type fn struct {
		name string
		f    func(pram.AlgorithmParams, pram.Model, core.Direction) pram.Cost
	}
	fns := []fn{
		{"PR", pram.PageRank}, {"TC", pram.TriangleCount}, {"BFS", pram.BFS},
		{"SSSP-Δ", pram.SSSPDelta}, {"BC", pram.BC}, {"BGC", pram.BGC}, {"MST", pram.MST},
	}
	fmt.Fprintf(cfg.Out, "%-8s %24s %24s %24s\n",
		"algo", "pull", "push (CRCW-CB)", "push (CREW)")
	for _, a := range fns {
		pull := a.f(p, pram.CRCWCB, core.Pull)
		pushCB := a.f(p, pram.CRCWCB, core.Push)
		pushCREW := a.f(p, pram.CREW, core.Push)
		fmt.Fprintf(cfg.Out, "%-8s %11.3g | %8.3g %11.3g | %8.3g %11.3g | %8.3g\n",
			a.name, pull.Time, pull.Work, pushCB.Time, pushCB.Work, pushCREW.Time, pushCREW.Work)
	}

	fmt.Fprintln(cfg.Out, "\n§4.9 conflicts and synchronization:")
	for _, s := range pram.Summaries() {
		fmt.Fprintf(cfg.Out, "  %-14s write: %-16s read: %-16s push-sync: %-40s pull-sync: %s\n",
			s.Algorithm, s.WriteConflicts, s.ReadConflicts, s.PushSync, s.PullSync)
	}

	// Executable validation: CRCW-CB combines in ⌈k/P⌉ cycles; CREW pays
	// for conflicting writes.
	add := func(a, b int64) int64 { return a + b }
	maCB, err := pram.NewMachine(pram.CRCWCB, 8, 64, add)
	if err != nil {
		return err
	}
	for i := 0; i < 16; i++ {
		maCB.Mem()[i] = 1
	}
	srcs := make([]int, 16)
	dsts := make([]int, 16)
	for i := range srcs {
		srcs[i] = i
		dsts[i] = 32 // all conflict on one target
	}
	sCB, wCB, err := pram.RunKRelaxation(maCB, srcs, dsts)
	if err != nil {
		return err
	}
	maCREW, err := pram.NewMachine(pram.CREW, 8, 64, add)
	if err != nil {
		return err
	}
	for i := 0; i < 16; i++ {
		maCREW.Mem()[i] = 1
	}
	sCREW, wCREW, err := pram.RunKRelaxation(maCREW, srcs, dsts)
	if err != nil {
		return err
	}
	fmt.Fprintf(cfg.Out, "\nexecutable 16-relaxation, full conflict, P=8: CRCW-CB %d steps/%d work; CREW %d steps/%d work\n",
		sCB, wCB, sCREW, wCREW)
	if sCREW <= sCB {
		return fmt.Errorf("harness: CREW simulation did not pay for conflicts (%d <= %d)", sCREW, sCB)
	}
	return nil
}

// LATable cross-checks the §7.1 linear-algebra formulation against the
// direct implementations and reports SpMV timings for both layouts.
func LATable(cfg Config) error {
	cfg.defaults()
	header(cfg.Out, "§7.1", "LA formulation: CSR (pull) vs CSC (push)")
	g, err := loadGraph("pok", cfg, false)
	if err != nil {
		return err
	}
	const iters = 5
	wantPR := prdirect.Sequential(prdirect.Views{Out: g, In: g}, prdirect.Options{Iterations: iters, Damping: 0.85})
	for _, dir := range []core.Direction{core.Pull, core.Push} {
		start := time.Now()
		got := la.PageRank(g, iters, 0.85, dir, cfg.Threads)
		el := time.Since(start)
		d := sssp.MaxDiff(got, wantPR)
		fmt.Fprintf(cfg.Out, "PageRank  %-18s %10s ms  max|Δ| vs direct = %.2g\n",
			dirLayout(dir), ms(el), d)
		if d > 1e-9 {
			return fmt.Errorf("harness: LA PageRank (%v) diverges from direct: %g", dir, d)
		}
	}
	bfsRep, err := pushpull.Run(context.Background(), g, "bfs",
		pushpull.WithDirection(pushpull.Push), pushpull.WithThreads(cfg.Threads),
		pushpull.WithSource(0))
	if err != nil {
		return err
	}
	tree := bfsRep.Tree()
	for _, dir := range []core.Direction{core.Pull, core.Push} {
		start := time.Now()
		levels := la.BFSLevels(g, 0, dir, cfg.Threads)
		el := time.Since(start)
		for v := range levels {
			if levels[v] != tree.Level[v] {
				return fmt.Errorf("harness: LA BFS (%v) level mismatch at %d", dir, v)
			}
		}
		fmt.Fprintf(cfg.Out, "BFS       %-18s %10s ms  levels match direct BFS\n", dirLayout(dir), ms(el))
	}
	wg, err := loadGraph("am", cfg, true)
	if err != nil {
		return err
	}
	wantD := sssp.Dijkstra(wg, 0)
	for _, dir := range []core.Direction{core.Pull, core.Push} {
		start := time.Now()
		got := la.SSSPBellmanFord(wg, 0, dir, cfg.Threads)
		el := time.Since(start)
		d := sssp.MaxDiff(got, wantD)
		fmt.Fprintf(cfg.Out, "SSSP      %-18s %10s ms  max|Δ| vs Dijkstra = %.2g\n",
			dirLayout(dir), ms(el), d)
		if d > 1e-9 {
			return fmt.Errorf("harness: LA SSSP (%v) diverges from Dijkstra: %g", dir, d)
		}
	}
	return nil
}

func dirLayout(d core.Direction) string {
	if d == core.Pull {
		return "CSR/SpMV (pull)"
	}
	return "CSC/SpMV (push)"
}
