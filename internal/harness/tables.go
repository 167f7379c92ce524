package harness

import (
	"context"
	"fmt"

	"pushpull"
	"pushpull/internal/algo/pr"
	"pushpull/internal/algo/tc"
	"pushpull/internal/core"
	"pushpull/internal/counters"
	"pushpull/internal/graph"
	"pushpull/internal/memsim"
)

// Table2 regenerates the graph-suite table: id, n, m, d̄, D (estimated) for
// every synthetic stand-in, in the paper's Table 2 order.
func Table2(cfg Config) error {
	cfg.defaults()
	header(cfg.Out, "Table 2", "analyzed graphs (synthetic stand-ins, seeded)")
	fmt.Fprintf(cfg.Out, "%-6s %-10s %-12s %8s %8s %6s %4s\n",
		"ID", "n", "m", "d̄", "d̂", "D≈", "cc")
	for _, s := range append([]string{"rmat"}, workloadNames...) {
		g, err := loadGraph(s, cfg, false)
		if err != nil {
			return err
		}
		st := graph.ComputeStats(g)
		fmt.Fprintf(cfg.Out, "%-6s %-10d %-12d %8.2f %8d %6d %4d\n",
			s, st.N, st.M, st.AvgDeg, st.MaxDeg, st.Diameter, st.Components)
	}
	return nil
}

// table1Run executes one profiled variant on a fresh simulated machine and
// returns the event report (per-iteration scaled when iters > 1).
func table1Run(run func(prof core.Profile, space *memsim.AddressSpace) error, threads int, scaleBy int64) (counters.Report, error) {
	machine := memsim.NewMachine(memsim.XeonE5SandyBridge(), threads)
	prof := core.Profile{Threads: threads, Probes: machine.Probes()}
	if err := run(prof, machine.Space()); err != nil {
		return counters.Report{}, err
	}
	rep := machine.Report()
	if scaleBy > 1 {
		rep = rep.Scale(scaleBy)
	}
	return rep, nil
}

// Table1 regenerates the PAPI-event table: cache/TLB misses, atomics,
// locks, reads, writes and branches for PR (per iteration; Push, Push+PA,
// Pull), TC (total), BGC (per iteration) and SSSP-Δ (total) on a dense and
// a sparse workload each, on a simulated Sandy Bridge memory hierarchy.
func Table1(cfg Config) error {
	cfg.defaults()
	header(cfg.Out, "Table 1", "simulated hardware-counter events (XC30-class hierarchy)")
	t := cfg.Threads
	type column struct {
		label string
		rep   counters.Report
	}
	var cols []column
	add := func(label string, rep counters.Report, err error) error {
		if err != nil {
			return err
		}
		cols = append(cols, column{label, rep})
		return nil
	}

	// PageRank on orc (dense) and rca (road): per-iteration events.
	const prIters = 3
	for _, name := range []string{"orc", "rca"} {
		g, err := loadGraph(name, cfg, false)
		if err != nil {
			return err
		}
		opt := pr.Options{Iterations: prIters}
		rep, err := table1Run(func(prof core.Profile, sp *memsim.AddressSpace) error {
			_, err := pr.PushProfiled(pr.Views{Out: g, In: g}, opt, prof, sp)
			return err
		}, t, prIters)
		if err := add(name+" (PR) Push", rep, err); err != nil {
			return err
		}
		pa := graph.BuildPA(g, graph.NewPartition(g.N(), t))
		rep, err = table1Run(func(prof core.Profile, sp *memsim.AddressSpace) error {
			_, err := pr.PushPAProfiled(pa, opt, prof, sp)
			return err
		}, t, prIters)
		if err := add(name+" (PR) Push+PA", rep, err); err != nil {
			return err
		}
		rep, err = table1Run(func(prof core.Profile, sp *memsim.AddressSpace) error {
			_, err := pr.PullProfiled(pr.Views{Out: g, In: g}, opt, prof, sp)
			return err
		}, t, prIters)
		if err := add(name+" (PR) Pull", rep, err); err != nil {
			return err
		}
	}

	// Triangle counting on ljn and rca: total events. TC's pair loops are
	// quadratic in degree, so it runs at reduced scale.
	tcCfg := cfg
	tcCfg.Scale = cfg.Scale * 0.25
	for _, name := range []string{"ljn", "rca"} {
		g, err := loadGraph(name, tcCfg, false)
		if err != nil {
			return err
		}
		rep, err := table1Run(func(prof core.Profile, sp *memsim.AddressSpace) error {
			_, err := tc.PushProfiled(g, prof, sp)
			return err
		}, t, 1)
		if err := add(name+" (TC) Push", rep, err); err != nil {
			return err
		}
		rep, err = table1Run(func(prof core.Profile, sp *memsim.AddressSpace) error {
			_, err := tc.PullProfiled(g, prof, sp)
			return err
		}, t, 1)
		if err := add(name+" (TC) Pull", rep, err); err != nil {
			return err
		}
	}

	if err := table1GC(cfg, t, add); err != nil {
		return err
	}
	if err := table1SSSP(cfg, t, add); err != nil {
		return err
	}

	// Print the event × column matrix, paper-style.
	fmt.Fprintf(cfg.Out, "%-18s", "Event")
	for _, c := range cols {
		fmt.Fprintf(cfg.Out, " | %-18s", c.label)
	}
	fmt.Fprintln(cfg.Out)
	for _, ev := range counters.Table1Events() {
		fmt.Fprintf(cfg.Out, "%-18s", ev.String())
		for _, c := range cols {
			fmt.Fprintf(cfg.Out, " | %-18s", counters.Human(c.rep.Get(ev)))
		}
		fmt.Fprintln(cfg.Out)
	}
	return nil
}

// Table3 regenerates the PR time-per-iteration (ms) and TC total-time (s)
// rows for all five workloads.
func Table3(cfg Config) error {
	cfg.defaults()
	header(cfg.Out, "Table 3", "PR time/iteration [ms] and TC total time [s]")
	fmt.Fprintf(cfg.Out, "%-10s", "PR [ms]")
	for _, n := range workloadNames {
		fmt.Fprintf(cfg.Out, " %10s", n)
	}
	fmt.Fprintln(cfg.Out)
	const iters = 10
	prRow := func(label string, dir pushpull.Direction) error {
		fmt.Fprintf(cfg.Out, "%-10s", label)
		for _, name := range workloadNames {
			g, err := loadGraph(name, cfg, false)
			if err != nil {
				return err
			}
			rep, err := pushpull.Run(context.Background(), g, "pr",
				pushpull.WithDirection(dir), pushpull.WithThreads(cfg.Threads),
				pushpull.WithIterations(iters))
			if err != nil {
				return err
			}
			fmt.Fprintf(cfg.Out, " %10s", ms(rep.Stats.AvgIteration()))
		}
		fmt.Fprintln(cfg.Out)
		return nil
	}
	if err := prRow("Pushing", pushpull.Push); err != nil {
		return err
	}
	if err := prRow("Pulling", pushpull.Pull); err != nil {
		return err
	}

	fmt.Fprintf(cfg.Out, "%-10s", "TC [s]")
	for _, n := range workloadNames {
		fmt.Fprintf(cfg.Out, " %10s", n)
	}
	fmt.Fprintln(cfg.Out)
	tcCfg := cfg
	tcCfg.Scale = cfg.Scale * 0.5
	tcRow := func(label string, dir pushpull.Direction) error {
		fmt.Fprintf(cfg.Out, "%-10s", label)
		for _, name := range workloadNames {
			g, err := loadGraph(name, tcCfg, false)
			if err != nil {
				return err
			}
			rep, err := pushpull.Run(context.Background(), g, "tc",
				pushpull.WithDirection(dir), pushpull.WithThreads(cfg.Threads))
			if err != nil {
				return err
			}
			fmt.Fprintf(cfg.Out, " %10s", secs(rep.Stats.Elapsed))
		}
		fmt.Fprintln(cfg.Out)
		return nil
	}
	if err := tcRow("Pushing", pushpull.Push); err != nil {
		return err
	}
	return tcRow("Pulling", pushpull.Pull)
}

// machineProfile maps counted events and cache misses to a modeled
// per-iteration time for one machine (Table 4's cross-machine comparison;
// the per-event weights encode each machine's memory system and the
// atomic-contention growth with its thread count).
type machineProfile struct {
	name     string
	config   memsim.MachineConfig
	threads  int
	nsAtomic float64 // grows with thread count: contention
	nsMissL1 float64
	nsMissL2 float64
	nsMissL3 float64
	nsRead   float64
	nsWrite  float64
	nsBranch float64
}

func machineProfiles() []machineProfile {
	return []machineProfile{
		{
			name: "Trivium (i7-4770, T=8)", config: memsim.HaswellTrivium(), threads: 8,
			nsAtomic: 8, nsMissL1: 4, nsMissL2: 10, nsMissL3: 60,
			nsRead: 0.5, nsWrite: 0.5, nsBranch: 0.25,
		},
		{
			name: "Daint (XC40, T=24)", config: memsim.XeonE5SandyBridge(), threads: 24,
			nsAtomic: 26, nsMissL1: 3, nsMissL2: 8, nsMissL3: 45,
			nsRead: 0.35, nsWrite: 0.35, nsBranch: 0.2,
		},
	}
}

// modelTime converts an event report into modeled nanoseconds per the
// machine profile, divided by the machine's thread count (parallel work).
func (m machineProfile) modelTime(rep counters.Report) float64 {
	total := m.nsAtomic*float64(rep.Get(counters.Atomics)) +
		m.nsMissL1*float64(rep.Get(counters.L1Miss)) +
		m.nsMissL2*float64(rep.Get(counters.L2Miss)) +
		m.nsMissL3*float64(rep.Get(counters.L3Miss)) +
		m.nsRead*float64(rep.Get(counters.Reads)) +
		m.nsWrite*float64(rep.Get(counters.Writes)) +
		m.nsBranch*float64(rep.Get(counters.BranchesCond)+rep.Get(counters.BranchesUncond))
	return total / float64(m.threads)
}

// Table4 regenerates the cross-machine PR comparison: per-iteration modeled
// times for Push, Pull and Push+PA on the Trivium and XC40 profiles. The
// shape to reproduce (§6.4): on the commodity box pushing wins on dense
// graphs, on the HPC node with more threads the atomics dominate and
// pulling (and PA) win.
func Table4(cfg Config) error {
	cfg.defaults()
	header(cfg.Out, "Table 4", "PR time/iteration, modeled from counted events per machine")
	const prIters = 2
	for _, m := range machineProfiles() {
		fmt.Fprintf(cfg.Out, "%s\n", m.name)
		fmt.Fprintf(cfg.Out, "  %-10s", "")
		for _, n := range workloadNames {
			fmt.Fprintf(cfg.Out, " %10s", n)
		}
		fmt.Fprintln(cfg.Out)
		variants := []struct {
			label string
			run   func(g *graph.CSR, prof core.Profile, sp *memsim.AddressSpace) error
		}{
			{"Push", func(g *graph.CSR, prof core.Profile, sp *memsim.AddressSpace) error {
				_, err := pr.PushProfiled(pr.Views{Out: g, In: g}, pr.Options{Iterations: prIters}, prof, sp)
				return err
			}},
			{"Pull", func(g *graph.CSR, prof core.Profile, sp *memsim.AddressSpace) error {
				_, err := pr.PullProfiled(pr.Views{Out: g, In: g}, pr.Options{Iterations: prIters}, prof, sp)
				return err
			}},
			{"Push+PA", func(g *graph.CSR, prof core.Profile, sp *memsim.AddressSpace) error {
				pa := graph.BuildPA(g, graph.NewPartition(g.N(), prof.Threads))
				_, err := pr.PushPAProfiled(pa, pr.Options{Iterations: prIters}, prof, sp)
				return err
			}},
		}
		for _, v := range variants {
			fmt.Fprintf(cfg.Out, "  %-10s", v.label)
			for _, name := range workloadNames {
				g, err := loadGraph(name, cfg, false)
				if err != nil {
					return err
				}
				machine := memsim.NewMachine(m.config, m.threads)
				prof := core.Profile{Threads: m.threads, Probes: machine.Probes()}
				if err := v.run(g, prof, machine.Space()); err != nil {
					return err
				}
				nsPerIter := m.modelTime(machine.Report().Scale(prIters))
				fmt.Fprintf(cfg.Out, " %10.3f", nsPerIter/1e6)
			}
			fmt.Fprintln(cfg.Out)
		}
	}
	return nil
}
