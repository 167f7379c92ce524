// Package harness is the experiment registry of the reproduction: one
// entry per table and figure of the paper's evaluation (§6), each
// regenerating the same rows or series the paper reports — workload
// construction, parameter sweeps, baselines and formatting included.
//
// Experiments run at a configurable scale (Config.Scale); 1.0 is the
// laptop-scale default documented in EXPERIMENTS.md. The *shape* of every
// output (who wins, by what factor, where crossovers fall) is what the
// reproduction asserts; absolute numbers differ from the paper's Cray
// testbeds by design.
package harness

import (
	"fmt"
	"io"
	"sort"
	"time"

	"pushpull/internal/gen"
	"pushpull/internal/graph"
	"pushpull/internal/sched"
)

// Config parameterizes one experiment run.
type Config struct {
	Threads int     // worker threads T (≤0: GOMAXPROCS)
	Scale   float64 // workload scale multiplier (≤0: 1.0)
	Seed    uint64  // generator seed
	Out     io.Writer
}

func (c *Config) defaults() {
	if c.Threads <= 0 {
		c.Threads = sched.DefaultThreads()
	}
	if c.Scale <= 0 {
		c.Scale = 1
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.Out == nil {
		c.Out = io.Discard
	}
}

// Experiment is one regenerable table or figure.
type Experiment struct {
	ID    string
	Paper string // the paper artifact it regenerates
	Title string
	Run   func(cfg Config) error
}

// registry is populated by the experiment files' init order below.
func registry() []Experiment {
	return []Experiment{
		{ID: "table2", Paper: "Table 2", Title: "Graph suite: n, m, d̄, D for every workload", Run: Table2},
		{ID: "table1", Paper: "Table 1", Title: "Hardware-counter events for PR, TC, BGC, SSSP-Δ (push vs pull vs +PA)", Run: Table1},
		{ID: "table3", Paper: "Table 3", Title: "PR time/iteration and TC total time, push vs pull", Run: Table3},
		{ID: "table4", Paper: "Table 4", Title: "PR per-iteration time across machine profiles (Trivium vs XC40)", Run: Table4},
		{ID: "fig1", Paper: "Figure 1", Title: "Boman coloring: time per iteration for Pull/Push/GrS", Run: Fig1},
		{ID: "fig2", Paper: "Figure 2", Title: "SSSP-Δ: per-iteration times and the Δ sweep", Run: Fig2},
		{ID: "fig3", Paper: "Figure 3", Title: "Distributed strong scaling: PR and TC with RMA vs Msg-Passing", Run: Fig3},
		{ID: "fig4", Paper: "Figure 4", Title: "Borůvka MST phases: Find-Minimum, Build-Merge-Tree, Merge", Run: Fig4},
		{ID: "fig5", Paper: "Figure 5", Title: "Betweenness centrality thread scaling: both BFS phases", Run: Fig5},
		{ID: "fig6", Paper: "Figure 6", Title: "Acceleration strategies: PR+PA times and BGC iteration counts", Run: Fig6},
		{ID: "weak", Paper: "§6", Title: "DM PageRank weak scaling (n ∝ P)", Run: WeakScaling},
		{ID: "ablation", Paper: "§5/§6", Title: "Loop schedule of Algorithm 1's push and PA partition-count ablations", Run: Ablation},
		{ID: "pram", Paper: "§4", Title: "PRAM time/work bounds and the §4.9 conflict summary", Run: PRAMTable},
		{ID: "la", Paper: "§7.1", Title: "Linear-algebra formulation: CSR(pull)/CSC(push) SpMV cross-check", Run: LATable},
	}
}

// All returns every experiment in paper order.
func All() []Experiment { return registry() }

// ByID finds one experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range registry() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// IDs returns all experiment ids, sorted.
func IDs() []string {
	var out []string
	for _, e := range registry() {
		out = append(out, e.ID)
	}
	sort.Strings(out)
	return out
}

// ---- shared workload construction ----

// workloadNames lists the Table 2 stand-in graphs used across experiments.
var workloadNames = []string{"orc", "pok", "ljn", "am", "rca"}

type graphKey struct {
	name     string
	scale    float64
	seed     uint64
	weighted bool
}

var graphCache = map[graphKey]*graph.CSR{}

// loadGraph builds (or returns the cached) named suite graph.
func loadGraph(name string, cfg Config, weighted bool) (*graph.CSR, error) {
	key := graphKey{name, cfg.Scale, cfg.Seed, weighted}
	if g, ok := graphCache[key]; ok {
		return g, nil
	}
	var g *graph.CSR
	var err error
	if weighted {
		g, err = gen.NamedWeighted(name, cfg.Scale, cfg.Seed)
	} else {
		g, err = gen.Named(name, cfg.Scale, cfg.Seed)
	}
	if err != nil {
		return nil, err
	}
	graphCache[key] = g
	return g, nil
}

// ms formats a duration in the paper's milliseconds-with-decimals style.
func ms(d time.Duration) string { return fmt.Sprintf("%.3f", float64(d)/1e6) }

// secs formats a duration in seconds.
func secs(d time.Duration) string { return fmt.Sprintf("%.4f", d.Seconds()) }

// header prints an experiment banner.
func header(w io.Writer, paper, title string) {
	fmt.Fprintf(w, "== %s — %s ==\n", paper, title)
}
