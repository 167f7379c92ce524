// Package dalgo implements the distributed-memory PageRank and Triangle
// Counting variants of the paper's §6.3 on the simulated cluster:
//
//	PageRank: push-RMA (remote float accumulates — the costly locking
//	protocol), pull-RMA (remote gets of both the neighbor's rank and its
//	degree), and the Msg-Passing hybrid that aggregates updates locally
//	and exchanges them with one Alltoallv per iteration (each process both
//	pushes its update vector and pulls the incoming ones, §6.3.1).
//
//	Triangle Counting: push-RMA (one integer FAA per adjacency hit — the
//	fast path), pull-RMA (purely local accumulation), and Msg-Passing
//	(buffered "increment counter x" instruct messages, §6.3.2).
//
// The graph structure is replicated on every rank (the usual practice for
// 1D-partitioned implementations at these scales; DESIGN.md documents the
// substitution); the *algorithm state* — rank vectors, counters — is
// distributed in windows or owned segments, so all communication the paper
// charges is performed and costed.
package dalgo

import (
	"fmt"

	"pushpull/internal/counters"
	"pushpull/internal/dm"
	"pushpull/internal/dm/mp"
	"pushpull/internal/dm/rma"
	"pushpull/internal/graph"
)

// DefaultPRIterations is the power-iteration count L used when a PRConfig
// leaves Iterations unset; callers reporting iteration counts (the facade's
// Report) reference it instead of duplicating the number.
const DefaultPRIterations = 20

// PRConfig configures a distributed PageRank run.
type PRConfig struct {
	Ranks      int     // cluster size P
	Iterations int     // L (default DefaultPRIterations)
	Damping    float64 // f (default 0.85)
	Cost       dm.CostModel
}

func (c *PRConfig) defaults() {
	if c.Iterations <= 0 {
		c.Iterations = DefaultPRIterations
	}
	if c.Damping == 0 {
		c.Damping = 0.85
	}
	if c.Cost == (dm.CostModel{}) {
		c.Cost = dm.AriesCostModel()
	}
	if c.Ranks < 1 {
		c.Ranks = 1
	}
}

// Result carries distributed-run output: the gathered global state, the
// simulated makespan in nanoseconds, and the aggregated counters.
type Result struct {
	Values  []float64 // PR: ranks; TC: counts as floats for uniformity
	Counts  []int64   // TC only
	SimTime float64
	Report  counters.Report
}

// segSizes returns the 1D block decomposition sizes for n over p ranks.
func segSizes(n, p int) []int {
	out := make([]int, p)
	for w := 0; w < p; w++ {
		lo, hi := dm.Range(n, p, w)
		out[w] = hi - lo
	}
	return out
}

// PRPushRMA runs push-based PageRank over RMA: every edge contribution is
// an MPI_Accumulate-style remote float atomic into the owner's window.
func PRPushRMA(g *graph.CSR, cfg PRConfig) (*Result, error) {
	if err := validatePR(g, &cfg); err != nil {
		return nil, err
	}
	n := g.N()
	cluster, err := dm.NewCluster(cfg.Ranks, cfg.Cost)
	if err != nil {
		return nil, err
	}
	prWin, err := rma.NewFloatWin(cluster, segSizes(n, cfg.Ranks))
	if err != nil {
		return nil, err
	}
	nextWin, err := rma.NewFloatWin(cluster, segSizes(n, cfg.Ranks))
	if err != nil {
		return nil, err
	}
	out := make([]float64, n)
	base := (1 - cfg.Damping) / float64(n)
	runErr := cluster.Run(func(r *dm.Rank) {
		lo, hi := dm.Range(n, cfg.Ranks, r.ID)
		cur, nxt := prWin, nextWin
		cur.FillLocal(r, 1/float64(n))
		cluster.Barrier(r)
		for l := 0; l < cfg.Iterations; l++ {
			nxt.FillLocal(r, base)
			cluster.Barrier(r)
			for vi := lo; vi < hi; vi++ {
				v := graph.V(vi)
				d := g.Degree(v)
				r.ChargeOps(1)
				if d == 0 {
					continue
				}
				c := cfg.Damping * cur.Get(r, r.ID, vi-lo) / float64(d)
				for _, u := range g.Neighbors(v) {
					tgt := r.Owner(n, int(u))
					tlo, _ := dm.Range(n, cfg.Ranks, tgt)
					nxt.Accumulate(r, tgt, int(u)-tlo, c)
				}
			}
			for t := 0; t < cfg.Ranks; t++ {
				nxt.Flush(r, t)
			}
			cluster.Barrier(r)
			cur, nxt = nxt, cur
		}
		seg := cur.Local(r)
		copy(out[lo:hi], seg)
	})
	if runErr != nil {
		return nil, runErr
	}
	return &Result{Values: out, SimTime: cluster.SimTime(), Report: cluster.Report()}, nil
}

// PRPullRMA runs pull-based PageRank over RMA: for every neighbor, the rank
// fetches both the neighbor's current rank and its degree with remote gets
// (the communication overhead §6.3.1 attributes to pulling).
func PRPullRMA(g *graph.CSR, cfg PRConfig) (*Result, error) {
	if err := validatePR(g, &cfg); err != nil {
		return nil, err
	}
	n := g.N()
	cluster, err := dm.NewCluster(cfg.Ranks, cfg.Cost)
	if err != nil {
		return nil, err
	}
	prWin, err := rma.NewFloatWin(cluster, segSizes(n, cfg.Ranks))
	if err != nil {
		return nil, err
	}
	nextWin, err := rma.NewFloatWin(cluster, segSizes(n, cfg.Ranks))
	if err != nil {
		return nil, err
	}
	degWin, err := rma.NewIntWin(cluster, segSizes(n, cfg.Ranks))
	if err != nil {
		return nil, err
	}
	out := make([]float64, n)
	base := (1 - cfg.Damping) / float64(n)
	runErr := cluster.Run(func(r *dm.Rank) {
		lo, hi := dm.Range(n, cfg.Ranks, r.ID)
		for vi := lo; vi < hi; vi++ {
			degWin.Put(r, r.ID, vi-lo, g.Degree(graph.V(vi)))
		}
		cur, nxt := prWin, nextWin
		cur.FillLocal(r, 1/float64(n))
		cluster.Barrier(r)
		for l := 0; l < cfg.Iterations; l++ {
			for vi := lo; vi < hi; vi++ {
				v := graph.V(vi)
				sum := 0.0
				for _, u := range g.Neighbors(v) {
					tgt := r.Owner(n, int(u))
					tlo, _ := dm.Range(n, cfg.Ranks, tgt)
					du := degWin.Get(r, tgt, int(u)-tlo) // fetch degree …
					if du == 0 {
						continue
					}
					pu := cur.Get(r, tgt, int(u)-tlo) // … and rank (§6.3.1)
					sum += pu / float64(du)
				}
				nxt.Put(r, r.ID, vi-lo, base+cfg.Damping*sum)
			}
			cluster.Barrier(r)
			cur, nxt = nxt, cur
		}
		seg := cur.Local(r)
		copy(out[lo:hi], seg)
	})
	if runErr != nil {
		return nil, runErr
	}
	return &Result{Values: out, SimTime: cluster.SimTime(), Report: cluster.Report()}, nil
}

// PRMsgPassing runs the Alltoallv hybrid of §6.3.1: each rank accumulates
// its outgoing contributions locally (combining per target vertex), pushes
// one update vector per destination through the collective, and pulls the
// incoming vectors into its own segment.
func PRMsgPassing(g *graph.CSR, cfg PRConfig) (*Result, error) {
	if err := validatePR(g, &cfg); err != nil {
		return nil, err
	}
	n := g.N()
	cluster, err := dm.NewCluster(cfg.Ranks, cfg.Cost)
	if err != nil {
		return nil, err
	}
	comm := mp.New(cluster)
	out := make([]float64, n)
	base := (1 - cfg.Damping) / float64(n)
	pr := make([]float64, n) // replicated view, refreshed per iteration
	for i := range pr {
		pr[i] = 1 / float64(n)
	}
	next := make([][]float64, cfg.Ranks) // per-rank owned segments
	runErr := cluster.Run(func(r *dm.Rank) {
		lo, hi := dm.Range(n, cfg.Ranks, r.ID)
		next[r.ID] = make([]float64, hi-lo)
		scratch := make([]float64, n)
		cost := cluster.Cost
		for l := 0; l < cfg.Iterations; l++ {
			// Local combining phase: pure compute, no synchronization.
			for i := range scratch {
				scratch[i] = 0
			}
			r.ChargeOps(n / cluster.P) // amortized reset cost
			for vi := lo; vi < hi; vi++ {
				v := graph.V(vi)
				d := g.Degree(v)
				if d == 0 {
					continue
				}
				c := cfg.Damping * pr[vi] / float64(d)
				for _, u := range g.Neighbors(v) {
					scratch[u] += c
				}
				r.ChargeOps(int(d))
			}
			// Pack one sparse update vector per destination rank.
			send := make([][]byte, cluster.P)
			for dst := 0; dst < cluster.P; dst++ {
				dlo, dhi := dm.Range(n, cfg.Ranks, dst)
				var idx []int32
				var val []float64
				for i := dlo; i < dhi; i++ {
					if scratch[i] != 0 {
						idx = append(idx, int32(i-dlo))
						val = append(val, scratch[i])
					}
				}
				send[dst] = mp.EncodePairs(idx, val)
				r.Charge(cost.PackCost * float64(len(idx)))
			}
			recv, err := comm.Alltoallv(r, send)
			if err != nil {
				panic(err)
			}
			// Apply incoming updates to the owned segment.
			seg := next[r.ID]
			for i := range seg {
				seg[i] = base
			}
			for _, buf := range recv {
				idx, val, err := mp.DecodePairs(buf)
				if err != nil {
					panic(err)
				}
				for i := range idx {
					seg[idx[i]] += val[i]
				}
				r.Charge(cost.UnpackCost * float64(len(idx)))
			}
			// Commit the owned segment; contributions only ever read the
			// owner's own range, so no replication refresh is needed.
			copy(pr[lo:hi], seg)
			cluster.Barrier(r)
		}
		copy(out[lo:hi], pr[lo:hi])
	})
	if runErr != nil {
		return nil, runErr
	}
	return &Result{Values: out, SimTime: cluster.SimTime(), Report: cluster.Report()}, nil
}

// validatePR guards against misuse shared by all PR variants.
func validatePR(g *graph.CSR, cfg *PRConfig) error {
	cfg.defaults()
	if g.N() > 0 && cfg.Ranks > g.N() {
		return fmt.Errorf("dalgo: %d ranks for %d vertices", cfg.Ranks, g.N())
	}
	return nil
}
