package dalgo

import (
	"fmt"

	"pushpull/internal/counters"
	"pushpull/internal/dm"
	"pushpull/internal/dm/mp"
	"pushpull/internal/dm/rma"
	"pushpull/internal/graph"
)

// TCConfig configures a distributed triangle-counting run.
type TCConfig struct {
	Ranks int
	Cost  dm.CostModel
	// FlushThreshold is the Msg-Passing update-buffer size per destination
	// before a flush (the paper buffers updates "until a given size is
	// reached", §6.3.2). Default 4096.
	FlushThreshold int
}

func (c *TCConfig) defaults() {
	if c.Cost == (dm.CostModel{}) {
		c.Cost = dm.AriesCostModel()
	}
	if c.Ranks < 1 {
		c.Ranks = 1
	}
	if c.FlushThreshold <= 0 {
		c.FlushThreshold = 4096
	}
}

func validateTC(g *graph.CSR, cfg *TCConfig) error {
	cfg.defaults()
	if g.N() > 0 && cfg.Ranks > g.N() {
		return fmt.Errorf("dalgo: %d ranks for %d vertices", cfg.Ranks, g.N())
	}
	return nil
}

// intersectCount returns |a ∩ b| for sorted adjacency slices.
func intersectCount(a, b []graph.V) int {
	i, j, c := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			c++
			i++
			j++
		}
	}
	return c
}

// chargeIntersection charges the compute cost of one merge intersection —
// identical across all three variants so their differences are purely the
// communication mechanism, as in §6.3.2.
func chargeIntersection(r *dm.Rank, a, b []graph.V) {
	r.ChargeOps(len(a) + len(b))
}

// TCPushRMA counts triangles with remote integer fetch-and-adds: one FAA
// per adjacency hit into the owner's counter window (the fast-path atomics
// of §6.3.2).
func TCPushRMA(g *graph.CSR, cfg TCConfig) (*Result, error) {
	if err := validateTC(g, &cfg); err != nil {
		return nil, err
	}
	n := g.N()
	cluster, err := dm.NewCluster(cfg.Ranks, cfg.Cost)
	if err != nil {
		return nil, err
	}
	tcWin, err := rma.NewIntWin(cluster, segSizes(n, cfg.Ranks))
	if err != nil {
		return nil, err
	}
	out := make([]int64, n)
	runErr := cluster.Run(func(r *dm.Rank) {
		lo, hi := dm.Range(n, cfg.Ranks, r.ID)
		for vi := lo; vi < hi; vi++ {
			v := graph.V(vi)
			adj := g.Neighbors(v)
			for _, w1 := range adj {
				nb := g.Neighbors(w1)
				chargeIntersection(r, adj, nb)
				hits := intersectCount(adj, nb)
				tgt := r.Owner(n, int(w1))
				tlo, _ := dm.Range(n, cfg.Ranks, tgt)
				for h := 0; h < hits; h++ {
					tcWin.FAA(r, tgt, int(w1)-tlo, 1)
				}
			}
		}
		for t := 0; t < cfg.Ranks; t++ {
			tcWin.Flush(r, t)
		}
		cluster.Barrier(r)
		seg := tcWin.Local(r)
		for i, c := range seg {
			out[lo+i] = c / 2
		}
	})
	if runErr != nil {
		return nil, runErr
	}
	return &Result{Counts: out, SimTime: cluster.SimTime(), Report: cluster.Report()}, nil
}

// TCPullRMA counts triangles with purely local accumulation: each rank
// increments only counters it owns (tc[v] for its own v), so after the
// shared intersection work there is no remote traffic at all — why pulling
// is always fastest in Figure 3 e–f.
func TCPullRMA(g *graph.CSR, cfg TCConfig) (*Result, error) {
	if err := validateTC(g, &cfg); err != nil {
		return nil, err
	}
	n := g.N()
	cluster, err := dm.NewCluster(cfg.Ranks, cfg.Cost)
	if err != nil {
		return nil, err
	}
	out := make([]int64, n)
	runErr := cluster.Run(func(r *dm.Rank) {
		lo, hi := dm.Range(n, cfg.Ranks, r.ID)
		for vi := lo; vi < hi; vi++ {
			v := graph.V(vi)
			adj := g.Neighbors(v)
			var local int64
			for _, w1 := range adj {
				nb := g.Neighbors(w1)
				chargeIntersection(r, adj, nb)
				local += int64(intersectCount(adj, nb))
			}
			r.ChargeOps(1)
			out[vi] = local / 2 // owner-only write
		}
		cluster.Barrier(r)
	})
	if runErr != nil {
		return nil, runErr
	}
	return &Result{Counts: out, SimTime: cluster.SimTime(), Report: cluster.Report()}, nil
}

// TCMsgPassing counts triangles with buffered instruct messages: hits are
// packed into per-destination buffers and flushed with point-to-point
// sends once the buffer reaches the threshold; receivers apply the
// increments. Packing and applying cost more per update than the
// NIC-offloaded FAA fast path, which is why MP is the slowest TC variant
// (§6.3.2).
func TCMsgPassing(g *graph.CSR, cfg TCConfig) (*Result, error) {
	if err := validateTC(g, &cfg); err != nil {
		return nil, err
	}
	n := g.N()
	cluster, err := dm.NewCluster(cfg.Ranks, cfg.Cost)
	if err != nil {
		return nil, err
	}
	comm := mp.New(cluster)
	out := make([]int64, n)
	counts := make([][]int64, cfg.Ranks)
	runErr := cluster.Run(func(r *dm.Rank) {
		p := cluster.P
		cost := cluster.Cost
		lo, hi := dm.Range(n, cfg.Ranks, r.ID)
		counts[r.ID] = make([]int64, hi-lo)
		// Per-destination update buffers: vertex index + count. Updates
		// are packed as they are produced (the buffering overhead §6.3.2
		// blames); each FlushThreshold-sized chunk is one wire message.
		bufIdx := make([][]int32, p)
		bufCnt := make([][]int32, p)
		for vi := lo; vi < hi; vi++ {
			v := graph.V(vi)
			adj := g.Neighbors(v)
			for _, w1 := range adj {
				nb := g.Neighbors(w1)
				chargeIntersection(r, adj, nb)
				hits := intersectCount(adj, nb)
				if hits == 0 {
					continue
				}
				tgt := r.Owner(n, int(w1))
				tlo, _ := dm.Range(n, cfg.Ranks, tgt)
				// One instruct message entry per increment — the paper's
				// MP TC messages "instruct which counters are augmented",
				// so each hit is staged individually.
				for h := 0; h < hits; h++ {
					bufIdx[tgt] = append(bufIdx[tgt], int32(int(w1)-tlo))
					bufCnt[tgt] = append(bufCnt[tgt], 1)
					r.Charge(cost.PackCost)
				}
			}
		}
		// Exchange all buffers; charge the extra per-chunk message
		// overheads the threshold-triggered flushes would have paid.
		send := make([][]byte, p)
		for dst := 0; dst < p; dst++ {
			send[dst] = mp.EncodeCounts(bufIdx[dst], bufCnt[dst])
			if nUpd := len(bufIdx[dst]); nUpd > cfg.FlushThreshold {
				extra := (nUpd - 1) / cfg.FlushThreshold
				r.Charge(cost.MsgOverhead * float64(extra))
				r.Rec().Add(counters.Messages, int64(extra))
			}
		}
		recv, err := comm.Alltoallv(r, send)
		if err != nil {
			panic(err)
		}
		for _, buf := range recv {
			idx, cnt, err := mp.DecodeCounts(buf)
			if err != nil {
				panic(err)
			}
			r.Charge(cost.UnpackCost * float64(len(idx)))
			for i := range idx {
				counts[r.ID][idx[i]] += int64(cnt[i])
			}
		}
		cluster.Barrier(r)
		for i, c := range counts[r.ID] {
			out[lo+i] = c / 2
		}
	})
	if runErr != nil {
		return nil, runErr
	}
	return &Result{Counts: out, SimTime: cluster.SimTime(), Report: cluster.Report()}, nil
}

// EqualCounts reports exact equality of two count vectors.
func EqualCounts(a, b []int64) bool {
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
