// Quickstart: build a small social graph, run PageRank in both update
// directions through the unified engine API, and see that they agree
// while synchronizing differently — the paper's push-pull dichotomy in
// thirty lines.
package main

import (
	"context"
	"fmt"
	"log"

	"pushpull"
)

func main() {
	// A power-law social network: 4096 vertices, ≈8 edges per vertex.
	g, err := pushpull.RMAT(pushpull.DefaultRMAT(12, 8, 1))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("graph: n=%d m=%d d̂=%d\n", g.N(), g.UndirectedM(), g.MaxDegree())

	ctx := context.Background()

	// Push: every vertex scatters rank to its neighbors — atomics on the
	// shared next-rank vector.
	push, err := pushpull.Run(ctx, g, "pr",
		pushpull.WithDirection(pushpull.Push), pushpull.WithIterations(20))
	if err != nil {
		log.Fatal(err)
	}

	// Pull: every vertex gathers its neighbors' contributions — no
	// synchronization, a random read per edge and more to read overall.
	pull, err := pushpull.Run(ctx, g, "pr",
		pushpull.WithDirection(pushpull.Pull), pushpull.WithIterations(20))
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("push: %v/iter   pull: %v/iter   max|Δ| = %.2g\n",
		push.Stats.AvgIteration(), pull.Stats.AvgIteration(),
		pushpull.MaxDiff(push.Ranks(), pull.Ranks()))
	fmt.Printf("rank mass Σ = %.4f (≈1 when no vertex is isolated)\n",
		pushpull.SumFloats(push.Ranks()))

	best, bestRank := 0, 0.0
	for v, r := range push.Ranks() {
		if r > bestRank {
			best, bestRank = v, r
		}
	}
	fmt.Printf("highest-ranked vertex: %d (rank %.5f, degree %d)\n",
		best, bestRank, g.Degree(int32(best)))
}
