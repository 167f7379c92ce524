// Webrank: ranking a web-scale-shaped graph by pushing and by pulling, and
// reading the synchronization bill from the event counters, all through
// the unified engine API.
//
// This is the paper's Figure 6a / Table 1 workflow as a library user would
// run it: measure first, then choose the direction for your graph shape.
// The push kernel issues no atomic: each thread adds updates to its own
// vertices in place and every other update into a private accumulator,
// and a second pass folds the accumulators in thread order, so the pushed
// ranks are the same bits on every run. The probed runs print Algorithm 1's
// push bill, an atomic per arc, beside the atomic per remote arc of
// Algorithm 8 (§5, Partition-Awareness), which is the remote arc count of
// the workload's §5 split; `pushpull table1` prints Algorithm 8's full
// bill in its Push+PA column.
package main

import (
	"context"
	"fmt"
	"log"

	"pushpull"
)

func main() {
	const threads = 4
	g, err := pushpull.RMAT(pushpull.DefaultRMAT(13, 16, 7)) // dense, skewed: orc-like
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("web-like graph: n=%d m=%d d̄=%.1f\n", g.N(), g.UndirectedM(), g.AvgDegree())

	// The Workload handle owns the expensive derived state: the §5 split
	// whose remote arcs Algorithm 8 pays for is built once, on first use.
	wl := pushpull.NewWorkload(g)

	ctx := context.Background()
	run := func(opts ...pushpull.Option) *pushpull.Report {
		rep, err := pushpull.Run(ctx, wl, "pr", append(opts,
			pushpull.WithThreads(threads), pushpull.WithIterations(10))...)
		if err != nil {
			log.Fatal(err)
		}
		return rep
	}

	push := run(pushpull.WithDirection(pushpull.Push))
	pull := run(pushpull.WithDirection(pushpull.Pull))
	fmt.Printf("%-22s %v/iter\n", "Pushing:", push.Stats.AvgIteration())
	fmt.Printf("%-22s %v/iter\n", "Pulling:", pull.Stats.AvgIteration())

	// Count the synchronization each scheme issues: one iteration,
	// instrumented.
	profile := func(opts ...pushpull.Option) *pushpull.CounterReport {
		rep, err := pushpull.Run(ctx, wl, "pr", append(opts,
			pushpull.WithThreads(threads), pushpull.WithIterations(1),
			pushpull.WithProbes())...)
		if err != nil {
			log.Fatal(err)
		}
		return rep.Counters
	}
	alg1 := profile(pushpull.WithDirection(pushpull.Push))
	pullRep := profile(pushpull.WithDirection(pushpull.Pull))
	remote := wl.PA(threads).RemoteEdges()
	fmt.Printf("atomics/iteration:   Algorithm 1=%s  Algorithm 8=%s (remote edges: %d of %d)  pull=%s\n",
		pushpull.Human(alg1.Get(pushpull.Atomics)),
		pushpull.Human(remote), remote, g.M(),
		pushpull.Human(pullRep.Get(pushpull.Atomics)))
	fmt.Printf("reads/iteration:     Algorithm 1=%s  pull=%s  (Algorithm 8's full bill: pushpull table1)\n",
		pushpull.Human(alg1.Get(pushpull.Reads)),
		pushpull.Human(pullRep.Get(pushpull.Reads)))

	ranks := push.Ranks()
	top := 0
	for v, r := range ranks {
		if r > ranks[top] {
			top = v
		}
	}
	fmt.Printf("top page: vertex %d with rank %.6f\n", top, ranks[top])
}
