// Webrank: ranking a web-scale-shaped graph by pushing and by pulling, and
// reading the synchronization bill from the event counters, all through
// the unified engine API.
//
// This is the paper's Figure 6a / Table 1 workflow as a library user would
// run it: measure first, then choose the direction for your graph shape.
// The push kernel already runs Partition-Awareness (§5, Algorithm 8): only
// updates that cross to another thread's vertices are atomics. The probed
// runs print the two push bills side by side — Algorithm 1's atomic per
// arc, and Algorithm 8's atomic per remote arc.
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
	// the probed Algorithm 8 bill is laid out over is built once, on
	// first use.
	wl := pushpull.Partitioned(g, threads)

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
	alg8 := profile(pushpull.WithPartitionAwareness())
	pullRep := profile(pushpull.WithDirection(pushpull.Pull))
	fmt.Printf("atomics/iteration:   Algorithm 1=%s  Algorithm 8=%s (remote edges: %d of %d)  pull=%s\n",
		pushpull.Human(alg1.Get(pushpull.Atomics)),
		pushpull.Human(alg8.Get(pushpull.Atomics)), wl.PA(threads).RemoteEdges(), g.M(),
		pushpull.Human(pullRep.Get(pushpull.Atomics)))
	fmt.Printf("reads/iteration:     Algorithm 1=%s  Algorithm 8=%s  pull=%s\n",
		pushpull.Human(alg1.Get(pushpull.Reads)),
		pushpull.Human(alg8.Get(pushpull.Reads)),
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
