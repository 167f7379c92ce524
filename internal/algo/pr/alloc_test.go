package pr

import (
	"testing"

	"pushpull/internal/core"
)

// seq pins kernels to one inline worker for allocation measurements.
func seq() core.Options { return core.Options{Threads: 1} }

// Steady-state zero-allocation proof: running more iterations must not
// allocate more. Each kernel's setup (rank arrays, the reserved
// per-iteration stats) is a fixed cost; the round loop itself — hoisted
// phase closures, pre-sized stats — must stay off the allocator. The
// kernels run at Threads 1 so ParallelFor executes inline and goroutine
// spawning does not drown the measurement.
func TestKernelSteadyStateAllocs(t *testing.T) {
	g := testGraph(t)
	dg := directedFixture(t, 600, 4000, 11)
	kernels := map[string]func(iters int){
		"push":          func(iters int) { Push(und(g), Options{Options: seq(), Iterations: iters}) },
		"pull":          func(iters int) { Pull(und(g), Options{Options: seq(), Iterations: iters}) },
		"push-directed": func(iters int) { Push(dg, Options{Options: seq(), Iterations: iters}) },
		"pull-directed": func(iters int) { Pull(dg, Options{Options: seq(), Iterations: iters}) },
	}
	for name, run := range kernels {
		// Ten runs each: AllocsPerRun floors the mean, so the few
		// allocations a collector cycle starting inside a window makes
		// are averaged away while one per iteration (45 more) is not.
		short := testing.AllocsPerRun(10, func() { run(5) })
		long := testing.AllocsPerRun(10, func() { run(50) })
		if long != short {
			t.Errorf("%s: steady-state iterations allocate: %.0f allocs at 5 iters vs %.0f at 50", name, short, long)
		}
	}
}
