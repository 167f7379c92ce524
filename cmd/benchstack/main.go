// Command benchstack is the repository's benchmark: one command that
// generates its inputs from -seed, stands up the real serving stack
// in-process on loopback (cluster router → two serve workers, each with
// its own Engine, DiskStore and durable job manager), drives six
// workloads through it and through the library directly, checks every
// output, and prints every metric by name with its unit. Run it from the
// repository root:
//
//	go run ./cmd/benchstack                                   # all six workloads, end-to-end metrics
//	go run ./cmd/benchstack -trace 1                          # … and the per-layer pass
//	go run ./cmd/benchstack -workload serve-hot -seed 7       # one run; the last line is its result
//	go run ./cmd/benchstack -workload serve-hot -trace 1 -trace-out t.json
//	go run ./cmd/benchstack -runs 10 -out a.json              # a result set: ten seeds per workload
//	go run ./cmd/benchstack -agree a.json b.json              # do two sets of the same code agree?
//	go run ./cmd/benchstack -sets 2                           # both of the above
//
// BENCHMARK.json at the repository root names the command, workloads,
// metrics, directions and regression bounds; README.md in this
// directory explains each metric and how the layers' numbers are
// expected to move the end-to-end ones.
package main

import (
	"flag"
	"fmt"
	"os"
)

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "run one workload in this process and print its result as the last line (default: all six, one child process each)")
	flag.Uint64Var(&cfg.seed, "seed", 42, "seed of every generated input and per-request variation")
	seconds := flag.Float64("seconds", 0, "length of the timed phase (default: BENCHMARK.json's run_seconds)")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: the traced pass with per-layer metrics")
	flag.StringVar(&cfg.traceOut, "trace-out", "", "with -trace 1: write the spans and boundary counts to this file")
	flag.BoolVar(&cfg.smoke, "smoke", false, "graphs 1/64 the size and two operations per loop: a functional check, not a measurement")
	runs := flag.Int("runs", 1, "runs per workload, each with the next seed, when driving child processes")
	out := flag.String("out", "", "write the result set of the child runs to this file")
	agree := flag.Bool("agree", false, "compare two result-set files given as arguments against the bounds")
	sets := flag.Int("sets", 0, "measure this many result sets of -runs runs (default 10) and compare the first two")
	flag.Parse()

	var err error
	if cfg.spec, err = loadSpec(specFile); err != nil {
		fatal(err)
	}
	cfg.seconds, cfg.trace = *seconds, *trace != 0
	if cfg.seconds <= 0 {
		cfg.seconds = float64(cfg.spec.RunSeconds)
	}

	ok := true
	switch {
	case *agree:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-agree takes two result-set files"))
		}
		ok, err = agreeFiles(os.Stdout, cfg.spec, flag.Arg(0), flag.Arg(1))
	case cfg.workload != "" && *runs == 1 && *sets == 0:
		ok, err = single(cfg)
	default:
		names := []string{cfg.workload}
		if cfg.workload == "" {
			names = nil
			for _, w := range cfg.spec.Workloads {
				names = append(names, w.Name)
			}
		}
		ok, err = drive(cfg, names, *runs, *sets, *out)
	}
	if err != nil {
		fatal(err)
	}
	if !ok {
		os.Exit(1)
	}
}

// single is one run of one workload in this process.
func single(cfg config) (bool, error) {
	dir, cleanup, err := scratch(cfg.workload)
	if err != nil {
		return false, err
	}
	defer cleanup()
	cfg.dir = dir
	res, err := execute(cfg, os.Stdout)
	return res.Correct, err
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "benchstack: %v\n", err)
	os.Exit(2)
}
