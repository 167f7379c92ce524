// Command pushpull is the CLI over the unified push/pull engine: it runs
// any registered algorithm on any suite workload through the public
// pushpull.Run facade, and regenerates any table or figure of the
// HPDC'17 paper "To Push or To Pull: On Reducing Communication and
// Synchronization in Graph Computations" from this reproduction.
//
// Usage:
//
//	pushpull [flags] run <algorithm>   # one engine run via the facade
//	pushpull [flags] serve             # HTTP serving front over an Engine
//	pushpull [flags] route             # cluster router over serve workers
//	pushpull jobs <sub>                # async-job client: submit/status/
//	                                   # result/cancel/wait over /jobs
//	pushpull [flags] <experiment-id>|all|list
//
//	pushpull run pr -dir pull          # PageRank, pulling
//	pushpull run pr -directed          # directed PageRank (§4.8, both views)
//	pushpull -t 8 run sssp -graph rca -dir auto
//	pushpull run pr -probes            # instrumented run + counter bill
//	pushpull run dist-pr-mp -ranks 32  # §6.3 simulated cluster
//	pushpull serve -addr :8080 -graphs rmat,rca
//	pushpull serve -workers 4 -store /var/lib/pushpull
//	pushpull serve -jobs-keep 1024 -jobs-ttl 1h   # finished-job retention (the defaults)
//	pushpull route -addr :8090 -workers http://h1:8080,http://h2:8080
//	pushpull table3                    # PR and TC push-vs-pull times
//	pushpull all                       # every experiment, paper order
//
// Global flags:
//
//	-t <n>      worker threads (default: GOMAXPROCS)
//	-scale <f>  workload scale multiplier (default 1.0)
//	-seed <n>   generator seed (default 42)
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"pushpull"
	"pushpull/cluster"
	"pushpull/internal/harness"
	"pushpull/jobs"
	"pushpull/serve"
)

func main() {
	threads := flag.Int("t", 0, "worker threads (0 = GOMAXPROCS)")
	scale := flag.Float64("scale", 1.0, "workload scale multiplier")
	seed := flag.Uint64("seed", 42, "generator seed")
	flag.Usage = usage
	flag.Parse()

	if flag.NArg() < 1 {
		usage()
		os.Exit(2)
	}
	arg := flag.Arg(0)
	switch arg {
	case "run":
		runAlgorithm(flag.Args()[1:], *threads, *scale, *seed)
		return
	case "serve":
		serveEngine(flag.Args()[1:], *scale, *seed)
		return
	case "route":
		routeCluster(flag.Args()[1:])
		return
	case "jobs":
		jobsCommand(flag.Args()[1:])
		return
	case "list":
		printCatalog(os.Stdout)
		return
	case "all":
		cfg := harness.Config{Threads: *threads, Scale: *scale, Seed: *seed, Out: os.Stdout}
		for _, e := range harness.All() {
			if err := e.Run(cfg); err != nil {
				fmt.Fprintf(os.Stderr, "pushpull: %s: %v\n", e.ID, err)
				os.Exit(1)
			}
			fmt.Println()
		}
		return
	default:
		cfg := harness.Config{Threads: *threads, Scale: *scale, Seed: *seed, Out: os.Stdout}
		e, ok := harness.ByID(arg)
		if !ok {
			fmt.Fprintf(os.Stderr, "pushpull: unknown experiment %q (valid: %v, or 'run'/'all'/'list')\n",
				arg, harness.IDs())
			os.Exit(2)
		}
		if err := e.Run(cfg); err != nil {
			fmt.Fprintf(os.Stderr, "pushpull: %s: %v\n", e.ID, err)
			os.Exit(1)
		}
	}
}

// runAlgorithm is the facade path: build the workload, run one algorithm
// through pushpull.Run, print the uniform report.
func runAlgorithm(args []string, threads int, scale float64, seed uint64) {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	graphID := fs.String("graph", "rmat", "suite workload id (see graphgen)")
	directed := fs.Bool("directed", false, "run on a directed workload (the suite graph deterministically oriented)")
	weightedF := fs.Bool("weighted", false, "attach edge weights to the workload (implied by sssp/mst)")
	dir := fs.String("dir", "auto", "update direction: push, pull, auto")
	iters := fs.Int("iters", 0, "iteration bound: pr iterations / gc max-iters (0 = algorithm default)")
	source := fs.Int("source", 0, "source vertex for traversals")
	sourcesCSV := fs.String("sources", "", "comma-separated source vertices for bc (default: 8 sampled)")
	delta := fs.Float64("delta", 0, "Δ-stepping bucket width (0 = heuristic)")
	probes := fs.Bool("probes", false, "instrumented run: print the event-counter bill")
	ranks := fs.Int("ranks", 0, "simulated cluster size for dist-* algorithms (0 = default)")
	timeout := fs.Duration("timeout", 0, "abort the run after this long (0 = none)")
	// Accept both "run pr -dir pull" and "run -dir pull pr".
	algo := ""
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		algo, args = args[0], args[1:]
	}
	fs.Parse(args)
	if algo == "" && fs.NArg() == 1 {
		algo = fs.Arg(0)
	} else if algo == "" || fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "usage: pushpull [flags] run <algorithm> [run-flags]\nAlgorithms: %s\n",
			strings.Join(pushpull.Algorithms(), ", "))
		os.Exit(2)
	}

	var d pushpull.Direction
	switch *dir {
	case "push":
		d = pushpull.Push
	case "pull":
		d = pushpull.Pull
	case "auto":
		d = pushpull.Auto
	default:
		fmt.Fprintf(os.Stderr, "pushpull: bad -dir %q (push, pull, auto)\n", *dir)
		os.Exit(2)
	}

	// Validate the algorithm before paying for workload construction.
	if _, err := pushpull.Lookup(algo); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	// sssp and mst declare NeedsWeights, so they imply -weighted; every
	// suite graph supports a weighted build.
	wantWeights := *weightedF || algo == "sssp" || algo == "mst"
	var g *pushpull.Graph
	var err error
	if wantWeights {
		g, err = pushpull.NamedWeightedGraph(*graphID, scale, seed)
	} else {
		g, err = pushpull.NamedGraph(*graphID, scale, seed)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "pushpull: %v\n", err)
		os.Exit(1)
	}

	// Map the flags onto a Workload handle declaring the graph kind; the
	// engine validates it against the algorithm's capabilities up front.
	var wopts []pushpull.WorkloadOption
	if wantWeights {
		wopts = append(wopts, pushpull.AsWeighted())
	}
	if *directed {
		if g, err = orientDirected(g); err != nil {
			fmt.Fprintf(os.Stderr, "pushpull: %v\n", err)
			os.Exit(1)
		}
		wopts = append(wopts, pushpull.AsDirected())
	}
	workload := pushpull.NewWorkload(g, wopts...)
	m, avgDeg := g.UndirectedM(), g.AvgDegree()
	if *directed {
		m = g.M() // arcs, not undirected pairs
		avgDeg = float64(g.M()) / float64(g.N())
	}
	fmt.Printf("workload %s (%s): n=%d m=%d d̄=%.1f\n",
		*graphID, workload.Kind(), g.N(), m, avgDeg)

	var sources []pushpull.V
	if *sourcesCSV != "" {
		for _, f := range strings.Split(*sourcesCSV, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil {
				fmt.Fprintf(os.Stderr, "pushpull: bad -sources entry %q: %v\n", f, err)
				os.Exit(2)
			}
			sources = append(sources, pushpull.V(v))
		}
	} else if algo == "bc" {
		// Exact all-sources Brandes is O(n·m); sample like the paper's
		// BC experiments do unless sources are pinned explicitly.
		for v := 0; v < g.N() && v < 8; v++ {
			sources = append(sources, pushpull.V(v))
		}
		fmt.Printf("bc: sampling %d sources (pin with -sources v1,v2,...)\n", len(sources))
	}

	ctx := context.Background()
	if *timeout > 0 {
		if *probes || strings.HasPrefix(algo, "dist-") {
			// Instrumented and simulated-cluster runs are deterministic
			// passes that never poll ctx (see WithProbes / the dist docs).
			fmt.Fprintln(os.Stderr, "pushpull: warning: -timeout has no effect on probed or dist-* runs (they always run to completion)")
		}
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	start := time.Now()
	opts := []pushpull.Option{
		pushpull.WithDirection(d),
		pushpull.WithThreads(threads),
		pushpull.WithIterations(*iters),
		pushpull.WithMaxIters(*iters),
		pushpull.WithSource(pushpull.V(*source)),
		pushpull.WithSources(sources),
		pushpull.WithDelta(*delta),
		pushpull.WithRanks(*ranks),
	}
	if *probes {
		opts = append(opts, pushpull.WithProbes())
	}
	rep, err := pushpull.Run(ctx, workload, algo, opts...)
	if err != nil && rep == nil {
		// Capability mismatches are typed: print the one-line verdict and
		// a usable hint, not a stack of internals.
		switch {
		case errors.Is(err, pushpull.ErrNeedsWeights):
			fmt.Fprintf(os.Stderr, "pushpull: %s needs edge weights; rerun with -weighted\n", algo)
		case errors.Is(err, pushpull.ErrDirectedUnsupported):
			fmt.Fprintf(os.Stderr, "pushpull: %s does not support directed workloads; drop -directed\n", algo)
		case errors.Is(err, pushpull.ErrProbesUnsupported):
			fmt.Fprintf(os.Stderr, "pushpull: %s has no instrumented variant; drop -probes\n", algo)
		case errors.Is(err, pushpull.ErrPartitionAwareUnsupported):
			fmt.Fprintf(os.Stderr, "pushpull: %s does not support partition awareness here: %v\n", algo, err)
		case errors.Is(err, pushpull.ErrBadOption):
			fmt.Fprintln(os.Stderr, err) // already carries the pushpull: prefix
		default:
			fmt.Fprintln(os.Stderr, err) // facade errors carry their own prefix
		}
		os.Exit(1)
	}
	if err != nil {
		fmt.Printf("aborted after %v: %v\n", time.Since(start).Round(time.Millisecond), err)
		fmt.Println(rep.Summary())
		os.Exit(1)
	}
	fmt.Println(rep.Summary())
	if strings.HasPrefix(algo, "dist-") {
		fmt.Println("(the reported time is the simulated cluster makespan)")
	}
	if rep.Counters != nil {
		fmt.Print(rep.Counters) // the event bill of probed and dist-* runs
	}
}

// serveEngine starts the HTTP serving front: one long-lived Engine with
// one bounded admission queue, single-flight dedup, a byte-bounded LRU
// result cache and an optional persistent graph store, exposed via
// pushpull/serve.
func serveEngine(args []string, scale float64, seed uint64) {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address")
	workers := fs.Int("workers", 0, "concurrent runs the engine admits, async jobs included (0 = GOMAXPROCS)")
	cache := fs.Int("cache", pushpull.DefaultCacheCapacity, "result-cache capacity in entries (0 disables)")
	cacheBytes := fs.Int64("cache-bytes", pushpull.DefaultCacheBytes, "result-cache byte budget: cached payloads plus their memoized encodings; the least recently used results are evicted to stay under it (0 = no byte bound, -cache alone governs)")
	store := fs.String("store", "", "persist uploaded graphs to this directory (restored on restart)")
	maxMemory := fs.Int64("max-memory", 0, "per-graph memory budget in bytes: stored graphs whose CSR would exceed it are persisted in the out-of-core block format and served block-sequentially off disk (0 = unlimited; requires -store)")
	graphs := fs.String("graphs", "", "comma-separated suite graph ids to preload (e.g. rmat,rca; weights attached)")
	maxQueue := fs.Int("max-queue", 1024, "admission-queue bound: excess runs are shed with 429 + Retry-After (0 = queue unboundedly)")
	maxUpload := fs.Int64("max-upload", serve.MaxGraphBytes, "PUT /graphs body limit in bytes; larger uploads get 413")
	jobsKeep := fs.Int("jobs-keep", jobs.DefaultKeep, "finished jobs kept for status and result fetches; beyond it the oldest is collected (record, and its result payload once no kept job shares it)")
	jobsTTL := fs.Duration("jobs-ttl", jobs.DefaultTTL, "how long a finished job is kept before it is collected, e.g. 10m, 24h")
	fs.Parse(args)
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "usage: pushpull [flags] serve [-addr host:port] [-workers n] [-cache n] [-cache-bytes n] [-max-queue n] [-max-upload bytes] [-jobs-keep n] [-jobs-ttl d] [-store dir] [-max-memory bytes] [-graphs ids]\n")
		os.Exit(2)
	}
	// Negative values would otherwise silently mean "unbounded" or
	// "disabled"; a sign error deserves a verdict, not a surprise.
	badFlag := func(name, hint string) {
		fmt.Fprintf(os.Stderr, "pushpull: serve: -%s must not be negative (%s)\n", name, hint)
		os.Exit(2)
	}
	if *workers < 0 {
		badFlag("workers", "0 means GOMAXPROCS workers")
	}
	if *cache < 0 {
		badFlag("cache", "0 disables the result cache")
	}
	if *cacheBytes < 0 {
		badFlag("cache-bytes", "0 means no byte bound on the result cache")
	}
	if *maxQueue < 0 {
		badFlag("max-queue", "0 means an unbounded queue")
	}
	if *maxUpload < 0 {
		badFlag("max-upload", "bytes; the default is 1 GiB")
	}
	if *jobsKeep < 1 || *jobsTTL <= 0 {
		fmt.Fprintf(os.Stderr, "pushpull: serve: -jobs-keep and -jobs-ttl must be positive (a finished job has to stay long enough for its result to be fetched; defaults %d and %v)\n", jobs.DefaultKeep, jobs.DefaultTTL)
		os.Exit(2)
	}
	if *maxMemory < 0 {
		badFlag("max-memory", "0 means no per-graph budget")
	}
	if *maxMemory > 0 && *store == "" {
		fmt.Fprintf(os.Stderr, "pushpull: serve: -max-memory requires -store (the out-of-core block files live in the store directory)\n")
		os.Exit(2)
	}
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "cache-bytes" && *cache == 0 {
			fmt.Fprintf(os.Stderr, "pushpull: serve: -cache-bytes %d has no effect with -cache 0 (the result cache is disabled)\n", *cacheBytes)
			os.Exit(2)
		}
	})

	engOpts := []pushpull.EngineOption{pushpull.WithResultCache(*cache), pushpull.WithResultCacheBytes(*cacheBytes)}
	if *workers > 0 {
		engOpts = append(engOpts, pushpull.WithWorkers(*workers))
	}
	if *maxQueue > 0 {
		engOpts = append(engOpts, pushpull.WithQueueLimit(*maxQueue))
	}
	eng := pushpull.NewEngine(engOpts...)

	if *store != "" {
		var dsOpts []pushpull.DiskOption
		if *maxMemory > 0 {
			dsOpts = append(dsOpts, pushpull.WithBlockThreshold(*maxMemory))
		}
		ds, err := pushpull.NewDiskStore(*store, dsOpts...)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pushpull: serve: opening store: %v\n", err)
			os.Exit(1)
		}
		if err := eng.AttachStore(ds); err != nil {
			fmt.Fprintf(os.Stderr, "pushpull: serve: restoring store: %v\n", err)
			os.Exit(1)
		}
		if restored := eng.WorkloadNames(); len(restored) > 0 {
			fmt.Printf("restored %d graph(s) from %s: %s\n", len(restored), *store, strings.Join(restored, ", "))
		}
	}

	if *graphs != "" {
		for _, id := range strings.Split(*graphs, ",") {
			id = strings.TrimSpace(id)
			if id == "" {
				continue
			}
			// Weighted builds serve every algorithm, sssp/mst included.
			g, err := pushpull.NamedWeightedGraph(id, scale, seed)
			if err != nil {
				fmt.Fprintf(os.Stderr, "pushpull: preload %q: %v\n", id, err)
				os.Exit(1)
			}
			w := pushpull.NewWorkload(g, pushpull.AsWeighted())
			if err := eng.RegisterWorkload(id, w); err != nil {
				fmt.Fprintf(os.Stderr, "pushpull: preload %q: %v\n", id, err)
				os.Exit(1)
			}
			fmt.Printf("preloaded %s (%s): n=%d m=%d\n", id, w.Kind(), g.N(), g.UndirectedM())
		}
	}

	// The async job queue: durable next to the graph store when one is
	// configured (DiskStore ignores subdirectories, so <store>/jobs is
	// safe ground), in-memory otherwise.
	var jobStore jobs.JobStore
	if *store != "" {
		js, err := jobs.NewDiskJobStore(filepath.Join(*store, "jobs"))
		if err != nil {
			fmt.Fprintf(os.Stderr, "pushpull: serve: opening job store: %v\n", err)
			os.Exit(1)
		}
		jobStore = js
	}
	mgr, err := jobs.NewManager(eng, jobs.WithStore(jobStore), jobs.WithRetention(*jobsKeep, *jobsTTL))
	if err != nil {
		fmt.Fprintf(os.Stderr, "pushpull: serve: recovering jobs: %v\n", err)
		os.Exit(1)
	}
	if js := mgr.Stats(); js.Queued > 0 || js.Interrupted > 0 {
		fmt.Printf("recovered jobs: %d re-queued, %d interrupted\n", js.Queued, js.Interrupted)
	}

	handler := serve.New(eng, serve.WithMaxUpload(*maxUpload), serve.WithJobManager(mgr))
	srv := &http.Server{
		Addr:    *addr,
		Handler: handler,
		// A long-lived front must shed stalled clients: without these a
		// trickled header or never-finished upload pins its goroutine
		// and connection forever.
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	fmt.Printf("serving %d algorithms on http://%s (workers=%d cache=%d cache-bytes=%d store=%q)\n",
		len(pushpull.Algorithms()), *addr, eng.Stats().Workers, *cache, *cacheBytes, *store)
	select {
	case err := <-errc:
		fmt.Fprintf(os.Stderr, "pushpull: serve: %v\n", err)
		os.Exit(1)
	case sig := <-sigc:
		fmt.Printf("caught %v, draining\n", sig)
		// Drain first: queued (not-yet-admitted) runs fail with 503
		// immediately, so Shutdown only waits on runs actually holding a
		// worker slot instead of racing an immobile queue. The job
		// manager stops last — queued jobs keep their durable state for
		// the next process to recover.
		handler.Drain()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "pushpull: shutdown: %v\n", err)
			os.Exit(1)
		}
		mgr.Close()
	}
}

// routeCluster starts the cluster tier: a router process speaking the
// serve API, fanning requests out over a fleet of `pushpull serve`
// worker base URLs with content-hash rendezvous placement, R-way upload
// replication, health-checked failover and epoch-fenced invalidation.
func routeCluster(args []string) {
	fs := flag.NewFlagSet("route", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8090", "listen address")
	workersCSV := fs.String("workers", "", "comma-separated worker base URLs (required, e.g. http://h1:8080,http://h2:8080)")
	replicas := fs.Int("replicas", 2, "replication factor R: each uploaded graph lives on R workers")
	retry := fs.Int("retry", 3, "extra run attempts after the first, rotating through the graph's replicas")
	retryBase := fs.Duration("retry-base", 50*time.Millisecond, "first retry backoff (doubles per attempt, capped at 1s)")
	healthInterval := fs.Duration("health-interval", 2*time.Second, "background health-probe period")
	healthTimeout := fs.Duration("health-timeout", time.Second, "per-probe timeout")
	maxUpload := fs.Int64("max-upload", serve.MaxGraphBytes, "PUT /graphs body limit in bytes; larger uploads get 413")
	mutateTimeout := fs.Duration("mutate-timeout", 0, "per-worker deadline for upload/delete fan-outs (0 = the 30s default)")
	fs.Parse(args)
	if fs.NArg() > 0 || *workersCSV == "" {
		fmt.Fprintf(os.Stderr, "usage: pushpull route -workers url1,url2,... [-addr host:port] [-replicas r] [-retry n] [-retry-base d] [-health-interval d] [-health-timeout d] [-mutate-timeout d] [-max-upload bytes]\n")
		os.Exit(2)
	}
	var workers []string
	for _, w := range strings.Split(*workersCSV, ",") {
		if w = strings.TrimSpace(w); w != "" {
			workers = append(workers, w)
		}
	}
	// cluster.New would quietly paper over sign errors with its defaults;
	// a typo on the command line deserves a verdict instead.
	badFlag := func(name, hint string) {
		fmt.Fprintf(os.Stderr, "pushpull: route: -%s must not be negative (%s)\n", name, hint)
		os.Exit(2)
	}
	if *replicas <= 0 {
		fmt.Fprintf(os.Stderr, "pushpull: route: -replicas must be at least 1 (each graph needs a home)\n")
		os.Exit(2)
	}
	if *retry < 0 {
		badFlag("retry", "0 means a single attempt per run")
	}
	if *retryBase < 0 {
		badFlag("retry-base", "0 means the 50ms default")
	}
	if *healthInterval < 0 {
		badFlag("health-interval", "0 means the 2s default")
	}
	if *healthTimeout < 0 {
		badFlag("health-timeout", "0 means the 1s default")
	}
	if *mutateTimeout < 0 {
		badFlag("mutate-timeout", "0 means the 30s default")
	}
	if *maxUpload < 0 {
		badFlag("max-upload", "bytes; the default is 1 GiB")
	}
	if *replicas > len(workers) {
		// Not fatal: the router caps R at the fleet size per upload and
		// counts the event, so the operator can see it in /stats too.
		fmt.Fprintf(os.Stderr, "pushpull: route: warning: -replicas %d exceeds the %d configured worker(s); replication will be capped at the fleet size (counted as replicas_capped in /stats)\n",
			*replicas, len(workers))
	}
	rt, err := cluster.New(cluster.Config{
		Workers:        workers,
		Replicas:       *replicas,
		Retries:        *retry,
		RetryBase:      *retryBase,
		HealthInterval: *healthInterval,
		HealthTimeout:  *healthTimeout,
		MutateTimeout:  *mutateTimeout,
		MaxUpload:      *maxUpload,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "pushpull: route: %v\n", err)
		os.Exit(2)
	}
	rt.Start(context.Background())
	defer rt.Close()

	srv := &http.Server{
		Addr:              *addr,
		Handler:           rt,
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	fmt.Printf("routing over %d worker(s) on http://%s (replicas=%d retry=%d)\n",
		len(workers), *addr, *replicas, *retry)
	select {
	case err := <-errc:
		fmt.Fprintf(os.Stderr, "pushpull: route: %v\n", err)
		os.Exit(1)
	case sig := <-sigc:
		fmt.Printf("caught %v, draining\n", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "pushpull: shutdown: %v\n", err)
			os.Exit(1)
		}
	}
}

// ---- jobs: the async-client subcommands ----

// jobsCommand dispatches `pushpull jobs <sub>`: thin HTTP clients over
// the /jobs endpoints of a serve worker or cluster router.
func jobsCommand(args []string) {
	if len(args) == 0 {
		jobsUsage()
		os.Exit(2)
	}
	sub, rest := args[0], args[1:]
	switch sub {
	case "submit":
		jobsSubmit(rest)
	case "status", "result":
		jobsGet(sub, rest)
	case "cancel":
		jobsCancel(rest)
	case "wait":
		jobsWait(rest)
	default:
		fmt.Fprintf(os.Stderr, "pushpull: jobs: unknown subcommand %q\n", sub)
		jobsUsage()
		os.Exit(2)
	}
}

func jobsUsage() {
	fmt.Fprint(os.Stderr, `usage: pushpull jobs <subcommand> [flags]

  submit [-addr url] [-priority low|normal|high] [-deadline d]
         [-dir push|pull|auto] [-iters n] [-source v]
         <graph> <algorithm>           submit one job, print its ID
  submit [-addr url] [...] -batch g1:a1,g2:a2,...
                                       submit a batch (one job ID per line;
                                       the batch ID goes to stderr)
  status [-addr url] <job-id>          print the job's status JSON
  result [-addr url] <job-id>          print the stored run result
  cancel [-addr url] <job-id>          cancel a queued or running job
  wait   [-addr url] [-timeout d] [-poll d] <job-id> [job-id ...]
                                       poll until terminal; exit 0 only
                                       if every job ended done
`)
}

// jobsClient is the shared HTTP client of the jobs subcommands; generous
// enough for a slow router hop, bounded so a dead server fails fast.
var jobsClient = &http.Client{Timeout: 30 * time.Second}

// jobsFail prints an HTTP-level failure and exits.
func jobsFail(context string, err error) {
	fmt.Fprintf(os.Stderr, "pushpull: jobs: %s: %v\n", context, err)
	os.Exit(1)
}

// jobsDo issues one request and returns the body, exiting on transport
// errors; HTTP-level failures (≥ 400) print the server's error body and
// exit unless okAccepted admits 202.
func jobsDo(method, url string, body []byte) []byte {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		jobsFail(method+" "+url, err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := jobsClient.Do(req)
	if err != nil {
		jobsFail(method+" "+url, err)
	}
	defer resp.Body.Close()
	buf, err := io.ReadAll(io.LimitReader(resp.Body, 1<<26))
	if err != nil {
		jobsFail("reading response", err)
	}
	if resp.StatusCode >= 400 {
		fmt.Fprintf(os.Stderr, "pushpull: jobs: %s %s: HTTP %d: %s", method, url, resp.StatusCode, buf)
		os.Exit(1)
	}
	return buf
}

func jobsSubmit(args []string) {
	fs := flag.NewFlagSet("jobs submit", flag.ExitOnError)
	addr := fs.String("addr", "http://127.0.0.1:8080", "serve worker or cluster router base URL")
	batch := fs.String("batch", "", "comma-separated graph:algorithm pairs submitted as one batch")
	priority := fs.String("priority", "normal", "job priority: low, normal, high")
	deadline := fs.Duration("deadline", 0, "job deadline from now (0 = none); expired jobs fail without running")
	dir := fs.String("dir", "auto", "update direction: push, pull, auto")
	iters := fs.Int("iters", 0, "iteration bound (0 = algorithm default)")
	source := fs.Int("source", 0, "source vertex for traversals")
	fs.Parse(args)
	switch *priority {
	case "low", "normal", "high":
	default:
		fmt.Fprintf(os.Stderr, "pushpull: jobs: bad -priority %q (low, normal, high)\n", *priority)
		os.Exit(2)
	}
	if *deadline < 0 {
		fmt.Fprintln(os.Stderr, "pushpull: jobs: -deadline must not be negative")
		os.Exit(2)
	}
	// The request body is assembled as a raw map so the CLI exercises
	// the same wire shapes a curl user would write.
	spec := func(graph, algo string) map[string]any {
		m := map[string]any{"graph": graph, "algorithm": algo, "priority": *priority}
		if *deadline > 0 {
			m["deadline_ms"] = deadline.Milliseconds()
		}
		opts := map[string]any{}
		if *dir != "" && *dir != "auto" {
			opts["direction"] = *dir
		}
		if *iters > 0 {
			opts["iterations"] = *iters
		}
		if *source > 0 {
			opts["source"] = *source
		}
		if len(opts) > 0 {
			m["options"] = opts
		}
		return m
	}
	var payload map[string]any
	if *batch != "" {
		if fs.NArg() > 0 {
			fmt.Fprintln(os.Stderr, "pushpull: jobs submit: -batch and positional graph/algorithm are mutually exclusive")
			os.Exit(2)
		}
		var specs []map[string]any
		for _, pair := range strings.Split(*batch, ",") {
			graph, algo, ok := strings.Cut(strings.TrimSpace(pair), ":")
			if !ok || graph == "" || algo == "" {
				fmt.Fprintf(os.Stderr, "pushpull: jobs submit: bad -batch entry %q (want graph:algorithm)\n", pair)
				os.Exit(2)
			}
			specs = append(specs, spec(graph, algo))
		}
		payload = map[string]any{"batch": specs}
	} else {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: pushpull jobs submit [flags] <graph> <algorithm>  (or -batch g1:a1,g2:a2,...)")
			os.Exit(2)
		}
		payload = spec(fs.Arg(0), fs.Arg(1))
	}
	body, err := json.Marshal(payload)
	if err != nil {
		jobsFail("encoding request", err)
	}
	resp := jobsDo(http.MethodPost, *addr+"/jobs", body)
	if *batch != "" {
		var br struct {
			BatchID string `json:"batch_id"`
			Jobs    []struct {
				ID string `json:"id"`
			} `json:"jobs"`
		}
		if err := json.Unmarshal(resp, &br); err != nil {
			jobsFail("decoding batch response", err)
		}
		fmt.Fprintf(os.Stderr, "batch %s (%d jobs)\n", br.BatchID, len(br.Jobs))
		for _, j := range br.Jobs {
			fmt.Println(j.ID)
		}
		return
	}
	var j struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(resp, &j); err != nil {
		jobsFail("decoding response", err)
	}
	fmt.Println(j.ID)
}

func jobsGet(sub string, args []string) {
	fs := flag.NewFlagSet("jobs "+sub, flag.ExitOnError)
	addr := fs.String("addr", "http://127.0.0.1:8080", "serve worker or cluster router base URL")
	fs.Parse(args)
	if fs.NArg() != 1 {
		fmt.Fprintf(os.Stderr, "usage: pushpull jobs %s [-addr url] <job-id>\n", sub)
		os.Exit(2)
	}
	path := "/jobs/" + fs.Arg(0)
	if sub == "result" {
		path += "/result"
	}
	os.Stdout.Write(jobsDo(http.MethodGet, *addr+path, nil))
}

func jobsCancel(args []string) {
	fs := flag.NewFlagSet("jobs cancel", flag.ExitOnError)
	addr := fs.String("addr", "http://127.0.0.1:8080", "serve worker or cluster router base URL")
	fs.Parse(args)
	if fs.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: pushpull jobs cancel [-addr url] <job-id>")
		os.Exit(2)
	}
	os.Stdout.Write(jobsDo(http.MethodDelete, *addr+"/jobs/"+fs.Arg(0), nil))
}

func jobsWait(args []string) {
	fs := flag.NewFlagSet("jobs wait", flag.ExitOnError)
	addr := fs.String("addr", "http://127.0.0.1:8080", "serve worker or cluster router base URL")
	timeout := fs.Duration("timeout", time.Minute, "give up after this long")
	poll := fs.Duration("poll", 200*time.Millisecond, "status poll interval")
	fs.Parse(args)
	if fs.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: pushpull jobs wait [-addr url] [-timeout d] [-poll d] <job-id> [job-id ...]")
		os.Exit(2)
	}
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	ticker := time.NewTicker(*poll)
	defer ticker.Stop()
	allDone := true
	for _, id := range fs.Args() {
		for {
			buf := jobsDo(http.MethodGet, *addr+"/jobs/"+id, nil)
			var j struct {
				State string `json:"state"`
			}
			if err := json.Unmarshal(buf, &j); err != nil {
				jobsFail("decoding status", err)
			}
			if jobs.State(j.State).Terminal() {
				fmt.Printf("%s %s\n", id, j.State)
				if jobs.State(j.State) != jobs.StateDone {
					allDone = false
				}
				break
			}
			select {
			case <-ctx.Done():
				fmt.Fprintf(os.Stderr, "pushpull: jobs wait: timed out; %s is still %s\n", id, j.State)
				os.Exit(1)
			case <-ticker.C:
			}
		}
	}
	if !allDone {
		os.Exit(1)
	}
}

// orientDirected derives a directed graph from an undirected suite graph
// by keeping one arc per undirected edge. The orientation is picked by
// endpoint-sum parity — deterministic, but (unlike always low→high) not a
// DAG by construction, so rank can circulate.
func orientDirected(g *pushpull.Graph) (*pushpull.Graph, error) {
	b := pushpull.NewBuilder(g.N()).Directed()
	for v := pushpull.V(0); int(v) < g.N(); v++ {
		ws := g.NeighborWeights(v)
		for i, u := range g.Neighbors(v) {
			if u < v {
				continue // visit each undirected edge once
			}
			from, to := v, u
			if (int(v)+int(u))%2 == 1 {
				from, to = u, v
			}
			if ws != nil {
				b.AddEdgeW(from, to, ws[i])
			} else {
				b.AddEdge(from, to)
			}
		}
	}
	return b.Build()
}

// printCatalog lists every registered algorithm and experiment; shared
// by "pushpull list" and the usage text.
func printCatalog(w io.Writer) {
	fmt.Fprintln(w, "Algorithms (pushpull run <name>; caps in brackets):")
	for _, name := range pushpull.Algorithms() {
		a, _ := pushpull.Lookup(name)
		fmt.Fprintf(w, "  %-18s %s [%s]\n", name, a.Describe(), a.Caps())
	}
	fmt.Fprintln(w, "\nExperiments:")
	for _, e := range harness.All() {
		fmt.Fprintf(w, "  %-8s %-10s %s\n", e.ID, e.Paper, e.Title)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage: pushpull [flags] run <algorithm> | serve | route | jobs <sub> | <experiment-id>|all|list

Runs any push/pull algorithm through the unified engine API, serves the
engine over HTTP (pushpull serve), routes a cluster of serve workers
(pushpull route), drives async jobs on either (pushpull jobs
submit|status|result|cancel|wait), or regenerates the tables and figures
of "To Push or To Pull" (HPDC'17).

`)
	printCatalog(os.Stderr)
	fmt.Fprintf(os.Stderr, "\nFlags:\n")
	flag.PrintDefaults()
}
