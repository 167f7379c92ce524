// Command benchjson seeds and extends the repo's tracked perf
// trajectory: it runs every shared-memory registry algorithm in both
// directions on a suite of workloads and writes one machine-readable
// JSON file, so perf claims land as numbers in the tree instead of prose
// in PR messages.
//
//	go run ./cmd/benchjson -out /tmp/full.json
//	go run ./cmd/benchjson -scale 0.1 -reps 1 -validate -out /tmp/bench.json  # CI smoke
//
// Every kernel row is self-describing: it records its graph, thread
// count (GOMAXPROCS is pinned per row), layout variant (plain or
// degree-sorted — the off-switch baseline is the "plain" row), the
// kernel's Stats.Elapsed (minimum over -reps runs, with the median
// carried alongside as the variance bound; workload construction,
// transposes and permutations are excluded by construction, they are
// memoized on the Workload handle), ns/edge — the normalization the
// paper's tables use — and the peak RSS observed while the row ran. With
// -validate each layout variant's payload is cross-checked against the
// plain kernel's before the row is recorded.
//
// The out_of_core section is the out-of-core RSS evidence: per graph, the
// same pull PageRank runs once over the in-memory CSR and once over a
// buffered block-file handle with the in-memory graph released, and the
// file records both absolute peak RSS values next to the estimated CSR
// footprint. The payloads must agree to 1e-9 or the tool fails.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"pushpull"
)

type kernelEntry struct {
	Graph        string `json:"graph"`
	Algorithm    string `json:"algorithm"`
	Direction    string `json:"direction"`
	Variant      string `json:"variant"`
	DegreeSorted bool   `json:"degree_sorted"`
	Threads      int    `json:"threads"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	Iterations   int    `json:"iterations"`
	Reps         int    `json:"reps"`
	ElapsedNS    int64  `json:"elapsed_ns"`
	// MedianNS bounds the run-to-run variance next to the minimum: a
	// row whose median sits far above its minimum is noisy, and diff
	// tooling can weigh its deltas accordingly.
	MedianNS     int64   `json:"median_ns"`
	NSPerEdge    float64 `json:"ns_per_edge"`
	PeakRSSBytes int64   `json:"peak_rss_bytes"`
}

// oocEntry is one graph's out-of-core RSS evidence: identical pull
// PageRank payloads from the in-memory CSR and from a buffered block
// file, with the absolute peak RSS of each phase. The out-of-core peak
// excludes the O(m) adjacency by construction — only the O(n) vertex
// state and one block per worker are resident.
type oocEntry struct {
	Graph             string  `json:"graph"`
	Algorithm         string  `json:"algorithm"`
	N                 int     `json:"n"`
	M                 int64   `json:"m"`
	CSRBytes          int64   `json:"csr_bytes"`
	InMemoryPeakRSS   int64   `json:"in_memory_peak_rss_bytes"`
	OutOfCorePeakRSS  int64   `json:"out_of_core_peak_rss_bytes"`
	InMemoryElapsedNS int64   `json:"in_memory_elapsed_ns"`
	OutOfCoreElapsed  int64   `json:"out_of_core_elapsed_ns"`
	MaxRankDiff       float64 `json:"max_rank_diff"`
}

type graphEntry struct {
	ID    string  `json:"id"`
	Scale float64 `json:"scale"`
	Seed  uint64  `json:"seed"`
	N     int     `json:"n"`
	M     int64   `json:"m"`
}

type benchFile struct {
	PR            string        `json:"pr"`
	GeneratedUnix int64         `json:"generated_unix"`
	Go            string        `json:"go"`
	GOMAXPROCS    int           `json:"gomaxprocs"`
	Graphs        []graphEntry  `json:"graphs"`
	Kernels       []kernelEntry `json:"kernels"`
	OutOfCore     []oocEntry    `json:"out_of_core"`
}

// variant is one layout configuration of a kernel row.
type variant struct {
	name         string
	degreeSorted bool
}

// variantsFor returns the layout variants worth measuring for an
// algorithm: the plain baseline always (the off-switch row the
// acceptance gate compares against), and degree sorting where the
// algorithm's caps accept it.
func variantsFor(algo string) []variant {
	vs := []variant{{name: "plain"}}
	switch algo {
	case "pr", "bfs", "gc", "gc-fe":
		vs = append(vs, variant{name: "ds", degreeSorted: true})
	}
	return vs
}

func main() {
	out := flag.String("out", "", "output file (required)")
	pr := flag.String("pr", "", "label recorded as the file's trajectory point")
	graphList := flag.String("graphs", "rmat,er", "comma-separated suite workload ids (high-skew rmat vs uniform er by default)")
	scale := flag.Float64("scale", 1.0, "workload scale multiplier")
	seed := flag.Uint64("seed", 42, "generator seed")
	reps := flag.Int("reps", 3, "runs per row; the minimum is recorded")
	iters := flag.Int("iters", 20, "pr iteration count")
	threadList := flag.String("threads", "1", "comma-separated thread counts; GOMAXPROCS is pinned to each in turn")
	validate := flag.Bool("validate", false, "cross-validate each layout variant's payload against the plain kernel")
	flag.Parse()
	if *out == "" {
		fatal("-out: an output file is required")
	}

	threads, err := parseInts(*threadList)
	if err != nil {
		fatal("-threads: %v", err)
	}

	hostProcs := runtime.GOMAXPROCS(0)
	file := benchFile{
		PR:            *pr,
		GeneratedUnix: time.Now().Unix(),
		Go:            runtime.Version(),
		GOMAXPROCS:    hostProcs,
	}

	ctx := context.Background()

	// The RSS evidence runs first, against a fresh heap: nothing from the
	// kernel rows below is resident yet, so the in-memory and out-of-core
	// peaks differ by the CSR footprint, not by allocator history.
	for _, graphID := range strings.Split(*graphList, ",") {
		graphID = strings.TrimSpace(graphID)
		if graphID == "" {
			continue
		}
		file.OutOfCore = append(file.OutOfCore, oocEvidence(ctx, graphID, *scale, *seed, *iters))
	}

	algorithms := []string{"pr", "tc", "bfs", "sssp", "bc", "gc", "gc-fe", "gc-cr", "mst"}
	for _, graphID := range strings.Split(*graphList, ",") {
		graphID = strings.TrimSpace(graphID)
		if graphID == "" {
			continue
		}
		g, err := pushpull.NamedWeightedGraph(graphID, *scale, *seed)
		if err != nil {
			fatal("workload %s: %v", graphID, err)
		}
		w := pushpull.NewWorkload(g, pushpull.AsWeighted())
		file.Graphs = append(file.Graphs, graphEntry{
			ID: graphID, Scale: *scale, Seed: *seed, N: w.N(), M: w.M(),
		})
		for _, t := range threads {
			prev := runtime.GOMAXPROCS(t)
			rows := benchGraph(ctx, w, graphID, algorithms, t, *iters, *reps, *validate)
			runtime.GOMAXPROCS(prev)
			file.Kernels = append(file.Kernels, rows...)
		}
	}
	if len(file.Graphs) == 0 {
		fatal("-graphs: no workloads")
	}

	buf, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		fatal("encoding: %v", err)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fatal("writing %s: %v", *out, err)
	}
	fmt.Printf("wrote %s: %d kernel rows + %d out-of-core entries over %d graph(s), threads %v\n",
		*out, len(file.Kernels), len(file.OutOfCore), len(file.Graphs), threads)
}

// benchGraph measures every (algorithm, direction, variant) row on one
// workload at one thread count. GOMAXPROCS is already pinned by the
// caller; the same value goes into the row so multi-thread files stay
// self-describing.
func benchGraph(ctx context.Context, w *pushpull.Workload, graphID string, algorithms []string, threads, iters, reps int, validate bool) []kernelEntry {
	var rows []kernelEntry
	for _, algo := range algorithms {
		for _, dir := range []pushpull.Direction{pushpull.Push, pushpull.Pull} {
			// The plain row runs first so layout variants can
			// cross-validate against its payload.
			var plain *pushpull.Report
			for _, v := range variantsFor(algo) {
				opts := []pushpull.Option{
					pushpull.WithDirection(dir),
					pushpull.WithThreads(threads),
				}
				if v.degreeSorted {
					opts = append(opts, pushpull.WithDegreeSorted())
				}
				if algo == "pr" {
					opts = append(opts, pushpull.WithIterations(iters))
				}
				if algo == "bc" {
					// Exact Brandes is O(n·m): sample sources like the
					// paper's BC runs (and the CLI default) do.
					var sources []pushpull.V
					for s := 0; s < w.N() && s < 8; s++ {
						sources = append(sources, pushpull.V(s))
					}
					opts = append(opts, pushpull.WithSources(sources))
				}

				best := int64(0)
				iterations := 0
				skipped := false
				elapsed := make([]int64, 0, reps)
				rss := startRSSSampler()
				var last *pushpull.Report
				for r := 0; r < reps; r++ {
					rep, err := pushpull.Run(ctx, w, algo, opts...)
					if err != nil {
						fmt.Fprintf(os.Stderr, "benchjson: skipping %s/%s/%s/%s: %v\n",
							graphID, algo, dirName(dir), v.name, err)
						skipped = true
						break
					}
					last = rep
					e := int64(rep.Stats.Elapsed)
					elapsed = append(elapsed, e)
					if best == 0 || e < best {
						best = e
						iterations = rep.Stats.Iterations
					}
				}
				peak := rss.Stop()
				if skipped {
					continue
				}
				if v.name == "plain" {
					plain = last
				} else if validate && plain != nil {
					if err := crossValidate(w, algo, plain, last); err != nil {
						fatal("validate %s/%s/%s/%s: %v", graphID, algo, dirName(dir), v.name, err)
					}
				}
				rows = append(rows, kernelEntry{
					Graph:        graphID,
					Algorithm:    algo,
					Direction:    dirName(dir),
					Variant:      v.name,
					DegreeSorted: v.degreeSorted,
					Threads:      threads,
					GOMAXPROCS:   runtime.GOMAXPROCS(0),
					Iterations:   iterations,
					Reps:         reps,
					ElapsedNS:    best,
					MedianNS:     medianNS(elapsed),
					NSPerEdge:    float64(best) / float64(w.M()),
					PeakRSSBytes: peak,
				})
			}
		}
	}
	return rows
}

// medianNS returns the median of the per-rep elapsed samples (0 when
// the row recorded none).
func medianNS(samples []int64) int64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]int64(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	mid := len(s) / 2
	if len(s)%2 == 0 {
		return (s[mid-1] + s[mid]) / 2
	}
	return s[mid]
}

// oocEvidence produces the out-of-core RSS proof for one graph: pull
// PageRank once over the in-memory CSR and once over a buffered block
// file with the in-memory graph released in between, sampling the
// absolute peak RSS of each phase. The buffered handle keeps the O(n)
// vertex state and one block per worker resident — never the O(m)
// adjacency — so the second peak must sit below the first by roughly
// the CSR footprint once the adjacency dominates. The two payloads must
// agree to 1e-9 or the tool fails.
func oocEvidence(ctx context.Context, graphID string, scale float64, seed uint64, iters int) oocEntry {
	g, err := pushpull.NamedWeightedGraph(graphID, scale, seed)
	if err != nil {
		fatal("ooc workload %s: %v", graphID, err)
	}
	w := pushpull.NewWorkload(g, pushpull.AsWeighted())
	entry := oocEntry{Graph: graphID, Algorithm: "pr", N: w.N(), M: w.M()}
	// Estimated in-memory CSR footprint: offsets + adjacency + weights.
	entry.CSRBytes = 8*int64(w.N()+1) + 4*w.M() + 4*w.M()

	dir, err := os.MkdirTemp("", "benchjson-ooc-")
	if err != nil {
		fatal("ooc tempdir: %v", err)
	}
	defer os.RemoveAll(dir)
	store, err := pushpull.NewDiskStore(dir,
		pushpull.WithBlockThreshold(1), pushpull.WithBufferedBlocks())
	if err != nil {
		fatal("ooc store: %v", err)
	}
	if err := store.Put(graphID, w); err != nil {
		fatal("ooc put %s: %v", graphID, err)
	}

	opts := []pushpull.Option{
		pushpull.WithDirection(pushpull.Pull),
		pushpull.WithIterations(iters),
	}
	settle := func() {
		runtime.GC()
		debug.FreeOSMemory()
	}

	settle()
	rss := startRSSSampler()
	rep, err := pushpull.Run(ctx, w, "pr", opts...)
	entry.InMemoryPeakRSS = rss.Stop()
	if err != nil {
		fatal("ooc in-memory pr %s: %v", graphID, err)
	}
	want := rep.Ranks()
	entry.InMemoryElapsedNS = int64(rep.Stats.Elapsed)

	// Release the in-memory CSR before the out-of-core phase; the block
	// file is now the only copy of the adjacency.
	g, w, rep = nil, nil, nil
	_ = g
	settle()

	ow, ok, err := store.OutOfCoreHandle(graphID)
	if err != nil || !ok {
		fatal("ooc handle %s: ok=%v err=%v", graphID, ok, err)
	}
	settle()
	rss = startRSSSampler()
	orep, err := pushpull.Run(ctx, ow, "pr", opts...)
	entry.OutOfCorePeakRSS = rss.Stop()
	if err != nil {
		fatal("ooc blocked pr %s: %v", graphID, err)
	}
	entry.OutOfCoreElapsed = int64(orep.Stats.Elapsed)
	entry.MaxRankDiff = pushpull.MaxDiff(want, orep.Ranks())
	if entry.MaxRankDiff > 1e-9 {
		fatal("ooc %s: blocked payload diverges from in-memory pull: max diff %g",
			graphID, entry.MaxRankDiff)
	}
	return entry
}

// crossValidate checks a layout variant's payload against the plain
// kernel's: rank vectors elementwise (loose where atomic scatter order
// is nondeterministic), BFS levels exactly (levels are unique even when
// parents are not), colorings for properness.
func crossValidate(w *pushpull.Workload, algo string, plain, got *pushpull.Report) error {
	switch {
	case plain.Ranks() != nil:
		tol := 1e-9
		if algo != "pr" {
			tol = 1e-6
		}
		if d := pushpull.MaxDiff(plain.Ranks(), got.Ranks()); d > tol {
			return fmt.Errorf("rank payload diverges from plain kernel: max diff %g", d)
		}
	case plain.Tree() != nil:
		pt, gt := plain.Tree(), got.Tree()
		if len(pt.Level) != len(gt.Level) {
			return fmt.Errorf("level vector length %d vs plain %d", len(gt.Level), len(pt.Level))
		}
		for v := range pt.Level {
			if pt.Level[v] != gt.Level[v] {
				return fmt.Errorf("vertex %d at level %d, plain kernel says %d", v, gt.Level[v], pt.Level[v])
			}
		}
	case plain.Colors() != nil:
		if err := pushpull.ValidateColoring(w.Graph(), got.Colors()); err != nil {
			return fmt.Errorf("improper coloring: %w", err)
		}
	}
	return nil
}

// rssSampler polls VmRSS from /proc/self/status while a row runs and
// keeps the maximum. Peak RSS — not the post-run value — is what the
// permutation buffers show up in.
type rssSampler struct {
	stop chan struct{}
	done chan struct{}
	peak int64
}

func startRSSSampler() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			if r := readVmRSS(); r > s.peak {
				s.peak = r
			}
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// Stop ends sampling and returns the peak observed RSS in bytes (0 when
// /proc is unavailable).
func (s *rssSampler) Stop() int64 {
	close(s.stop)
	<-s.done
	return s.peak
}

// readVmRSS parses the resident set size out of /proc/self/status,
// returning bytes, or 0 off Linux.
func readVmRSS() int64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmRSS:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return 0
		}
		return kb * 1024
	}
	return 0
}

// parseInts parses a comma-separated list of positive ints.
func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad thread count %q", part)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty list")
	}
	return out, nil
}

func dirName(d pushpull.Direction) string {
	if d == pushpull.Pull {
		return "pull"
	}
	return "push"
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchjson: "+format+"\n", args...)
	os.Exit(1)
}
