// Command benchdiff compares two tracked bench trajectory files and
// prints per-kernel ns/edge deltas. By default it is report-only: the
// exit status does not depend on the deltas, so CI can surface
// regressions in the job log without gating merges on noisy timing.
// With -gate <pct> it exits nonzero when any single-thread plain-variant
// row regresses by more than pct percent — the plain rows are the
// off-switch baseline the acceptance criteria protect, and at one
// thread they are the least noisy rows in the file, so they are the
// only ones worth failing a build over (multithread rows ride the
// scheduler and stay report-only). The
// variance bounds keep the gate honest: when both files carry medians,
// a row gates only if the min-of-reps AND the median regress past the
// threshold (a real regression moves the whole distribution; scheduler
// noise rarely moves both), and a row whose median sits more than 50%
// above its own minimum is reported but never gates.
//
//	go run ./cmd/benchdiff -new /tmp/smoke.json -gate 25
//
// Every row names its graph, thread count and layout variant, which
// together with the algorithm and direction identify it across files.
//
// The walk is over the candidate file's rows: a row only the baseline has
// (a layout variant deleted since, which the committed older files still
// carry) is not compared and not an error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

// kernelRow is the part of a kernel row benchdiff compares.
type kernelRow struct {
	Graph     string  `json:"graph"`
	Algorithm string  `json:"algorithm"`
	Direction string  `json:"direction"`
	Variant   string  `json:"variant"`
	Threads   int     `json:"threads"`
	ElapsedNS int64   `json:"elapsed_ns"`
	MedianNS  int64   `json:"median_ns"`
	NSPerEdge float64 `json:"ns_per_edge"`
}

// noisy reports whether a row's variance bound disqualifies it from
// gating: the median sits more than 50% above the recorded minimum.
// Rows from files without medians (pre-PR10) are never noisy.
func (k kernelRow) noisy() bool {
	return k.MedianNS > 0 && k.ElapsedNS > 0 &&
		float64(k.MedianNS) > 1.5*float64(k.ElapsedNS)
}

type benchFile struct {
	PR      string      `json:"pr"`
	Kernels []kernelRow `json:"kernels"`
}

// key identifies a comparable row across files.
type key struct {
	graph, algo, dir, variant string
	threads                   int
}

func load(path string) (*benchFile, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f benchFile
	if err := json.Unmarshal(buf, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

func index(f *benchFile) map[key]kernelRow {
	m := make(map[key]kernelRow, len(f.Kernels))
	for _, k := range f.Kernels {
		m[key{k.Graph, k.Algorithm, k.Direction, k.Variant, k.Threads}] = k
	}
	return m
}

func main() {
	oldPath := flag.String("old", "BENCH_pr10_smoke.json", "baseline trajectory file")
	newPath := flag.String("new", "", "candidate trajectory file (required)")
	gate := flag.Float64("gate", 0, "fail (exit 1) when a plain-variant row regresses by more than this percent; 0 keeps the report-only behavior")
	flag.Parse()
	if *newPath == "" {
		fatal("-new: a candidate trajectory file is required")
	}

	oldFile, err := load(*oldPath)
	if err != nil {
		fatal("%v", err)
	}
	newFile, err := load(*newPath)
	if err != nil {
		fatal("%v", err)
	}

	oldRows := index(oldFile)
	var keys []key
	for _, k := range newFile.Kernels {
		keys = append(keys, key{k.Graph, k.Algorithm, k.Direction, k.Variant, k.Threads})
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.graph != b.graph {
			return a.graph < b.graph
		}
		if a.algo != b.algo {
			return a.algo < b.algo
		}
		if a.dir != b.dir {
			return a.dir < b.dir
		}
		if a.threads != b.threads {
			return a.threads < b.threads
		}
		return a.variant < b.variant
	})

	newRows := index(newFile)
	fmt.Printf("ns/edge: %s (pr%s) -> %s (pr%s)\n", *oldPath, oldFile.PR, *newPath, newFile.PR)
	fmt.Printf("%-6s %-6s %-5s %-7s %3s %12s %12s %9s\n",
		"graph", "algo", "dir", "variant", "t", "old", "new", "delta")
	matched, unmatched := 0, 0
	var regressions []string
	for _, k := range keys {
		nk := newRows[k]
		ok, found := oldRows[k]
		if !found {
			unmatched++
			fmt.Printf("%-6s %-6s %-5s %-7s %3d %12s %12.2f %9s\n",
				k.graph, k.algo, k.dir, k.variant, k.threads, "-", nk.NSPerEdge, "new")
			continue
		}
		matched++
		delta := 100 * (nk.NSPerEdge - ok.NSPerEdge) / ok.NSPerEdge
		note := ""
		if *gate > 0 && k.variant == "plain" && k.threads == 1 && delta > *gate {
			switch {
			case ok.noisy() || nk.noisy():
				note = "  (noisy, not gated)"
			case ok.MedianNS > 0 && nk.MedianNS > 0 &&
				100*float64(nk.MedianNS-ok.MedianNS)/float64(ok.MedianNS) <= *gate:
				// The minimum regressed but the median did not: the
				// distribution has not moved, only its best sample.
				note = "  (median holds, not gated)"
			default:
				note = "  REGRESSION"
				regressions = append(regressions, fmt.Sprintf(
					"%s/%s/%s t=%d: %.2f -> %.2f ns/edge (%+.1f%% > %.0f%%)",
					k.graph, k.algo, k.dir, k.threads, ok.NSPerEdge, nk.NSPerEdge, delta, *gate))
			}
		}
		fmt.Printf("%-6s %-6s %-5s %-7s %3d %12.2f %12.2f %+8.1f%%%s\n",
			k.graph, k.algo, k.dir, k.variant, k.threads, ok.NSPerEdge, nk.NSPerEdge, delta, note)
	}
	fmt.Printf("%d row(s) compared, %d new row(s) without a baseline\n", matched, unmatched)
	if len(regressions) > 0 {
		fmt.Fprintf(os.Stderr, "benchdiff: %d plain-variant regression(s) beyond %.0f%%:\n", len(regressions), *gate)
		for _, r := range regressions {
			fmt.Fprintf(os.Stderr, "  %s\n", r)
		}
		os.Exit(1)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchdiff: "+format+"\n", args...)
	os.Exit(1)
}
