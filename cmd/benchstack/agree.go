package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// Result sets and self-agreement: the benchmark run repeatedly as child
// processes (one process per run, so that peak memory and warm-up are
// each run's own), and two such sets of the same code compared metric by
// metric against the bounds — the check a later performance claim has to
// pass against its parent, applied here to the benchmark itself.

type setRun struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Trace    bool   `json:"trace"`
	Result   result `json:"result"`
}

type resultSet struct {
	Go         string   `json:"go"`
	NumCPU     int      `json:"nproc"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	Caches     string   `json:"caches"`
	Seconds    float64  `json:"seconds"`
	Smoke      bool     `json:"smoke,omitempty"`
	Runs       []setRun `json:"runs"`
}

// child runs one workload in a fresh process and parses the result line.
func child(cfg config, echo io.Writer) (result, error) {
	exe, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	args := []string{"-workload", cfg.workload,
		"-seed", strconv.FormatUint(cfg.seed, 10),
		"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64)}
	if cfg.smoke {
		args = append(args, "-smoke")
	}
	if cfg.trace {
		args = append(args, "-trace", "1")
		if cfg.traceOut != "" {
			args = append(args, "-trace-out", strings.TrimSuffix(cfg.traceOut, ".json")+"."+cfg.workload+".json")
		}
	}
	cmd := exec.Command(exe, args...)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	last := lines[len(lines)-1]
	if echo != nil {
		fmt.Fprintln(echo, strings.Join(lines[:len(lines)-1], "\n"))
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil || res.Metrics == nil {
		return result{}, fmt.Errorf("%s seed %d printed no result (%v): %.200s", cfg.workload, cfg.seed, runErr, last)
	}
	return res, nil
}

// measure runs every named workload `runs` times, seeds cfg.seed,
// cfg.seed+1, …, and returns the set; with cfg.trace each run is followed
// by its traced pass.
func measure(cfg config, names []string, runs int, verbose bool) (*resultSet, bool, error) {
	set := &resultSet{
		Go: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Caches: cacheSizes(), Seconds: cfg.seconds, Smoke: cfg.smoke,
	}
	ok := true
	for _, name := range names {
		for i := 0; i < runs; i++ {
			c := cfg
			c.workload, c.seed = name, cfg.seed+uint64(i)
			passes := []bool{false}
			if cfg.trace {
				passes = append(passes, true)
			}
			for _, traced := range passes {
				c.trace = traced
				var echo io.Writer
				if verbose {
					echo = os.Stdout
				}
				res, err := child(c, echo)
				if err != nil {
					return nil, false, err
				}
				ok = ok && res.Correct
				set.Runs = append(set.Runs, setRun{Workload: name, Seed: c.seed, Trace: traced, Result: res})
				if !verbose && !traced {
					fmt.Printf("%-17s seed %-4d", name, c.seed)
					for _, m := range cfg.spec.EndToEnd {
						fmt.Printf("  %s %.4g", m.Name, res.Metrics[m.Name].Value)
					}
					fmt.Printf("  failed %d/%d\n", res.Failed, res.Attempted)
				}
			}
		}
	}
	return set, ok, nil
}

// drive is every mode that runs child processes: the default pass over
// all workloads, -runs N result sets, and -sets N self-agreement.
func drive(cfg config, names []string, runs, sets int, out string) (bool, error) {
	save := func(set *resultSet, path string) error {
		if path == "" {
			return nil
		}
		buf, err := json.MarshalIndent(set, "", " ")
		if err != nil {
			return err
		}
		return os.WriteFile(path, append(buf, '\n'), 0o644)
	}
	if sets == 0 {
		set, ok, err := measure(cfg, names, runs, runs == 1)
		if err != nil {
			return false, err
		}
		if !ok {
			fmt.Println("FAILED: at least one run reported failed operations or checks")
		}
		return ok, save(set, out)
	}
	if runs == 1 {
		runs = 10
	}
	var measured []*resultSet
	allOK := true
	for k := 0; k < sets; k++ {
		fmt.Printf("--- set %d of %d: %d runs per workload ---\n", k+1, sets, runs)
		set, ok, err := measure(cfg, names, runs, false)
		if err != nil {
			return false, err
		}
		allOK = allOK && ok
		if out != "" {
			if err := save(set, fmt.Sprintf("%s.%d", out, k+1)); err != nil {
				return false, err
			}
		}
		measured = append(measured, set)
	}
	if len(measured) < 2 {
		return allOK, nil
	}
	return agreeSets(os.Stdout, cfg.spec, measured[0], measured[1]) && allOK, nil
}

func agreeFiles(w io.Writer, sp *spec, a, b string) (bool, error) {
	load := func(path string) (*resultSet, error) {
		buf, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var set resultSet
		if err := json.Unmarshal(buf, &set); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &set, nil
	}
	sa, err := load(a)
	if err != nil {
		return false, err
	}
	sb, err := load(b)
	if err != nil {
		return false, err
	}
	return agreeSets(w, sp, sa, sb), nil
}

// verdict compares one metric's values in two sets of the same code.
// A metric whose own run-to-run spread (interquartile distance over
// median) exceeds its bound cannot show a change of the size the bound
// forbids: it is unresolved, not unchanged.
func verdict(m metricDef, a, b []float64) string {
	ma, mb := median(a), median(b)
	if len(a) == 0 || len(b) == 0 || ma == 0 {
		return "missing"
	}
	if spread(a) > m.Bound || spread(b) > m.Bound {
		return "unresolved"
	}
	worse := (mb - ma) / ma
	if m.Better == "higher" {
		worse = -worse
	}
	if worse > m.Bound {
		return "worse"
	}
	return "agree"
}

// agreeSets prints, per workload and end-to-end metric, both sets'
// medians and quartiles and the verdict, and reports whether every
// verdict is "agree".
func agreeSets(w io.Writer, sp *spec, a, b *resultSet) bool {
	values := func(set *resultSet, workload, metric string) []float64 {
		var out []float64
		for _, r := range set.Runs {
			if r.Workload == workload && !r.Trace {
				if v, ok := r.Result.Metrics[metric]; ok {
					out = append(out, v.Value)
				}
			}
		}
		return out
	}
	all := true
	fmt.Fprintf(w, "%-17s %-12s %5s  %-34s %-34s %7s %7s  %s\n",
		"workload", "metric", "bound", "A median [q1, q3] (n)", "B median [q1, q3] (n)", "sprd A", "sprd B", "verdict")
	for _, wl := range sp.Workloads {
		for _, m := range sp.EndToEnd {
			va, vb := values(a, wl.Name, m.Name), values(b, wl.Name, m.Name)
			if len(va) == 0 && len(vb) == 0 {
				continue
			}
			v := verdict(m, va, vb)
			all = all && v == "agree"
			note := ""
			if v == "agree" && max(spread(va), spread(vb)) > m.Bound/3 {
				note = " (spread above a third of the bound)"
			}
			cell := func(xs []float64) string {
				q1, q2, q3 := quartiles(xs)
				return fmt.Sprintf("%.4g [%.4g, %.4g] (%d)", q2, q1, q3, len(xs))
			}
			fmt.Fprintf(w, "%-17s %-12s %4.0f%%  %-34s %-34s %6.1f%% %6.1f%%  %s%s\n",
				wl.Name, m.Name, 100*m.Bound, cell(va), cell(vb), 100*spread(va), 100*spread(vb), v, note)
		}
	}
	return all
}
