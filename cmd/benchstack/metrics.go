package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// BENCHMARK.json at the repository root is the benchmark's contract —
// workloads and why each exists, metric names, units, directions and
// regression bounds — and this program reads it rather than repeat it:
// a metric the file does not list cannot be emitted, and a test fails
// when a listed one never is. README.md explains every name.

// specFile is where the contract is, relative to the repository root,
// which is the directory the benchmark is run from.
const specFile = "BENCHMARK.json"

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end metrics only
}

type spec struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

// runners maps each workload BENCHMARK.json names to its code.
var runners = map[string]func(*run) error{
	"lib-push":         runLibPush,
	"lib-pull":         runLibPull,
	"serve-cold":       runServeCold,
	"serve-hot":        runServeHot,
	"jobs-batch":       runJobsBatch,
	"upload-first-run": runUploadFirstRun,
}

func loadSpec(path string) (*spec, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("%w (run benchstack from the repository root)", err)
	}
	var s spec
	if err := json.Unmarshal(buf, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	for _, w := range s.Workloads {
		if runners[w.Name] == nil {
			return nil, fmt.Errorf("%s names workload %q, which this program does not have", path, w.Name)
		}
	}
	if len(s.Workloads) != len(runners) {
		return nil, fmt.Errorf("%s names %d workloads, this program has %d", path, len(s.Workloads), len(runners))
	}
	return &s, nil
}

// unit returns the unit of a metric, or "" for a name the contract lacks.
func (s *spec) unit(name string) string {
	for _, list := range [][]metricDef{s.EndToEnd, s.PerLayer} {
		for _, m := range list {
			if m.Name == name {
				return m.Unit
			}
		}
	}
	return ""
}
