package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// contractPath is BENCHMARK.json at the repository root, which is where
// bench/run.sh and `go run ./bench` are started from.
const contractPath = "BENCHMARK.json"

// metricSpec declares one metric of the benchmark.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "lower" or "higher"
	Bound  float64 `json:"bound"`  // end-to-end only: share of the parent's median it may worsen by
}

// contract is BENCHMARK.json: the one place the workloads (with why each
// exists) and the metrics (with unit, direction and regression bound)
// are declared. The program reads it at start-up; run.go maps each
// workload name to the code that drives it and metrics.go computes each
// metric by name, and a run that reports a name the file does not
// declare, or misses one it does, fails its checks.
//
// end_to_end holds the metrics a user of the system sees, measured with
// tracing off; per_layer holds the traced pass's metrics, layer = module
// name, and the end-to-end candidates that could not be fenced on all
// five workloads (README.md records each reason).
type contract struct {
	RunSeconds float64 `json:"run_seconds"` // how long one run measures unless -seconds says otherwise
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadContract(path string) (*contract, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("%w (start the benchmark from the repository root)", err)
	}
	c := &contract{}
	if err := json.Unmarshal(raw, c); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if c.RunSeconds <= 0 || len(c.Workloads) == 0 || len(c.EndToEnd) == 0 || len(c.PerLayer) == 0 {
		return nil, fmt.Errorf("%s declares no run length, no workloads or no metrics", path)
	}
	return c, nil
}

// units maps every declared metric to its unit.
func (c *contract) units() map[string]string {
	u := make(map[string]string, len(c.EndToEnd)+len(c.PerLayer))
	for _, table := range [][]metricSpec{c.EndToEnd, c.PerLayer} {
		for _, m := range table {
			u[m.Name] = m.Unit
		}
	}
	return u
}

// spec returns the declaration of one metric (zero when undeclared).
func (c *contract) spec(name string) metricSpec {
	for _, table := range [][]metricSpec{c.EndToEnd, c.PerLayer} {
		for _, m := range table {
			if m.Name == name {
				return m
			}
		}
	}
	return metricSpec{}
}
