// Command bench is the repository's benchmark: five named workloads,
// the end-to-end metrics a user of the system sees, and a per-layer
// ledger read from spans this package records around calls into each
// layer's public functions. See README.md beside this file.
//
//	go run ./bench -seed 2021                  every workload, untraced then traced; writes bench/out/results-2021.json
//	go run ./bench -workload W -seed S -seconds T -trace 0|1
//	                                           one run; the last line of standard output is the result object
//	go run ./bench -compare a1.json,a2.json,… b1.json,b2.json,…
//	                                           the runs of two sides against the bounds in BENCHMARK.json
//
// Every mode reads BENCHMARK.json from the working directory, which is
// the repository root.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
)

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "run this one workload and print its result object (default: the whole suite)")
	seed := fs.Uint64("seed", 2021, "derives every build, churn, fault and endpoint seed")
	seconds := fs.Float64("seconds", 0, "how long one run measures (default: run_seconds of BENCHMARK.json)")
	trace := fs.Int("trace", 0, "1 records spans and reports the per-layer metrics, 0 the end-to-end metrics")
	quick := fs.Bool("quick", false, "n=64 smoke sizes (tests only; the numbers mean nothing)")
	outDir := fs.String("out", filepath.Join("bench", "out"), "directory for trace and result files")
	compare := fs.Bool("compare", false, "compare two sides, each a comma-separated list of result files of one seed: -compare a1.json,a2.json b1.json,b2.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	decl, err := loadContract(contractPath)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if *seconds == 0 {
		*seconds = decl.RunSeconds
	}
	switch {
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: bench -compare a1.json,a2.json,… b1.json,b2.json,…")
			return 2
		}
		return compareSets(fs.Arg(0), fs.Arg(1), decl, stdout, stderr)
	case *workload != "":
		cfg := runConfig{Workload: *workload, Seed: *seed, Seconds: *seconds, Trace: *trace != 0, Quick: *quick, OutDir: *outDir}
		return single(cfg, decl, stdout, stderr)
	}
	return suite(*seed, *seconds, *quick, *outDir, decl, stdout, stderr)
}

// execute runs one workload in this process and writes its trace.
func execute(cfg runConfig, decl *contract) (*result, error) {
	runWorkload := runners[cfg.Workload]
	if runWorkload == nil {
		return nil, fmt.Errorf("unknown workload %q", cfg.Workload)
	}
	if cfg.Seconds <= 0 {
		return nil, fmt.Errorf("-seconds %v is not positive", cfg.Seconds)
	}
	r := newRun(cfg, decl)
	runWorkload(r)
	res := r.finish()
	if err := os.MkdirAll(cfg.OutDir, 0o755); err != nil {
		return nil, err
	}
	if cfg.Trace {
		if err := writeTrace(filepath.Join(cfg.OutDir, "trace-"+cfg.Workload+".json"), r.tr.recorded()); err != nil {
			return nil, err
		}
	}
	return res, writeJSON(resultPath(cfg), res)
}

func resultPath(cfg runConfig) string {
	pass := 0
	if cfg.Trace {
		pass = 1
	}
	return filepath.Join(cfg.OutDir, fmt.Sprintf("run-%s-t%d.json", cfg.Workload, pass))
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// single is the one-run mode the benchmark contract drives: every
// metric by name with unit and sample count, then the result object as
// the last line.
func single(cfg runConfig, decl *contract, stdout, stderr io.Writer) int {
	res, err := execute(cfg, decl)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	h := res.Host
	fmt.Fprintf(stdout, "# %s seed=%d seconds=%g trace=%v nproc=%d GOMAXPROCS=%d %s sim_fingerprint=%s (first %d ops)\n",
		res.Workload, res.Seed, res.Seconds, res.Trace, h.NProc, h.GOMAXPROCS, h.GoVersion, res.Fingerprint, res.WindowOps)
	table := decl.EndToEnd
	if cfg.Trace {
		table = decl.PerLayer
	}
	printMetrics(stdout, res, table)
	for _, v := range res.Violations {
		fmt.Fprintln(stderr, "bench: check failed:", v)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]value{}}
	for _, spec := range table {
		m, _ := res.metric(spec.Name)
		line.Metrics[spec.Name] = value{m.Value, spec.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	fmt.Fprintln(stdout, string(b))
	if !res.Correct {
		return 1
	}
	return 0
}

func printMetrics(w io.Writer, res *result, table []metricSpec) {
	for _, spec := range table {
		if m, ok := res.metric(spec.Name); ok && m.N > 0 {
			fmt.Fprintf(w, "%-16s %-32s %14.6g %-6s n=%d\n", res.Workload, m.Name, m.Value, m.Unit, m.N)
		}
	}
}

// resultSet is what the suite writes: every run of one command.
type resultSet struct {
	Seed    uint64    `json:"seed"`
	Seconds float64   `json:"seconds"`
	Host    hostInfo  `json:"host"`
	Runs    []*result `json:"runs"`
}

// suite runs every workload in a fresh child process of this program
// (clean heap, VmHWM readable per workload): first all untraced, which
// give the end-to-end metrics, then all traced, which give the layer
// ledger. It asserts that tracing did not perturb the simulation.
func suite(seed uint64, seconds float64, quick bool, outDir string, decl *contract, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	h := host()
	fmt.Fprintf(stdout, "# bench suite seed=%d seconds=%g nproc=%d GOMAXPROCS=%d %s %s/%s\n",
		seed, seconds, h.NProc, h.GOMAXPROCS, h.GoVersion, h.OS, h.Arch)
	set := &resultSet{Seed: seed, Seconds: seconds, Host: h}
	failed := false
	for pass := 0; pass < 2; pass++ {
		// The untraced pass prints the end-to-end metrics and, measured
		// with tracing off like them, the candidates only -compare fences.
		table := slices.Clone(decl.EndToEnd)
		for _, f := range suiteFences {
			table = append(table, decl.spec(f.metric))
		}
		if pass == 1 {
			table = decl.PerLayer
		}
		for _, w := range decl.Workloads {
			cfg := runConfig{Workload: w.Name, Seed: seed, Seconds: seconds, Trace: pass == 1, Quick: quick, OutDir: outDir}
			args := []string{"-workload", w.Name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds),
				"-trace", fmt.Sprint(pass), "-out", outDir}
			if quick {
				args = append(args, "-quick")
			}
			os.Remove(resultPath(cfg)) // a child that dies must not be read from an older file
			cmd := exec.Command(exe, args...)
			cmd.Stderr = stderr
			runErr := cmd.Run()
			res, err := readResult(resultPath(cfg))
			if err != nil {
				fmt.Fprintf(stderr, "bench: %s pass %d: %v (%v)\n", w.Name, pass, err, runErr)
				return 2
			}
			if runErr != nil || !res.Correct {
				fmt.Fprintf(stderr, "bench: %s pass %d failed its checks (%v)\n", w.Name, pass, runErr)
				failed = true
			}
			set.Runs = append(set.Runs, res)
			fmt.Fprintf(stdout, "## %s trace=%d sim_fingerprint=%s attempted=%d failed=%d\n", w.Name, pass, res.Fingerprint, res.Attempted, res.Failed)
			printMetrics(stdout, res, table)
		}
	}
	for _, msg := range tracePerturbed(set) {
		fmt.Fprintln(stderr, "bench:", msg)
		failed = true
	}
	path := filepath.Join(outDir, fmt.Sprintf("results-%d.json", seed))
	if err := writeJSON(path, set); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	fmt.Fprintf(stdout, "# wrote %s\n", path)
	if failed {
		return 1
	}
	return 0
}

func readResult(path string) (*result, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	res := &result{}
	return res, json.Unmarshal(b, res)
}

// tracePerturbed compares, per workload, the fingerprint and the exact
// window counts of every run of the set: the untraced and the traced
// pass of one seed simulate the same operations, so any difference
// means tracing changed the simulation (or the model lost determinism).
func tracePerturbed(set *resultSet) []string {
	var msgs []string
	first := map[string]*result{}
	for _, res := range set.Runs {
		base, ok := first[res.Workload]
		if !ok {
			first[res.Workload] = res
			continue
		}
		if res.WindowOps != base.WindowOps {
			msgs = append(msgs, fmt.Sprintf("%s: a run covered %d window operations, another %d: lengthen -seconds", res.Workload, res.WindowOps, base.WindowOps))
			continue
		}
		if res.Fingerprint != base.Fingerprint {
			msgs = append(msgs, fmt.Sprintf("%s: sim_fingerprint %s (trace=%v) differs from %s (trace=%v)", res.Workload, res.Fingerprint, res.Trace, base.Fingerprint, base.Trace))
		}
		keys := make([]string, 0, len(base.Exact))
		for k := range base.Exact {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		for _, k := range keys {
			if res.Exact[k] != base.Exact[k] {
				msgs = append(msgs, fmt.Sprintf("%s: window %s = %d (trace=%v) differs from %d (trace=%v)", res.Workload, k, res.Exact[k], res.Trace, base.Exact[k], base.Trace))
			}
		}
	}
	return msgs
}
