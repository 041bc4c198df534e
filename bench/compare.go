package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
)

// fence is one regression rule of -compare: how much worse set b's
// median of a metric may read than set a's.
type fence struct {
	metric    string
	bound     float64
	abs       bool     // bound is a difference, not a share of a's median
	workloads []string // nil: every workload
}

// suiteFences are the end-to-end candidates the issue fixed a bound for
// that BENCHMARK.json cannot fence, because they exist on some workloads
// only or are 0 on a healthy run. -compare holds them to the issue's
// bounds on the workloads they are defined on, after the metrics
// BENCHMARK.json bounds itself. Repeated runs of one seed decide each
// row, so a metric that does not repeat reads "unresolved", not "ok".
var suiteFences = []fence{
	{metric: "op_p95_ms", bound: 0.15, workloads: []string{"churn_measured", "churn_derived"}},
	{metric: "build_msgs_per_s", bound: 0.10, workloads: []string{"build_msglevel"}},
	{metric: "epoch_msgs_per_s", bound: 0.10, workloads: []string{"churn_measured"}},
	{metric: "lookup_p50_us", bound: 0.10, workloads: []string{"serve_churn"}},
	{metric: "lookup_p99_us", bound: 0.15, workloads: []string{"serve_churn"}},
	{metric: "lookup_slo_miss_share", bound: 0.002, abs: true, workloads: []string{"serve_churn"}},
	{metric: "peak_rss_mb", bound: 0.10},
	{metric: "fail_share", bound: 0, abs: true},
}

// readSets reads a comma-separated list of result files, as the suite
// writes them, into one set holding the runs of all.
func readSets(paths string) (*resultSet, error) {
	all := &resultSet{}
	for i, path := range strings.Split(paths, ",") {
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		set := &resultSet{}
		if err := json.Unmarshal(b, set); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if i == 0 {
			all.Seed, all.Seconds, all.Host = set.Seed, set.Seconds, set.Host
		} else if set.Seed != all.Seed || set.Seconds != all.Seconds {
			return nil, fmt.Errorf("%s was run with seed %d for %gs, the files before it with seed %d for %gs", path, set.Seed, set.Seconds, all.Seed, all.Seconds)
		}
		all.Runs = append(all.Runs, set.Runs...)
	}
	return all, nil
}

// values collects one metric of one workload over the untraced runs of
// a set (a run records every metric it produced; the end-to-end ones
// count with tracing off).
func (s *resultSet) values(workload, name string) []float64 {
	var v []float64
	for _, res := range s.Runs {
		if res.Workload != workload || res.Trace {
			continue
		}
		if m, ok := res.metric(name); ok {
			v = append(v, m.Value)
		}
	}
	return v
}

// verdict applies the regression rule to one metric × workload: b is
// "regressed" when its median is worse than a's by more than the
// bound; "unresolved" when either side's quartile spread is wider than
// the bound (unless every b reads better than every a); else "ok". A
// side with fewer than four runs has no spread to judge by.
func verdict(a, b []float64, better string, f fence) (string, float64) {
	ma, mb := median(a), median(b)
	worse := mb - ma
	if better == "higher" {
		worse = -worse
	}
	spread := func(v []float64) float64 {
		q1, _, q3 := quartiles(v)
		return q3 - q1
	}
	if !f.abs {
		if ma == 0 && mb == 0 {
			return "ok", 0
		} else if ma == 0 {
			return "unresolved", 0 // no base to take a share of
		}
		worse /= ma
		spread = iqrShare
	}
	if len(a) >= 4 && len(b) >= 4 && max(spread(a), spread(b)) > f.bound {
		allBetter := true
		for _, x := range b {
			for _, y := range a {
				if (better == "lower" && x >= y) || (better == "higher" && x <= y) {
					allBetter = false
				}
			}
		}
		if !allBetter {
			return "unresolved", worse
		}
	}
	if worse > f.bound {
		return "regressed", worse
	}
	return "ok", worse
}

// compareSets prints one row per fenced metric × workload of set b
// against set a — the end-to-end metrics under the bounds BENCHMARK.json
// fixes, then suiteFences — and whether the simulation itself changed.
// Each side is a comma-separated list of result files of one seed. It
// returns 1 when any row regressed.
func compareSets(pathsA, pathsB string, decl *contract, stdout, stderr io.Writer) int {
	a, errA := readSets(pathsA)
	b, errB := readSets(pathsB)
	for _, err := range []error{errA, errB} {
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
	}
	var fences []fence
	for _, m := range decl.EndToEnd {
		fences = append(fences, fence{metric: m.Name, bound: m.Bound})
	}
	fences = append(fences, suiteFences...)

	fmt.Fprintf(stdout, "# a=%s (seed %d, %gs)  b=%s (seed %d, %gs)\n", pathsA, a.Seed, a.Seconds, pathsB, b.Seed, b.Seconds)
	code := 0
	for _, w := range decl.Workloads {
		fa, fb := fingerprintsOf(a, w.Name), fingerprintsOf(b, w.Name)
		same := "equal on every run"
		if len(fa) != 1 || !slices.Equal(fa, fb) {
			same = "DIFFERS: the runs simulated different things (a changed or non-deterministic model)"
		}
		fmt.Fprintf(stdout, "## %s sim_fingerprint %s / %s %s\n", w.Name, strings.Join(fa, ","), strings.Join(fb, ","), same)
		for _, f := range fences {
			if f.workloads != nil && !slices.Contains(f.workloads, w.Name) {
				continue
			}
			m := decl.spec(f.metric)
			va, vb := a.values(w.Name, f.metric), b.values(w.Name, f.metric)
			if len(va) == 0 && len(vb) == 0 {
				fmt.Fprintf(stdout, "%-16s %-22s not measured: the runs are too short for it\n", w.Name, f.metric)
				continue
			} else if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(stdout, "%-16s %-22s missing from one side\n", w.Name, f.metric)
				code = 1
				continue
			}
			v, worse := verdict(va, vb, m.Better, f)
			if v == "regressed" {
				code = 1
			}
			by := "share"
			if f.abs {
				by = "abs"
			}
			fmt.Fprintf(stdout, "%-16s %-22s a=%-12.6g b=%-12.6g %-5s worse by %+.4f (bound %g %s, runs %d/%d)  %s\n",
				w.Name, f.metric, median(va), median(vb), m.Unit, worse, f.bound, by, len(va), len(vb), v)
		}
	}
	return code
}

// fingerprintsOf lists the distinct fingerprints the runs of one
// workload carry: one, when the model is deterministic.
func fingerprintsOf(s *resultSet, workload string) []string {
	var fps []string
	for _, res := range s.Runs {
		if res.Workload == workload && !slices.Contains(fps, res.Fingerprint) {
			fps = append(fps, res.Fingerprint)
		}
	}
	return fps
}
