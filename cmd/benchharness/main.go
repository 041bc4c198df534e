// Command benchharness regenerates the experiment tables that
// reproduce the paper's claims (E1–E12, plus the ablations A1–A2; see
// README, "Tests, benches, CI") and prints them as Markdown.
//
// Usage:
//
//	benchharness [-seed 2021] [-quick] [-only E3] [-workers 8] \
//	             [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//
// -quick shrinks the size sweeps for a fast smoke run; -only selects a
// single experiment. -cpuprofile and -memprofile write pprof profiles
// covering the experiment runs (the `make profile` target wires them
// to the E12 hot path). Performance is measured by bench/ (see
// bench/README.md), not here: the wall time after each table is
// informational.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"overlay/internal/experiments"
)

func main() {
	log.SetFlags(0)
	var (
		seed       = flag.Uint64("seed", 2021, "experiment seed")
		quick      = flag.Bool("quick", false, "shrink sweeps for a fast run")
		only       = flag.String("only", "", "run a single experiment (e.g. E3)")
		workers    = flag.Int("workers", 0, "worker pool for E12 (0 = GOMAXPROCS)")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the experiment runs to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile (after a final GC) to this file")
	)
	flag.Parse()
	// run carries errors back here (rather than exiting in place) so
	// the deferred profile writers flush even for a failing run — the
	// run you most want to profile.
	if err := run(os.Stdout, *seed, *quick, *only, *workers, *cpuProfile, *memProfile); err != nil {
		log.Fatal(err)
	}
}

func run(out io.Writer, seed uint64, quick bool, only string, workers int, cpuProfile, memProfile string) (err error) {
	if cpuProfile != "" {
		f, cerr := os.Create(cpuProfile)
		if cerr != nil {
			return fmt.Errorf("create %s: %w", cpuProfile, cerr)
		}
		defer f.Close()
		if cerr := pprof.StartCPUProfile(f); cerr != nil {
			return fmt.Errorf("start cpu profile: %w", cerr)
		}
		defer pprof.StopCPUProfile()
	}
	if memProfile != "" {
		defer func() {
			f, merr := os.Create(memProfile)
			if merr != nil {
				err = fmt.Errorf("create %s: %w", memProfile, merr)
				return
			}
			defer f.Close()
			runtime.GC()
			if merr := pprof.WriteHeapProfile(f); merr != nil && err == nil {
				err = fmt.Errorf("write heap profile: %w", merr)
			}
		}()
	}

	ns := []int{64, 256, 1024}
	e3n, e4n := 512, 512
	ccTotal, ccMs := 512, []int{16, 32, 64, 128, 256}
	misN, misDs := 400, []int{2, 4, 8, 16, 32}
	spanNs := []int{128, 256, 512}
	scaleNs := []int{4096, 16384, 65536}
	if quick {
		ns = []int{64, 256}
		e3n, e4n = 128, 128
		ccTotal, ccMs = 256, []int{16, 64}
		misN, misDs = 200, []int{2, 8}
		spanNs = []int{128, 256}
		scaleNs = []int{1024, 4096}
	}

	type runner struct {
		name string
		fn   func() (*experiments.Table, error)
	}
	runs := []runner{
		{"E1", func() (*experiments.Table, error) { return experiments.E1RoundsVsN(ns, seed) }},
		{"E2", func() (*experiments.Table, error) { return experiments.E2Messages(ns, seed) }},
		{"E3", func() (*experiments.Table, error) { return experiments.E3Conductance(e3n, seed) }},
		{"E4", func() (*experiments.Table, error) { return experiments.E4TokenLoad(e4n, seed) }},
		{"E5", func() (*experiments.Table, error) { return experiments.E5TreeQuality(ns, seed) }},
		{"E6", func() (*experiments.Table, error) { return experiments.E6Baseline(ns, seed) }},
		{"E7", func() (*experiments.Table, error) { return experiments.E7CC(ccTotal, ccMs, seed) }},
		{"E8", func() (*experiments.Table, error) { return experiments.E8SpanningTree(ns, seed) }},
		{"E9", func() (*experiments.Table, error) { return experiments.E9Biconnectivity(seed) }},
		{"E10", func() (*experiments.Table, error) { return experiments.E10MIS(misN, misDs, seed) }},
		{"E11", func() (*experiments.Table, error) { return experiments.E11Spanner(spanNs, seed) }},
		{"E12", func() (*experiments.Table, error) { return experiments.E12ScaleSweep(scaleNs, seed, workers) }},
		{"A1", func() (*experiments.Table, error) {
			return experiments.AblationWalkLength(256, []int{2, 4, 8, 16, 32}, 5, seed)
		}},
		{"A2", func() (*experiments.Table, error) {
			return experiments.AblationDelta(256, []int{2, 4, 8, 16}, 5, seed)
		}},
	}
	if only != "" {
		var names []string
		for _, r := range runs {
			names = append(names, r.name)
			if r.name == only {
				runs = []runner{r}
			}
		}
		if len(runs) != 1 {
			return fmt.Errorf("unknown experiment %q (valid: %s)", only, strings.Join(names, ", "))
		}
	}

	for _, r := range runs {
		start := time.Now()
		tab, ferr := r.fn()
		if ferr != nil {
			return fmt.Errorf("%s failed: %w", r.name, ferr)
		}
		fmt.Fprintf(out, "%s(%.1fs)\n\n", tab, time.Since(start).Seconds())
	}
	return nil
}
