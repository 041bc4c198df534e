package main

import (
	"fmt"
	"slices"
	"time"
)

// runners maps each workload BENCHMARK.json declares to the code that
// drives it.
var runners = map[string]func(*run){
	"build_msglevel": runBuild,
	"build_fast":     runBuild,
	"churn_measured": runChurn,
	"churn_derived":  runChurn,
	"serve_churn":    runServe,
}

// sizes are the fixed dimensions of a workload. Only -quick (the test
// smoke) shrinks them; the time budget cuts repetitions, never n.
type sizes struct {
	n          int // nodes / founding members
	setupReps  int // times the set-up is repeated for setup_s
	warm       int // warm-up operations discarded before timing
	minOps     int // operations run even when the time budget is short
	window     int // leading operations the fingerprint and exact counts cover
	lookups    int // direct lookups timed as one batch
	batches    int // lookup batches after each operation
	checkEvery int // untraced pass: full invariant check every k-th epoch
	sweeps     int // churn_derived: derived-view sweeps per epoch

	rate        int           // serve_churn: requests per second
	epochEvery  time.Duration // serve_churn: /plan schedule
	warmLookups int           // serve_churn: warm-up requests
}

func sizesFor(workload string, quick bool) sizes {
	if quick {
		s := sizes{n: 64, setupReps: 1, warm: 1, minOps: 2, window: 2, lookups: 16, batches: 2, checkEvery: 1, sweeps: 4,
			rate: 500, epochEvery: 20 * time.Millisecond, warmLookups: 20}
		if workload == "churn_measured" || workload == "churn_derived" {
			s.warm, s.minOps, s.window = 2, 6, 4
		}
		return s
	}
	switch workload {
	case "build_msglevel":
		return sizes{n: 4096, setupReps: 3, warm: 1, minOps: 3, window: 2, lookups: 2048, batches: 32}
	case "build_fast":
		return sizes{n: 16384, setupReps: 3, warm: 1, minOps: 2, window: 1, lookups: 2048, batches: 32}
	case "churn_measured", "churn_derived":
		return sizes{n: 4096, setupReps: 5, warm: 20, minOps: 100, window: 100, lookups: 64, batches: 1, checkEvery: 10, sweeps: 32}
	case "serve_churn":
		return sizes{n: 4096, setupReps: 3, warm: 10, minOps: 20, window: 20,
			rate: 1000, epochEvery: 200 * time.Millisecond, warmLookups: 1000}
	}
	return sizes{}
}

// runConfig is one invocation: one workload, one seed, one pass.
type runConfig struct {
	Workload string
	Seed     uint64
	Seconds  float64
	Trace    bool
	Quick    bool
	OutDir   string
}

// run is the state of one workload run: samples, counters, verdicts.
type run struct {
	cfg  runConfig
	decl *contract
	sz   sizes
	tr   *tracer

	recd
	exact map[string]int64 // simulated counts over the fingerprint window
	fp    print64
	fpOps int

	attempted  int
	failed     int
	violations []string

	allocs     *allocCounter
	allocObj   uint64 // heap objects allocated inside timed operations
	allocBytes uint64
	allocOps   int // operations the alloc totals are divided by
}

// recd holds named samples (seconds unless the name says otherwise)
// and named totals. A generator goroutine fills its own and the run
// merges it once the goroutine has ended.
type recd struct {
	samples map[string][]float64
	counts  map[string]float64
}

func newRecd() recd { return recd{samples: map[string][]float64{}, counts: map[string]float64{}} }

func (r *recd) add(name string, v float64)      { r.samples[name] = append(r.samples[name], v) }
func (r *recd) inc(name string, v float64)      { r.counts[name] += v }
func (r *recd) since(name string, t0 time.Time) { r.add(name, time.Since(t0).Seconds()) }

func (r *recd) merge(o recd) {
	for k, v := range o.samples {
		r.samples[k] = append(r.samples[k], v...)
	}
	for k, v := range o.counts {
		r.counts[k] += v
	}
}

func newRun(cfg runConfig, decl *contract) *run {
	r := &run{
		cfg:    cfg,
		decl:   decl,
		sz:     sizesFor(cfg.Workload, cfg.Quick),
		recd:   newRecd(),
		exact:  map[string]int64{},
		fp:     newPrint(),
		allocs: newAllocCounter(),
	}
	if cfg.Trace {
		r.tr = newTracer(1 << 19)
	}
	return r
}

// violate records a failed output check; any violation fails the run.
func (r *run) violate(format string, args ...any) {
	if len(r.violations) < 50 {
		r.violations = append(r.violations, fmt.Sprintf(format, args...))
	}
	r.failed++
}

// timedOp runs fn as one timed operation: wall time goes to the "op"
// sample of the current phase and the heap allocations made while it
// ran to the per-op allocation totals.
func (r *run) timedOp(phase string, fn func()) time.Duration {
	o0, b0 := r.allocs.read()
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	o1, b1 := r.allocs.read()
	r.add(phase, d.Seconds())
	r.allocObj += o1 - o0
	r.allocBytes += b1 - b0
	r.allocOps++
	return d
}

// fold adds operation i's simulated statistics to the run fingerprint
// and the exact window counts while i is inside the window.
func (r *run) fold(i int, opPrint uint64, counts map[string]int64) {
	if i >= r.sz.window {
		return
	}
	r.fp.u64(opPrint)
	r.fpOps++
	for k, v := range counts {
		r.exact[k] += v
	}
}

// budget is the time the operations of the run may take. A traced run
// alternates traced and plain operations inside it, so the two medians
// behind trace.overhead_share are read under the same host conditions.
func (r *run) budget() time.Duration {
	return time.Duration(r.cfg.Seconds * float64(time.Second))
}

// metric is one reported number.
type metric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	N     int     `json:"n"`
}

// result is everything one run measured; the suite reads it back from
// bench/out and the contract line is cut from it.
type result struct {
	Workload    string           `json:"workload"`
	Seed        uint64           `json:"seed"`
	Trace       bool             `json:"trace"`
	Seconds     float64          `json:"seconds"`
	Quick       bool             `json:"quick,omitempty"`
	Host        hostInfo         `json:"host"`
	Correct     bool             `json:"correct"`
	Attempted   int              `json:"attempted"`
	Failed      int              `json:"failed"`
	Violations  []string         `json:"violations,omitempty"`
	Fingerprint string           `json:"sim_fingerprint"`
	WindowOps   int              `json:"window_ops"`
	Exact       map[string]int64 `json:"window_counts"`
	Metrics     []metric         `json:"metrics"`
}

func (res *result) metric(name string) (metric, bool) {
	for _, m := range res.Metrics {
		if m.Name == name {
			return m, true
		}
	}
	return metric{}, false
}

// finish turns the run's samples into the result.
func (r *run) finish() *result {
	res := &result{
		Workload:    r.cfg.Workload,
		Seed:        r.cfg.Seed,
		Trace:       r.cfg.Trace,
		Seconds:     r.cfg.Seconds,
		Quick:       r.cfg.Quick,
		Host:        host(),
		Attempted:   r.attempted,
		Fingerprint: fmt.Sprintf("%016x", r.fp.h),
		WindowOps:   r.fpOps,
		Exact:       r.exact,
	}
	if res.Attempted < 1 {
		r.violations = append(r.violations, "no operation was attempted")
	}
	// The metrics come first: computing them runs the last checks. The
	// result keeps the ones this workload and pass produced.
	res.Metrics = slices.DeleteFunc(r.metrics(), func(m metric) bool { return m.N == 0 })
	res.Failed, res.Violations = r.failed, r.violations
	res.Correct = res.Failed == 0 && len(res.Violations) == 0
	return res
}
