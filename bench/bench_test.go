package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// The tests run from the repository root, where the program is started
// and BENCHMARK.json is.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

func declared(t *testing.T) *contract {
	t.Helper()
	decl, err := loadContract(contractPath)
	if err != nil {
		t.Fatal(err)
	}
	return decl
}

// The tail rule: the highest percentile with at least ten samples
// beyond it; a sample too small for a tail reports none.
func TestTailRule(t *testing.T) {
	if tailOK(19, 50) || !tailOK(20, 50) || !tailOK(600, 95) || tailOK(9999, 99.9) || !tailOK(10000, 99.9) {
		t.Error("tailOK misjudges the sample a percentile needs")
	}
	if tailOK(199, 95) || !tailOK(200, 95) || tailOK(999, 99) || !tailOK(1000, 99) {
		t.Error("tailOK does not demand ten samples beyond the percentile")
	}
	v := make([]float64, 600)
	for i := range v {
		v[i] = float64(i + 1)
	}
	if got := percentile(v, 95); got != 570 {
		t.Errorf("p95 of 1..600 = %v, want 570", got)
	}
	if tailOK(100, 95) {
		t.Error("100 samples have only five beyond their p95")
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
}

// iqrShare must agree with Python's statistics.quantiles(v, n=4), which
// is what the acceptance rule is computed with.
func TestIQRShare(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	// quantiles → [2.75, 5.5, 8.25]
	if got, want := iqrShare(v), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("iqrShare = %v, want %v", got, want)
	}
	if got := iqrShare([]float64{4}); got != 0 {
		t.Errorf("iqrShare of one value = %v, want 0", got)
	}
}

// A span's self time is its duration minus the part of its interval
// its children cover.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		// Nested: child 2 holds grandchild 3.
		{ID: 2, Parent: 1, Name: "nested", Start: 10, End: 40},
		{ID: 3, Parent: 2, Name: "leaf", Start: 15, End: 25},
		// Adjacent to 2.
		{ID: 4, Parent: 1, Name: "adjacent", Start: 40, End: 50},
		// Overlapping each other: 60..80 and 70..90 cover 60..90 once.
		{ID: 5, Parent: 1, Name: "overlap", Start: 60, End: 80},
		{ID: 6, Parent: 1, Name: "overlap", Start: 70, End: 90},
		// Reaching outside the parent: clipped at 100.
		{ID: 7, Parent: 1, Name: "late", Start: 95, End: 120},
	}
	self := selfTimes(spans)
	for id, want := range map[int32]int64{1: 100 - (30 + 10 + 30 + 5), 2: 20, 3: 10, 4: 10, 5: 20, 6: 20, 7: 25} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
	spans = append(spans, span{ID: 8, Trace: 2, Name: "overlap", Start: 0, End: 7e9})
	if got := perTrace(spans, "overlap", "adjacent"); len(got) != 2 || math.Abs(got[0]-50e-9) > 1e-15 || got[1] != 7 {
		t.Errorf("perTrace = %v, want [5e-08 7]", got)
	}
}

// The tracer hands out slots without a lock and drops, not corrupts,
// when full; a nil tracer is the untraced pass.
func TestTracer(t *testing.T) {
	var off *tracer
	off.do(1, 0, "noop", func() {})
	if off.begin(1, 0, "x") != 0 || off.recorded() != nil {
		t.Error("a nil tracer must record nothing")
	}
	tr := newTracer(2)
	a := tr.begin(1, 0, "a")
	b := tr.begin(1, a, "b")
	c := tr.begin(1, a, "dropped")
	tr.end(c)
	tr.end(b)
	tr.end(a)
	got := tr.recorded()
	if len(got) != 2 || got[1].Parent != a || c != 0 || tr.dropped.Load() != 1 {
		t.Errorf("recorded %+v, dropped %d", got, tr.dropped.Load())
	}
}

// The open-loop clock against a stalled server: the requests due during
// the stall are sent late and charged the stall, because latency runs
// from the due time, not from the send time.
func TestOpenLoopChargesTheStall(t *testing.T) {
	const every, stall = 2 * time.Millisecond, 40 * time.Millisecond
	clk := dueClock{start: time.Now().Add(time.Millisecond), every: every}
	var fromDue, fromSend, lateBy []time.Duration
	unissued := clk.openLoop(10, time.Now().Add(time.Minute), func(k int, due time.Time, late time.Duration) {
		sent := time.Now()
		if k == 0 {
			time.Sleep(stall) // the server stalls on the first request
		}
		fromDue = append(fromDue, time.Since(due))
		fromSend = append(fromSend, time.Since(sent))
		lateBy = append(lateBy, late)
	})
	if unissued != 0 || len(fromDue) != 10 {
		t.Fatalf("issued %d of 10 slots, %d unissued", len(fromDue), unissued)
	}
	// Slot 5 was due 10 ms into a 40 ms stall: it waited about 30 ms.
	if want := stall - 5*every; fromDue[5] < want {
		t.Errorf("slot 5 latency from due time = %v, want at least %v", fromDue[5], want)
	}
	if lateBy[5] < stall-5*every {
		t.Errorf("slot 5 was reported %v late, want at least %v", lateBy[5], stall-5*every)
	}
	if fromSend[5] > stall/4 {
		t.Errorf("slot 5 took %v from its send time: the stall should only show from the due time", fromSend[5])
	}
	if lateBy[0] > stall/2 {
		t.Errorf("slot 0 was reported %v late before anything stalled", lateBy[0])
	}

	// A backlog that never drains is abandoned at the give-up time.
	clk = dueClock{start: time.Now(), every: time.Millisecond}
	if got := clk.openLoop(5, time.Now().Add(-time.Second), func(int, time.Time, time.Duration) { t.Error("issued after give-up") }); got != 5 {
		t.Errorf("unissued = %d, want 5", got)
	}
}

func TestVerdict(t *testing.T) {
	a := []float64{100, 101, 99, 100, 102}
	for _, c := range []struct {
		name   string
		b      []float64
		better string
		want   string
	}{
		{"same", []float64{100, 100, 101, 99, 100}, "lower", "ok"},
		{"slower", []float64{120, 121, 119, 120, 122}, "lower", "regressed"},
		{"faster", []float64{80, 81, 79, 80, 82}, "lower", "ok"},
		{"fewer is worse when higher is better", []float64{80, 81, 79, 80, 82}, "higher", "regressed"},
		{"spread wider than the bound", []float64{60, 100, 140, 100, 100}, "lower", "unresolved"},
		{"wide but every run better", []float64{20, 60, 90, 40, 50}, "lower", "ok"},
		{"too few runs to have a spread", []float64{60, 140, 100}, "lower", "ok"},
	} {
		if got, _ := verdict(a, c.b, c.better, fence{bound: 0.10}); got != c.want {
			t.Errorf("%s: verdict = %q, want %q", c.name, got, c.want)
		}
	}
	// A bound on the difference: fail_share may not rise at all, the
	// SLO-miss share by 0.002.
	zero := []float64{0, 0, 0, 0}
	if got, _ := verdict(zero, zero, "lower", fence{abs: true}); got != "ok" {
		t.Errorf("0 against 0 under an absolute bound of 0: %q, want ok", got)
	}
	if got, by := verdict(zero, []float64{0, 0.01, 0.01, 0.01}, "lower", fence{abs: true}); got != "unresolved" || by != 0.01 {
		t.Errorf("a failing minority: %q by %v, want unresolved by 0.01", got, by)
	}
	if got, _ := verdict(zero, []float64{0.01, 0.01, 0.01, 0.01}, "lower", fence{abs: true}); got != "regressed" {
		t.Errorf("failures on every run: %q, want regressed", got)
	}
	if got, _ := verdict([]float64{0.004}, []float64{0.0055}, "lower", fence{bound: 0.002, abs: true}); got != "ok" {
		t.Errorf("+0.0015 under an absolute bound of 0.002: %q, want ok", got)
	}
}

// BENCHMARK.json is the only declaration of workloads and metrics; it
// must stay inside the limits the benchmark contract sets, every
// workload it names must have a runner, and everything -compare fences
// beyond it must be a metric it declares.
func TestContractLimits(t *testing.T) {
	raw, err := os.ReadFile(contractPath)
	if err != nil {
		t.Fatal(err)
	}
	var c struct {
		contract
		Command []string `json:"command"`
		Paths   []string `json:"paths"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if len(c.Workloads) != len(runners) {
		t.Errorf("%d workloads declared, %d have a runner", len(c.Workloads), len(runners))
	}
	for _, w := range c.Workloads {
		use(w.Name)
		if runners[w.Name] == nil || w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q has no runner, or its why is empty, long or multi-line", w.Name)
		}
	}
	hasSetup := false
	for _, m := range c.EndToEnd {
		use(m.Name)
		if !unit.MatchString(m.Unit) || m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("end-to-end metric %+v is outside the contract's limits", m)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	for _, m := range c.PerLayer {
		use(m.Name)
		if !unit.MatchString(m.Unit) || m.Bound != 0 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per-layer metric %+v is outside the contract's limits", m)
		}
	}
	for _, f := range suiteFences {
		if !seen[f.metric] {
			t.Errorf("-compare fences %s, which %s does not declare", f.metric, contractPath)
		}
		for _, w := range f.workloads {
			if runners[w] == nil {
				t.Errorf("-compare fences %s on unknown workload %s", f.metric, w)
			}
		}
	}
	if !hasSetup || len(c.PerLayer) > 128 || c.RunSeconds < 1 || c.RunSeconds > 60 || c.RunSeconds != math.Trunc(c.RunSeconds) || len(c.Paths) != 1 || c.Paths[0] != "bench" {
		t.Errorf("contract header: setup_s=%v per_layer=%d run_seconds=%v paths=%v", hasSetup, len(c.PerLayer), c.RunSeconds, c.Paths)
	}
}

// The smoke: all five workloads at n=64, untraced then traced, in this
// process. Every check passes, every end-to-end metric reads non-zero,
// the layers each workload is about show up in its ledger, and tracing
// leaves the simulation bit for bit alone.
func TestQuickSmoke(t *testing.T) {
	out := t.TempDir()
	decl := declared(t)
	layersOf := map[string][]string{
		"build_msglevel": {"benign.prepare_s", "expander.run_s", "expander.msgs", "wft.build_run_s", "wft.extract_s", "sim.ns_per_msg", "sim.round_p50_us", "sim.workers1_ns_per_msg", "graphx.spectralgap_s", "build_msgs_per_s"},
		"build_fast":     {"expander.create_s", "expander.create_workers1_s", "wft.fromgraph_s", "graphx.simple_s", "graphx.diameter_s"},
		"churn_measured": {"wft.repair_plan_s", "wft.repair_engine_new_s", "wft.repair_run_s", "wft.repair_msgs", "session.apply_s", "session.lookup_ns", "sim.new_s", "churn.gen_s", "epoch_msgs_per_s"},
		"churn_derived":  {"maintained.cc_sync_s", "maintained.mis_sync_s", "maintained.incremental_share", "derived.first_read_chord_s", "derived.cached_read_ns", "derived.edges", "session.apply_s"},
		"serve_churn":    {"service.create_s", "service.plan_rtt_s", "service.handler_s", "service.transport_s", "service.lookup_idle_p50_ms", "service.derived_p50_ms", "service.nodes_page_s", "session.attempts"},
	}
	set := &resultSet{}
	for _, traced := range []bool{false, true} {
		for _, w := range decl.Workloads {
			res, err := execute(runConfig{Workload: w.Name, Seed: 7, Seconds: 0.15, Trace: traced, Quick: true, OutDir: out}, decl)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: attempted %d, failed %d, violations %v", w.Name, traced, res.Attempted, res.Failed, res.Violations)
			}
			want := layersOf[w.Name]
			if !traced {
				want = nil
				for _, m := range decl.EndToEnd {
					want = append(want, m.Name)
				}
			}
			for _, name := range want {
				if m, ok := res.metric(name); !ok || m.Value <= 0 || m.N < 1 {
					t.Errorf("%s traced=%v: metric %s = %+v, want a positive reading", w.Name, traced, name, m)
				}
			}
			set.Runs = append(set.Runs, res)
		}
	}
	for _, msg := range tracePerturbed(set) {
		t.Error(msg)
	}
	if m, _ := set.Runs[len(decl.Workloads)+3].metric("sim.engines_built"); m.Value != 0 {
		t.Errorf("churn_derived built %v engines, want 0: the charged patch never touches sim", m.Value)
	}
	if _, err := os.Stat(filepath.Join(out, "trace-serve_churn.json")); err != nil {
		t.Error(err)
	}

	// The same runs compare ok against themselves, one file a side or
	// several: every end-to-end metric on every workload, then the rows
	// of suiteFences on the workloads they name.
	path := filepath.Join(out, "results.json")
	if err := writeJSON(path, set); err != nil {
		t.Fatal(err)
	}
	rows := len(decl.Workloads) * len(decl.EndToEnd)
	for _, f := range suiteFences {
		if f.workloads == nil {
			rows += len(decl.Workloads)
		}
		rows += len(f.workloads)
	}
	for _, side := range []string{path, path + "," + path + "," + path + "," + path} {
		var stdout, stderr bytes.Buffer
		if code := compareSets(side, path, decl, &stdout, &stderr); code != 0 {
			t.Errorf("comparing a set with itself exits %d: %s%s", code, stdout.String(), stderr.String())
		}
		// At n=64 a run is too short for a p99: that row says so.
		if n := strings.Count(stdout.String(), "  ok\n") + strings.Count(stdout.String(), "not measured"); n != rows {
			t.Errorf("%d ok rows, want %d:\n%s", n, rows, stdout.String())
		}
		if n := strings.Count(stdout.String(), "equal on every run"); n != len(decl.Workloads) {
			t.Errorf("%d workloads with equal fingerprints, want %d:\n%s", n, len(decl.Workloads), stdout.String())
		}
		if side != path && !strings.Contains(stdout.String(), "runs 4/1)") {
			t.Errorf("four files on side a did not merge into four runs:\n%s", stdout.String())
		}
	}
}

// The command line: a single run prints the result object last, an
// unknown workload and a bad flag are usage errors.
func TestSingleRunPrintsTheResultObject(t *testing.T) {
	var stdout, stderr bytes.Buffer
	args := []string{"--workload", "churn_derived", "--seed", "3", "--seconds", "0.05", "--trace", "0", "-quick", "-out", t.TempDir()}
	if code := realMain(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var obj struct {
		Correct   bool `json:"correct"`
		Attempted int  `json:"attempted"`
		Failed    int  `json:"failed"`
		Metrics   map[string]struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &obj); err != nil {
		t.Fatal(err)
	}
	if !obj.Correct || obj.Attempted < 1 || obj.Failed != 0 || len(obj.Metrics) != len(declared(t).EndToEnd) || obj.Metrics["setup_s"].Unit != "s" {
		t.Errorf("result object %+v", obj)
	}
	if code := realMain([]string{"-workload", "nope"}, &stdout, &stderr); code != 2 {
		t.Errorf("unknown workload exits %d, want 2", code)
	}
	if code := realMain([]string{"-compare", "only-one.json"}, &stdout, &stderr); code != 2 {
		t.Errorf("-compare with one file exits %d, want 2", code)
	}
}
