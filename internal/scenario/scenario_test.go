package scenario

import (
	"fmt"
	"os"
	"strconv"
	"testing"

	"overlay"
)

func TestBuildTopologyShapes(t *testing.T) {
	cases := []struct {
		name      string
		n         int
		wantN     int
		wantEdges int
	}{
		{"line", 10, 10, 9},
		{"ring", 10, 10, 10},
		{"tree", 15, 15, 14},
		{"grid", 9, 9, 12},
		{"grid", 10, 16, 24}, // rounds up to 4x4
		{"line", 1, 1, 0},
	}
	for _, c := range cases {
		g, err := BuildTopology(c.name, c.n)
		if err != nil {
			t.Fatalf("%s/%d: %v", c.name, c.n, err)
		}
		if g.N != c.wantN || len(g.Edges) != c.wantEdges {
			t.Errorf("%s/%d: got N=%d edges=%d, want N=%d edges=%d",
				c.name, c.n, g.N, len(g.Edges), c.wantN, c.wantEdges)
		}
	}
	if _, err := BuildTopology("moebius", 8); err == nil {
		t.Error("unknown topology did not error")
	}
	if _, err := BuildTopology("line", 0); err == nil {
		t.Error("n=0 did not error")
	}
}

// smokeN returns the canned-scenario scale: 256 for the regular test
// suite, overridable via SCENARIO_N for the CI smoke job (4096).
func smokeN(t *testing.T) int {
	if s := os.Getenv("SCENARIO_N"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 16 {
			t.Fatalf("bad SCENARIO_N=%q", s)
		}
		return n
	}
	return 256
}

// cannedWantAbort pins each canned scenario's documented outcome at
// the validated smoke scales (256 and 4096): the crash scenario must
// complete a survivor tree (the Section 5 robustness claim), the lossy
// one must degrade to a reasoned abort. Checking only rep.OK() would
// accept either outcome for both and let the claims rot silently.
var cannedWantAbort = map[string]bool{
	"mid-build-crashes":     false,
	"epoch-churn":           false,
	"lossy-delayed-network": true,
	"fault-during-repair":   false,
	"sustained-adversary":   false,
	"hybrid-churn":          false,
	"domain-rack-cut":       false,
}

// TestCannedScenarios runs every canned fault scenario and requires a
// clean report with the documented outcome. This is the scenario
// smoke job.
func TestCannedScenarios(t *testing.T) {
	n := smokeN(t)
	for _, spec := range Canned(n) {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			rep := Run(spec)
			t.Log(rep.String())
			if !rep.OK() {
				for _, viol := range rep.Violations {
					t.Errorf("invariant violated: %s", viol)
				}
				if rep.Err != nil {
					t.Errorf("scenario error: %v", rep.Err)
				}
				return
			}
			want, pinned := cannedWantAbort[spec.Name]
			if !pinned {
				t.Fatalf("no pinned outcome for canned scenario %q", spec.Name)
			}
			if rep.Result.Aborted != want {
				t.Errorf("outcome flipped: aborted=%v, documented outcome wants aborted=%v",
					rep.Result.Aborted, want)
			}
		})
	}
}

// TestChurnScenarioOutcome pins the epoch-churn canned scenario's
// documented shape at the regular smoke scale: every epoch applies
// (2% + 2% churn stays under the rebuild threshold, so all ten epochs
// must patch), and every patch is strictly cheaper than the build —
// which TestCannedScenarios already enforces via the zero-violations
// requirement, but the all-patches claim needs its own pin.
func TestChurnScenarioOutcome(t *testing.T) {
	var spec Spec
	for _, s := range Canned(smokeN(t)) {
		if s.Name == "epoch-churn" {
			spec = s
		}
	}
	if spec.Churn == nil {
		t.Fatal("no epoch-churn canned scenario")
	}
	rep := Run(spec)
	t.Log(rep.String())
	if !rep.OK() {
		t.Fatalf("not clean: err=%v violations=%v", rep.Err, rep.Violations)
	}
	if len(rep.EpochBills) != spec.Churn.Epochs {
		t.Fatalf("applied %d epochs, want %d", len(rep.EpochBills), spec.Churn.Epochs)
	}
	for _, b := range rep.EpochBills {
		if b.Rebuilt {
			t.Errorf("epoch %d rebuilt; 4%% churn must stay on the patch path", b.Epoch)
		}
	}
}

// TestFaultDuringRepairOutcome pins the fault-during-repair canned
// scenario's documented shape: every epoch runs the measured repair
// protocol (no rebuild fallback), and the session fault plan actually
// touched the repair traffic — the bills must show held messages.
func TestFaultDuringRepairOutcome(t *testing.T) {
	var spec Spec
	for _, s := range Canned(smokeN(t)) {
		if s.Name == "fault-during-repair" {
			spec = s
		}
	}
	if spec.Churn == nil || spec.SessionFaults == nil {
		t.Fatal("no fault-during-repair canned scenario")
	}
	rep := Run(spec)
	t.Log(rep.String())
	if !rep.OK() {
		t.Fatalf("not clean: err=%v violations=%v", rep.Err, rep.Violations)
	}
	if len(rep.EpochBills) != spec.Churn.Epochs {
		t.Fatalf("applied %d epochs, want %d", len(rep.EpochBills), spec.Churn.Epochs)
	}
	var delays int64
	for _, b := range rep.EpochBills {
		if b.Rebuilt {
			t.Errorf("epoch %d rebuilt; delays must never defeat the patch protocol", b.Epoch)
		}
		if b.Path != "patch/measured" {
			t.Errorf("epoch %d billed path %q, want patch/measured", b.Epoch, b.Path)
		}
		delays += b.FaultDelays
	}
	if delays == 0 {
		t.Error("no held messages on any bill: the fault plane never touched the repair traffic")
	}
}

// TestSustainedAdversaryOutcome pins the sustained-adversary canned
// scenario's documented shape: the partition defeats at least one
// attempt, the recovery ladder escalates past it (some epoch bills
// more than one attempt, visible in the Path grammar), and the same
// spec with the ladder disarmed — single-attempt PR-6 semantics —
// fails the epoch outright. That contrast is the scenario's reason to
// exist: it certifies the ladder converts a fatal adversary into an
// itemized recovery.
func TestSustainedAdversaryOutcome(t *testing.T) {
	var spec Spec
	for _, s := range Canned(smokeN(t)) {
		if s.Name == "sustained-adversary" {
			spec = s
		}
	}
	if spec.Churn == nil || spec.SessionFaults == nil {
		t.Fatal("no sustained-adversary canned scenario")
	}
	rep := Run(spec)
	t.Log(rep.String())
	if !rep.OK() {
		t.Fatalf("not clean: err=%v violations=%v", rep.Err, rep.Violations)
	}
	if len(rep.EpochBills) != spec.Churn.Epochs {
		t.Fatalf("applied %d epochs, want %d", len(rep.EpochBills), spec.Churn.Epochs)
	}
	multi := 0
	for _, b := range rep.EpochBills {
		if b.Aborted {
			t.Fatalf("epoch %d aborted (%s); the ladder must outlast this adversary", b.Epoch, b.AbortReason)
		}
		if b.Attempts > 1 {
			multi++
			t.Logf("epoch %d: %d attempts, path %s", b.Epoch, b.Attempts, b.Path)
		}
	}
	if multi == 0 {
		t.Error("no epoch needed more than one attempt: the adversary never bit, scenario proves nothing")
	}

	// Disarm the ladder: the same adversary under single-attempt
	// semantics must defeat an epoch.
	flat := spec
	flat.PatchRetries, flat.RebuildRetries = 0, 0
	flatRep := Run(flat)
	t.Log(flatRep.String())
	aborted := false
	for _, b := range flatRep.EpochBills {
		if b.Aborted {
			aborted = true
		}
	}
	if !aborted {
		t.Error("single-attempt run survived the partition: the ladder is not what saved the armed run")
	}
}

// TestChurnScenarioDeterminism: a churned session is a pure function
// of its spec at every worker count — trees, bills, and memberships
// included.
func TestChurnScenarioDeterminism(t *testing.T) {
	spec := Spec{
		Name:     "churn-det",
		Topology: "grid",
		N:        144,
		Seed:     23,
		Churn:    &overlay.ChurnPlan{Seed: 29, Epochs: 4, JoinFrac: 0.05, LeaveFrac: 0.05},
	}
	fp := func(r *Report) string {
		if r.Err != nil {
			return "err:" + r.Err.Error()
		}
		return fmt.Sprintf("%+v|%d|%v", r.EpochBills, r.FinalMembers, r.Violations)
	}
	base := Run(spec)
	if !base.OK() {
		t.Fatalf("base run not clean: err=%v violations=%v", base.Err, base.Violations)
	}
	for _, workers := range []int{1, 3, 16} {
		spec.Workers = workers
		if got := fp(Run(spec)); got != fp(base) {
			t.Fatalf("workers=%d diverged:\n%s\nvs\n%s", workers, got, fp(base))
		}
	}
}

// TestScenarioDeterminism: running the same spec twice (at different
// worker counts) yields the same report.
func TestScenarioDeterminism(t *testing.T) {
	spec := Canned(128)[0]
	a := Run(spec)
	spec.Workers = 3
	b := Run(spec)
	fp := func(r *Report) string {
		if r.Err != nil {
			return "err:" + r.Err.Error()
		}
		return fmt.Sprintf("%v|%+v|%v|%v", r.Result.Aborted, r.Result.Stats, r.Result.Survivors, r.Violations)
	}
	if fp(a) != fp(b) {
		t.Fatalf("scenario diverged across worker counts:\n%s\nvs\n%s", fp(a), fp(b))
	}
}

// TestFaultFreeScenarioIsClean: the harness on a fault-free spec must
// report a full-population tree with zero violations.
func TestFaultFreeScenarioIsClean(t *testing.T) {
	rep := Run(Spec{Name: "benign", Topology: "grid", N: 64, Seed: 3})
	if !rep.OK() {
		t.Fatalf("fault-free scenario not clean: err=%v violations=%v", rep.Err, rep.Violations)
	}
	if rep.Result.Survivors != nil {
		t.Errorf("fault-free run reported a survivor subset: %v", rep.Result.Survivors)
	}
	if rep.Result.Aborted {
		t.Errorf("fault-free run aborted: %s", rep.Result.AbortReason)
	}
}

// TestCheckInvariantsCatchesTampering corrupts real build results and
// verifies the checker notices each class of breakage.
func TestCheckInvariantsCatchesTampering(t *testing.T) {
	spec := Spec{Name: "tamper", Topology: "line", N: 48, Seed: 5}
	g, err := BuildTopology(spec.Topology, spec.N)
	if err != nil {
		t.Fatal(err)
	}
	build := func() *overlay.BuildResult {
		res, err := overlay.BuildTree(g, &overlay.Options{Seed: spec.Seed, MessageLevel: true})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	if v := CheckInvariants(&spec, g, build()); len(v) != 0 {
		t.Fatalf("pristine result reported violations: %v", v)
	}

	// Swap two ranks: bijection breaks.
	res := build()
	res.Tree.Rank[1], res.Tree.Rank[2] = res.Tree.Rank[2], res.Tree.Rank[1]
	if v := CheckInvariants(&spec, g, res); len(v) == 0 {
		t.Error("rank tampering went unnoticed")
	}

	// Rewire a non-root parent: heap rule breaks.
	res = build()
	victim := (res.Tree.Root + 1) % spec.N
	res.Tree.Parent[victim] = victim
	if v := CheckInvariants(&spec, g, res); len(v) == 0 {
		t.Error("parent tampering went unnoticed")
	}

	// Abort without a reason (and without faults installed).
	res = build()
	res.Tree = nil
	res.Aborted = true
	if v := CheckInvariants(&spec, g, res); len(v) < 2 {
		t.Errorf("reasonless fault-free abort raised %v, want both violations", v)
	}

	// Root outside the index space must be a violation, not a panic.
	res = build()
	res.Tree.Root = -1
	if v := CheckInvariants(&spec, g, res); len(v) == 0 {
		t.Error("out-of-range root went unnoticed")
	}
	res = build()
	res.Tree.Root = spec.N
	if v := CheckInvariants(&spec, g, res); len(v) == 0 {
		t.Error("out-of-range root went unnoticed")
	}

	// A parent cycle that skips the root must trip the depth walk.
	res = build()
	a := res.Tree.NodeAt[spec.N-1]
	b := res.Tree.NodeAt[spec.N-2]
	res.Tree.Parent[a], res.Tree.Parent[b] = b, a
	if v := CheckInvariants(&spec, g, res); len(v) == 0 {
		t.Error("parent cycle went unnoticed")
	}

	// Blow the round budget.
	tight := spec
	tight.RoundBudget = 1
	if v := CheckInvariants(&tight, g, build()); len(v) == 0 {
		t.Error("round-budget breach went unnoticed")
	}

	// Claim a survivor subset that the tree does not match.
	res = build()
	res.Survivors = []int{0, 1, 2}
	if v := CheckInvariants(&spec, g, res); len(v) == 0 {
		t.Error("survivor/tree size mismatch went unnoticed")
	}
}

func TestDefaultRoundBudgetCoversMeasuredBuilds(t *testing.T) {
	// The golden builds run 278 (n=64) and 450 (n=1024) rounds; the
	// derived budgets must clear them with room.
	if b := DefaultRoundBudget(64, nil); b < 300 {
		t.Errorf("budget at n=64 is %d, too tight", b)
	}
	if b := DefaultRoundBudget(1024, nil); b < 500 {
		t.Errorf("budget at n=1024 is %d, too tight", b)
	}
	if a, b := DefaultRoundBudget(1024, nil), DefaultRoundBudget(1024, &overlay.FaultPlan{DelayMax: 10}); b <= a {
		t.Errorf("delay slack missing: %d vs %d", a, b)
	}
}
