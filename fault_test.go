package overlay

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"strconv"
	"testing"
)

// lineGraph builds the n-node path used throughout the fault tests.
func lineGraph(n int) *Graph {
	g := NewGraph(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1)
	}
	return g
}

// fingerprintResult hashes everything observable about a build result,
// so two runs compare bit-for-bit.
func fingerprintResult(res *BuildResult) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "aborted=%v reason=%q|", res.Aborted, res.AbortReason)
	fmt.Fprintf(h, "stats=%+v|", res.Stats)
	for _, v := range res.Survivors {
		fmt.Fprintf(h, "s%d,", v)
	}
	if res.Tree != nil {
		fmt.Fprintf(h, "root=%d|", res.Tree.Root)
		for _, p := range res.Tree.Parent {
			fmt.Fprintf(h, "%d,", p)
		}
		for _, r := range res.Tree.Rank {
			fmt.Fprintf(h, "%d;", r)
		}
	}
	return h.Sum64()
}

// TestZeroFaultPlanMatchesFaultFree is the metamorphic pin for the
// fault plane: installing a FaultPlan that faults nothing must
// reproduce the fault-free message-level build bit for bit — same
// trees, same rounds, same message accounting — at every golden
// (n, seed) pair of wire_golden_test.go. The zero plan still routes
// every message through the checked fault delivery path, so this test
// proves that path is a true no-op, not merely unused.
func TestZeroFaultPlanMatchesFaultFree(t *testing.T) {
	cases := []struct {
		n    int
		seed uint64
	}{
		{64, 1}, {64, 2021}, {257, 1}, {257, 2021}, {1024, 1}, {1024, 2021},
	}
	for _, c := range cases {
		plain, err := BuildTree(lineGraph(c.n), &Options{Seed: c.seed, MessageLevel: true})
		if err != nil {
			t.Fatalf("n=%d seed=%d: %v", c.n, c.seed, err)
		}
		zero, err := BuildTree(lineGraph(c.n), &Options{Seed: c.seed, MessageLevel: true, Faults: &FaultPlan{}})
		if err != nil {
			t.Fatalf("n=%d seed=%d zero plan: %v", c.n, c.seed, err)
		}
		if zero.Aborted {
			t.Fatalf("n=%d seed=%d: zero plan aborted: %s", c.n, c.seed, zero.AbortReason)
		}
		if a, b := fingerprintResult(plain), fingerprintResult(zero); a != b {
			t.Errorf("n=%d seed=%d: zero-fault build diverged from fault-free build (%016x vs %016x)\nplain: %+v\nzero:  %+v",
				c.n, c.seed, a, b, plain.Stats, zero.Stats)
		}
		if zero.Stats.FaultDrops != 0 || zero.Stats.FaultDelays != 0 {
			t.Errorf("n=%d seed=%d: zero plan faulted: %+v", c.n, c.seed, zero.Stats)
		}
	}
}

// TestFaultedBuildDeterministicAcrossWorkers extends the determinism
// sweep to the fault plane at the public API: a seeded adversary with
// drops, delays, crashes, and a partition must produce the identical
// BuildResult (tree or abort, survivors, and statistics) at every
// worker count, single-goroutine execution (workers 1) included.
func TestFaultedBuildDeterministicAcrossWorkers(t *testing.T) {
	const n = 257
	plan := &FaultPlan{
		Seed:           5,
		DropProb:       0.002,
		DelayProb:      0.01,
		DelayMax:       3,
		Crashes:        []Crash{{Node: 11, Round: 60}, {Node: 200, Round: 150}},
		CrashFrac:      0.02,
		CrashFracRound: 120,
		Partitions:     []Partition{{From: 40, Until: 44, Side: []int{0, 1, 2, 3, 4, 5, 6, 7}}},
	}
	var want uint64
	for i, opt := range []*Options{
		{Seed: 3, MessageLevel: true, Faults: plan, Workers: 1},
		{Seed: 3, MessageLevel: true, Faults: plan, Workers: 2},
		{Seed: 3, MessageLevel: true, Faults: plan, Workers: 5},
		{Seed: 3, MessageLevel: true, Faults: plan, Workers: 16},
	} {
		res, err := BuildTree(lineGraph(n), opt)
		if err != nil {
			t.Fatalf("workers=%d: %v", opt.Workers, err)
		}
		fp := fingerprintResult(res)
		if i == 0 {
			want = fp
			if res.Aborted {
				t.Logf("faulted build aborted deterministically: %s", res.AbortReason)
			} else {
				t.Logf("faulted build completed: %d survivors of %d, rounds=%d, drops=%d delays=%d",
					len(res.Survivors), n, res.Stats.Rounds, res.Stats.FaultDrops, res.Stats.FaultDelays)
			}
			continue
		}
		if fp != want {
			t.Errorf("workers=%d: result fingerprint %016x != baseline %016x", opt.Workers, fp, want)
		}
	}
}

// TestCrashFaultsYieldSurvivorTreeOrAbort: crashing nodes mid-build
// either aborts with a reason or yields a well-formed tree over
// exactly the survivor set.
func TestCrashFaultsYieldSurvivorTreeOrAbort(t *testing.T) {
	const n = 128
	plan := &FaultPlan{Seed: 9, CrashFrac: 0.05, CrashFracRound: 30}
	res, err := BuildTree(lineGraph(n), &Options{Seed: 7, MessageLevel: true, Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	// The completed-build path must be worker-independent too (the
	// abort path is swept separately).
	res4, err := BuildTree(lineGraph(n), &Options{Seed: 7, MessageLevel: true, Faults: plan, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if a, b := fingerprintResult(res), fingerprintResult(res4); a != b {
		t.Fatalf("crash build diverged between default and 4 workers: %016x vs %016x", a, b)
	}
	if res.Aborted {
		if res.AbortReason == "" {
			t.Fatal("aborted without a reason")
		}
		t.Logf("aborted: %s", res.AbortReason)
		return
	}
	dead := len(plan.materializeCrashes(n))
	if dead == 0 {
		t.Fatal("test plan crashed nobody")
	}
	if len(res.Survivors) != n-dead {
		t.Fatalf("got %d survivors, want %d", len(res.Survivors), n-dead)
	}
	k := len(res.Survivors)
	if len(res.Tree.Rank) != k || len(res.Tree.Parent) != k || len(res.Tree.NodeAt) != k {
		t.Fatalf("tree arrays sized %d/%d/%d, want %d",
			len(res.Tree.Rank), len(res.Tree.Parent), len(res.Tree.NodeAt), k)
	}
	// Heap-rule spot check in survivor-local space.
	for v := 0; v < k; v++ {
		r := res.Tree.Rank[v]
		if res.Tree.NodeAt[r] != v {
			t.Fatalf("NodeAt[%d]=%d, want %d", r, res.Tree.NodeAt[r], v)
		}
		if v != res.Tree.Root {
			if want := res.Tree.NodeAt[(r-1)/2]; res.Tree.Parent[v] != want {
				t.Fatalf("survivor %d parent %d, want %d", v, res.Tree.Parent[v], want)
			}
		}
	}
}

// TestFaultsRequireMessageLevel pins the API contract.
func TestFaultsRequireMessageLevel(t *testing.T) {
	_, err := BuildTree(lineGraph(16), &Options{Faults: &FaultPlan{}})
	if err == nil {
		t.Fatal("fast-path build with faults did not error")
	}
}

// TestFaultPlanValidation: schedules referencing nodes the build does
// not have (or carrying out-of-range probabilities) error loudly
// instead of silently running a weaker adversary.
func TestFaultPlanValidation(t *testing.T) {
	for name, plan := range map[string]*FaultPlan{
		"crash node beyond n":  {Crashes: []Crash{{Node: 5000, Round: 30}}},
		"negative crash node":  {Crashes: []Crash{{Node: -1, Round: 30}}},
		"cut node beyond n":    {Partitions: []Partition{{From: 1, Until: 5, Side: []int{99}}}},
		"empty partition side": {Partitions: []Partition{{From: 1, Until: 5}}},
		"empty cut window":     {Partitions: []Partition{{From: 5, Until: 5, Side: []int{0}}}},
		"drop prob > 1":        {DropProb: 1.5},
		"negative delay prob":  {DelayProb: -0.5},
		"crash frac > 1":       {CrashFrac: 2, CrashFracRound: 10},
	} {
		_, err := BuildTree(lineGraph(32), &Options{MessageLevel: true, Faults: plan})
		if err == nil {
			t.Errorf("%s: BuildTree accepted the invalid plan", name)
		}
	}
}

// TestGoPlansRejectNaNAndWideDelays: plans built in Go rather than
// parsed get the parser's checks. NaN compares false against both ends
// of [0,1], so a range test written as v < 0 || v > 1 lets it through; a
// DelayMax past 2^31-1 would wrap the engine's 32-bit delay. BuildTree,
// a session's Open and SetFaults, and ChurnPlan.validate refuse both (and
// Open a NaN RebuildFraction), and the largest delay that fits is still
// accepted.
func TestGoPlansRejectNaNAndWideDelays(t *testing.T) {
	nan := math.NaN()
	faults := map[string]*FaultPlan{
		"NaN drop prob":  {DropProb: nan},
		"NaN delay prob": {DelayProb: nan},
		"NaN crash frac": {CrashFrac: nan, CrashFracRound: 10},
	}
	if strconv.IntSize == 64 {
		// A 32-bit int cannot hold a delay past 2^31-1, so only a
		// 64-bit int can wrap the engine's delay.
		delay := math.MaxInt32
		faults["delay past 2^31"] = &FaultPlan{DelayProb: 0.5, DelayMax: delay + 1}
	}
	sess, res := openLineSession(t, 32, &SessionOptions{Build: Options{Seed: 7, MessageLevel: true}})
	for name, plan := range faults {
		if _, err := BuildTree(lineGraph(32), &Options{MessageLevel: true, Faults: plan}); err == nil {
			t.Errorf("%s: BuildTree accepted the plan", name)
		}
		if _, err := Open(res, &SessionOptions{Build: Options{Seed: 7, MessageLevel: true, Faults: plan}}); err == nil {
			t.Errorf("%s: Open accepted the plan", name)
		}
		if err := sess.SetFaults(plan); err == nil {
			t.Errorf("%s: SetFaults accepted the plan", name)
		}
	}
	if _, err := Open(res, &SessionOptions{RebuildFraction: nan}); err == nil {
		t.Error("Open accepted a NaN RebuildFraction")
	}
	widest := &FaultPlan{DelayProb: 0.5, DelayMax: math.MaxInt32}
	if err := widest.validate(32); err != nil {
		t.Errorf("DelayMax 2^31-1 refused: %v", err)
	}
	if err := sess.SetFaults(widest); err != nil {
		t.Errorf("SetFaults refused DelayMax 2^31-1: %v", err)
	}
	for name, plan := range map[string]*ChurnPlan{
		"NaN join":    {Epochs: 1, JoinFrac: nan},
		"NaN leave":   {Epochs: 1, LeaveFrac: nan},
		"NaN rebuild": {Epochs: 1, RebuildFraction: nan},
	} {
		if err := plan.validate(); err == nil {
			t.Errorf("%s: ChurnPlan.validate accepted the plan", name)
		}
	}
}

// TestDerivedOverlaysOnFaultedResults: derived-overlay methods are
// nil-safe on aborted results and stay in tree index space on
// survivor trees.
func TestDerivedOverlaysOnFaultedResults(t *testing.T) {
	aborted := &BuildResult{Aborted: true, AbortReason: "test"}
	if aborted.Ring() != nil || aborted.Chord() != nil || aborted.Hypercube() != nil ||
		aborted.DeBruijn() != nil {
		t.Error("derived methods on an aborted result did not return nil")
	}
	if path, err := aborted.RouteLookupErr(0, 1); path != nil || !errors.Is(err, ErrAborted) {
		t.Errorf("lookup on an aborted result = %v, %v; want no path and ErrAborted", path, err)
	}

	const n = 128
	plan := &FaultPlan{Seed: 9, CrashFrac: 0.05, CrashFracRound: 30}
	res, err := BuildTree(lineGraph(n), &Options{Seed: 7, MessageLevel: true, Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	if res.Aborted {
		t.Skipf("build aborted (%s); survivor-tree portion not exercised", res.AbortReason)
	}
	k := len(res.Survivors)
	if edges := res.Ring(); len(edges) != k {
		t.Errorf("survivor ring has %d edges, want %d", len(edges), k)
	}
	if path, err := res.RouteLookupErr(0, k-1); err != nil || len(path) == 0 {
		t.Errorf("lookup on survivor-local endpoints = %v, %v", path, err)
	}
	for _, bad := range []struct{ from, to, names int }{{-1, 0, -1}, {0, k, k}} {
		var nm *NotMemberError
		if _, err := res.RouteLookupErr(bad.from, bad.to); !errors.As(err, &nm) || nm.Node != bad.names {
			t.Errorf("lookup %d -> %d: got %v, want a *NotMemberError naming %d", bad.from, bad.to, err, bad.names)
		}
	}
}

// TestFaultPlanShiftForEpoch pins the session-clock translation: round
// shifting, already-passed crashes becoming dead-from-start, departed
// nodes dropped, global identifiers remapped to member-local indices,
// and a spent CrashFrac not re-firing.
func TestFaultPlanShiftForEpoch(t *testing.T) {
	p := &FaultPlan{
		Seed:      3,
		DropProb:  0.25,
		DelayProb: 0.5,
		DelayMax:  4,
		Crashes: []Crash{
			{Node: 10, Round: 500}, // future: shifts
			{Node: 30, Round: 50},  // past: dead from start
			{Node: 99, Round: 500}, // not a member: dropped
		},
		CrashFrac:      0.5,
		CrashFracRound: 80, // past: must not re-fire
		Partitions: []Partition{
			{From: 450, Until: 460, Side: []int{10, 30, 99}}, // future window
			{From: 10, Until: 90, Side: []int{10}},           // past window: dropped
		},
	}
	members := []int{5, 10, 30} // member-local: 10 -> 1, 30 -> 2
	q := p.shiftForEpoch(400, 2, members)
	if q.DropProb != 0.25 || q.DelayProb != 0.5 || q.DelayMax != 4 {
		t.Errorf("probability knobs changed: %+v", q)
	}
	// The fate seed is re-derived per epoch (a rebuild's engine clock
	// restarts at 1, so a verbatim seed would replay identical fates in
	// every rebuild), deterministically.
	if q2 := p.shiftForEpoch(400, 2, members); q2.Seed != q.Seed {
		t.Error("same epoch derived different fate seeds")
	}
	if q3 := p.shiftForEpoch(400, 3, members); q3.Seed == q.Seed {
		t.Error("different epochs share the fate seed")
	}
	want := []Crash{{Node: 1, Round: 100}, {Node: 2, Round: 0}}
	if len(q.Crashes) != 2 || q.Crashes[0] != want[0] || q.Crashes[1] != want[1] {
		t.Errorf("crashes = %+v, want %+v", q.Crashes, want)
	}
	if q.CrashFrac != 0 {
		t.Errorf("spent CrashFrac carried over: %+v", q)
	}
	if len(q.Partitions) != 1 || q.Partitions[0].From != 50 || q.Partitions[0].Until != 60 {
		t.Fatalf("partitions = %+v", q.Partitions)
	}
	if side := q.Partitions[0].Side; len(side) != 2 || side[0] != 1 || side[1] != 2 {
		t.Errorf("partition side = %v, want member-local [1 2]", side)
	}

	future := &FaultPlan{CrashFrac: 0.5, CrashFracRound: 450}
	if q := future.shiftForEpoch(400, 0, members); q.CrashFrac != 0.5 || q.CrashFracRound != 50 {
		t.Errorf("future CrashFrac mis-shifted: %+v", q)
	}
}

// TestMaterializeCrashesDeterministic: the CrashFrac node selection is
// a pure function of (plan seed, n).
func TestMaterializeCrashesDeterministic(t *testing.T) {
	p1 := &FaultPlan{Seed: 4, CrashFrac: 0.1, CrashFracRound: 10}
	p2 := &FaultPlan{Seed: 4, CrashFrac: 0.1, CrashFracRound: 10}
	a, b := p1.materializeCrashes(100), p2.materializeCrashes(100)
	if len(a) != 10 || len(b) != 10 {
		t.Fatalf("materialized %d and %d crashes, want 10", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("crash lists diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
	p3 := &FaultPlan{Seed: 5, CrashFrac: 0.1, CrashFracRound: 10}
	c := p3.materializeCrashes(100)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different fault seeds picked the identical crash set")
	}
}
