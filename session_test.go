package overlay

import (
	"errors"
	"reflect"
	"strings"
	"testing"
)

// openLineSession builds a message-level line overlay and opens a
// session over it.
func openLineSession(t *testing.T, n int, opt *SessionOptions) (*Session, *BuildResult) {
	t.Helper()
	res, err := BuildTree(lineInput(n), &Options{Seed: 7, MessageLevel: true})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := Open(res, opt)
	if err != nil {
		t.Fatal(err)
	}
	return sess, res
}

// checkSessionTree validates the session's structural contract: a
// well-formed tree over exactly the ascending member list.
func checkSessionTree(t *testing.T, sess *Session) {
	t.Helper()
	members := sess.Members()
	tr := sess.Tree()
	k := len(members)
	if len(tr.Rank) != k || len(tr.NodeAt) != k || len(tr.Parent) != k {
		t.Fatalf("tree arrays %d/%d/%d vs %d members", len(tr.Rank), len(tr.NodeAt), len(tr.Parent), k)
	}
	for i := 1; i < k; i++ {
		if members[i] <= members[i-1] {
			t.Fatalf("members not strictly ascending: %v", members)
		}
	}
	for v, r := range tr.Rank {
		if r < 0 || r >= k || tr.NodeAt[r] != v {
			t.Fatalf("rank table broken at node %d (rank %d)", v, r)
		}
		if v == tr.Root {
			if r != 0 || tr.Parent[v] != v {
				t.Fatalf("root %d has rank %d parent %d", v, r, tr.Parent[v])
			}
			continue
		}
		if want := tr.NodeAt[(r-1)/2]; tr.Parent[v] != want {
			t.Fatalf("node %d parent %d, want heap parent %d", v, tr.Parent[v], want)
		}
	}
}

func TestSessionPatchEpochs(t *testing.T) {
	sess, _ := openLineSession(t, 256, nil)
	if got := len(sess.Members()); got != 256 {
		t.Fatalf("founding membership %d, want 256", got)
	}
	plan := &ChurnPlan{Seed: 3, Epochs: 5, JoinFrac: 0.02, LeaveFrac: 0.02}
	for e := 0; e < plan.Epochs; e++ {
		joins, leaves := plan.Epoch(e, sess.Members(), sess.NextID())
		bill, err := sess.ApplyEpoch(joins, leaves)
		if err != nil {
			t.Fatalf("epoch %d: %v", e, err)
		}
		if bill.Rebuilt {
			t.Fatalf("epoch %d rebuilt under 4%% churn", e)
		}
		if bill.Joined != len(joins) || bill.Left != len(leaves) {
			t.Fatalf("epoch %d bill delta %d/%d, want %d/%d", e, bill.Joined, bill.Left, len(joins), len(leaves))
		}
		checkSessionTree(t, sess)
	}
	if got := sess.Epoch(); got != plan.Epochs {
		t.Fatalf("session at epoch %d, want %d", got, plan.Epochs)
	}
	if len(sess.Bills()) != plan.Epochs {
		t.Fatalf("%d bills, want %d", len(sess.Bills()), plan.Epochs)
	}
}

// TestSessionThresholdBoundary pins the patch-vs-rebuild decision at
// the threshold: a churned fraction exactly at RebuildFraction still
// patches; one node more tips into rebuild.
func TestSessionThresholdBoundary(t *testing.T) {
	const n = 64
	opt := &SessionOptions{RebuildFraction: 0.25, Build: Options{MessageLevel: true}}

	sess, _ := openLineSession(t, n, opt)
	atThreshold := make([]int, n/4) // 16/64 == 0.25 exactly
	for i := range atThreshold {
		atThreshold[i] = sess.NextID() + i
	}
	bill, err := sess.ApplyEpoch(atThreshold, nil)
	if err != nil {
		t.Fatal(err)
	}
	if bill.Rebuilt {
		t.Errorf("churn exactly at the threshold (%.2f) rebuilt; must patch", bill.ChurnedFraction)
	}

	sess, _ = openLineSession(t, n, opt)
	above := make([]int, n/4+1) // 17/64 > 0.25
	for i := range above {
		above[i] = sess.NextID() + i
	}
	bill, err = sess.ApplyEpoch(above, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bill.Rebuilt {
		t.Errorf("churn above the threshold (%.2f) patched; must rebuild", bill.ChurnedFraction)
	}
	checkSessionTree(t, sess)
	if got := len(sess.Members()); got != n+len(above) {
		t.Errorf("membership after rebuild %d, want %d", got, n+len(above))
	}
}

// TestSessionDeterministicAcrossWorkers is the metamorphic pin: the
// same seed and epoch schedule produce bit-identical members, trees,
// and bills at every worker count — including a
// rebuild epoch, which runs a real message-level BuildTree.
func TestSessionDeterministicAcrossWorkers(t *testing.T) {
	type outcome struct {
		Members []int
		Tree    Tree
		Bills   []EpochBill
	}
	run := func(workers int) outcome {
		res, err := BuildTree(lineInput(128), &Options{
			Seed: 11, MessageLevel: true, Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		sess, err := Open(res, &SessionOptions{Build: Options{
			Seed: 11, MessageLevel: true, Workers: workers,
		}})
		if err != nil {
			t.Fatal(err)
		}
		plan := &ChurnPlan{Seed: 13, Epochs: 3, JoinFrac: 0.03, LeaveFrac: 0.03}
		for e := 0; e < plan.Epochs; e++ {
			joins, leaves := plan.Epoch(e, sess.Members(), sess.NextID())
			if _, err := sess.ApplyEpoch(joins, leaves); err != nil {
				t.Fatalf("epoch %d: %v", e, err)
			}
		}
		// A forced rebuild epoch: 40% fresh joiners blow the threshold.
		k := len(sess.Members())
		joins := make([]int, 2*k/5)
		for i := range joins {
			joins[i] = sess.NextID() + i
		}
		bill, err := sess.ApplyEpoch(joins, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bill.Rebuilt {
			t.Fatal("forced rebuild epoch patched")
		}
		return outcome{Members: sess.Members(), Tree: *sess.Tree(), Bills: sess.Bills()}
	}

	base := run(1)
	for _, w := range []int{2, 5, 16} {
		if got := run(w); !reflect.DeepEqual(got, base) {
			t.Fatalf("workers=%d diverged from workers=1", w)
		}
	}
}

// TestSessionPatchCheaperThanRebuild is the acceptance pin: a patch
// epoch must cost strictly fewer rounds and simulated messages than a
// from-scratch message-level BuildTree over the same survivor set
// (anchored on the same substrate the session would rebuild from).
func TestSessionPatchCheaperThanRebuild(t *testing.T) {
	sess, _ := openLineSession(t, 512, &SessionOptions{Build: Options{MessageLevel: true}})
	plan := &ChurnPlan{Seed: 5, Epochs: 1, JoinFrac: 0.02, LeaveFrac: 0.02}
	joins, leaves := plan.Epoch(0, sess.Members(), sess.NextID())
	bill, err := sess.ApplyEpoch(joins, leaves)
	if err != nil {
		t.Fatal(err)
	}
	if bill.Rebuilt {
		t.Fatal("epoch rebuilt; the comparison needs a patch")
	}

	// From-scratch reference at the same survivor set: the session's
	// own current Chord substrate, message level.
	members := sess.Members()
	idx := make(map[int]int, len(members))
	for i, id := range members {
		idx[id] = i
	}
	g := NewGraph(len(members))
	for _, e := range sess.Chord() {
		g.AddEdge(idx[e[0]], idx[e[1]])
	}
	ref, err := BuildTree(g, &Options{Seed: 7, MessageLevel: true})
	if err != nil {
		t.Fatal(err)
	}
	if bill.Rounds >= ref.Stats.Rounds {
		t.Errorf("patch cost %d rounds, from-scratch build %d: repair is not cheaper", bill.Rounds, ref.Stats.Rounds)
	}
	if bill.Messages >= ref.Stats.Messages {
		t.Errorf("patch cost %d messages, from-scratch build %d: repair is not cheaper", bill.Messages, ref.Stats.Messages)
	}
	t.Logf("patch: %d rounds / %d msgs; from-scratch: %d rounds / %d msgs",
		bill.Rounds, bill.Messages, ref.Stats.Rounds, ref.Stats.Messages)
}

// TestSessionRouteLookup: the session serves Chord lookups between
// epochs, in global identifier space, with O(log n) hops.
func TestSessionRouteLookup(t *testing.T) {
	sess, _ := openLineSession(t, 128, nil)
	joins := []int{500, 501, 502}
	if _, err := sess.ApplyEpoch(joins, []int{3, 77}); err != nil {
		t.Fatal(err)
	}
	members := sess.Members()
	from, to := members[5], 502
	path, err := sess.RouteLookup(from, to)
	if err != nil {
		t.Fatal(err)
	}
	if len(path) == 0 || path[0] != from || path[len(path)-1] != to {
		t.Fatalf("path %v does not connect %d -> %d", path, from, to)
	}
	if maxHops := 2 * 8; len(path)-1 > maxHops {
		t.Errorf("path %d hops, want O(log n) <= %d", len(path)-1, maxHops)
	}
	present := make(map[int]bool, len(members))
	for _, id := range members {
		present[id] = true
	}
	for _, id := range path {
		if !present[id] {
			t.Fatalf("path routes through non-member %d", id)
		}
	}
	// Non-member endpoints return reasoned errors: a departed member is
	// distinguished from an identifier the session has never seen, and
	// the departure error names the epoch.
	if p, err := sess.RouteLookup(3, from); p != nil || !errors.Is(err, ErrDeparted) {
		t.Errorf("lookup from departed member 3: path %v, err %v; want nil path wrapping ErrDeparted", p, err)
	} else if !strings.Contains(err.Error(), "epoch 0") {
		t.Errorf("departure error %q does not name epoch 0", err)
	}
	if p, err := sess.RouteLookup(from, 999); p != nil || !errors.Is(err, ErrNotMember) {
		t.Errorf("lookup to never-joined id 999: path %v, err %v; want nil path wrapping ErrNotMember", p, err)
	}
}

func TestSessionEpochValidation(t *testing.T) {
	sess, res := openLineSession(t, 64, nil)
	cases := []struct {
		name   string
		joins  []int
		leaves []int
	}{
		{"duplicate join", []int{100, 100}, nil},
		{"negative join", []int{-1}, nil},
		{"join already member", []int{5}, nil},
		{"duplicate leave", nil, []int{4, 4}},
		{"leave non-member", nil, []int{999}},
		{"join and leave overlap", []int{70}, []int{70}},
	}
	for _, c := range cases {
		if _, err := sess.ApplyEpoch(c.joins, c.leaves); err == nil {
			t.Errorf("%s: no error", c.name)
		}
	}
	all := sess.Members()
	if _, err := sess.ApplyEpoch(nil, all); err == nil {
		t.Error("removing every member: no error")
	}
	// Failed epochs must leave the session untouched and replayable.
	if got := sess.Epoch(); got != 0 {
		t.Errorf("failed epochs advanced the epoch counter to %d", got)
	}
	if got := len(sess.Members()); got != 64 {
		t.Errorf("failed epochs changed the membership to %d nodes", got)
	}

	// Open validation.
	if _, err := Open(nil, nil); err == nil {
		t.Error("Open(nil): no error")
	}
	if _, err := Open(&BuildResult{Aborted: true, AbortReason: "x"}, nil); err == nil {
		t.Error("Open(aborted): no error")
	}
	if _, err := Open(res, &SessionOptions{RebuildFraction: 1.5}); err == nil {
		t.Error("Open with RebuildFraction 1.5: no error")
	}
	if _, err := Open(res, &SessionOptions{Build: Options{Faults: &FaultPlan{}}}); err == nil {
		t.Error("Open with Faults but no MessageLevel: no error")
	}
}

// TestSessionNoOpEpoch: an empty epoch costs nothing and changes
// nothing, but still counts as an epoch.
func TestSessionNoOpEpoch(t *testing.T) {
	sess, _ := openLineSession(t, 64, nil)
	before := sess.Members()
	bill, err := sess.ApplyEpoch(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if bill.Rounds != 0 || bill.Messages != 0 || bill.Rebuilt {
		t.Errorf("no-op epoch billed %+v", bill)
	}
	if !reflect.DeepEqual(before, sess.Members()) {
		t.Error("no-op epoch changed the membership")
	}
	if sess.Epoch() != 1 {
		t.Errorf("no-op epoch did not advance the epoch counter: %d", sess.Epoch())
	}
}

// TestSessionFaultPlanSpansEpochs: a session-clock fault plan crashes
// a member long after the initial build; the crash lands in the next
// rebuild epoch and the victim drops out of the membership.
func TestSessionFaultPlanSpansEpochs(t *testing.T) {
	res, err := BuildTree(lineInput(128), &Options{Seed: 7, MessageLevel: true})
	if err != nil {
		t.Fatal(err)
	}
	victim := 9
	plan := &FaultPlan{Seed: 1, Crashes: []Crash{{Node: victim, Round: res.Stats.Rounds + 1}}}
	sess, err := Open(res, &SessionOptions{Build: Options{Seed: 7, MessageLevel: true, Faults: plan}})
	if err != nil {
		t.Fatal(err)
	}
	// Patch epochs simulate no messages, so the schedule waits for the
	// next rebuild.
	if _, err := sess.ApplyEpoch([]int{sess.NextID()}, nil); err != nil {
		t.Fatal(err)
	}
	if _, ok := findMember(sess, victim); !ok {
		t.Fatal("victim vanished during a patch epoch")
	}
	joins := make([]int, len(sess.Members())/2)
	for i := range joins {
		joins[i] = sess.NextID() + i
	}
	bill, err := sess.ApplyEpoch(joins, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bill.Rebuilt {
		t.Fatal("forced rebuild epoch patched")
	}
	if _, ok := findMember(sess, victim); ok {
		t.Error("crashed node survived the rebuild epoch")
	}
	checkSessionTree(t, sess)
}

// TestSessionNextIDClearsDeadFounders: after a faulted build the dead
// founding members' identifiers are spent — NextID must start past the
// whole input index space, not past the surviving maximum, or a
// joiner would inherit a dead node's identity (and any fault-plan
// entry naming it).
func TestSessionNextIDClearsDeadFounders(t *testing.T) {
	const n = 256
	ring := NewGraph(n)
	for i := 0; i < n; i++ {
		ring.AddEdge(i, (i+1)%n)
	}
	// Round 280 lands in the tree phase (past the ~278-round expander
	// phase at this scale/seed), where a lone crash leaves the evolved
	// graph connected and the build completes over the survivors.
	res, err := BuildTree(ring, &Options{
		Seed: 7, MessageLevel: true,
		Faults: &FaultPlan{Seed: 1, Crashes: []Crash{{Node: n - 1, Round: 280}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Aborted {
		t.Fatalf("build aborted: %s", res.AbortReason)
	}
	if res.Survivors == nil || res.Survivors[len(res.Survivors)-1] == n-1 {
		t.Fatalf("crash of node %d did not register: survivors %v", n-1, res.Survivors)
	}
	sess, err := Open(res, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := sess.NextID(); got != n {
		t.Errorf("NextID() = %d, want %d (past the dead founder's identifier)", got, n)
	}
}

func findMember(s *Session, id int) (int, bool) {
	for i, m := range s.Members() {
		if m == id {
			return i, true
		}
	}
	return 0, false
}

// TestChurnPlanEpochDeterministic: the schedule generator is a pure
// function of (seed, epoch, membership).
func TestChurnPlanEpochDeterministic(t *testing.T) {
	members := make([]int, 100)
	for i := range members {
		members[i] = i * 3
	}
	p := &ChurnPlan{Seed: 42, Epochs: 3, JoinFrac: 0.1, LeaveFrac: 0.1}
	j1, l1 := p.Epoch(1, members, 1000)
	j2, l2 := p.Epoch(1, members, 1000)
	if !reflect.DeepEqual(j1, j2) || !reflect.DeepEqual(l1, l2) {
		t.Fatal("Epoch not deterministic")
	}
	if len(j1) != 10 || len(l1) != 10 {
		t.Fatalf("epoch sizes %d/%d, want 10/10", len(j1), len(l1))
	}
	seen := map[int]bool{}
	for _, id := range members {
		seen[id] = true
	}
	for _, id := range l1 {
		if !seen[id] {
			t.Fatalf("leaver %d is not a member", id)
		}
	}
	for _, id := range j1 {
		if id < 1000 || id >= 1010 {
			t.Fatalf("joiner %d outside the fresh-id window", id)
		}
	}
	j3, _ := p.Epoch(2, members, 1000)
	_, l3 := p.Epoch(2, members, 1000)
	if reflect.DeepEqual(l1, l3) {
		t.Error("different epochs drew identical leave sets")
	}
	_ = j3
}
