package overlay

import (
	"errors"
	"fmt"
	"hash/fnv"
	"reflect"
	"strings"
	"testing"
)

// ladderSessionOptions builds the canonical ladder-forcing setup the
// tests below share: a measured session whose fault plan partitions
// the first failure domain (a contiguous rack of ids) away from the
// rest of the network for `window` rounds starting right after the
// build. Patch attempts die inside the window — the census sweep
// cannot reach the severed rack — so committing an epoch requires the
// ladder to escalate until an attempt starts past the window.
func ladderSessionOptions(buildRounds, window, patchRetries, rebuildRetries int) *SessionOptions {
	return &SessionOptions{
		Accounting:     Measured,
		PatchRetries:   patchRetries,
		RebuildRetries: rebuildRetries,
		Build: Options{
			Seed:         7,
			MessageLevel: true,
			Faults: &FaultPlan{
				Seed:    3,
				Domains: 8,
				DomainCuts: []DomainCut{
					{Domain: 0, From: buildRounds + 1, Until: buildRounds + window},
				},
			},
		},
	}
}

// openLadderSession opens an n-node line session under the
// ladder-forcing fault plan above.
func openLadderSession(t *testing.T, n, window, patchRetries, rebuildRetries int) *Session {
	t.Helper()
	res, err := BuildTree(lineInput(n), &Options{Seed: 7, MessageLevel: true})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := Open(res, ladderSessionOptions(res.Stats.Rounds, window, patchRetries, rebuildRetries))
	if err != nil {
		t.Fatal(err)
	}
	return sess
}

// TestSessionLadderRecoversFromPartition pins the tentpole behavior:
// an adversary that defeats the single-attempt semantics outright is
// outlasted by the ladder, and every rung is itemized on the bill.
func TestSessionLadderRecoversFromPartition(t *testing.T) {
	const n, window = 192, 160

	// Single-attempt semantics: the partition defeats the epoch.
	flat := openLadderSession(t, n, window, 0, 0)
	joins, leaves := measuredEpochArgs(flat)
	if _, err := flat.ApplyEpoch(joins, leaves); err == nil {
		t.Fatal("single-attempt epoch survived the partition; the ladder test proves nothing")
	}

	// Ladder armed: the same epoch must commit, with the rungs billed.
	sess := openLadderSession(t, n, window, 1, 3)
	bill, err := sess.ApplyEpoch(joins, leaves)
	if err != nil {
		t.Fatalf("ladder did not outlast the partition: %v", err)
	}
	if bill.Attempts < 2 {
		t.Fatalf("epoch committed in %d attempts; the adversary never bit", bill.Attempts)
	}
	if len(bill.AttemptBills) != bill.Attempts {
		t.Fatalf("bill itemizes %d attempt bills for %d attempts", len(bill.AttemptBills), bill.Attempts)
	}
	if !strings.Contains(bill.Path, "+") && !strings.Contains(bill.Path, "×") {
		t.Errorf("multi-attempt epoch billed path %q, want the run-length ladder grammar", bill.Path)
	}
	sum := 0
	for _, a := range bill.AttemptBills {
		sum += a.Rounds
	}
	if sum != bill.Rounds {
		t.Errorf("attempt bills sum to %d rounds, epoch bill says %d", sum, bill.Rounds)
	}
	checkSessionTree(t, sess)
	t.Logf("ladder: %d attempts, path %s, %d rounds", bill.Attempts, bill.Path, bill.Rounds)
}

// TestSessionLadderRedrawsALosingDraw: a rebuild whose evolutions lose
// a cut (ErrEvolutionDisconnected) is a rung defeat, not a hard epoch
// error, so RebuildRetries redraws it. The input is a 16-node line, the
// epoch joins 5 and drops 1 (30 % churn: a rebuild), and the rebuilds
// walk ℓ = 8 steps, which makes a losing draw rare but findable: build
// seed 204 is the only one of 0..299 whose first rebuild disconnects
// and whose second commits.
func TestSessionLadderRedrawsALosingDraw(t *testing.T) {
	res, err := BuildTree(lineInput(16), &Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for _, retries := range []int{0, 1} {
		sess, err := Open(res, &SessionOptions{RebuildRetries: retries, Build: Options{Seed: 204, Ell: 8}})
		if err != nil {
			t.Fatal(err)
		}
		next := sess.NextID()
		joins := []int{next, next + 1, next + 2, next + 3, next + 4}
		bill, err := sess.ApplyEpoch(joins, []int{sess.Members()[5]})
		if retries == 0 {
			if err == nil || !bill.Aborted || !strings.Contains(bill.AbortReason, "fast rebuild aborted ("+ErrEvolutionDisconnected.Error()) {
				t.Fatalf("single draw: err %v, bill %+v; want the losing draw as an aborted rung", err, bill)
			}
			continue
		}
		if err != nil {
			t.Fatalf("the ladder did not redraw: %v", err)
		}
		lost := bill.AttemptBills[0]
		if bill.Attempts != 2 || bill.Path != "rebuild/fast×2" || lost.Rounds == 0 || lost.Rounds+bill.AttemptBills[1].Rounds != bill.Rounds {
			t.Fatalf("epoch billed %q in %d attempts, %d rounds (lost draw %d); want a billed losing draw, then a commit",
				bill.Path, bill.Attempts, bill.Rounds, lost.Rounds)
		}
		checkSessionTree(t, sess)
	}
}

// TestSessionLadderDeterministicAcrossWorkers: the full retry/rollback
// sequence — every attempt bill included — is a pure function of the
// session inputs at every worker count, single-goroutine execution
// (workers 1) being the reference.
func TestSessionLadderDeterministicAcrossWorkers(t *testing.T) {
	const n, window = 192, 160
	run := func(workers int) string {
		res, err := BuildTree(lineInput(n), &Options{Seed: 7, MessageLevel: true})
		if err != nil {
			t.Fatal(err)
		}
		opt := ladderSessionOptions(res.Stats.Rounds, window, 1, 3)
		opt.Build.Workers = workers
		sess, err := Open(res, opt)
		if err != nil {
			t.Fatal(err)
		}
		joins, leaves := measuredEpochArgs(sess)
		bill, err := sess.ApplyEpoch(joins, leaves)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return fmt.Sprintf("%+v|%v|%+v", *bill, sess.Members(), *sess.Tree())
	}
	base := run(1)
	for workers := 2; workers <= 16; workers++ {
		if got := run(workers); got != base {
			t.Fatalf("workers=%d diverged from workers=1:\n%s\nvs\n%s", workers, got, base)
		}
	}
}

// TestSessionLadderZeroFaultBitCompat: with no adversary the ladder is
// invisible — a session with retries armed produces byte-identical
// bills, members, and trees to one without, because attempt 0 always
// runs on the undisturbed epoch seed.
func TestSessionLadderZeroFaultBitCompat(t *testing.T) {
	plain, _ := openLineSession(t, 256, &SessionOptions{Accounting: Measured})
	armed, _ := openLineSession(t, 256, &SessionOptions{
		Accounting: Measured, PatchRetries: 3, RebuildRetries: 3,
	})
	for e := 0; e < 3; e++ {
		joins, leaves := measuredEpochArgs(plain)
		pb, err := plain.ApplyEpoch(joins, leaves)
		if err != nil {
			t.Fatalf("epoch %d plain: %v", e, err)
		}
		ab, err := armed.ApplyEpoch(joins, leaves)
		if err != nil {
			t.Fatalf("epoch %d armed: %v", e, err)
		}
		if !reflect.DeepEqual(pb, ab) {
			t.Fatalf("epoch %d bills diverged:\n%+v\nvs\n%+v", e, *pb, *ab)
		}
		if !reflect.DeepEqual(plain.Members(), armed.Members()) || !reflect.DeepEqual(plain.Tree(), armed.Tree()) {
			t.Fatalf("epoch %d state diverged with retries armed", e)
		}
	}
}

// TestSessionCheckpointRestoreRoundTrip: Checkpoint before an epoch,
// apply it, Restore — the session must serve bit-identical RouteLookup
// results to the pre-epoch state, and re-applying the same epoch must
// reproduce the same bill, members, and tree (the checkpoint restored
// the clock and seed stream, not just the topology).
func TestSessionCheckpointRestoreRoundTrip(t *testing.T) {
	sess, _ := openLineSession(t, 128, &SessionOptions{Accounting: Measured})
	joins, leaves := measuredEpochArgs(sess)

	lookups := func(s *Session) []string {
		m := s.Members()
		pairs := [][2]int{{m[0], m[len(m)-1]}, {m[len(m)/2], m[1]}, {m[7], m[7]}}
		out := make([]string, 0, len(pairs))
		for _, p := range pairs {
			path, err := s.RouteLookup(p[0], p[1])
			out = append(out, fmt.Sprintf("%v/%v", path, err))
		}
		return out
	}

	cp := sess.Checkpoint()
	before := lookups(sess)

	bill1, err := sess.ApplyEpoch(joins, leaves)
	if err != nil {
		t.Fatal(err)
	}
	after := lookups(sess)
	if reflect.DeepEqual(before, after) {
		t.Fatal("epoch did not change any lookup; round trip would be vacuous")
	}

	if err := sess.Restore(cp); err != nil {
		t.Fatal(err)
	}
	if got := lookups(sess); !reflect.DeepEqual(got, before) {
		t.Fatalf("restored lookups diverged:\n%v\nvs\n%v", got, before)
	}
	if sess.Epoch() != 0 || len(sess.Bills()) != 0 {
		t.Fatalf("restore left epoch=%d bills=%d", sess.Epoch(), len(sess.Bills()))
	}

	// The checkpoint is reusable and replay is exact.
	bill2, err := sess.ApplyEpoch(joins, leaves)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bill1, bill2) {
		t.Fatalf("replayed epoch bills diverged:\n%+v\nvs\n%+v", *bill1, *bill2)
	}
	if got := lookups(sess); !reflect.DeepEqual(got, after) {
		t.Fatalf("replayed lookups diverged:\n%v\nvs\n%v", got, after)
	}

	// Restoring a foreign checkpoint must be refused.
	other, _ := openLineSession(t, 128, &SessionOptions{})
	if err := other.Restore(cp); err == nil {
		t.Error("foreign checkpoint restored without error")
	}
	if err := sess.Restore(nil); err == nil {
		t.Error("nil checkpoint restored without error")
	}
}

// TestSessionLookupAfterAbortedEpoch: when every rung of the ladder is
// defeated the session rolls back to the pre-epoch checkpoint and must
// keep serving lookups from the last committed overlay — and lookups
// naming the epoch's would-be joiners fail with the reasoned
// not-a-member error, not a panic or a stale route.
func TestSessionLookupAfterAbortedEpoch(t *testing.T) {
	// A 25% drop rate defeats every patch and every rebuild at any
	// clock offset, so the ladder must exhaust and abort.
	res, err := BuildTree(lineInput(192), &Options{Seed: 7, MessageLevel: true})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := Open(res, &SessionOptions{
		Accounting:     Measured,
		PatchRetries:   1,
		RebuildRetries: 1,
		Build: Options{
			Seed:         7,
			MessageLevel: true,
			Faults:       &FaultPlan{Seed: 3, DropProb: 0.25},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	preMembers := append([]int(nil), sess.Members()...)
	joins, leaves := measuredEpochArgs(sess)

	bill, err := sess.ApplyEpoch(joins, leaves)
	if err == nil {
		t.Fatal("epoch committed under a 25% drop rate")
	}
	if bill == nil || !bill.Aborted {
		t.Fatalf("want an aborted bill with the ladder itemized, got %+v (err %v)", bill, err)
	}
	if want := 4; bill.Attempts != want { // 2 patch rungs + 2 rebuild rungs
		t.Errorf("aborted bill reports %d attempts, want %d", bill.Attempts, want)
	}
	if !strings.Contains(err.Error(), "rolled back") {
		t.Errorf("abort error %q does not mention the rollback", err)
	}
	if bill.AbortReason == "" {
		t.Error("aborted bill carries no reason")
	}

	// Rollback: the session is bit-identical to the pre-epoch state...
	if !reflect.DeepEqual(sess.Members(), preMembers) {
		t.Fatalf("membership changed across the aborted epoch")
	}
	if sess.Epoch() != 0 || len(sess.Bills()) != 0 {
		t.Fatalf("aborted epoch advanced the session: epoch=%d bills=%d", sess.Epoch(), len(sess.Bills()))
	}
	checkSessionTree(t, sess)

	// ...and keeps serving lookups from it, including for the nodes the
	// aborted epoch would have removed.
	m := sess.Members()
	for _, pair := range [][2]int{{m[0], m[len(m)-1]}, {leaves[0], leaves[1]}} {
		if _, err := sess.RouteLookup(pair[0], pair[1]); err != nil {
			t.Errorf("lookup %d -> %d after rollback: %v", pair[0], pair[1], err)
		}
	}
	// The would-be joiners never became members.
	if _, err := sess.RouteLookup(m[0], joins[0]); !errors.Is(err, ErrNotMember) {
		t.Errorf("lookup of never-admitted joiner %d: got %v, want ErrNotMember", joins[0], err)
	}
}

// stateFingerprint hashes a session's committed members and tree.
func stateFingerprint(s *Session) string {
	h := fnv.New64a()
	tr := s.Tree()
	fmt.Fprintf(h, "%v|%d|%v|%v|%v", s.Members(), tr.Root, tr.Parent, tr.Rank, tr.NodeAt)
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestSessionLadderPlanOnceGolden pins two ladders under the partition
// plan above — one a retried patch rung wins, one that climbs every
// kind of rung — to the values committed when every rung partitioned
// the membership and ran wft.Repair for itself (PR 12): the per-rung
// bills, the ladder path, the clock, the committed members and tree
// after the faulted epoch and after the clean one that follows, and the
// epoch the departure ledger names for each leaver. The plan an epoch
// now builds once must hand every rung exactly what the rung used to
// derive, on the same seed splits.
func TestSessionLadderPlanOnceGolden(t *testing.T) {
	type rung struct {
		path        string
		rounds      int
		msgs, drops int64
	}
	cases := []struct {
		window int
		path   string
		rungs  []rung
		clock  [2]int    // session clock after epoch 0 and epoch 1
		state  [2]string // stateFingerprint after epoch 0 and epoch 1
	}{
		{
			window: 60,
			path:   "patch/measured×3",
			rungs: []rung{
				{"patch/measured", 30, 272, 42},
				{"patch/measured", 44, 293, 29},
				{"patch/measured", 54, 579, 0},
			},
			clock: [2]int{492, 521},
			state: [2]string{"27eba4f570756cc3", "4bfcf682c5701b79"},
		},
		{
			window: 160,
			path:   "patch/measured×3+rebuild/measured×2",
			rungs: []rung{
				{"patch/measured", 30, 272, 42},
				{"patch/measured", 44, 277, 40},
				{"patch/measured", 54, 275, 40},
				{"rebuild/measured", 272, 3531406, 7490},
				{"rebuild/measured", 364, 3683768, 0},
			},
			clock: [2]int{1128, 1157},
			state: [2]string{"5a88dc6df809f095", "b9e2c84ae8bc5b18"},
		},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("window=%d", tc.window), func(t *testing.T) {
			sess := openLadderSession(t, 192, tc.window, 2, 1)
			joins, leaves := measuredEpochArgs(sess)
			bill, err := sess.ApplyEpoch(joins, leaves)
			if err != nil {
				t.Fatal(err)
			}
			var got []rung
			for _, a := range bill.AttemptBills {
				got = append(got, rung{a.Path, a.Rounds, a.Messages, a.FaultDrops})
			}
			if bill.Path != tc.path || !reflect.DeepEqual(got, tc.rungs) {
				t.Errorf("epoch 0 climbed %q %+v, want %q %+v", bill.Path, got, tc.path, tc.rungs)
			}
			if bill.Left != 4 || bill.Members != 191 || bill.Clock != tc.clock[0] {
				t.Errorf("epoch 0 left=%d members=%d clock=%d, want 4, 191, %d", bill.Left, bill.Members, bill.Clock, tc.clock[0])
			}
			if fp := stateFingerprint(sess); fp != tc.state[0] {
				t.Errorf("epoch 0 committed state %s, want %s", fp, tc.state[0])
			}
			gone := leaves

			joins, leaves = measuredEpochArgs(sess)
			bill, err = sess.ApplyEpoch(joins, leaves)
			if err != nil {
				t.Fatal(err)
			}
			if bill.Path != "patch/measured" || bill.Rounds != 29 || bill.Messages != 576 || bill.Clock != tc.clock[1] {
				t.Errorf("epoch 1 billed %q %d rounds %d msgs clock %d, want patch/measured 29 576 %d", bill.Path, bill.Rounds, bill.Messages, bill.Clock, tc.clock[1])
			}
			if fp := stateFingerprint(sess); fp != tc.state[1] {
				t.Errorf("epoch 1 committed state %s, want %s", fp, tc.state[1])
			}
			for e, ids := range [][]int{gone, leaves} {
				for _, id := range ids {
					var de *DepartedError
					if _, err := sess.RouteLookup(sess.Members()[0], id); !errors.As(err, &de) || de.Epoch != e {
						t.Errorf("leaver %d of epoch %d: lookup error %v", id, e, err)
					}
				}
			}
		})
	}
}
