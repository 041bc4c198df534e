package overlay

import (
	"reflect"
	"strings"
	"testing"
)

// measuredEpochArgs is a small deterministic churn epoch against a
// fresh n-member line session: a handful of leavers and joiners, well
// under the rebuild threshold.
func measuredEpochArgs(sess *Session) (joins, leaves []int) {
	m := sess.Members()
	leaves = []int{m[3], m[17], m[42], m[len(m)-2]}
	base := sess.NextID()
	joins = []int{base, base + 1, base + 2}
	return joins, leaves
}

// TestSessionMeasuredMatchesCharged pins the tentpole equivalence:
// with no adversary, the measured patch protocol produces the same
// members and tree as the charged estimate, bit for bit, and its
// bill stands in the exact relation to the charged numbers that the
// schedule both are read from implies.
func TestSessionMeasuredMatchesCharged(t *testing.T) {
	charged, _ := openLineSession(t, 256, &SessionOptions{})
	measured, _ := openLineSession(t, 256, &SessionOptions{Accounting: Measured})

	for e := 0; e < 3; e++ {
		joins, leaves := measuredEpochArgs(charged)
		cb, err := charged.ApplyEpoch(joins, leaves)
		if err != nil {
			t.Fatalf("epoch %d charged: %v", e, err)
		}
		mb, err := measured.ApplyEpoch(joins, leaves)
		if err != nil {
			t.Fatalf("epoch %d measured: %v", e, err)
		}
		if cb.Rebuilt || mb.Rebuilt {
			t.Fatalf("epoch %d took the rebuild path", e)
		}
		if cb.Path != "patch/charged" || mb.Path != "patch/measured" {
			t.Fatalf("epoch %d paths %q / %q", e, cb.Path, mb.Path)
		}
		if !reflect.DeepEqual(charged.Members(), measured.Members()) {
			t.Fatalf("epoch %d memberships diverged", e)
		}
		if !reflect.DeepEqual(charged.Tree(), measured.Tree()) {
			t.Fatalf("epoch %d trees diverged", e)
		}
		// Both bills read one wft.Schedule: the engine halts one round
		// short of the charged total (the charged model bills the final
		// commit hop's processing round) and moves exactly the charged
		// messages — no two of these three join requests ever meet at a
		// node; a pair batched onto one wire is all that can put measured
		// below charged (wft's TestScheduleIsTheSingleSource pins that
		// direction on join storms).
		if mb.Rounds != cb.Rounds-1 {
			t.Errorf("epoch %d rounds: measured %d vs charged %d, want exactly charged-1", e, mb.Rounds, cb.Rounds)
		}
		if mb.Messages != cb.Messages {
			t.Errorf("epoch %d messages: measured %d vs charged %d, want equal", e, mb.Messages, cb.Messages)
		}
		if mb.FaultDrops != 0 || mb.FaultDelays != 0 || mb.ProtocolAnomalies != 0 {
			t.Errorf("epoch %d fault counters nonzero without an adversary: %+v", e, mb.Bill)
		}
		checkSessionTree(t, measured)
	}
}

// TestSessionMeasuredZeroRatePlan pins the fault plane's zero-rate
// contract on the repair protocol: a session with an installed but
// all-zero fault plan reproduces the uninstrumented measured run —
// members, tree, and the entire bill — bit for bit.
func TestSessionMeasuredZeroRatePlan(t *testing.T) {
	run := func(plan *FaultPlan) (*Session, []EpochBill) {
		res, err := BuildTree(lineInput(192), &Options{Seed: 7, MessageLevel: true})
		if err != nil {
			t.Fatal(err)
		}
		sess, err := Open(res, &SessionOptions{
			Accounting: Measured,
			Build:      Options{Seed: 7, MessageLevel: true, Faults: plan},
		})
		if err != nil {
			t.Fatal(err)
		}
		for e := 0; e < 2; e++ {
			joins, leaves := measuredEpochArgs(sess)
			if _, err := sess.ApplyEpoch(joins, leaves); err != nil {
				t.Fatalf("epoch %d: %v", e, err)
			}
		}
		return sess, sess.Bills()
	}
	plain, plainBills := run(nil)
	zero, zeroBills := run(&FaultPlan{})
	if !reflect.DeepEqual(plain.Members(), zero.Members()) || !reflect.DeepEqual(plain.Tree(), zero.Tree()) {
		t.Fatal("zero-rate plan changed the repaired overlay")
	}
	if !reflect.DeepEqual(plainBills, zeroBills) {
		t.Fatalf("zero-rate plan changed the bills:\n%+v\nvs\n%+v", plainBills, zeroBills)
	}
}

// TestSessionMeasuredDeterministicAcrossWorkers runs faulted measured
// epochs at every worker count 1..16 (workers 1, single-goroutine
// execution, is the reference), requiring bit-identical members, trees,
// and bills.
func TestSessionMeasuredDeterministicAcrossWorkers(t *testing.T) {
	type outcome struct {
		Members []int
		Tree    *Tree
		Bills   []EpochBill
	}
	run := func(workers int) outcome {
		res, err := BuildTree(lineInput(192), &Options{
			Seed: 7, MessageLevel: true, Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		// Delay-only: delays stretch the measured schedule without ever
		// defeating the repair, so every worker count completes the
		// same two patch epochs.
		plan := &FaultPlan{Seed: 11, DelayProb: 0.05, DelayMax: 3}
		sess, err := Open(res, &SessionOptions{
			Accounting: Measured,
			Build:      Options{Seed: 7, MessageLevel: true, Faults: plan, Workers: workers},
		})
		if err != nil {
			t.Fatal(err)
		}
		for e := 0; e < 2; e++ {
			joins, leaves := measuredEpochArgs(sess)
			if _, err := sess.ApplyEpoch(joins, leaves); err != nil {
				t.Fatalf("epoch %d: %v", e, err)
			}
		}
		return outcome{sess.Members(), sess.Tree(), sess.Bills()}
	}
	ref := run(1)
	for w := 2; w <= 16; w++ {
		got := run(w)
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("workers=%d diverged from workers=1:\n%+v\nvs\n%+v", w, got, ref)
		}
	}
}

// TestSessionMeasuredFaultsChangeBill pins the point of measured
// accounting: the same epoch under a delay plan costs measurably more
// rounds (with delays on the bill) while converging to the same
// topology, and a heavy drop plan defeats the patch, which falls back
// to a rebuild with both costs billed.
func TestSessionMeasuredFaultsChangeBill(t *testing.T) {
	apply := func(plan *FaultPlan) (*Session, *EpochBill) {
		res, err := BuildTree(lineInput(192), &Options{Seed: 7, MessageLevel: true})
		if err != nil {
			t.Fatal(err)
		}
		sess, err := Open(res, &SessionOptions{
			Accounting: Measured,
			Build:      Options{Seed: 7, MessageLevel: true, Faults: plan},
		})
		if err != nil {
			t.Fatal(err)
		}
		joins, leaves := measuredEpochArgs(sess)
		bill, err := sess.ApplyEpoch(joins, leaves)
		if err != nil {
			t.Fatalf("ApplyEpoch: %v", err)
		}
		checkSessionTree(t, sess)
		return sess, bill
	}

	base, baseBill := apply(nil)

	t.Run("delay", func(t *testing.T) {
		sess, bill := apply(&FaultPlan{Seed: 3, DelayProb: 0.3, DelayMax: 4})
		if bill.Rebuilt {
			t.Fatalf("delays must not defeat the patch (path %q)", bill.Path)
		}
		if bill.FaultDelays == 0 {
			t.Error("no delays on the bill")
		}
		if bill.Rounds <= baseBill.Rounds {
			t.Errorf("delayed patch took %d rounds, fault-free %d: the plan did not change the bill", bill.Rounds, baseBill.Rounds)
		}
		if !reflect.DeepEqual(sess.Members(), base.Members()) || !reflect.DeepEqual(sess.Tree(), base.Tree()) {
			t.Error("delays changed the repaired topology")
		}
	})

	t.Run("drop-defeats-everything", func(t *testing.T) {
		// At a 25% loss rate neither the patch protocol nor the
		// fallback rebuild can complete: the epoch must fail loudly,
		// naming both defeats, and leave the session untouched.
		res, err := BuildTree(lineInput(192), &Options{Seed: 7, MessageLevel: true})
		if err != nil {
			t.Fatal(err)
		}
		sess, err := Open(res, &SessionOptions{
			Accounting: Measured,
			Build:      Options{Seed: 7, MessageLevel: true, Faults: &FaultPlan{Seed: 3, DropProb: 0.25}},
		})
		if err != nil {
			t.Fatal(err)
		}
		membersBefore := sess.Members()
		treeBefore := copyTree(sess.Tree())
		joins, leaves := measuredEpochArgs(sess)
		_, err = sess.ApplyEpoch(joins, leaves)
		if err == nil {
			t.Fatal("epoch under 25% loss unexpectedly succeeded")
		}
		if !strings.Contains(err.Error(), "measured patch aborted") {
			t.Errorf("error %q does not name the patch defeat", err)
		}
		if !reflect.DeepEqual(sess.Members(), membersBefore) || !reflect.DeepEqual(sess.Tree(), treeBefore) {
			t.Error("failed epoch mutated the session")
		}
		if sess.Epoch() != 0 || len(sess.Bills()) != 0 {
			t.Errorf("failed epoch advanced the session: epoch %d, %d bills", sess.Epoch(), len(sess.Bills()))
		}
	})
}

// TestSessionMeasuredCrashMidRepair crash-stops a survivor in the
// middle of the repair protocol itself: the patch cannot commit, the
// epoch falls back to a rebuild over the remaining survivors, and the
// crashed member is gone from the final membership.
func TestSessionMeasuredCrashMidRepair(t *testing.T) {
	res, err := BuildTree(lineInput(192), &Options{Seed: 7, MessageLevel: true})
	if err != nil {
		t.Fatal(err)
	}
	// Victim 99 survives the scheduled churn but dies at the second
	// round of the patch epoch (session clock = build rounds + 2).
	victim := 99
	plan := &FaultPlan{Crashes: []Crash{{Node: victim, Round: res.Stats.Rounds + 2}}}
	sess, err := Open(res, &SessionOptions{
		Accounting: Measured,
		Build:      Options{Seed: 7, MessageLevel: true, Faults: plan},
	})
	if err != nil {
		t.Fatal(err)
	}
	joins, leaves := measuredEpochArgs(sess)
	bill, err := sess.ApplyEpoch(joins, leaves)
	if err != nil {
		t.Fatalf("ApplyEpoch: %v", err)
	}
	if !bill.Rebuilt {
		t.Fatalf("crash mid-repair did not force the fallback (path %q)", bill.Path)
	}
	if !strings.Contains(bill.Itemized, "patch aborted") {
		t.Errorf("itemized bill does not show the abort:\n%s", bill.Itemized)
	}
	if _, ok := indexIn(sess.Members(), victim); ok {
		t.Errorf("crashed member %d still in the membership", victim)
	}
	if bill.Left < len(leaves)+1 {
		t.Errorf("bill.Left = %d does not count the crash casualty beyond %d leavers", bill.Left, len(leaves))
	}
	checkSessionTree(t, sess)
}

// TestSessionMeasuredPatchCheaperThanRebuild compares the two
// measured paths over the same survivor set: the patch protocol must
// be strictly cheaper than a full measured rebuild, in both rounds
// and messages.
func TestSessionMeasuredPatchCheaperThanRebuild(t *testing.T) {
	run := func(rebuildFrac float64) *EpochBill {
		res, err := BuildTree(lineInput(256), &Options{Seed: 7, MessageLevel: true})
		if err != nil {
			t.Fatal(err)
		}
		sess, err := Open(res, &SessionOptions{
			Accounting:      Measured,
			RebuildFraction: rebuildFrac,
			Build:           Options{Seed: 7, MessageLevel: true},
		})
		if err != nil {
			t.Fatal(err)
		}
		joins, leaves := measuredEpochArgs(sess)
		bill, err := sess.ApplyEpoch(joins, leaves)
		if err != nil {
			t.Fatal(err)
		}
		return bill
	}
	patch := run(0.25)
	rebuild := run(0.0001)
	if patch.Rebuilt || !rebuild.Rebuilt {
		t.Fatalf("paths wrong: patch %q, rebuild %q", patch.Path, rebuild.Path)
	}
	if patch.Rounds >= rebuild.Rounds {
		t.Errorf("measured patch %d rounds not cheaper than rebuild %d", patch.Rounds, rebuild.Rounds)
	}
	if patch.Messages >= rebuild.Messages {
		t.Errorf("measured patch %d messages not cheaper than rebuild %d", patch.Messages, rebuild.Messages)
	}
}

// TestEpochBillItemizedGolden pins EpochBill.Itemized — the text
// overlayd serves as `itemized` — byte for byte on one epoch of every
// billing shape: charged, no-op, measured, a crash-defeated patch that
// falls to the rebuild, and a ladder that itemizes every kind of rung.
// Every rounds/messages line goes through billLine; the strings are
// what the seven hand-formatted copies it replaced printed.
func TestEpochBillItemizedGolden(t *testing.T) {
	const derived = "derived re-establishment         9 rounds  (charged, off the epoch clock)\n"
	apply := func(sess *Session, joins, leaves []int, want string) {
		t.Helper()
		bill, err := sess.ApplyEpoch(joins, leaves)
		if err != nil {
			t.Fatal(err)
		}
		if bill.Itemized != want+derived {
			t.Errorf("%s epoch itemized\n%s\nwant\n%s", bill.Path, bill.Itemized, want+derived)
		}
	}
	charged, res := openLineSession(t, 192, &SessionOptions{})
	joins, leaves := measuredEpochArgs(charged)
	apply(charged, joins, leaves, ""+
		"leave detect + compaction       16 rounds        374 msgs (charged)\n"+
		"joiner chord attach              7 rounds         18 msgs (charged)\n"+
		"membership commit                8 rounds        190 msgs (charged)\n")
	apply(charged, nil, nil, ""+
		"no-op epoch                      0 rounds          0 msgs (charged)\n")

	measured, _ := openLineSession(t, 192, &SessionOptions{Accounting: Measured})
	apply(measured, joins, leaves, ""+
		"patch repair protocol           30 rounds        582 msgs (measured)\n")

	// Member 99 survives the churn and crash-stops two rounds into the
	// repair (TestSessionMeasuredCrashMidRepair's adversary).
	crash := &FaultPlan{Crashes: []Crash{{Node: 99, Round: res.Stats.Rounds + 2}}}
	crashed, err := Open(res, &SessionOptions{
		Accounting: Measured,
		Build:      Options{Seed: 7, MessageLevel: true, Faults: crash},
	})
	if err != nil {
		t.Fatal(err)
	}
	apply(crashed, joins, leaves, ""+
		"patch repair protocol           30 rounds        581 msgs (measured)\n"+
		"  fault plane                dropped=2 delayed=0 capped=0\n"+
		"patch aborted                wft: survivor 96 (rank 180) never committed its compacted rank\n"+
		"full rebuild (BuildTree)       364 rounds    3661051 msgs (measured)\n")

	apply(openLadderSession(t, 192, 160, 2, 1), joins, leaves, ""+
		"patch repair protocol           30 rounds        272 msgs (measured)\n"+
		"  fault plane                dropped=42 delayed=0 capped=0\n"+
		"patch aborted                wft: survivor 0 (rank 170) never committed its compacted rank\n"+
		"patch repair protocol           44 rounds        277 msgs (measured)\n"+
		"  fault plane                dropped=40 delayed=0 capped=0\n"+
		"patch aborted                wft: survivor 0 (rank 170) never committed its compacted rank\n"+
		"patch repair protocol           54 rounds        275 msgs (measured)\n"+
		"  fault plane                dropped=40 delayed=0 capped=0\n"+
		"patch aborted                wft: survivor 0 (rank 170) never committed its compacted rank\n"+
		"rebuild attempt (BuildTree)    272 rounds    3531406 msgs (measured)\n"+
		"rebuild aborted              evolved graph disconnected under faults\n"+
		"full rebuild (BuildTree)       364 rounds    3683768 msgs (measured)\n")
}
