package overlay

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"overlay/internal/sim"
)

// derivedFingerprint renders all four derived views bit-exactly.
func derivedFingerprint(sess *Session) string {
	return fmt.Sprintf("%v|%v|%v|%v", sess.Ring(), sess.Chord(), sess.Hypercube(), sess.DeBruijn())
}

func TestSessionDerivedViewsMatchBuild(t *testing.T) {
	sess, res := openLineSession(t, 64, nil)
	// A fresh fault-free session's members are the input nodes, so the
	// session views (global identifiers) must equal the build views
	// (node indices) exactly.
	for _, c := range []struct {
		name       string
		sess, want [][2]int
	}{
		{"ring", sess.Ring(), res.Ring()},
		{"chord", sess.Chord(), res.Chord()},
		{"hypercube", sess.Hypercube(), res.Hypercube()},
		{"debruijn", sess.DeBruijn(), res.DeBruijn()},
	} {
		if !reflect.DeepEqual(c.sess, c.want) {
			t.Errorf("%s: session view diverges from the build view", c.name)
		}
	}
}

func TestSessionDerivedViewCacheIdentity(t *testing.T) {
	sess, _ := openLineSession(t, 64, nil)
	a, b := sess.Chord(), sess.Chord()
	if len(a) == 0 || &a[0] != &b[0] {
		t.Fatal("repeated Chord reads within an epoch did not share the cached slice")
	}
	if _, err := sess.ApplyEpoch([]int{sess.NextID()}, nil); err != nil {
		t.Fatal(err)
	}
	c := sess.Chord()
	if &c[0] == &a[0] {
		t.Fatal("ApplyEpoch did not invalidate the derived-view cache")
	}
	d := sess.Chord()
	if &d[0] != &c[0] {
		t.Fatal("post-epoch reads did not share the recomputed cache")
	}
}

func TestSessionDerivedRoundsBilled(t *testing.T) {
	sess, _ := openLineSession(t, 64, nil)
	bill, err := sess.ApplyEpoch([]int{sess.NextID()}, []int{3})
	if err != nil {
		t.Fatal(err)
	}
	want := sim.LogBound(len(sess.Members())) + 1
	if bill.DerivedRounds != want {
		t.Fatalf("DerivedRounds = %d, want ⌈log₂ k⌉+1 = %d", bill.DerivedRounds, want)
	}
	if !strings.Contains(bill.Itemized, "derived re-establishment") {
		t.Fatalf("itemized bill lacks the derived re-establishment line:\n%s", bill.Itemized)
	}
	// The derived charge is off the epoch clock: the attempt-bill fold
	// must still be round-exact without it.
	sum := 0
	for _, a := range bill.AttemptBills {
		sum += a.Rounds
	}
	if sum != bill.Rounds {
		t.Fatalf("attempt bills sum to %d rounds, bill says %d", sum, bill.Rounds)
	}
}

// TestSessionDerivedGoldenAcrossWorkers pins bit-determinism of the
// derived views across every worker count 1..16, after
// a patch epoch, after a forced rebuild epoch, and after a rollback
// (which must restore the pre-epoch views bit for bit).
func TestSessionDerivedGoldenAcrossWorkers(t *testing.T) {
	const n = 256
	type golden struct {
		afterPatch, afterRebuild, prePatch string
	}
	var want *golden
	for w := 1; w <= 16; w *= 2 {
		opts := Options{Seed: 7, MessageLevel: true, Workers: w}
		label := fmt.Sprintf("workers=%d", w)
		res, err := BuildTree(lineInput(n), &opts)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		sess, err := Open(res, &SessionOptions{Build: opts})
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		g := golden{prePatch: derivedFingerprint(sess)}

		// A patch epoch: 3 joins, 3 leaves.
		next := sess.NextID()
		if _, err := sess.ApplyEpoch([]int{next, next + 1, next + 2}, []int{3, 10, 77}); err != nil {
			t.Fatalf("%s: patch epoch: %v", label, err)
		}
		g.afterPatch = derivedFingerprint(sess)

		// Rollback: a checkpointed epoch undone by Restore must bring
		// every view back bit for bit, and a canceled epoch must leave
		// them untouched.
		cp := sess.Checkpoint()
		if _, err := sess.ApplyEpoch([]int{sess.NextID()}, []int{15}); err != nil {
			t.Fatalf("%s: checkpointed epoch: %v", label, err)
		}
		if derivedFingerprint(sess) == g.afterPatch {
			t.Fatalf("%s: committed epoch left the derived views unchanged", label)
		}
		if err := sess.Restore(cp); err != nil {
			t.Fatalf("%s: restore: %v", label, err)
		}
		if got := derivedFingerprint(sess); got != g.afterPatch {
			t.Fatalf("%s: restore did not roll the derived views back bit for bit", label)
		}
		canceled, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := sess.ApplyEpochCtx(canceled, []int{sess.NextID()}, nil); err == nil {
			t.Fatalf("%s: canceled epoch reported success", label)
		}
		if got := derivedFingerprint(sess); got != g.afterPatch {
			t.Fatalf("%s: canceled epoch disturbed the derived views", label)
		}

		// A forced rebuild epoch: leave far more than the threshold.
		var leaves []int
		for _, id := range sess.Members()[:len(sess.Members())/3] {
			leaves = append(leaves, id)
		}
		bill, err := sess.ApplyEpoch(nil, leaves)
		if err != nil {
			t.Fatalf("%s: rebuild epoch: %v", label, err)
		}
		if !bill.Rebuilt {
			t.Fatalf("%s: expected a rebuild epoch, got path %s", label, bill.Path)
		}
		g.afterRebuild = derivedFingerprint(sess)

		if want == nil {
			want = &g
			continue
		}
		if g != *want {
			t.Fatalf("%s: derived views diverge from the workers=1 golden", label)
		}
	}
}

func TestRouteLookupErr(t *testing.T) {
	res, err := BuildTree(lineInput(32), &Options{Seed: 7, MessageLevel: true})
	if err != nil {
		t.Fatal(err)
	}
	path, rerr := res.RouteLookupErr(3, 29)
	if rerr != nil {
		t.Fatalf("routable pair errored: %v", rerr)
	}
	if len(path) < 2 || path[0] != 3 || path[len(path)-1] != 29 {
		t.Fatalf("path %v does not run from 3 to 29", path)
	}

	for _, bad := range [][2]int{{-1, 0}, {0, 32}, {99, -5}} {
		path, rerr := res.RouteLookupErr(bad[0], bad[1])
		var nm *NotMemberError
		if !errors.As(rerr, &nm) || path != nil {
			t.Fatalf("RouteLookupErr(%d, %d) = %v, %v, want no path and a *NotMemberError", bad[0], bad[1], path, rerr)
		}
	}

	aborted := &BuildResult{Aborted: true, AbortReason: "injected abort"}
	_, rerr = aborted.RouteLookupErr(0, 1)
	if !errors.Is(rerr, ErrAborted) {
		t.Fatalf("aborted result: %v, want ErrAborted", rerr)
	}
	if !strings.Contains(rerr.Error(), "injected abort") {
		t.Fatalf("aborted error does not carry the abort reason: %v", rerr)
	}
	if _, rerr := (&BuildResult{}).RouteLookupErr(0, 1); !errors.Is(rerr, ErrAborted) {
		t.Fatalf("tree-less result: %v, want ErrAborted", rerr)
	}
}
