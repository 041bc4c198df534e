package overlay

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestSessionConcurrentReadsDuringEpoch pins the single-writer /
// multi-reader contract: reader goroutines hammer every read-side
// method while the writer applies measured (message-level) epochs.
// Run under -race, any unsynchronized access fails the build; the
// assertions check that readers always observe a committed state —
// an epoch count matching the bills, lookups that either route
// between members or fail with a reasoned error, never torn state.
func TestSessionConcurrentReadsDuringEpoch(t *testing.T) {
	sess, _ := openLineSession(t, 48, &SessionOptions{Accounting: Measured})

	const epochs = 4
	done := make(chan struct{})
	var lookups, reasoned atomic.Int64
	var wg, warm sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		warm.Add(1)
		go func() {
			defer wg.Done()
			// Warm exactly once, even on an error-path return, so the
			// writer's warm.Wait() can never hang on a failing reader.
			markWarm := sync.OnceFunc(warm.Done)
			defer markWarm()
			for {
				select {
				case <-done:
					return
				default:
				}
				members := sess.Members()
				if len(members) == 0 {
					t.Error("reader observed an empty membership")
					return
				}
				from := members[0]
				to := members[len(members)-1]
				// The membership may shift between the snapshot and the
				// lookup: a departed/not-member error is a legal answer,
				// a panic or a malformed path is not.
				path, err := sess.RouteLookup(from, to)
				switch {
				case err == nil:
					if len(path) == 0 || path[0] != from || path[len(path)-1] != to {
						t.Errorf("torn lookup path %v for %d->%d", path, from, to)
						return
					}
					lookups.Add(1)
				case errors.Is(err, ErrDeparted) || errors.Is(err, ErrNotMember):
					reasoned.Add(1)
				default:
					t.Errorf("lookup %d->%d: %v", from, to, err)
					return
				}
				bills := sess.Bills()
				if e := sess.Epoch(); len(bills) > epochs || e > epochs {
					t.Errorf("reader observed %d bills, epoch %d (max %d)", len(bills), e, epochs)
					return
				}
				if tree := sess.Tree(); tree == nil || len(tree.Rank) == 0 {
					t.Error("reader observed a nil/empty tree")
					return
				}
				if edges := sess.Chord(); len(edges) == 0 {
					t.Error("reader observed an empty chord overlay")
					return
				}
				_ = sess.ClockRound()
				_ = sess.NextID()
				markWarm()
			}
		}()
	}

	// The single writer: measured epochs with real joins and leaves —
	// started only after every reader completes one full loop, so the
	// epochs provably overlap live reads (and the writer cannot finish
	// before any reader is even scheduled).
	warm.Wait()
	next := sess.NextID()
	for e := 0; e < epochs; e++ {
		members := sess.Members()
		joins := []int{next, next + 1}
		next += 2
		leaves := []int{members[len(members)/2]}
		if _, err := sess.ApplyEpoch(joins, leaves); err != nil {
			t.Fatalf("epoch %d: %v", e, err)
		}
	}
	close(done)
	wg.Wait()
	if lookups.Load() == 0 {
		t.Fatal("readers never completed a successful lookup")
	}
	if got := sess.Epoch(); got != epochs {
		t.Fatalf("epoch = %d, want %d", got, epochs)
	}
}

// TestApplyEpochCtxExpired pins the deadline contract at the session
// layer: a context that is already dead stops the epoch before any
// state changes, the error wraps both ErrInterrupted and the context
// cause, and the session is untouched.
func TestApplyEpochCtxExpired(t *testing.T) {
	sess, _ := openLineSession(t, 24, nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	before := sess.Checkpoint()
	bill, err := sess.ApplyEpochCtx(ctx, []int{24}, nil)
	if bill != nil {
		t.Fatalf("expired epoch returned a bill: %+v", bill)
	}
	if !errors.Is(err, ErrInterrupted) || !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap ErrInterrupted and context.Canceled", err)
	}
	if sess.Epoch() != 0 || len(sess.Bills()) != 0 {
		t.Fatalf("session advanced across an interrupted epoch: epoch %d, %d bills", sess.Epoch(), len(sess.Bills()))
	}
	// The checkpoint still restores cleanly — the rollback machinery
	// was not corrupted by the interrupt.
	if err := sess.Restore(before); err != nil {
		t.Fatalf("restore after interrupt: %v", err)
	}

	// A live context leaves the path unchanged.
	bill, err = sess.ApplyEpochCtx(context.Background(), []int{24}, nil)
	if err != nil || bill.Epoch != 0 {
		t.Fatalf("live-context epoch: %+v, %v", bill, err)
	}
}

// pollCtx is a live context whose Err — the poll an epoch runs between
// engine rounds and at rung boundaries — first runs a hook: code that
// executes from inside an in-flight epoch.
type pollCtx struct {
	context.Context
	poll func()
}

func (c pollCtx) Err() error {
	c.poll()
	return c.Context.Err()
}

// TestSessionReadsFromInsideEpoch pins that readers never block on a
// writer, at the sharpest point: reads issued by the epoch's own
// goroutine while it holds the writer lock. Every one must return the
// pre-epoch committed state; behind a read lock the first of them
// would deadlock against its own writer, which the watchdog turns into
// a failure.
func TestSessionReadsFromInsideEpoch(t *testing.T) {
	sess, _ := openLineSession(t, 48, &SessionOptions{Accounting: Measured})
	before := sess.Checkpoint()
	joins, leaves := measuredEpochArgs(sess)
	m := sess.Members()

	var polls int
	var torn []string
	live, cancel := context.WithCancel(context.Background())
	defer cancel()
	ctx := pollCtx{live, func() {
		polls++
		if cp := sess.Checkpoint(); cp != before {
			torn = append(torn, "Checkpoint moved before the commit")
		}
		if e := sess.Epoch(); e != 0 {
			torn = append(torn, fmt.Sprintf("Epoch() = %d inside epoch 0", e))
		}
		if got := sess.Members(); !reflect.DeepEqual(got, m) {
			torn = append(torn, "Members() is not the pre-epoch membership")
		}
		if path, err := sess.RouteLookup(m[0], leaves[0]); err != nil || path[len(path)-1] != leaves[0] {
			torn = append(torn, fmt.Sprintf("lookup of a leaver inside the epoch: %v, %v", path, err))
		}
		if len(sess.Chord()) == 0 {
			torn = append(torn, "empty Chord view")
		}
	}}

	var bill *EpochBill
	var err error
	done := make(chan struct{})
	go func() {
		defer close(done)
		bill, err = sess.ApplyEpochCtx(ctx, joins, leaves)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("a read from inside the epoch blocked on its own writer")
	}
	if err != nil {
		t.Fatalf("epoch: %v", err)
	}
	if polls == 0 {
		t.Fatal("the epoch never polled its context")
	}
	for _, msg := range torn {
		t.Error(msg)
	}
	if after := sess.Checkpoint(); after == before || after.Epoch() != 1 || bill.Epoch != 0 {
		t.Fatalf("after the call: epoch %d (bill %d), want the commit of epoch 0", after.Epoch(), bill.Epoch)
	}
	if _, err := sess.RouteLookup(m[0], leaves[0]); !errors.Is(err, ErrDeparted) {
		t.Fatalf("lookup of a leaver after the commit: %v, want ErrDeparted", err)
	}
}

// TestUnpublishedEpochKeepsCheckpoint pins that an epoch which does not
// commit needs no rollback because it published nothing: after an
// exhausted recovery ladder, and after an epoch interrupted mid-run,
// Checkpoint returns the very state it returned before the call.
func TestUnpublishedEpochKeepsCheckpoint(t *testing.T) {
	sess, _ := openLineSession(t, 192, &SessionOptions{
		Accounting:   Measured,
		PatchRetries: 1,
		Build:        Options{Seed: 7, MessageLevel: true, Faults: &FaultPlan{Seed: 3, DropProb: 0.25}},
	})
	before := sess.Checkpoint()
	joins, leaves := measuredEpochArgs(sess)
	if bill, err := sess.ApplyEpoch(joins, leaves); err == nil || bill == nil || !bill.Aborted {
		t.Fatalf("epoch under a 25%% drop rate: bill %+v, err %v; want an aborted ladder", bill, err)
	}
	if sess.Checkpoint() != before {
		t.Error("an aborted ladder replaced the committed state")
	}

	if err := sess.SetFaults(nil); err != nil {
		t.Fatal(err)
	}
	live, cancel := context.WithCancel(context.Background())
	polls := 0
	ctx := pollCtx{live, func() {
		if polls++; polls == 4 { // past the rung boundary: between engine rounds
			cancel()
		}
	}}
	if _, err := sess.ApplyEpochCtx(ctx, joins, leaves); !errors.Is(err, ErrInterrupted) || !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted epoch: %v, want ErrInterrupted wrapping context.Canceled", err)
	}
	if sess.Checkpoint() != before {
		t.Error("an interrupted epoch replaced the committed state")
	}
	if bill, err := sess.ApplyEpoch(joins, leaves); err != nil || bill.Epoch != 0 {
		t.Fatalf("re-applying the epoch: %+v, %v", bill, err)
	}
}
