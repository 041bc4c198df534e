package overlay

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"
)

// sessionImage is a deep copy of everything a checkpoint promises to
// bring back, taken through the public read side: the reference the
// aliasing tests compare a restored session against. Nothing in it
// shares memory with the session.
type sessionImage struct {
	Epoch, Clock, NextID int
	Members              []int
	Tree                 Tree
	Bills                []EpochBill
	Paths                []string
	// Departed maps every identifier the session has ever used and that
	// is not a member to the epoch its DepartedError names (-2: the
	// lookup said it was never a member).
	Departed map[int]int
}

func imageOf(t *testing.T, s *Session) sessionImage {
	t.Helper()
	img := sessionImage{
		Epoch: s.Epoch(), Clock: s.ClockRound(), NextID: s.NextID(),
		Members:  s.Members(),
		Tree:     *copyTree(s.Tree()),
		Departed: map[int]int{},
	}
	for _, b := range s.Bills() {
		b.AttemptBills = append([]Bill(nil), b.AttemptBills...)
		img.Bills = append(img.Bills, b)
	}
	m := img.Members
	for i := 0; i < 16; i++ {
		from, to := m[(i*37)%len(m)], m[(i*101+5)%len(m)]
		path, err := s.RouteLookup(from, to)
		img.Paths = append(img.Paths, fmt.Sprintf("%d→%d %v %v", from, to, path, err))
	}
	member := map[int]bool{}
	for _, id := range m {
		member[id] = true
	}
	for id := 0; id < img.NextID; id++ {
		if member[id] {
			continue
		}
		_, err := s.RouteLookup(id, m[0])
		var dep *DepartedError
		switch {
		case errors.As(err, &dep):
			img.Departed[id] = dep.Epoch
		case errors.Is(err, ErrNotMember):
			img.Departed[id] = -2
		default:
			t.Fatalf("lookup from non-member %d: %v", id, err)
		}
	}
	return img
}

// TestCheckpointAliasing pins that checkpoints, which share the
// session's immutable values and keep prefixes of its append-only
// histories instead of copying them, stay restorable in any order: two
// checkpoints A (epoch 3) and B (epoch 7) are restored as A·B·A and as
// B·A with diverging epochs applied in between — appends to a restored
// history must never reach what the other checkpoint still reads — and
// every restore must match the deep-copy image taken beside it, down
// to lookup paths and departure epochs; replaying the original epochs
// from A must arrive at B again.
func TestCheckpointAliasing(t *testing.T) {
	for _, acct := range []Accounting{Charged, Measured} {
		t.Run(acct.String(), func(t *testing.T) {
			mainline := &ChurnPlan{Seed: 11, Epochs: 1 << 20, JoinFrac: 0.05, LeaveFrac: 0.05}
			detour := &ChurnPlan{Seed: 12, Epochs: 1 << 20, JoinFrac: 0.03, LeaveFrac: 0.08}
			apply := func(s *Session, plan *ChurnPlan, epochs int) {
				t.Helper()
				for i := 0; i < epochs; i++ {
					e := s.Epoch()
					joins, leaves := plan.Epoch(e, s.Members(), s.NextID())
					if e == 5 {
						// One epoch over the rebuild threshold, so a rebuilt
						// tree and its casualties are in the histories too.
						leaves = s.Members()[:len(s.Members())/3]
					}
					if _, err := s.ApplyEpoch(joins, leaves); err != nil {
						t.Fatalf("epoch %d: %v", e, err)
					}
				}
			}
			open := func() (*Session, *Checkpoint, sessionImage, *Checkpoint, sessionImage) {
				sess, _ := openLineSession(t, 128, &SessionOptions{Accounting: acct, Build: Options{Seed: 5, MessageLevel: true}})
				// Room for the whole run in both histories, so A, B and the
				// session all read one backing array each: the case in
				// which an append through a restored prefix could reach
				// entries the other checkpoint still needs.
				st := sess.Checkpoint()
				st.bills = make([]EpochBill, 0, 64)
				st.departLog = append(make([]departure, 0, 1024), st.departLog...)
				apply(sess, mainline, 3)
				a, imgA := sess.Checkpoint(), imageOf(t, sess)
				apply(sess, mainline, 4)
				b, imgB := sess.Checkpoint(), imageOf(t, sess)
				apply(sess, mainline, 2)
				if imgA.Epoch != 3 || imgB.Epoch != 7 || len(imgB.Departed) <= len(imgA.Departed) {
					t.Fatalf("set-up: checkpoints at epochs %d and %d with %d and %d departures", imgA.Epoch, imgB.Epoch, len(imgA.Departed), len(imgB.Departed))
				}
				return sess, a, imgA, b, imgB
			}
			restore := func(s *Session, cp *Checkpoint, want sessionImage, step string) {
				t.Helper()
				if err := s.Restore(cp); err != nil {
					t.Fatalf("%s: %v", step, err)
				}
				if got := imageOf(t, s); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: restored session differs from the image taken with the checkpoint:\ngot  %+v\nwant %+v", step, got, want)
				}
			}

			sess, a, imgA, b, imgB := open()
			restore(sess, a, imgA, "A·B·A: first A")
			apply(sess, detour, 3)
			restore(sess, b, imgB, "A·B·A: B after a detour from A")
			apply(sess, detour, 2)
			restore(sess, a, imgA, "A·B·A: second A")
			apply(sess, mainline, 4)
			if got := imageOf(t, sess); !reflect.DeepEqual(got, imgB) {
				t.Fatalf("replaying epochs 3..6 from checkpoint A did not arrive at checkpoint B's state")
			}

			sess, a, imgA, b, imgB = open()
			restore(sess, b, imgB, "B·A: B")
			apply(sess, detour, 3)
			restore(sess, a, imgA, "B·A: A after a detour from B")
			restore(sess, b, imgB, "B·A: B again, untouched by the detours")
		})
	}
}

// churnTo applies plan epochs until the session has run `epochs` of
// them.
func churnTo(t *testing.T, sess *Session, plan *ChurnPlan, epochs int) {
	t.Helper()
	for sess.Epoch() < epochs {
		joins, leaves := plan.Epoch(sess.Epoch(), sess.Members(), sess.NextID())
		if _, err := sess.ApplyEpoch(joins, leaves); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCheckpointCostIndependentOfHistory pins the point of one
// committed state: Checkpoint is a pointer load — it allocates nothing
// however many epochs lie behind it, and returns the same state until
// the next commit.
func TestCheckpointCostIndependentOfHistory(t *testing.T) {
	sess, _ := openLineSession(t, 128, &SessionOptions{})
	plan := &ChurnPlan{Seed: 3, Epochs: 1 << 20, JoinFrac: 0.04, LeaveFrac: 0.04}
	for _, epochs := range []int{1, 200} {
		churnTo(t, sess, plan, epochs)
		if allocs := testing.AllocsPerRun(100, func() { sess.Checkpoint() }); allocs != 0 {
			t.Errorf("Checkpoint allocates %.0f objects after %d epochs; want 0", allocs, epochs)
		}
		if a, b := sess.Checkpoint(), sess.Checkpoint(); a != b {
			t.Errorf("two Checkpoint calls with no epoch between them returned different states after %d epochs", epochs)
		}
	}
}

// bytesPerRun is the mean heap bytes one call of f allocates.
func bytesPerRun(runs int, f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestEpochCostIndependentOfHistory pins that committing an epoch and
// syncing a maintained workload do no work proportional to the
// session's age: a no-churn ApplyEpoch and a no-churn Sync allocate the
// same bytes after 1 epoch and after 400 — neither the bill history,
// the departure log nor the departed index is copied. The histories
// are given room up front so that an append's amortized growth, which
// is not per-epoch work, stays out of the measurement.
func TestEpochCostIndependentOfHistory(t *testing.T) {
	sess, _ := openLineSession(t, 128, &SessionOptions{})
	st := sess.Checkpoint()
	st.bills = make([]EpochBill, 0, 2048)
	st.departLog = append(make([]departure, 0, 8192), st.departLog...)
	mis, err := OpenMaintainedMIS(sess, nil)
	if err != nil {
		t.Fatal(err)
	}
	mis.bills = append(make([]WorkloadBill, 0, 2048), mis.bills...)
	plan := &ChurnPlan{Seed: 3, Epochs: 1 << 20, JoinFrac: 0.04, LeaveFrac: 0.04}
	measure := func(epochs int) (epoch, sync uint64) {
		churnTo(t, sess, plan, epochs)
		mis.Sync()
		sync = bytesPerRun(50, func() { mis.Sync() })
		epoch = bytesPerRun(50, func() {
			if _, err := sess.ApplyEpoch(nil, nil); err != nil {
				t.Fatal(err)
			}
		})
		return epoch, sync
	}
	epoch1, sync1 := measure(1)
	epoch400, sync400 := measure(400)
	// Equal up to what the runtime itself allocates while measuring: one
	// copied history entry per epoch would be 399 × 224 B.
	const noise = 256
	if epoch400 > epoch1+noise {
		t.Errorf("a no-churn ApplyEpoch allocates %d B after 1 epoch and %d B after 400; want equal", epoch1, epoch400)
	}
	if sync400 > sync1+noise {
		t.Errorf("a no-churn Sync allocates %d B after 1 epoch and %d B after 400; want equal", sync1, sync400)
	}
}
