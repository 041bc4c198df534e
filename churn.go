package overlay

import (
	"fmt"
	"sort"

	"overlay/internal/rng"
)

// ChurnPlan declares a deterministic epoch schedule of joins and
// leaves for a live overlay Session: each epoch removes a uniformly
// chosen LeaveFrac-fraction of the current members and admits a
// JoinFrac-fraction of fresh nodes. The schedule is a pure function of
// (Seed, epoch index, current membership), so a churned session is
// replayable bit for bit from its plan alone — the same contract the
// fault plane gives adversarial schedules.
type ChurnPlan struct {
	// Seed drives the leave sampling. Independent of the build seed.
	Seed uint64
	// Epochs is the schedule length.
	Epochs int
	// JoinFrac and LeaveFrac are the per-epoch churn fractions in
	// [0, 1], relative to the membership at the epoch's start.
	JoinFrac, LeaveFrac float64
	// RebuildFraction overrides SessionOptions.RebuildFraction when a
	// harness opens the session from the plan (0 = session default).
	RebuildFraction float64
}

// validate rejects schedules that would silently degenerate, and
// fractions outside [0,1] (NaN among them).
func (p *ChurnPlan) validate() error {
	if p.Epochs < 1 {
		return fmt.Errorf("overlay: ChurnPlan.Epochs %d, want >= 1", p.Epochs)
	}
	if !inUnit(p.JoinFrac) {
		return fmt.Errorf("overlay: ChurnPlan.JoinFrac %v outside [0,1]", p.JoinFrac)
	}
	if !inUnit(p.LeaveFrac) {
		return fmt.Errorf("overlay: ChurnPlan.LeaveFrac %v outside [0,1]", p.LeaveFrac)
	}
	if !inUnit(p.RebuildFraction) {
		return fmt.Errorf("overlay: ChurnPlan.RebuildFraction %v outside [0,1]", p.RebuildFraction)
	}
	return nil
}

// Epoch generates epoch e of the schedule against the current
// membership: leaves are ⌊LeaveFrac·|members|⌋ members sampled without
// replacement from a stream split off (Seed, e), joins are
// ⌊JoinFrac·|members|⌋ fresh identifiers counting up from nextID
// (Session.NextID supplies one that never reuses a past identifier).
// Both lists come back ascending, ready for Session.ApplyEpoch.
func (p *ChurnPlan) Epoch(e int, members []int, nextID int) (joins, leaves []int) {
	src := rng.New(p.Seed).Split(uint64(e) + 0xe9)
	nLeave := int(p.LeaveFrac * float64(len(members)))
	if nLeave > len(members) {
		nLeave = len(members)
	}
	if nLeave > 0 {
		picked := src.SampleWithoutReplacement(len(members), nLeave)
		sort.Ints(picked)
		leaves = make([]int, nLeave)
		for i, k := range picked {
			leaves[i] = members[k]
		}
	}
	nJoin := int(p.JoinFrac * float64(len(members)))
	if nJoin > 0 {
		joins = make([]int, nJoin)
		for i := range joins {
			joins[i] = nextID + i
		}
	}
	return joins, leaves
}
