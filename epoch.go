package overlay

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"

	"overlay/internal/rng"
	"overlay/internal/sim"
	"overlay/internal/wft"
)

// One churn epoch: argument checks, the epoch plan, the recovery
// ladder and its rungs, and the commit. Everything before the commit is
// a function of the pre-epoch state that returns values; the commit is
// the one store.

// ApplyEpoch advances the session by one churn epoch: the listed
// members leave (crash-stop semantics: they say no goodbyes) and the
// listed fresh identifiers join. On return the session holds a
// well-formed tree over the new membership and the epoch's cost is
// appended to Bills; on error the session is unchanged. Joins and
// leaves may arrive in any order but must be disjoint, duplicate-free,
// and — for leaves — current members (joins must be non-members).
//
// A defeated epoch climbs the recovery ladder (see
// SessionOptions.PatchRetries/RebuildRetries). When every rung fails,
// nothing is published and ApplyEpoch returns the aborted bill (Aborted
// set, every attempt itemized) together with a reasoned error: the
// caller can re-apply the epoch or keep serving lookups from the last
// committed state. Invalid arguments return (nil, error) without
// consuming an epoch.
func (s *Session) ApplyEpoch(joins, leaves []int) (*EpochBill, error) {
	return s.ApplyEpochCtx(context.Background(), joins, leaves)
}

// ApplyEpochCtx is ApplyEpoch bounded by a context: the deadline (or
// cancellation) is polled between engine rounds of measured patches
// and rebuilds, at rung boundaries of the recovery ladder, and before
// the analytic paths commit. An epoch the context interrupts is a
// hard error wrapping both ErrInterrupted and the context's error —
// the session stays at its pre-epoch state (the same *Checkpoint, epoch
// counter not advanced) and keeps serving lookups, so a timed-out
// request observably never happened.
func (s *Session) ApplyEpochCtx(ctx context.Context, joins, leaves []int) (*EpochBill, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cur := s.state.Load()
	joins, leaves, err := cur.checkEpochArgs(joins, leaves)
	if err != nil {
		return nil, err
	}
	clock := cur.clock
	epoch, seed := clock.NextEpoch()
	churned := float64(len(joins)+len(leaves)) / float64(len(cur.members))
	bill := &EpochBill{
		Epoch:           epoch,
		Joined:          len(joins),
		Left:            len(leaves),
		ChurnedFraction: churned,
		Rebuilt:         churned > s.rebuildFrac,
	}
	p := &epochPlan{cur: cur, epoch: epoch, joins: joins, leaves: leaves}
	if ctx != nil && ctx.Done() != nil {
		p.interrupt = func() bool { return ctx.Err() != nil }
	}
	var members []int
	var tree *Tree
	if p.interrupted() {
		err = fmt.Errorf("%w (before epoch %d started)", ErrInterrupted, epoch)
	} else if err = s.planEpoch(p, !bill.Rebuilt); err == nil {
		members, tree, err = s.runEpochLadder(p, seed, bill)
	}
	if err != nil {
		// Hard specification error or interrupt (not an adversary
		// defeat): nothing was published, so the session stays
		// replayable and the epoch counter does not advance.
		if errors.Is(err, ErrInterrupted) && ctx.Err() != nil {
			err = fmt.Errorf("%w: %w", err, ctx.Err())
		}
		return nil, err
	}
	if bill.Aborted {
		bill.Members = len(cur.members)
		bill.Clock = cur.clock.Round()
		return bill, fmt.Errorf("overlay: epoch %d aborted after %d attempts: %s; session rolled back to the pre-epoch checkpoint", epoch, bill.Attempts, bill.AbortReason)
	}
	clock.Advance(bill.Rounds)
	bill.Members = len(members)
	bill.Clock = clock.Round()
	// Section 1.4 re-establishment: bill the O(log k) rounds the
	// derived overlays cost to re-announce over the repaired tree. The
	// charge is a separate line item, not folded into Bill.Rounds or
	// the clock (see EpochBill.DerivedRounds).
	bill.DerivedRounds = sim.LogBound(len(members)) + 1
	bill.Itemized += fmt.Sprintf("%-28s %5d rounds  (charged, off the epoch clock)\n", "derived re-establishment", bill.DerivedRounds)
	next := &Checkpoint{
		owner: s, members: members, tree: tree, clock: clock, nextID: cur.nextID,
		bills: append(cur.bills, *bill), departLog: noteDepartures(cur.departLog, epoch, members, cur.members, joins),
	}
	if len(joins) > 0 && joins[len(joins)-1] >= next.nextID {
		next.nextID = joins[len(joins)-1] + 1
	}
	// The commit: the departed index and the state it describes move
	// together (see Session.departedMu).
	s.departedMu.Lock()
	for _, d := range next.departLog[len(cur.departLog):] {
		s.departed[d.id] = d.epoch
	}
	s.state.Store(next)
	s.departedMu.Unlock()
	return bill, nil
}

// noteDepartures extends the departure log with everyone who was in
// the epoch's world — a pre-epoch member or a scheduled joiner — and is
// absent from the committed membership: scheduled leavers, rebuild
// casualties, and joiners a faulted rebuild killed before they arrived.
// Both worlds and the membership are ascending, so each is one merge
// against it.
func noteDepartures(log []departure, epoch int, members []int, worlds ...[]int) []departure {
	for _, world := range worlds {
		m := 0
		for _, id := range world {
			for m < len(members) && members[m] < id {
				m++
			}
			if m == len(members) || members[m] != id {
				log = append(log, departure{id, epoch})
			}
		}
	}
	return log
}

// billLine formats one rounds-and-messages line of Bill.Itemized; mode
// names the accounting behind the numbers ("charged" or "measured").
func billLine(name string, rounds int, msgs int64, mode string) string {
	return fmt.Sprintf("%-28s %5d rounds  %9d msgs (%s)\n", name, rounds, msgs, mode)
}

// checkEpochArgs validates and normalizes (sorts copies of) the epoch
// arguments.
func (c *Checkpoint) checkEpochArgs(joins, leaves []int) ([]int, []int, error) {
	joins = append([]int(nil), joins...)
	leaves = append([]int(nil), leaves...)
	sort.Ints(joins)
	sort.Ints(leaves)
	for i, id := range joins {
		if id < 0 {
			return nil, nil, fmt.Errorf("overlay: joiner identifier %d is negative", id)
		}
		if i > 0 && joins[i-1] == id {
			return nil, nil, fmt.Errorf("overlay: joiner %d listed twice", id)
		}
		if _, ok := indexIn(c.members, id); ok {
			return nil, nil, fmt.Errorf("overlay: joiner %d is already a member", id)
		}
	}
	for i, id := range leaves {
		if i > 0 && leaves[i-1] == id {
			return nil, nil, fmt.Errorf("overlay: leaver %d listed twice", id)
		}
		if _, ok := indexIn(c.members, id); !ok {
			return nil, nil, fmt.Errorf("overlay: leaver %d is not a member", id)
		}
	}
	for i, j := 0, 0; i < len(joins) && j < len(leaves); {
		switch {
		case joins[i] < leaves[j]:
			i++
		case joins[i] > leaves[j]:
			j++
		default:
			return nil, nil, fmt.Errorf("overlay: node %d both joins and leaves this epoch", joins[i])
		}
	}
	if len(leaves) == len(c.members) {
		return nil, nil, errors.New("overlay: epoch removes every member")
	}
	return joins, leaves, nil
}

// epochPlan is everything about an epoch its rungs agree on whatever
// seed they run with, computed once by planEpoch: a rung adds only its
// own entry draws, budget slack and fault shift.
type epochPlan struct {
	// cur is the pre-epoch committed state every rung reads and none
	// writes; interrupt, when non-nil, is the deadline poll of the
	// ApplyEpochCtx call this plan belongs to, checked at rung
	// boundaries and between engine rounds.
	cur           *Checkpoint
	interrupt     func() bool
	epoch         int
	joins, leaves []int
	// survivors are the members that stay (ascending globals),
	// newMembers the merged post-epoch membership, and newOf maps repair
	// indices (survivors first, then joiners) to new-member-local ones.
	survivors, newMembers, newOf []int
	// repaired is the patched tree in repair-index space and spec the
	// wire repair's seed-independent inputs — block sizes, old depth,
	// repaired ranks, and the sweep forest when a measured rung will run
	// it. Both are set only for an epoch that starts on the patch rungs.
	repaired *wft.Tree
	spec     wft.RepairSpec
}

// noop reports an epoch with no churn: there is nothing to plan.
func (p *epochPlan) noop() bool { return len(p.joins)+len(p.leaves) == 0 }

// interrupted reports whether the epoch's deadline has fired.
func (p *epochPlan) interrupted() bool { return p.interrupt != nil && p.interrupt() }

// planEpoch partitions the pre-epoch membership against the sorted
// leave list — the dead mask in member-local space, the survivors, and
// the merged new membership — and, for an epoch that will try patching,
// runs the rank repair every patch rung shares.
func (s *Session) planEpoch(p *epochPlan, patch bool) error {
	if p.noop() {
		return nil
	}
	members, tree := p.cur.members, p.cur.tree
	// dead stays nil when nobody leaves: wft reads nil as "none died".
	var dead []bool
	p.survivors = members
	if len(p.leaves) > 0 {
		dead = make([]bool, len(members))
		for _, id := range p.leaves {
			li, _ := indexIn(members, id)
			dead[li] = true
		}
		p.survivors = make([]int, 0, len(members)-len(p.leaves))
		for li, id := range members {
			if !dead[li] {
				p.survivors = append(p.survivors, id)
			}
		}
	}
	s0, j := len(p.survivors), len(p.joins)
	p.newMembers = make([]int, 0, s0+j)
	p.newOf = make([]int, s0+j)
	for i, jj := 0, 0; i < s0 || jj < j; {
		if jj >= j || (i < s0 && p.survivors[i] < p.joins[jj]) {
			p.newOf[i] = len(p.newMembers)
			p.newMembers = append(p.newMembers, p.survivors[i])
			i++
		} else {
			p.newOf[s0+jj] = len(p.newMembers)
			p.newMembers = append(p.newMembers, p.joins[jj])
			jj++
		}
	}
	if !patch {
		return nil
	}
	rt, err := wft.Repair(tree, dead, j)
	if err != nil {
		return fmt.Errorf("overlay: epoch patch failed: %w", err)
	}
	p.repaired = rt
	p.spec = wft.RepairSpec{Survivors: s0, Joiners: j, OldDepth: tree.Depth(), NewRank: rt.Rank}
	if dead != nil && s.accounting == Measured {
		p.spec.SweepParent = wft.SweepParents(tree, dead)
	}
	return nil
}

// entryDraws draws each joiner's bootstrap contact from the rung's
// seed: a uniform index in [0, survivors). The patch rungs read it as
// a repaired rank (all ranks below the survivor count are survivors'),
// the rebuild rung as a survivor's repair index; every rung of an epoch
// draws from the same split of its own seed.
func (p *epochPlan) entryDraws(seed uint64) []int {
	if len(p.joins) == 0 {
		return nil
	}
	entry := rng.New(seed).Split(0xa77a)
	out := make([]int, len(p.joins))
	for i := range out {
		out[i] = entry.Intn(len(p.survivors))
	}
	return out
}

// patchSpec completes the plan's repair spec for one patch rung: the
// rung's entry draws, as the repair indices of the ranks drawn.
func (p *epochPlan) patchSpec(seed uint64) *wft.RepairSpec {
	spec := p.spec
	spec.Entry = p.entryDraws(seed)
	for i, r := range spec.Entry {
		spec.Entry[i] = p.repaired.NodeAt[r]
	}
	return &spec
}

// rungFaults is the session fault plan as rung `attempt` of the epoch
// meets it: shifted into the epoch's clock — past the rounds earlier
// failed rungs spent — and into new-member-local indices, with a fresh
// fate stream on a retry (replaying the defeated attempt's exact
// drop/delay pattern could never converge). Nil without a plan.
func (s *Session) rungFaults(p *epochPlan, attempt, spent int) *FaultPlan {
	if s.faults == nil {
		return nil
	}
	q := s.faults.shiftForEpoch(p.cur.clock.Round()+spent, p.epoch, p.newMembers)
	if attempt > 0 {
		q.Seed = rng.New(q.Seed).Split(uint64(attempt) + 0xfa7e).Uint64()
	}
	return q
}

// rung is one ladder attempt's outcome: its bill and either the
// repaired membership and tree or the reason the adversary, or a losing
// draw, defeated it.
type rung struct {
	Bill
	members []int
	tree    *Tree
	defeat  error
}

// runEpochLadder executes the epoch's recovery ladder: the patch
// rungs (measured epochs only — a charged or no-op patch is analytic
// and cannot be defeated), then the rebuild rungs. Each rung runs
// with a per-attempt derived seed and fate stream, a fault plan
// shifted past the rounds earlier failed rungs consumed, and — for
// patch rungs — a growing round-budget slack. The first rung that
// commits wins: its membership and tree come back for the caller to
// publish. When every rung fails, bill.Aborted is set with every
// attempt itemized and nothing comes back. A non-nil error is a hard
// specification failure, never an adversary defeat or a losing draw.
func (s *Session) runEpochLadder(p *epochPlan, seed uint64, bill *EpochBill) ([]int, *Tree, error) {
	var attempts []Bill
	var reasons []string
	spent := 0 // rounds consumed by failed attempts, advancing each retry's fault-plan offset
	commit := func(b Bill, rebuilt bool) {
		attempts = append(attempts, b)
		bill.Rebuilt = bill.Rebuilt || rebuilt
		sealLadderBill(bill, attempts)
	}
	fail := func(b Bill, kind string, reason error) {
		b.Itemized += fmt.Sprintf("%-28s %v\n", kind+" aborted", reason)
		attempts = append(attempts, b)
		spent += b.Rounds
		mode := strings.TrimPrefix(b.Path, kind+"/")
		reasons = append(reasons, fmt.Sprintf("%s %s aborted (%v)", mode, kind, reason))
	}

	switch {
	case p.noop():
		commit(Bill{Path: "patch/noop", Itemized: billLine("no-op epoch", 0, 0, "charged")}, false)
		return p.cur.members, p.cur.tree, nil
	case !bill.Rebuilt && s.accounting == Charged:
		commit(patchCharged(p, seed), false)
		return p.newMembers, relabelTree(p.repaired, p.newOf), nil
	case !bill.Rebuilt:
		for a := 0; a <= s.patchRetries; a++ {
			if p.interrupted() {
				return nil, nil, fmt.Errorf("%w (patch rung %d of epoch %d)", ErrInterrupted, a, bill.Epoch)
			}
			r, err := s.patchMeasuredAttempt(p, attemptSeed(seed, 0x9a7c, a), a, spent)
			if err != nil {
				return nil, nil, err
			}
			if r.defeat == nil {
				commit(r.Bill, false)
				return r.members, r.tree, nil
			}
			fail(r.Bill, "patch", r.defeat)
		}
	}
	for a := 0; a <= s.rebuildRetries; a++ {
		if p.interrupted() {
			return nil, nil, fmt.Errorf("%w (rebuild rung %d of epoch %d)", ErrInterrupted, a, bill.Epoch)
		}
		r, err := s.rebuildAttempt(p, attemptSeed(seed, 0x4eb1, a), bill, a, spent)
		if err != nil {
			return nil, nil, err
		}
		if r.defeat == nil {
			commit(r.Bill, true)
			return r.members, r.tree, nil
		}
		fail(r.Bill, "rebuild", r.defeat)
	}
	bill.Aborted = true
	bill.AbortReason = compressRuns(reasons, "; ")
	sealLadderBill(bill, attempts)
	return nil, nil, nil
}

// attemptSeed derives rung a's seed: attempt 0 uses the epoch seed
// verbatim (so single-attempt epochs reproduce the pre-ladder runs
// bit for bit), later attempts split a fresh stream per rung.
func attemptSeed(seed, label uint64, a int) uint64 {
	if a == 0 {
		return seed
	}
	return rng.New(seed).Split(label + uint64(a)).Uint64()
}

// sealLadderBill folds the attempt bills into the epoch's unified
// bill and stamps the ladder path.
func sealLadderBill(bill *EpochBill, attempts []Bill) {
	bill.Attempts = len(attempts)
	bill.AttemptBills = attempts
	var total Bill
	paths := make([]string, len(attempts))
	for i, a := range attempts {
		total.add(a)
		paths[i] = a.Path
	}
	total.Path = compressRuns(paths, "+")
	bill.Bill = total
}

// compressRuns joins the parts with sep, compressing consecutive
// repeats as "part×N" — the bill's ladder-path grammar. A single
// part comes back verbatim, so one-attempt epochs keep the familiar
// path strings.
func compressRuns(parts []string, sep string) string {
	var out []string
	for i := 0; i < len(parts); {
		j := i
		for j < len(parts) && parts[j] == parts[i] {
			j++
		}
		p := parts[i]
		if j-i > 1 {
			p = fmt.Sprintf("%s×%d", p, j-i)
		}
		out = append(out, p)
		i = j
	}
	return strings.Join(out, sep)
}

// patchCharged is the incremental repair path, billed analytically.
// The distributed protocol it charges: (1) leave detection and rank
// compaction — survivors aggregate dead-rank counts up the old tree
// and prefix-shift ranks down it; (2) joiner attachment — each joiner
// greets a deterministic bootstrap contact and greedily routes over
// the repaired Chord fingers to its heap parent, all joiners in
// parallel, plus an attach/ack exchange; (3) a commit broadcast of the
// new membership count down the new tree. The bill is that protocol's
// wft.Schedule — the value the measured rungs time the wire protocol
// by — formatted phase by phase; everything is rank arithmetic
// afterwards, exactly as in the one-shot build: the repaired tree is
// the plan's, relabelled.
func patchCharged(p *epochPlan, seed uint64) Bill {
	sched := p.patchSpec(seed).Schedule(len(p.leaves) > 0)
	b := Bill{Path: "patch/charged", Rounds: sched.Rounds(), Messages: sched.Messages()}
	for _, ph := range []struct {
		name string
		wft.Phase
	}{
		{"leave detect + compaction", sched.Sweep},
		{"joiner chord attach", sched.Join},
		{"membership commit", sched.Commit},
	} {
		if ph.Rounds > 0 {
			b.Itemized += billLine(ph.name, ph.Rounds, ph.Messages, "charged")
		}
	}
	return b
}

// patchMeasuredAttempt runs one patch rung as a real wire protocol
// (wft.NewRepairEngine) instead of charging the cost model: the
// census/commit sweep, the finger-routed joiner attachment, and the
// commit broadcast execute round by round on the engine, under the
// session fault plan shifted into the attempt's clock offset and
// repair index space (fate phase 3 — the build phases used 1 and 2).
// With a zero adversary the protocol reproduces the charged path's
// topology bit for bit. seed is the rung's derived seed; spent is the
// rounds earlier failed rungs consumed (advancing the fault-plan
// offset), and attempt > 0 re-derives the fate stream and stretches
// the engine budget (backoff). A committed attempt returns the new
// membership and tree; a defeated one its wasted bill and the defeat
// reason. A non-nil error is a hard failure.
func (s *Session) patchMeasuredAttempt(p *epochPlan, seed uint64, attempt, spent int) (rung, error) {
	k1 := len(p.newMembers)
	spec := p.patchSpec(seed)
	spec.BudgetSlack = attempt * (sim.LogBound(k1) + 4)
	cfg := sim.Config{Seed: seed, Workers: s.build.Workers, Interrupt: p.interrupt}
	if s.build.CapFactor > 0 {
		c := s.build.CapFactor * sim.LogBound(k1)
		cfg.SendCap, cfg.RecvCap = c, c
	}
	if q := s.rungFaults(p, attempt, spent); q != nil {
		// shiftForEpoch speaks new-member-local indices; the engine
		// runs in repair-index space (survivors first, then joiners).
		repairOf := make([]int, k1)
		for ri, nl := range p.newOf {
			repairOf[nl] = ri
		}
		for i := range q.Crashes {
			q.Crashes[i].Node = repairOf[q.Crashes[i].Node]
		}
		for pi := range q.Partitions {
			side := q.Partitions[pi].Side
			for si, v := range side {
				side[si] = repairOf[v]
			}
		}
		cfg.Adversary = q.adversary(0, 3, q.materializeCrashes(k1))
	}
	eng, protos, budget, err := wft.NewRepairEngine(spec, cfg)
	if err != nil {
		return rung{}, fmt.Errorf("overlay: epoch patch failed: %w", err)
	}
	eng.Run(budget)
	if eng.Interrupted() {
		return rung{}, fmt.Errorf("%w (measured patch, round %d)", ErrInterrupted, eng.Round())
	}
	patch := engineBill("patch/measured", eng)
	for _, node := range protos {
		patch.ProtocolAnomalies += int64(node.Anomalies())
	}
	patch.Itemized = billLine("patch repair protocol", patch.Rounds, patch.Messages, "measured")
	if patch.FaultDrops+patch.FaultDelays+patch.CapacityDrops > 0 {
		patch.Itemized += fmt.Sprintf("%-28s dropped=%d delayed=%d capped=%d\n", "  fault plane", patch.FaultDrops, patch.FaultDelays, patch.CapacityDrops)
	}
	mt, err := wft.ExtractRepair(spec, protos)
	if err != nil {
		// The adversary defeated the repair: hand the wasted traffic
		// and the reason back to the ladder, which decides whether to
		// retry the patch or fall to the recovery rebuild.
		return rung{Bill: patch, defeat: err}, nil
	}
	return rung{Bill: patch, members: p.newMembers, tree: relabelTree(mt, p.newOf)}, nil
}

// rebuildAttempt is one rung of the recovery path: a full BuildTree
// over the survivors' current Chord overlay plus one bootstrap edge
// per joiner (each joiner knows a deterministic existing member — the
// knowledge graph a fresh node realistically starts from). The build
// runs on the rung's derived seed; a session fault plan is shifted
// into the rebuild's local clock (past the spent rounds of earlier
// failed rungs) and index space, with attempt > 0 re-deriving the
// fate stream. A committed rebuild returns the new membership and tree
// (its casualties shrink the membership beyond the scheduled leavers,
// counted into bill.Left); an adversary-aborted one, or a losing draw
// (ErrEvolutionDisconnected), its partial bill and the reason. A
// non-nil error is a hard failure that ends the ladder.
func (s *Session) rebuildAttempt(p *epochPlan, seed uint64, bill *EpochBill, attempt, spent int) (rung, error) {
	newMembers, newOf := p.newMembers, p.newOf
	s0, k1 := len(p.survivors), len(newMembers)
	if s0 == 0 {
		return rung{}, errors.New("overlay: rebuild has no survivors to anchor on")
	}

	// Survivor substrate: the current finger ring, restricted to
	// survivors and renamed from old member-local indices to
	// new-member-local ones through the global identifiers (a leaver has
	// no new index).
	g := NewGraph(k1)
	addSurviving := func(a, b int) {
		u, uok := indexIn(newMembers, a)
		v, vok := indexIn(newMembers, b)
		if uok && vok {
			g.AddEdge(u, v)
		}
	}
	for _, e := range p.cur.Chord() {
		addSurviving(e[0], e[1])
	}
	// Rebuild-substrate union: the retained expander's surviving edges
	// widen the recovery graph beyond the finger ring, so a rebuild
	// does not hinge on the Chord overlay the failed epoch may have
	// degraded. Expander edges name original input indices, which are
	// exactly the founding members' global identifiers (joiner
	// identifiers start above the input space), so membership lookup
	// suffices to keep only edges between surviving founders.
	if s.expander != nil {
		for _, e := range s.expander.Edges() {
			addSurviving(e[0], e[1])
		}
	}
	for i, contact := range p.entryDraws(seed) {
		g.AddEdge(newOf[s0+i], newOf[contact])
	}

	opts := s.build
	opts.Seed = seed
	opts.Interrupt = p.interrupt
	if q := s.rungFaults(p, attempt, spent); q != nil {
		opts.Faults = q
	}
	res, err := BuildTree(g, &opts)
	mode, path := "charged", "rebuild/fast"
	if opts.MessageLevel {
		mode, path = "measured", "rebuild/measured"
	}
	var lost *disconnectedError
	if errors.As(err, &lost) {
		b := lost.bill
		b.Path = path
		b.Itemized = billLine("rebuild attempt (BuildTree)", b.Rounds, b.Messages, mode)
		return rung{Bill: b, defeat: err}, nil
	}
	if err != nil {
		return rung{}, fmt.Errorf("overlay: epoch rebuild failed: %w", err)
	}
	b := res.Stats.Bill
	b.Path = path
	if res.Aborted {
		b.Itemized = billLine("rebuild attempt (BuildTree)", b.Rounds, b.Messages, mode)
		return rung{Bill: b, defeat: errors.New(res.AbortReason)}, nil
	}
	if res.Survivors != nil {
		picked := make([]int, len(res.Survivors))
		for i, li := range res.Survivors {
			picked[i] = newMembers[li]
		}
		newMembers = picked
		bill.Left += k1 - len(picked)
	}
	b.Itemized = billLine("full rebuild (BuildTree)", b.Rounds, b.Messages, mode)
	return rung{Bill: b, members: newMembers, tree: copyTree(res.Tree)}, nil
}

// relabelTree maps a repaired wft tree (survivors-then-joiners index
// space) into the ascending-member index space via newOf[repairIdx] =
// new member-local index.
func relabelTree(rt *wft.Tree, newOf []int) *Tree {
	rank := make([]int, len(newOf))
	for ri, nl := range newOf {
		rank[nl] = rt.Rank[ri]
	}
	return wft.HeapTree(rank)
}
