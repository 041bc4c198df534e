// Package scenario is the deterministic simulation-testing harness on
// top of the overlay builder and the engine's fault plane: a scenario
// declares a topology, a protocol configuration, and a fault schedule,
// and running it executes the full message-level build and checks the
// paper's structural invariants on whatever came out — a well-formed
// tree over the survivors, or an explicit abort with a reason.
//
// Everything is seed-deterministic: a scenario is a pure function of
// its Spec, at every worker count, so a failing scenario is replayable
// bit-for-bit from its declaration alone. This is the
// deterministic-simulation-testing loop (generate adversarial
// schedule, run, machine-check invariants) applied to the overlay
// construction.
package scenario

import (
	"fmt"

	"overlay"
)

// Spec declares a scenario: which network, which build, which faults.
// The zero values of the optional fields mean "defaults" throughout,
// so a Spec literal reads like the sentence describing the scenario.
type Spec struct {
	// Name labels the scenario in reports.
	Name string
	// Topology is the input knowledge graph shape: line, ring, tree,
	// or grid (see BuildTopology).
	Topology string
	// N is the node count (grids round up to a full square).
	N int
	// Seed is the protocol seed (overlay.Options.Seed).
	Seed uint64
	// CapFactor forwards overlay.Options.CapFactor.
	CapFactor int
	// Workers forwards the engine execution knob; the result never
	// depends on it.
	Workers int
	// Faults is the fault schedule; nil runs fault-free. With Churn
	// set, the plan spans the whole session clock: build-time rounds
	// fault the initial construction, later rounds are shifted into
	// whichever epoch rebuild they fall into.
	Faults *overlay.FaultPlan
	// Churn is the live-maintenance axis: a deterministic epoch
	// schedule of joins and leaves applied to a Session opened over the
	// completed build, with the session invariants checked after every
	// epoch. nil runs the one-shot build only.
	Churn *overlay.ChurnPlan
	// SessionFaults, when non-nil, replaces Faults as the session-phase
	// fault plan: the initial build runs under Faults (nil = fault-free)
	// while the maintenance epochs run under SessionFaults. This is how
	// a scenario faults the repair traffic itself without also having to
	// survive the same adversary during construction. Round fields in
	// SessionFaults are relative to the end of the build (round 0 is
	// the round the build completed), so a session-phase schedule reads
	// the same at every N; the runner shifts them onto the session
	// clock before opening the session.
	SessionFaults *overlay.FaultPlan
	// PatchRetries and RebuildRetries size the session's epoch
	// recovery ladder (overlay.SessionOptions); zero keeps the
	// single-attempt semantics.
	PatchRetries   int
	RebuildRetries int
	// Workloads opens the three maintained hybrid workloads
	// (components, spanning forest, MIS) over the session and, after
	// every committed epoch, syncs them and checks them against
	// independent from-scratch oracles — plus the incremental-
	// strictly-cheaper-than-scratch billing guarantee on patch epochs.
	Workloads bool
	// Accounting selects how the session bills patch epochs
	// (overlay.Charged estimates analytically, overlay.Measured runs
	// each repair as a wire protocol on the engine).
	Accounting overlay.Accounting
	// RoundBudget overrides the invariant checker's round bound
	// (0 derives a generous O(log n) budget from N).
	RoundBudget int
}

// Report is the outcome of running a scenario: the raw build result,
// a hard error (invalid spec — never an adversary victory), and the
// invariant violations found. A clean run has Err == nil and no
// Violations; an aborted-but-explained build is clean too.
type Report struct {
	Spec       Spec
	Result     *overlay.BuildResult
	Err        error
	Violations []string
	// EpochBills is the per-epoch session accounting of a churn
	// scenario (nil without Spec.Churn); epoch-scoped violations carry
	// an "epoch N:" prefix in Violations.
	EpochBills []overlay.EpochBill
	// FinalMembers is the session population after the last applied
	// epoch (0 without Spec.Churn).
	FinalMembers int
}

// OK reports whether the scenario ran and every invariant held.
func (r *Report) OK() bool { return r.Err == nil && len(r.Violations) == 0 }

// String renders the one-line summary the smoke jobs print.
func (r *Report) String() string {
	switch {
	case r.Err != nil:
		return fmt.Sprintf("%s: error: %v", r.Spec.Name, r.Err)
	case r.Result.Aborted:
		return fmt.Sprintf("%s: aborted (%s), %d violations", r.Spec.Name, r.Result.AbortReason, len(r.Violations))
	default:
		surv := r.Spec.N
		if r.Result.Survivors != nil {
			surv = len(r.Result.Survivors)
		}
		line := fmt.Sprintf("%s: tree over %d/%d survivors in %d rounds, %d violations",
			r.Spec.Name, surv, r.Spec.N, r.Result.Stats.Rounds, len(r.Violations))
		if len(r.EpochBills) > 0 {
			rebuilds := 0
			for _, b := range r.EpochBills {
				if b.Rebuilt {
					rebuilds++
				}
			}
			line += fmt.Sprintf("; %d churn epochs (%d rebuilds) -> %d members",
				len(r.EpochBills), rebuilds, r.FinalMembers)
		}
		return line
	}
}

// Run executes the scenario: build the topology, run the message-level
// construction under the declared faults, then check every invariant.
func Run(s Spec) *Report {
	rep := &Report{Spec: s}
	g, err := BuildTopology(s.Topology, s.N)
	if err != nil {
		rep.Err = err
		return rep
	}
	// The generated graph's N is authoritative (grids round up);
	// normalize the spec so reports and checks count real nodes.
	s.N = g.N
	rep.Spec.N = g.N
	res, err := overlay.BuildTree(g, &overlay.Options{
		Seed:         s.Seed,
		MessageLevel: true,
		CapFactor:    s.CapFactor,
		Workers:      s.Workers,
		Faults:       s.Faults,
	})
	if err != nil {
		rep.Err = err
		return rep
	}
	rep.Result = res
	rep.Violations = CheckInvariants(&s, g, res)
	if s.Churn != nil && !res.Aborted {
		runChurn(&s, rep)
	}
	return rep
}

// runChurn opens a Session over the completed build and applies the
// spec's churn schedule, checking the session invariants after every
// epoch. A patch epoch must also be strictly cheaper — in rounds and
// in simulated messages — than the from-scratch build that opened the
// session; that is the point of maintaining the overlay instead of
// rebuilding it, so losing the edge is an invariant violation, not a
// perf footnote.
func runChurn(s *Spec, rep *Report) {
	res := rep.Result
	bad := func(format string, args ...any) {
		rep.Violations = append(rep.Violations, fmt.Sprintf(format, args...))
	}
	sessionFaults := s.Faults
	if s.SessionFaults != nil {
		// SessionFaults rounds are relative to the end of the build;
		// shift them onto the session clock.
		sessionFaults = shiftPlan(s.SessionFaults, res.Stats.Rounds)
	}
	sess, err := overlay.Open(res, &overlay.SessionOptions{
		RebuildFraction: s.Churn.RebuildFraction,
		Accounting:      s.Accounting,
		PatchRetries:    s.PatchRetries,
		RebuildRetries:  s.RebuildRetries,
		Build: overlay.Options{
			Seed:         s.Seed,
			MessageLevel: true,
			CapFactor:    s.CapFactor,
			Workers:      s.Workers,
			Faults:       sessionFaults,
		},
	})
	if err != nil {
		rep.Err = err
		return
	}
	var work *workloads
	if s.Workloads {
		work, err = openWorkloads(sess, s.Seed)
		if err != nil {
			rep.Err = err
			return
		}
		for _, viol := range work.check() {
			bad("open: %s", viol)
		}
	}
	for e := 0; e < s.Churn.Epochs; e++ {
		joins, leaves := s.Churn.Epoch(e, sess.Members(), sess.NextID())
		prevMembers := sess.Members()
		prevTree := sess.Tree()
		prevShape := fmt.Sprintf("%v|%v|%v|%v", prevTree.Root, prevTree.Parent, prevTree.Rank, prevTree.NodeAt)
		bill, err := sess.ApplyEpoch(joins, leaves)
		if err != nil {
			if bill == nil || !bill.Aborted {
				// An epoch the session cannot even attempt is a spec error —
				// a violation, not fair termination.
				bad("epoch %d: %v", e, err)
				break
			}
			// A reasoned abort is fair termination: the ladder ran out of
			// rungs and the session rolled back. The rollback must restore
			// the pre-epoch state bit for bit — serving lookups from the
			// last committed overlay is the whole point of the checkpoint.
			rep.EpochBills = append(rep.EpochBills, *bill)
			tree := sess.Tree()
			shape := fmt.Sprintf("%v|%v|%v|%v", tree.Root, tree.Parent, tree.Rank, tree.NodeAt)
			if !equalInts(sess.Members(), prevMembers) || shape != prevShape {
				bad("epoch %d: aborted epoch did not roll back to the pre-epoch state", e)
			}
			if bill.Attempts < 1 || len(bill.AttemptBills) != bill.Attempts {
				bad("epoch %d: aborted bill itemizes %d attempt bills for %d attempts", e, len(bill.AttemptBills), bill.Attempts)
			}
			if work != nil {
				// The rolled-back session still serves the pre-epoch
				// overlay; a workload sync against it must be a clean
				// no-op that leaves every result oracle-exact.
				work.sync()
				for _, viol := range work.check() {
					bad("epoch %d (rolled back): %s", e, viol)
				}
			}
			break
		}
		rep.EpochBills = append(rep.EpochBills, *bill)
		for _, viol := range CheckEpoch(sess, bill, sessionFaults) {
			bad("epoch %d: %s", e, viol)
		}
		for _, viol := range CheckDerived(sess, bill) {
			bad("epoch %d: %s", e, viol)
		}
		if work != nil {
			for _, viol := range work.syncAndCheck(bill) {
				bad("epoch %d: %s", e, viol)
			}
		}
		if !bill.Rebuilt && bill.Joined+bill.Left > 0 {
			if bill.Rounds >= res.Stats.Rounds {
				bad("epoch %d: patch cost %d rounds, not cheaper than the %d-round build", e, bill.Rounds, res.Stats.Rounds)
			}
			if res.Stats.Messages > 0 && bill.Messages >= res.Stats.Messages {
				bad("epoch %d: patch cost %d messages, not cheaper than the build's %d", e, bill.Messages, res.Stats.Messages)
			}
		}
	}
	rep.FinalMembers = len(sess.Members())
}

// shiftPlan returns a copy of a fault plan with every round field
// moved offset rounds later: a relative session-phase schedule
// (round 0 = the build's completion) becomes an absolute
// session-clock schedule. Domain-cut crash rungs (Until == 0) keep
// their zero Until — it is a mode marker, not a round.
func shiftPlan(p *overlay.FaultPlan, offset int) *overlay.FaultPlan {
	q := *p
	q.Crashes = append([]overlay.Crash(nil), p.Crashes...)
	for i := range q.Crashes {
		q.Crashes[i].Round += offset
	}
	if q.CrashFrac > 0 {
		q.CrashFracRound += offset
	}
	q.Partitions = make([]overlay.Partition, len(p.Partitions))
	for i, pt := range p.Partitions {
		q.Partitions[i] = overlay.Partition{
			From: pt.From + offset, Until: pt.Until + offset,
			Side: append([]int(nil), pt.Side...),
		}
	}
	q.DomainCuts = append([]overlay.DomainCut(nil), p.DomainCuts...)
	for i := range q.DomainCuts {
		q.DomainCuts[i].From += offset
		if q.DomainCuts[i].Until > 0 {
			q.DomainCuts[i].Until += offset
		}
	}
	return &q
}

// equalInts compares two int slices element-wise.
func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// BuildTopology constructs the named input knowledge graph on n nodes.
// Grids round n up to the next full square (the returned graph's N is
// authoritative).
func BuildTopology(name string, n int) (*overlay.Graph, error) {
	if n < 1 {
		return nil, fmt.Errorf("scenario: topology needs n >= 1, got %d", n)
	}
	g := overlay.NewGraph(n)
	switch name {
	case "line":
		for i := 0; i+1 < n; i++ {
			g.AddEdge(i, i+1)
		}
	case "ring":
		for i := 0; i < n && n > 1; i++ {
			g.AddEdge(i, (i+1)%n)
		}
	case "tree":
		for i := 0; i < n; i++ {
			if l := 2*i + 1; l < n {
				g.AddEdge(i, l)
			}
			if r := 2*i + 2; r < n {
				g.AddEdge(i, r)
			}
		}
	case "grid":
		side := 1
		for side*side < n {
			side++
		}
		g = overlay.NewGraph(side * side)
		for r := 0; r < side; r++ {
			for c := 0; c < side; c++ {
				if c+1 < side {
					g.AddEdge(r*side+c, r*side+c+1)
				}
				if r+1 < side {
					g.AddEdge(r*side+c, (r+1)*side+c)
				}
			}
		}
	default:
		return nil, fmt.Errorf("scenario: unknown topology %q (want line|ring|tree|grid)", name)
	}
	return g, nil
}
