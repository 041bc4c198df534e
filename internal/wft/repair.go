// Message-level patch-epoch repair. The analytic Repair in tree.go
// answers "what does the patched tree look like"; this file runs the
// same repair as a wire protocol on the simulation engine, so a fault
// plane can drop, delay, and crash *during* the repair and the epoch
// bill reports measured rounds and messages instead of charged
// estimates.
//
// The protocol assumes a perfect failure detector: the session knows
// which members left and precomputes each node's static inputs (new
// rank, sweep parent, finger table, bootstrap contact) in a
// RepairSpec. What the engine measures is the genuine communication
// schedule — the census/commit sweep over the survivor skeleton, the
// finger-routed joiner attachment, and the commit broadcast down the
// new heap — under whatever adversary is installed. Rank compaction
// itself cannot be computed by local exchange over the heap edges
// (heap subtrees are not rank-contiguous, so no node can learn its
// dead-below count from its children alone); the spec carries the
// compacted ranks and the wire phases carry the acknowledgement
// traffic that makes them take effect.
//
// Phases. Their budgets — rounds, charged messages, and the start
// rounds the wire protocol is scheduled by — are stated once, in
// RepairSpec.Schedule: NewRepairEngine schedules from that value and
// the session's charged patch bill is the same value formatted, so the
// zero-fault measured cost matches the charged estimate by
// construction.
//
//  1. Census/commit sweep (only when members left). Every survivor
//     knows its sweep parent: the nearest live ancestor in the old
//     heap, or the survivor of lowest old rank (the new root) when
//     every ancestor died. Leaves of the sweep forest report a
//     subtree census up; once the root has heard from every subtree
//     it pushes a rank-commit back down. Budget 2·(depth₀+1) rounds,
//     2·(s−1) messages.
//  2. Joiner attachment (only when members joined). Each joiner
//     greets its bootstrap contact, which forwards the request along
//     Chord fingers over the *new* rank space toward the joiner's
//     heap parent; the parent records the child and acknowledges
//     directly. Requests meeting at a node that share their next hop
//     are batched two to a wire (a join storm shares prefix hops).
//     Budget maxHops+2 rounds, ≤ Σhops + 2j messages.
//  3. Epoch commit. The new root broadcasts the epoch membership down
//     the new heap. Budget depth₁+1 rounds, k−1 messages.
//
// Nodes are event-driven: a node reports Halted whenever it has no
// scheduled emission of its own ahead (only a joiner waiting for the
// join phase and the new root waiting for the commit phase do), so the
// engine runs it only in rounds that bring it mail. The schedule still
// ends at the halt round — NewRepairEngine makes it the engine's
// quiescence floor — so an epoch is billed the rounds it was billed
// when every node ticked through all of them, even when the adversary
// silences the network early by crashing the new root. A delayed
// message can still complete an attachment after the halt round, but
// scheduled emissions fire exactly once, so measured rounds extend only
// as far as the adversary actually held traffic back.
package wft

import (
	"fmt"

	"overlay/internal/ids"
	"overlay/internal/sim"
)

// Wire kinds of the repair protocol, continuing the build protocol's
// 1..8 block.
const (
	kindCensus uint16 = 9 + iota
	kindCommit
	kindJoin1
	kindJoin2
	kindAttachAck
	kindEpochCommit
)

// censusMsg reports the number of live survivors in a sweep subtree.
type censusMsg struct{ alive int }

func (m censusMsg) Encode(w *sim.Wire) {
	w.Kind = kindCensus
	w.W[0] = uint64(m.alive)
}
func (m *censusMsg) Decode(w sim.Wire) { m.alive = int(w.W[0]) }

// commitMsg confirms the compacted ranks down the sweep forest; it
// carries the epoch's member count as a cross-check.
type commitMsg struct{ members int }

func (m commitMsg) Encode(w *sim.Wire) {
	w.Kind = kindCommit
	w.W[0] = uint64(m.members)
}
func (m *commitMsg) Decode(w sim.Wire) { m.members = int(w.W[0]) }

// join1Msg routes a single attachment request toward the rank that
// will adopt the joiner.
type join1Msg struct {
	joiner ids.ID
	target int
}

func (m join1Msg) Encode(w *sim.Wire) {
	w.Kind = kindJoin1
	w.W[0] = uint64(m.joiner)
	w.W[1] = uint64(m.target)
}
func (m *join1Msg) Decode(w sim.Wire) {
	m.joiner = ids.ID(w.W[0])
	m.target = int(w.W[1])
}

// join2Msg batches two attachment requests that share their next
// finger hop into one wire of two units.
type join2Msg struct {
	j1, j2 ids.ID
	t1, t2 int
}

func (m join2Msg) Encode(w *sim.Wire) {
	w.Kind = kindJoin2
	w.Units = 2
	w.W[0] = uint64(m.j1)
	w.W[1] = uint64(m.t1)
	w.W[2] = uint64(m.j2)
	w.W[3] = uint64(m.t2)
}
func (m *join2Msg) Decode(w sim.Wire) {
	m.j1 = ids.ID(w.W[0])
	m.t1 = int(w.W[1])
	m.j2 = ids.ID(w.W[2])
	m.t2 = int(w.W[3])
}

// attachAckMsg tells a joiner its heap parent recorded the link.
type attachAckMsg struct{}

func (attachAckMsg) Encode(w *sim.Wire) { w.Kind = kindAttachAck }
func (*attachAckMsg) Decode(sim.Wire)   {}

// epochCommitMsg is the root's end-of-epoch broadcast down the new
// heap, carrying the member count.
type epochCommitMsg struct{ members int }

func (m epochCommitMsg) Encode(w *sim.Wire) {
	w.Kind = kindEpochCommit
	w.W[0] = uint64(m.members)
}
func (m *epochCommitMsg) Decode(w sim.Wire) { m.members = int(w.W[0]) }

// RepairSpec is the session-precomputed input of one measured patch
// epoch. Indices are "repair indices": survivors first, in ascending
// old member order (0..Survivors-1), then joiners
// (Survivors..Survivors+Joiners-1) — the same index space Repair
// uses, so NewRank can be its Rank column verbatim.
type RepairSpec struct {
	// Survivors and Joiners size the two index blocks.
	Survivors, Joiners int
	// OldDepth is the pre-repair tree depth, bounding the sweep.
	OldDepth int
	// NewRank assigns each repair index its compacted rank; it must be
	// a permutation of [0, Survivors+Joiners).
	NewRank []int
	// SweepParent holds, per survivor, the repair index of its sweep
	// parent (nearest live old-heap ancestor, or the new root when all
	// ancestors died); -1 marks the sweep root. A nil SweepParent
	// skips the census/commit sweep entirely (no member left).
	SweepParent []int
	// Entry holds, per joiner, the repair index of the survivor that
	// bootstraps its attachment. Entries must be survivors.
	Entry []int
	// BudgetSlack stretches the halt schedule by this many extra
	// rounds, giving delayed traffic more time to land before nodes
	// stop. Retrying callers use it as deterministic backoff: each
	// attempt runs with a larger slack. Zero reproduces the tight
	// schedule bit for bit.
	BudgetSlack int
}

func (s *RepairSpec) validate() error {
	k := s.Survivors + s.Joiners
	if s.Survivors < 1 {
		return fmt.Errorf("wft: repair spec needs at least one survivor, got %d", s.Survivors)
	}
	if s.Joiners < 0 {
		return fmt.Errorf("wft: repair spec has %d joiners", s.Joiners)
	}
	if len(s.NewRank) != k {
		return fmt.Errorf("wft: repair spec NewRank has %d entries, want %d", len(s.NewRank), k)
	}
	seen := make([]bool, k)
	for i, r := range s.NewRank {
		if r < 0 || r >= k || seen[r] {
			return fmt.Errorf("wft: repair spec NewRank[%d] = %d is not a permutation entry", i, r)
		}
		seen[r] = true
	}
	if s.SweepParent != nil {
		if len(s.SweepParent) != s.Survivors {
			return fmt.Errorf("wft: repair spec SweepParent has %d entries, want %d", len(s.SweepParent), s.Survivors)
		}
		roots := 0
		for i, p := range s.SweepParent {
			if p == -1 {
				roots++
				continue
			}
			if p < 0 || p >= s.Survivors || p == i {
				return fmt.Errorf("wft: repair spec SweepParent[%d] = %d out of range", i, p)
			}
		}
		if roots != 1 {
			return fmt.Errorf("wft: repair spec has %d sweep roots, want 1", roots)
		}
	}
	if len(s.Entry) != s.Joiners {
		return fmt.Errorf("wft: repair spec Entry has %d entries, want %d", len(s.Entry), s.Joiners)
	}
	for i, e := range s.Entry {
		if e < 0 || e >= s.Survivors {
			return fmt.Errorf("wft: repair spec Entry[%d] = %d is not a survivor", i, e)
		}
	}
	return nil
}

// Phase is one repair phase's budget: the rounds the schedule reserves
// for it and the messages the charged model bills it.
type Phase struct {
	Rounds   int
	Messages int64
}

// Schedule is the one statement of a patch repair's phase budgets (the
// phases are described at the top of this file). NewRepairEngine times
// the wire protocol by it and the session's charged patch bill is this
// value formatted, so the two cannot drift. A phase the epoch does not
// need is the zero Phase; Join's messages are the unbatched bound.
type Schedule struct {
	Sweep, Join, Commit Phase
	// HaltAt is the engine round the protocol's schedule ends at, which
	// a zero-fault run is billed exactly: one short of Rounds — the
	// charged model bills the final commit hop's processing round, the
	// engine does not tick past the last delivery — plus the spec's
	// BudgetSlack.
	HaltAt int
}

// JoinStart is the engine round the joiners greet their contacts.
func (s Schedule) JoinStart() int { return s.Sweep.Rounds }

// CommitStart is the engine round the new root starts the broadcast.
func (s Schedule) CommitStart() int { return s.Sweep.Rounds + s.Join.Rounds }

// Rounds is the charged round total of the three phases.
func (s Schedule) Rounds() int { return s.CommitStart() + s.Commit.Rounds }

// Messages is the charged message total of the three phases.
func (s Schedule) Messages() int64 {
	return s.Sweep.Messages + s.Join.Messages + s.Commit.Messages
}

// Schedule computes the repair's phase budgets. It reads the block
// sizes, OldDepth, BudgetSlack and the joiners' entry ranks (NewRank
// at Entry) — never SweepParent, so a caller that only charges the
// repair need not build the sweep forest: sweep says whether members
// left (NewRepairEngine passes SweepParent != nil).
func (s *RepairSpec) Schedule(sweep bool) Schedule {
	k := s.Survivors + s.Joiners
	var sc Schedule
	if sweep {
		sc.Sweep = Phase{Rounds: 2 * (s.OldDepth + 1), Messages: int64(2 * (s.Survivors - 1))}
	}
	if s.Joiners > 0 {
		maxHops, sumHops := 0, 0
		for x, e := range s.Entry {
			h := greedyHops(k, s.NewRank[e], (s.NewRank[s.Survivors+x]-1)/2)
			maxHops = max(maxHops, h)
			sumHops += h
		}
		sc.Join = Phase{Rounds: maxHops + 2, Messages: int64(sumHops + 2*s.Joiners)}
	}
	sc.Commit = Phase{Rounds: heapDepth(k) + 1, Messages: int64(k - 1)}
	sc.HaltAt = max(sc.Rounds()-1+max(s.BudgetSlack, 0), 1)
	return sc
}

// SweepParents computes the census sweep forest for a repair over the
// old tree t with the given dead mask: per survivor (in repair-index
// order — ascending old index), the repair index of its nearest live
// old-heap ancestor, or of the survivor with the lowest live old rank
// (the new root) when every ancestor died; that lowest-ranked survivor
// itself gets -1. Edges always point to strictly lower old ranks, so
// the result is a tree of depth at most t.Depth()+1.
func SweepParents(t *Tree, dead []bool) []int {
	n := t.N()
	if dead == nil {
		// Nobody died: repair indices are the old indices, the old root
		// keeps rank 0, and every other node's parent is alive.
		out := append([]int(nil), t.Parent...)
		if n > 0 {
			out[t.Root] = -1
		}
		return out
	}
	repairIdx := make([]int, n)
	s := 0
	for v := 0; v < n; v++ {
		if dead[v] {
			repairIdx[v] = -1
			continue
		}
		repairIdx[v] = s
		s++
	}
	rho := -1
	for r := 0; r < n; r++ {
		if v := t.NodeAt[r]; repairIdx[v] >= 0 {
			rho = v
			break
		}
	}
	if rho < 0 {
		return nil
	}
	out := make([]int, s)
	for v := 0; v < n; v++ {
		i := repairIdx[v]
		if i < 0 {
			continue
		}
		if v == rho {
			out[i] = -1
			continue
		}
		u := t.Parent[v]
		for u != t.Root && dead[u] {
			u = t.Parent[u]
		}
		if dead[u] {
			u = rho
		}
		out[i] = repairIdx[u]
	}
	return out
}

// joinEntry is an in-flight attachment request being routed.
type joinEntry struct {
	joiner ids.ID
	target int
}

// RepairNode is one member's repair state machine.
type RepairNode struct {
	// id is the node's own engine identifier, fixed at construction;
	// joiners put it on the wire as routing payload.
	id           ids.ID
	k, survivors int
	newRank      int
	joiner       bool

	// Sweep role (survivors, only when the spec has a sweep).
	sweepOn       bool
	sweepRoot     bool
	sweepParent   ids.ID
	sweepChildren []ids.ID

	// owners maps every new rank to its owner's identifier; the node
	// reads only its Chord fingers out of it — finger t owns rank
	// (newRank + 2^t) mod k — so one table serves all nodes.
	owners []ids.ID
	// New-heap children (rank 2r+1, 2r+2 owners; Nil when absent).
	kidA, kidB ids.ID

	// Joiner attachment inputs.
	entry  ids.ID
	target int

	// Schedule, in engine rounds.
	joinStart, commitStart int

	// Dynamic state.
	censusGot   int
	censusAlive int
	censusSent  bool
	committed   bool
	acked       bool
	epochDone   bool
	idle        bool // nothing scheduled ahead: see Halted
	adopted     []ids.ID
	anomalies   int
}

// Halted reports that the node has no scheduled emission of its own
// ahead: the engine ticks it again only when mail arrives.
func (p *RepairNode) Halted() bool { return p.idle }

// scheduled reports whether an emission of this node's own is still
// ahead after round r: a joiner's greeting at joinStart, the new
// root's epoch commit at commitStart.
func (p *RepairNode) scheduled(r int) bool {
	return (p.joiner && r < p.joinStart) || (p.newRank == 0 && r < p.commitStart)
}

// Anomalies counts malformed or cross-checked-inconsistent traffic
// the node ignored.
func (p *RepairNode) Anomalies() int { return p.anomalies }

// Init fires the phase-0 emissions: sweep-forest leaves report their
// census immediately, and joiners greet their bootstrap contact when
// there is no sweep phase to wait out.
func (p *RepairNode) Init(ctx *sim.Ctx) {
	p.idle = !p.scheduled(0)
	if p.joiner {
		if p.joinStart == 0 {
			sim.Send(ctx, p.entry, join1Msg{joiner: p.id, target: p.target})
		}
		return
	}
	p.maybeCensus(ctx)
}

// Round drains the inbox — even after the halt round, so delayed
// traffic still completes attachments — then fires any emission
// scheduled for this round.
//
//overlay:hotpath
func (p *RepairNode) Round(ctx *sim.Ctx, inbox []sim.Wire) {
	r := ctx.Round()
	// Attachment requests to route this round; more than a handful
	// meeting at one node is rare, so they normally never leave the
	// stack.
	var buf [8]joinEntry
	fw := buf[:0]
	for _, w := range inbox {
		switch w.Kind {
		case kindCensus:
			var m censusMsg
			m.Decode(w)
			p.censusGot++
			p.censusAlive += m.alive
		case kindCommit:
			var m commitMsg
			m.Decode(w)
			if m.members != p.k {
				p.anomalies++
			}
			p.commit(ctx)
		case kindJoin1:
			var m join1Msg
			m.Decode(w)
			fw = append(fw, joinEntry{m.joiner, m.target})
		case kindJoin2:
			var m join2Msg
			m.Decode(w)
			fw = append(fw, joinEntry{m.j1, m.t1}, joinEntry{m.j2, m.t2})
		case kindAttachAck:
			p.acked = true
		case kindEpochCommit:
			var m epochCommitMsg
			m.Decode(w)
			if m.members != p.k {
				p.anomalies++
			}
			p.handleEpochCommit(ctx)
		default:
			p.anomalies++
		}
	}
	p.maybeCensus(ctx)
	p.route(ctx, fw)
	if p.joiner && r == p.joinStart {
		sim.Send(ctx, p.entry, join1Msg{joiner: p.id, target: p.target})
	}
	if r == p.commitStart && p.newRank == 0 {
		p.handleEpochCommit(ctx)
	}
	p.idle = !p.scheduled(r)
}

// maybeCensus fires the node's census report once every sweep child
// reported; the sweep root instead starts the commit wave down.
//
//overlay:hotpath
func (p *RepairNode) maybeCensus(ctx *sim.Ctx) {
	if !p.sweepOn || p.censusSent || p.censusGot < len(p.sweepChildren) {
		return
	}
	p.censusSent = true
	if p.sweepRoot {
		if p.censusAlive+1 != p.survivors {
			p.anomalies++
		}
		p.commit(ctx)
		return
	}
	sim.Send(ctx, p.sweepParent, censusMsg{alive: p.censusAlive + 1})
}

// commit confirms the compacted rank and cascades down the sweep
// forest.
//
//overlay:hotpath
func (p *RepairNode) commit(ctx *sim.Ctx) {
	if p.committed {
		return
	}
	p.committed = true
	for _, c := range p.sweepChildren {
		sim.Send(ctx, c, commitMsg{members: p.k})
	}
}

// handleEpochCommit forwards the end-of-epoch broadcast down the new
// heap exactly once.
//
//overlay:hotpath
func (p *RepairNode) handleEpochCommit(ctx *sim.Ctx) {
	if p.epochDone {
		return
	}
	p.epochDone = true
	if p.kidA != ids.Nil {
		sim.Send(ctx, p.kidA, epochCommitMsg{members: p.k})
	}
	if p.kidB != ids.Nil {
		sim.Send(ctx, p.kidB, epochCommitMsg{members: p.k})
	}
}

// routed marks a request in route's scratch that already left in an
// earlier pair; real targets are ranks, never negative.
const routed = -1

// route delivers attachment requests addressed to this rank and
// forwards the rest along fingers, batching pairs that share a next
// hop. It reuses fw as scratch. The pairing scan is quadratic in the
// per-round arrivals, which the join threshold keeps small, and
// depends only on deterministic inbox order.
//
//overlay:hotpath
func (p *RepairNode) route(ctx *sim.Ctx, fw []joinEntry) {
	keep := fw[:0]
	for _, e := range fw {
		if e.target == p.newRank {
			p.adopted = append(p.adopted, e.joiner)
			sim.Send(ctx, e.joiner, attachAckMsg{})
			continue
		}
		keep = append(keep, e)
	}
	for i := range keep {
		if keep[i].target == routed {
			continue
		}
		hop := p.nextHop(keep[i].target)
		pair := -1
		for j := i + 1; j < len(keep); j++ {
			if keep[j].target != routed && p.nextHop(keep[j].target) == hop {
				pair = j
				break
			}
		}
		if pair >= 0 {
			sim.Send(ctx, hop, join2Msg{
				j1: keep[i].joiner, t1: keep[i].target,
				j2: keep[pair].joiner, t2: keep[pair].target,
			})
			keep[pair].target = routed
			continue
		}
		sim.Send(ctx, hop, join1Msg{joiner: keep[i].joiner, target: keep[i].target})
	}
}

// nextHop picks the finger covering the largest power-of-two step
// that does not overshoot the clockwise distance to target — the same
// greedy rule as overlays.RouteChord and the one greedyHops counts, so
// measured hop counts match the scheduled route lengths exactly.
//
//overlay:hotpath
func (p *RepairNode) nextHop(target int) ids.ID {
	d := (target - p.newRank + p.k) % p.k
	t := 0
	for 1<<(t+1) <= d {
		t++
	}
	return p.owners[(p.newRank+1<<t)%p.k]
}

// greedyHops counts the finger hops from rank from to rank to in a
// ring of k ranks, mirroring nextHop's step rule: the hop count
// Schedule budgets and charges the join phase by.
func greedyHops(k, from, to int) int {
	hops := 0
	for cur := from; cur != to; hops++ {
		d := (to - cur + k) % k
		step := 1
		for step<<1 <= d {
			step <<= 1
		}
		cur = (cur + step) % k
	}
	return hops
}

// NewRepairEngine compiles a RepairSpec into an engine of
// Survivors+Joiners nodes and returns the node slice (repair-index
// order) plus a run budget that covers the schedule and any
// adversarial delays. cfg.N is overwritten.
func NewRepairEngine(spec *RepairSpec, cfg sim.Config) (*sim.Engine, []*RepairNode, int, error) {
	return newRepairEngine(spec, cfg, func(p *RepairNode, _ int) sim.Node { return p })
}

// newRepairEngine is NewRepairEngine with a seam for the scheduling
// tests: wrap returns the state machine the engine drives for each node
// (it is told the halt round).
func newRepairEngine(spec *RepairSpec, cfg sim.Config, wrap func(p *RepairNode, haltAt int) sim.Node) (*sim.Engine, []*RepairNode, int, error) {
	if err := spec.validate(); err != nil {
		return nil, nil, 0, err
	}
	s, j := spec.Survivors, spec.Joiners
	k := s + j
	cfg.N = k

	sched := spec.Schedule(spec.SweepParent != nil)
	joinStart, commitStart, haltAt := sched.JoinStart(), sched.CommitStart(), sched.HaltAt

	eng, protos := sim.NewOf(cfg, func(i int, p *RepairNode) sim.Node {
		p.k, p.survivors, p.newRank, p.joiner = k, s, spec.NewRank[i], i >= s
		p.sweepParent, p.kidA, p.kidB, p.entry = ids.Nil, ids.Nil, ids.Nil, ids.Nil
		p.joinStart, p.commitStart = joinStart, commitStart
		// No sweep phase: compacted ranks are vacuously confirmed.
		p.committed = i < s && spec.SweepParent == nil
		return wrap(p, haltAt)
	})
	eng.SetFloor(haltAt)
	idOf := eng.IDs()
	rankOwner := make([]ids.ID, k)
	for i, r := range spec.NewRank {
		rankOwner[r] = idOf[i]
	}

	for i, p := range protos {
		p.id = idOf[i]
		p.owners = rankOwner
		r := spec.NewRank[i]
		if c := 2*r + 1; c < k {
			p.kidA = rankOwner[c]
		}
		if c := 2*r + 2; c < k {
			p.kidB = rankOwner[c]
		}
	}
	if spec.SweepParent != nil {
		// Sweep children as one arena, counted then filled: end[p] first
		// counts p's children, then becomes the start of its stretch and,
		// advanced by the fill, its end (the next parent's start).
		end := make([]int, s)
		for _, sp := range spec.SweepParent {
			if sp >= 0 {
				end[sp]++
			}
		}
		total := 0
		for p, c := range end {
			end[p] = total
			total += c
		}
		kids := make([]ids.ID, total)
		for i, sp := range spec.SweepParent {
			protos[i].sweepOn = true
			if sp == -1 {
				protos[i].sweepRoot = true
				continue
			}
			protos[i].sweepParent = idOf[sp]
			kids[end[sp]] = idOf[i]
			end[sp]++
		}
		start := 0
		for p, e := range end {
			protos[p].sweepChildren = kids[start:e:e]
			start = e
		}
	}
	for x := 0; x < j; x++ {
		p := protos[s+x]
		p.entry = idOf[spec.Entry[x]]
		p.target = (spec.NewRank[s+x] - 1) / 2
	}

	budget := haltAt + 8
	if adv := cfg.Adversary; adv != nil && (adv.DelayProb > 0 || adv.DelayMax > 1) {
		dm := adv.DelayMax
		if dm < 1 {
			dm = 1
		}
		budget = (haltAt + 4) * (dm + 1)
	}
	return eng, protos, budget, nil
}

// ExtractRepair reads the patched tree back out of a finished repair
// run. It fails — naming the first node left behind — unless every
// survivor had its compacted rank committed and every joiner was
// acknowledged by its heap parent; the caller is expected to fall
// back to a full rebuild in that case.
func ExtractRepair(spec *RepairSpec, protos []*RepairNode) (*Tree, error) {
	for i, p := range protos {
		if i < spec.Survivors {
			if !p.committed {
				return nil, fmt.Errorf("wft: survivor %d (rank %d) never committed its compacted rank", i, spec.NewRank[i])
			}
			continue
		}
		if !p.acked {
			return nil, fmt.Errorf("wft: joiner %d never had its attachment acknowledged", i-spec.Survivors)
		}
	}
	out := HeapTree(append([]int(nil), spec.NewRank...))
	if err := out.Validate(); err != nil {
		return nil, fmt.Errorf("wft: repaired tree invalid: %w", err)
	}
	return out, nil
}
