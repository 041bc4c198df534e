package overlay

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"overlay/internal/rng"
	"overlay/internal/sim"
)

// FaultPlan is the overlay-level fault schedule for message-level
// builds (Options.Faults). Rounds are counted on the global build
// clock: the expander phase occupies rounds 1..R1 and the tree phase
// continues from R1+1, so a single plan spans both engines — the build
// translates it into per-engine sim.Adversary schedules, shifting
// rounds by the measured phase boundary.
//
// Runs with a plan installed remain a pure function of (input graph,
// Options.Seed, plan) at every worker count. A plan whose every field
// is zero still installs the fault plane (exercising the checked
// delivery path) but faults nothing, reproducing the fault-free build
// bit for bit; Options.Faults == nil skips the fault plane entirely.
type FaultPlan struct {
	// Seed drives every probabilistic fault fate and the CrashFrac node
	// selection. Independent of Options.Seed.
	Seed uint64
	// DropProb is the per-message loss probability in [0, 1].
	DropProb float64
	// DelayProb delays each surviving message with this probability by
	// a uniform 1..DelayMax rounds (DelayMax <= 0 means 1).
	DelayProb float64
	DelayMax  int
	// Crashes lists crash-stop faults: Node stops executing at the
	// start of global round Round and becomes unreachable. Round <= 0
	// means the node never participates.
	Crashes []Crash
	// CrashFrac crash-stops a uniformly chosen ⌊CrashFrac·n⌋-node
	// subset (drawn from Seed) at round CrashFracRound, composing with
	// the explicit Crashes list.
	CrashFrac      float64
	CrashFracRound int
	// Partitions lists temporary cuts: during global rounds
	// [From, Until) no message crosses between Side and its complement.
	Partitions []Partition
	// Domains partitions the build's node id space [0, n) into this
	// many contiguous, rack-shaped correlated failure domains: node v
	// belongs to domain v·Domains/n, so domains differ in size by at
	// most one node. Zero means no domain structure. Nodes joining a
	// session later (id >= n) belong to no domain.
	Domains int
	// DomainCuts fail entire domains at once, expressing the
	// correlated rack/pod failures independent per-node faults cannot.
	// A cut with Until == 0 crash-stops every member of the domain at
	// round From; a cut with Until > From partitions the domain from
	// the rest of the network during [From, Until). Cuts expand
	// deterministically into Crashes/Partitions before the plan is
	// compiled, so they compose with every other directive.
	DomainCuts []DomainCut
}

// DomainCut fails one correlated failure domain as a unit: a
// crash-stop of all members at round From when Until is zero, or a
// partition of the domain from its complement during [From, Until).
type DomainCut struct {
	Domain      int
	From, Until int
}

// Crash is a crash-stop fault at a global build round.
type Crash struct {
	Node  int
	Round int
}

// Partition cuts the node set Side off from the rest of the network
// during global build rounds [From, Until).
type Partition struct {
	From, Until int
	Side        []int
}

// validate rejects plans that reference nodes outside the n-node
// build or carry out-of-range rates (see validateRates): a mistyped
// schedule must fail loudly, not silently run as a weaker adversary.
func (p *FaultPlan) validate(n int) error {
	if err := p.validateRates(); err != nil {
		return err
	}
	for _, c := range p.Crashes {
		if c.Node < 0 || c.Node >= n {
			return fmt.Errorf("overlay: FaultPlan crashes node %d, but the build has %d nodes", c.Node, n)
		}
	}
	for i, pt := range p.Partitions {
		if pt.Until <= pt.From {
			return fmt.Errorf("overlay: FaultPlan partition %d has empty window [%d,%d)", i, pt.From, pt.Until)
		}
		if len(pt.Side) == 0 {
			return fmt.Errorf("overlay: FaultPlan partition %d has an empty side", i)
		}
		for _, v := range pt.Side {
			if v < 0 || v >= n {
				return fmt.Errorf("overlay: FaultPlan partition %d cuts node %d, but the build has %d nodes", i, v, n)
			}
		}
	}
	if p.Domains < 0 || p.Domains > n {
		return fmt.Errorf("overlay: FaultPlan.Domains %d outside [0,%d]", p.Domains, n)
	}
	if len(p.DomainCuts) > 0 && p.Domains < 1 {
		return fmt.Errorf("overlay: FaultPlan has %d domain cuts but no domains (set Domains)", len(p.DomainCuts))
	}
	for i, cut := range p.DomainCuts {
		if cut.Domain < 0 || cut.Domain >= p.Domains {
			return fmt.Errorf("overlay: FaultPlan domain cut %d names domain %d, but the plan has %d domains", i, cut.Domain, p.Domains)
		}
		if cut.Until != 0 && cut.Until <= cut.From {
			return fmt.Errorf("overlay: FaultPlan domain cut %d has empty window [%d,%d)", i, cut.From, cut.Until)
		}
	}
	return nil
}

// validateRates rejects probabilities and fractions outside [0,1], NaN
// among them, and a DelayMax the engine's 32-bit delay cannot hold: the
// checks that need no node count, which a session makes of every plan it
// installs, its identifiers being global rather than a build's.
func (p *FaultPlan) validateRates() error {
	if !inUnit(p.DropProb) {
		return fmt.Errorf("overlay: FaultPlan.DropProb %v outside [0,1]", p.DropProb)
	}
	if !inUnit(p.DelayProb) {
		return fmt.Errorf("overlay: FaultPlan.DelayProb %v outside [0,1]", p.DelayProb)
	}
	if p.DelayMax > maxDelay {
		return fmt.Errorf("overlay: FaultPlan.DelayMax %d above %d rounds", p.DelayMax, maxDelay)
	}
	if !inUnit(p.CrashFrac) {
		return fmt.Errorf("overlay: FaultPlan.CrashFrac %v outside [0,1]", p.CrashFrac)
	}
	return nil
}

// domainMembers enumerates the nodes of domain d when an n-node id
// space is split into D contiguous domains: the block from ⌈d·n/D⌉ up
// to (but excluding) ⌈(d+1)·n/D⌉.
func domainMembers(d, D, n int) []int {
	lo := (d*n + D - 1) / D
	hi := ((d+1)*n + D - 1) / D
	if hi > n {
		hi = n
	}
	if lo >= hi {
		return nil
	}
	members := make([]int, 0, hi-lo)
	for v := lo; v < hi; v++ {
		members = append(members, v)
	}
	return members
}

// expandDomains folds the plan's correlated-domain cuts into its
// plain crash and partition schedules over an n-node id space and
// returns a flattened copy with no domain structure left. Plans
// without domain cuts come back unchanged, so callers expand
// unconditionally before compiling or shifting a plan.
func (p *FaultPlan) expandDomains(n int) *FaultPlan {
	if p == nil || p.Domains <= 0 || len(p.DomainCuts) == 0 {
		return p
	}
	q := *p
	q.Crashes = append([]Crash(nil), p.Crashes...)
	q.Partitions = append([]Partition(nil), p.Partitions...)
	q.Domains, q.DomainCuts = 0, nil
	for _, cut := range p.DomainCuts {
		members := domainMembers(cut.Domain, p.Domains, n)
		if len(members) == 0 {
			continue
		}
		if cut.Until == 0 {
			for _, v := range members {
				q.Crashes = append(q.Crashes, Crash{Node: v, Round: cut.From})
			}
		} else {
			q.Partitions = append(q.Partitions, Partition{From: cut.From, Until: cut.Until, Side: members})
		}
	}
	return &q
}

// materializeCrashes resolves CrashFrac into explicit crashes and
// returns the full, deterministic crash list for an n-node build.
func (p *FaultPlan) materializeCrashes(n int) []Crash {
	crashes := append([]Crash(nil), p.Crashes...)
	if p.CrashFrac > 0 && n > 0 {
		k := int(p.CrashFrac * float64(n))
		if k > n {
			k = n
		}
		picked := rng.New(p.Seed).Split(0xc4a5).SampleWithoutReplacement(n, k)
		sort.Ints(picked)
		for _, v := range picked {
			crashes = append(crashes, Crash{Node: v, Round: p.CrashFracRound})
		}
	}
	return crashes
}

// adversary compiles the plan into a sim.Adversary for an engine whose
// round 1 corresponds to global round offset+1. phase disambiguates
// the fate streams of the two engines so a message delayed in the
// expander phase and one in the tree phase never share a fate draw.
func (p *FaultPlan) adversary(offset, phase int, crashes []Crash) *sim.Adversary {
	adv := &sim.Adversary{
		Seed:      rng.New(p.Seed).Split(uint64(phase) + 0xfa).Uint64(),
		DropProb:  p.DropProb,
		DelayProb: p.DelayProb,
		DelayMax:  p.DelayMax,
	}
	for _, c := range crashes {
		r := c.Round - offset
		if r < 0 {
			r = 0
		}
		adv.Crashes = append(adv.Crashes, sim.Crash{Node: c.Node, Round: r})
	}
	for _, pt := range p.Partitions {
		from, until := pt.From-offset, pt.Until-offset
		if until <= 1 {
			continue // window wholly in a previous phase
		}
		adv.Partitions = append(adv.Partitions, sim.Partition{From: from, Until: until, Side: pt.Side})
	}
	return adv
}

// shiftForEpoch translates a session-clock fault plan into the local
// clock and index space of the rebuild of epoch. offset is the session
// clock at the rebuild's start (its engine round 1 is session round
// offset+1); members lists the rebuild's node population as ascending
// global identifiers, and crash/partition entries name nodes by those
// global identifiers. A crash whose session round has already passed
// becomes a crash at round 0 (dead from the rebuild's start); entries
// naming nodes outside the current membership are dropped — they left
// in an earlier epoch. Probability knobs carry over, but the fate seed
// is re-derived from (plan seed, epoch): a rebuild's engine clock
// restarts at round 1, so reusing the seed verbatim would replay the
// identical drop/delay pattern in every rebuild epoch.
func (p *FaultPlan) shiftForEpoch(offset, epoch int, members []int) *FaultPlan {
	q := &FaultPlan{
		Seed:      rng.New(p.Seed).Split(uint64(epoch) + 0xe90c).Uint64(),
		DropProb:  p.DropProb,
		DelayProb: p.DelayProb,
		DelayMax:  p.DelayMax,
	}
	for _, c := range p.Crashes {
		li, ok := indexIn(members, c.Node)
		if !ok {
			continue
		}
		r := c.Round - offset
		if r < 0 {
			r = 0
		}
		q.Crashes = append(q.Crashes, Crash{Node: li, Round: r})
	}
	// CrashFrac materializes a *random* subset when its round arrives;
	// once that round has passed (it fired during the build or an
	// earlier rebuild), carrying it forward would kill a fresh random
	// fraction on every subsequent rebuild. Only a still-future round
	// carries over.
	if p.CrashFrac > 0 && p.CrashFracRound > offset {
		q.CrashFrac = p.CrashFrac
		q.CrashFracRound = p.CrashFracRound - offset
	}
	for _, pt := range p.Partitions {
		from, until := pt.From-offset, pt.Until-offset
		if until <= 1 {
			continue // window wholly in a previous epoch
		}
		side := make([]int, 0, len(pt.Side))
		for _, id := range pt.Side {
			if li, ok := indexIn(members, id); ok {
				side = append(side, li)
			}
		}
		if len(side) == 0 {
			continue
		}
		q.Partitions = append(q.Partitions, Partition{From: from, Until: until, Side: side})
	}
	return q
}

// aliveAfter returns the survivor mask at the end of a build that ran
// totalRounds global rounds, nil when nobody crashed.
func aliveAfter(crashes []Crash, n, totalRounds int) []bool {
	var alive []bool
	for _, c := range crashes {
		if c.Node >= 0 && c.Node < n && c.Round <= totalRounds {
			if alive == nil {
				alive = make([]bool, n)
				for i := range alive {
					alive[i] = true
				}
			}
			alive[c.Node] = false
		}
	}
	return alive
}

func parseAtPair(s string) (int, int, error) {
	a, b, ok := strings.Cut(s, "@")
	if !ok {
		return 0, 0, fmt.Errorf("missing @")
	}
	x, err := strconv.Atoi(a)
	if err != nil {
		return 0, 0, err
	}
	y, err := strconv.Atoi(b)
	if err != nil {
		return 0, 0, err
	}
	return x, y, nil
}

func parseDashPair(s string) (int, int, error) {
	a, b, ok := strings.Cut(s, "-")
	if !ok {
		return 0, 0, fmt.Errorf("missing -")
	}
	x, err := strconv.Atoi(a)
	if err != nil {
		return 0, 0, err
	}
	y, err := strconv.Atoi(b)
	if err != nil {
		return 0, 0, err
	}
	return x, y, nil
}
