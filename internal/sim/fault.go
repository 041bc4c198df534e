package sim

import "math"

// Fault plane. An Adversary is a seed-deterministic fault schedule the
// engine evaluates once per message, at its sender: the sender range of
// a delivery that holds the sender (Engine.settleFates) assigns every
// queued message a fate (deliver, drop, or delay) by a pure hash of
// (adversary seed, delivery round, sender index, send ordinal) — a
// property of the message, not of the range or shard that handles it,
// so the outcome is bit-identical at every worker count. Crash-stop and partition
// schedules are plain per-node and per-round predicates on the same
// clock.
//
// Semantics, on the engine's synchronous clock (the first Round call is
// round 1; Init is round 0):
//
//   - Drop: each delivered message is independently discarded with
//     probability DropProb before it is counted into any inbox. The
//     sender's metrics still count it as sent (the sender paid for it).
//   - Delay: each surviving message is, with probability DelayProb,
//     held back a uniform 1..DelayMax rounds in its destination shard's
//     holdback queue and merged ahead of that round's fresh traffic
//     when it comes due (held messages age first, in the order they
//     were held: by round, then sender index, then send order — the
//     order the sender ranges hand them over in, at any worker count). A held
//     message is re-checked against the crash and partition schedules
//     at its release round: a destination that died or a cut that
//     formed while it was in flight still claims it.
//   - Crash-stop (Crash{Node, Round}): the node executes rounds
//     < Round and nothing afterwards; messages addressed to it at
//     rounds >= Round are discarded. Its sends from round Round-1 are
//     still delivered (it died after sending). Round <= 0 means the
//     node is dead from the start: Init never runs and it never
//     participates. Crashes are permanent.
//   - Partition (Partition{From, Until, Side}): during rounds
//     [From, Until) every message crossing the cut between Side and
//     its complement is discarded. Multiple partitions compose (a
//     message crossing any active cut is lost).
//
// The zero Adversary (all probabilities zero, no crashes, no
// partitions) is a valid installation that delivers every message
// exactly as the fault-free engine does, bit for bit. A nil
// Config.Adversary skips the fault plane entirely: no fate is settled,
// the holdback queues stay empty and delivery makes no per-message
// fault check.
type Adversary struct {
	// Seed drives every probabilistic fate. Fates are pure functions of
	// (Seed, round, sender, ordinal); changing Seed reshuffles them,
	// while Config.Seed keeps controlling protocol randomness.
	Seed uint64
	// DropProb is the per-message loss probability in [0, 1].
	DropProb float64
	// DelayProb is the per-message delay probability in [0, 1]; delayed
	// messages arrive 1..DelayMax rounds late. DelayMax <= 0 means 1.
	DelayProb float64
	DelayMax  int
	// Crashes lists crash-stop faults by node index and round.
	Crashes []Crash
	// Partitions lists temporary network cuts.
	Partitions []Partition
}

// Crash is a crash-stop fault: Node executes rounds < Round and is
// silent and unreachable from round Round on. Round <= 0 crashes the
// node before Init.
type Crash struct {
	Node  int
	Round int
}

// Partition disconnects the node set Side from its complement during
// rounds [From, Until): messages crossing the cut are discarded in
// both directions. Nodes keep running; only cross-cut traffic is lost.
type Partition struct {
	From, Until int
	Side        []int
}

// neverCrash marks a node with no scheduled crash.
const neverCrash = math.MaxInt32

// advState is the engine's compiled adversary: thresholds instead of
// probabilities, a per-node crash-round column instead of a schedule
// list, and per-partition membership bitmaps.
type advState struct {
	seed     uint64
	dropT    uint64 // fate hash < dropT → drop; ^0 means drop everything
	delayT   uint64
	delayMax uint64
	dropAll  bool

	hasCrash   bool
	crashRound []int32 // per node; neverCrash = no crash, <= 0 = dead from start
	// allDeadAt is the round from which every node is crashed, or
	// neverCrash while at least one node has no crash scheduled.
	allDeadAt int32

	parts []partState
}

type partState struct {
	from, until int32
	side        []bool
}

// compileAdversary translates the public schedule into the engine's
// hot-path representation. A nil input compiles to nil (no fault
// plane); a non-nil zero-valued input compiles to an installed
// adversary that faults nothing.
func compileAdversary(a *Adversary, n int) *advState {
	if a == nil {
		return nil
	}
	s := &advState{
		seed:      a.Seed,
		dropT:     probThreshold(a.DropProb),
		delayT:    probThreshold(a.DelayProb),
		delayMax:  1,
		dropAll:   a.DropProb >= 1,
		allDeadAt: neverCrash,
	}
	if a.DelayMax > 1 {
		s.delayMax = uint64(a.DelayMax)
	}
	if len(a.Crashes) > 0 {
		s.hasCrash = true
		s.crashRound = make([]int32, n)
		for i := range s.crashRound {
			s.crashRound[i] = neverCrash
		}
		for _, c := range a.Crashes {
			if c.Node < 0 || c.Node >= n {
				continue
			}
			r := c.Round
			if r < 0 {
				r = 0
			}
			if int32(r) < s.crashRound[c.Node] {
				s.crashRound[c.Node] = int32(r)
			}
		}
		s.allDeadAt = 0
		for _, r := range s.crashRound {
			s.allDeadAt = max(s.allDeadAt, r)
		}
	}
	for _, p := range a.Partitions {
		if p.Until <= p.From || len(p.Side) == 0 {
			continue
		}
		ps := partState{from: int32(p.From), until: int32(p.Until), side: make([]bool, n)}
		for _, v := range p.Side {
			if v >= 0 && v < n {
				ps.side[v] = true
			}
		}
		s.parts = append(s.parts, ps)
	}
	return s
}

// probThreshold maps a probability to a uint64 comparison threshold:
// a uniform 64-bit hash h faults when h < threshold. Probabilities
// within one ulp of 1 round to 2^64 in float64; converting that to
// uint64 is implementation-defined in Go, so it is saturated
// explicitly (2^64 is exactly representable, making the comparison
// exact) — thresholds must be identical on every architecture or the
// fault plane's determinism contract breaks.
func probThreshold(p float64) uint64 {
	if p <= 0 {
		return 0
	}
	const two64 = float64(1<<32) * float64(1<<32)
	t := p * two64
	if t >= two64 {
		return ^uint64(0)
	}
	return uint64(t)
}

// dead reports whether node i is crashed at round r.
//
//overlay:hotpath
func (a *advState) dead(i int32, r int32) bool {
	return a.hasCrash && a.crashRound[i] <= r
}

// deadFromStart reports whether node i never runs at all.
func (a *advState) deadFromStart(i int32) bool {
	return a.hasCrash && a.crashRound[i] <= 0
}

// cut reports whether a message from s to d is severed by a partition
// active at round r.
//
//overlay:hotpath
func (a *advState) cut(s, d int32, r int32) bool {
	for k := range a.parts {
		p := &a.parts[k]
		if r >= p.from && r < p.until && p.side[s] != p.side[d] {
			return true
		}
	}
	return false
}

// advGolden is the splitmix64 increment, duplicated here so the fate
// hash needs no cross-package call.
const advGolden = 0x9e3779b97f4a7c15

// advMix is the splitmix64 finalizer: a bijective 64-bit mixer.
func advMix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// fate decides drop/delay for the k-th message of sender i delivered at
// round r. It is a pure function of (seed, r, i, k) and is asked once
// per message, by settleFates. delay is 0 (deliver now) or the number
// of rounds to hold the message back.
//
//overlay:hotpath
func (a *advState) fate(r, i int32, k int) (drop bool, delay int32) {
	if a.dropT == 0 && a.delayT == 0 {
		return false, 0
	}
	h := advMix(a.seed ^ advMix(uint64(uint32(r))<<32|uint64(uint32(i))) ^ advMix(uint64(k)+advGolden))
	if a.dropAll || (a.dropT > 0 && h < a.dropT) {
		return true, 0
	}
	if a.delayT > 0 {
		h2 := advMix(h + advGolden)
		if h2 < a.delayT {
			d := int32(advMix(h2+advGolden)%a.delayMax) + 1
			return false, d
		}
	}
	return false, 0
}

// heldWire is a delayed message parked in its destination shard's
// holdback queue until round due. from is the sender's node index,
// kept so partition cuts active at the release round still apply to
// messages that were already in flight when the cut formed; a message
// such a cut or a crash claims at release has its dest set to lost.
type heldWire struct {
	w    Wire
	from int32
	dest int32
	due  int32
}
