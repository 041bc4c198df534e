package sim

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"overlay/internal/ids"
)

// fvalMsg is the single-word test payload of the fault tests.
type fvalMsg struct{ v uint64 }

func (m fvalMsg) Encode(w *Wire) {
	w.Kind = 7
	w.W[0] = m.v
}

// recEntry is one received message, as observed by a recorder node.
type recEntry struct {
	round int
	from  ids.ID
	val   uint64
}

// gossipRec sends `fanout` messages to pseudo-random peers every round
// for `rounds` rounds, recording everything it receives. It exercises
// the delivery path with enough traffic that per-message fates matter.
type gossipRec struct {
	fanout, rounds int
	inited         bool
	recv           []recEntry
	done           bool
}

func (g *gossipRec) Init(ctx *Ctx) {
	g.inited = true
	g.emit(ctx)
}

func (g *gossipRec) emit(ctx *Ctx) {
	all := ctx.engine.IDs()
	for k := 0; k < g.fanout; k++ {
		to := all[ctx.Rand.Intn(len(all))]
		Send(ctx, to, fvalMsg{v: uint64(ctx.Round())<<16 | uint64(ctx.Index)})
	}
}

func (g *gossipRec) Round(ctx *Ctx, inbox []Wire) {
	for _, w := range inbox {
		g.recv = append(g.recv, recEntry{round: ctx.Round(), from: w.From, val: w.W[0]})
	}
	if ctx.Round() < g.rounds {
		g.emit(ctx)
	} else {
		g.done = true
	}
}

func (g *gossipRec) Halted() bool { return g.done }

func runFaultGossip(t *testing.T, n int, cfg Config) ([]*gossipRec, *Engine) {
	t.Helper()
	cfg.N = n
	nodes := make([]Node, n)
	recs := make([]*gossipRec, n)
	for i := range nodes {
		recs[i] = &gossipRec{fanout: 3, rounds: 12}
		nodes[i] = recs[i]
	}
	eng := New(cfg, nodes)
	eng.Run(64)
	return recs, eng
}

func fingerprintRecs(recs []*gossipRec) uint64 {
	h := fnv.New64a()
	for i, g := range recs {
		fmt.Fprintf(h, "#%d:%v|", i, g.inited)
		for _, e := range g.recv {
			fmt.Fprintf(h, "%d,%v,%d;", e.round, e.from, e.val)
		}
	}
	return h.Sum64()
}

// TestZeroAdversaryMatchesFaultFree pins the fault delivery path to the
// fast path: an installed adversary that faults nothing must reproduce
// the fault-free run bit for bit, including metrics.
func TestZeroAdversaryMatchesFaultFree(t *testing.T) {
	plain, ep := runFaultGossip(t, 64, Config{Seed: 5})
	zero, ez := runFaultGossip(t, 64, Config{Seed: 5, Adversary: &Adversary{}})
	if a, b := fingerprintRecs(plain), fingerprintRecs(zero); a != b {
		t.Fatalf("zero adversary diverged from fault-free run: %016x vs %016x", a, b)
	}
	mp, mz := ep.Metrics(), ez.Metrics()
	if mp.TotalMessages != mz.TotalMessages || mp.TotalUnits != mz.TotalUnits {
		t.Errorf("metrics diverged: %+v vs %+v", mp, mz)
	}
	if mz.FaultDrops != 0 || mz.FaultDelays != 0 {
		t.Errorf("zero adversary faulted: drops=%d delays=%d", mz.FaultDrops, mz.FaultDelays)
	}
	if ep.Round() != ez.Round() {
		t.Errorf("rounds diverged: %d vs %d", ep.Round(), ez.Round())
	}
}

// TestDropAllLosesEverything: DropProb 1 discards every message, so no
// node ever receives anything and FaultDrops accounts for all traffic.
func TestDropAllLosesEverything(t *testing.T) {
	recs, eng := runFaultGossip(t, 32, Config{Seed: 3, Adversary: &Adversary{DropProb: 1}})
	for i, g := range recs {
		if len(g.recv) != 0 {
			t.Fatalf("node %d received %d messages under DropProb=1", i, len(g.recv))
		}
	}
	m := eng.Metrics()
	if m.FaultDrops != m.TotalMessages {
		t.Errorf("FaultDrops = %d, want TotalMessages = %d", m.FaultDrops, m.TotalMessages)
	}
}

// TestDropRateIsRoughlyProportional sanity-checks that an intermediate
// drop probability discards an intermediate fraction.
func TestDropRateIsRoughlyProportional(t *testing.T) {
	_, eng := runFaultGossip(t, 64, Config{Seed: 9, Adversary: &Adversary{Seed: 2, DropProb: 0.25}})
	m := eng.Metrics()
	frac := float64(m.FaultDrops) / float64(m.TotalMessages)
	if frac < 0.15 || frac > 0.35 {
		t.Errorf("drop fraction %.3f far from 0.25 (%d of %d)", frac, m.FaultDrops, m.TotalMessages)
	}
}

// oneShot sends a single message from node 0 to node 1 in Init and
// halts everyone immediately; node 1 records the arrival round.
type oneShot struct {
	arrived []int
	isZero  bool
}

func (o *oneShot) Init(ctx *Ctx) {
	if ctx.Index == 0 {
		Send(ctx, ctx.engine.IDs()[1], fvalMsg{v: 42})
	}
	ctx.Halt()
}

func (o *oneShot) Round(ctx *Ctx, inbox []Wire) {
	for range inbox {
		o.arrived = append(o.arrived, ctx.Round())
	}
	ctx.Halt()
}

// TestDelayHoldsBackAndWakes: with DelayProb 1 and DelayMax 1 a message
// normally delivered at round 1 arrives at round 2, and the engine must
// keep ticking past an empty run list while the holdback queue drains.
func TestDelayHoldsBackAndWakes(t *testing.T) {
	nodes := []Node{&oneShot{}, &oneShot{}}
	eng := New(Config{N: 2, Seed: 1, Adversary: &Adversary{DelayProb: 1, DelayMax: 1}}, nodes)
	eng.Run(10)
	got := nodes[1].(*oneShot).arrived
	if len(got) != 1 || got[0] != 2 {
		t.Fatalf("arrival rounds = %v, want [2]", got)
	}
	if d := eng.Metrics().FaultDelays; d != 1 {
		t.Errorf("FaultDelays = %d, want 1", d)
	}
}

// TestDelayMaxBoundsDelay: delays never exceed DelayMax.
func TestDelayMaxBoundsDelay(t *testing.T) {
	for _, maxD := range []int{1, 2, 5} {
		nodes := []Node{&oneShot{}, &oneShot{}}
		eng := New(Config{N: 2, Seed: 1, Adversary: &Adversary{Seed: uint64(maxD), DelayProb: 1, DelayMax: maxD}}, nodes)
		eng.Run(20)
		got := nodes[1].(*oneShot).arrived
		if len(got) != 1 {
			t.Fatalf("DelayMax=%d: arrivals %v, want exactly one", maxD, got)
		}
		if got[0] < 2 || got[0] > 1+maxD {
			t.Errorf("DelayMax=%d: arrival at round %d outside [2, %d]", maxD, got[0], 1+maxD)
		}
	}
}

// chainCounter sends its round number to the next node every round.
type chainCounter struct {
	rounds int
	recv   []recEntry
	inited bool
	done   bool
}

func (c *chainCounter) Init(ctx *Ctx) {
	c.inited = true
	c.send(ctx)
}

func (c *chainCounter) send(ctx *Ctx) {
	all := ctx.engine.IDs()
	Send(ctx, all[(ctx.Index+1)%len(all)], fvalMsg{v: uint64(ctx.Round())})
}

func (c *chainCounter) Round(ctx *Ctx, inbox []Wire) {
	for _, w := range inbox {
		c.recv = append(c.recv, recEntry{round: ctx.Round(), from: w.From, val: w.W[0]})
	}
	if ctx.Round() < c.rounds {
		c.send(ctx)
	} else {
		c.done = true
	}
}

func (c *chainCounter) Halted() bool { return c.done }

// TestCrashStopSilencesNode: a node crashed at round R delivers its
// round R-1 sends, then goes silent and unreachable.
func TestCrashStopSilencesNode(t *testing.T) {
	const n, crashAt, rounds = 4, 3, 8
	nodes := make([]Node, n)
	recs := make([]*chainCounter, n)
	for i := range nodes {
		recs[i] = &chainCounter{rounds: rounds}
		nodes[i] = recs[i]
	}
	eng := New(Config{N: n, Seed: 2, Adversary: &Adversary{
		Crashes: []Crash{{Node: 1, Round: crashAt}},
	}}, nodes)
	eng.Run(32)

	// Node 1 executes rounds < crashAt, so its final send (from round
	// crashAt-1) arrives at node 2 in round crashAt, and nothing after.
	lastFrom1 := -1
	for _, e := range recs[2].recv {
		lastFrom1 = e.round
	}
	if lastFrom1 != crashAt {
		t.Errorf("last arrival from crashed node at round %d, want %d", lastFrom1, crashAt)
	}
	// Node 1 itself receives nothing from round crashAt on.
	for _, e := range recs[1].recv {
		if e.round >= crashAt {
			t.Errorf("crashed node received a message at round %d (crash at %d)", e.round, crashAt)
		}
	}
	// Node 0 kept sending to the dead node; those messages are fault
	// drops.
	if eng.Metrics().FaultDrops == 0 {
		t.Error("no FaultDrops despite traffic to a crashed node")
	}
}

// TestCrashBeforeStartSkipsInit: Round <= 0 crashes the node before
// Init; it never participates at all.
func TestCrashBeforeStartSkipsInit(t *testing.T) {
	const n = 4
	nodes := make([]Node, n)
	recs := make([]*chainCounter, n)
	for i := range nodes {
		recs[i] = &chainCounter{rounds: 4}
		nodes[i] = recs[i]
	}
	eng := New(Config{N: n, Seed: 2, Adversary: &Adversary{
		Crashes: []Crash{{Node: 2, Round: 0}},
	}}, nodes)
	eng.Run(16)
	if recs[2].inited {
		t.Error("dead-from-start node ran Init")
	}
	if len(recs[2].recv) != 0 {
		t.Errorf("dead-from-start node received %d messages", len(recs[2].recv))
	}
	// Node 3 never hears from node 2.
	deadID := eng.IDs()[2]
	for _, e := range recs[3].recv {
		if e.from == deadID {
			t.Errorf("received message from dead-from-start node at round %d", e.round)
		}
	}
}

// bcast sends to every other node every round.
type bcast struct {
	rounds int
	recv   []recEntry
	done   bool
}

func (b *bcast) Init(ctx *Ctx) { b.send(ctx) }

func (b *bcast) send(ctx *Ctx) {
	for i, id := range ctx.engine.IDs() {
		if i != ctx.Index {
			Send(ctx, id, fvalMsg{v: uint64(ctx.Round())})
		}
	}
}

func (b *bcast) Round(ctx *Ctx, inbox []Wire) {
	for _, w := range inbox {
		b.recv = append(b.recv, recEntry{round: ctx.Round(), from: w.From, val: w.W[0]})
	}
	if ctx.Round() < b.rounds {
		b.send(ctx)
	} else {
		b.done = true
	}
}

func (b *bcast) Halted() bool { return b.done }

// TestPartitionCutsAndHeals: during the partition window cross-cut
// traffic is lost in both directions; before and after, it flows.
func TestPartitionCutsAndHeals(t *testing.T) {
	const n, from, until, rounds = 4, 2, 4, 6
	nodes := make([]Node, n)
	recs := make([]*bcast, n)
	for i := range nodes {
		recs[i] = &bcast{rounds: rounds}
		nodes[i] = recs[i]
	}
	eng := New(Config{N: n, Seed: 4, Adversary: &Adversary{
		Partitions: []Partition{{From: from, Until: until, Side: []int{0, 1}}},
	}}, nodes)
	eng.Run(32)

	side := func(i int) int {
		if i <= 1 {
			return 0
		}
		return 1
	}
	idx := make(map[ids.ID]int, n)
	for i, id := range eng.IDs() {
		idx[id] = i
	}
	for i, rec := range recs {
		// Expected arrival rounds per sender: every round 1..rounds,
		// except cross-cut arrivals in [from, until).
		got := map[int]map[int]bool{} // sender -> rounds seen
		for _, e := range rec.recv {
			s := idx[e.from]
			if got[s] == nil {
				got[s] = map[int]bool{}
			}
			got[s][e.round] = true
		}
		for s := 0; s < n; s++ {
			if s == i {
				continue
			}
			cross := side(s) != side(i)
			for r := 1; r <= rounds; r++ {
				want := !(cross && r >= from && r < until)
				if got[s][r] != want {
					t.Errorf("node %d from %d round %d: delivered=%v want %v",
						i, s, r, got[s][r], want)
				}
			}
		}
	}
}

// TestDelayedMessageHitsNewPartition: a message held back by the delay
// adversary is re-checked at its release round, so a partition that
// formed while it was in flight still discards it.
func TestDelayedMessageHitsNewPartition(t *testing.T) {
	nodes := []Node{&oneShot{}, &oneShot{}}
	// The Init message would arrive at round 1; the delay pushes its
	// release into rounds 2..4, all inside the partition window.
	eng := New(Config{N: 2, Seed: 1, Adversary: &Adversary{
		DelayProb:  1,
		DelayMax:   3,
		Partitions: []Partition{{From: 2, Until: 5, Side: []int{0}}},
	}}, nodes)
	eng.Run(20)
	if got := nodes[1].(*oneShot).arrived; len(got) != 0 {
		t.Fatalf("delayed message crossed a partition formed in flight: arrivals %v", got)
	}
	m := eng.Metrics()
	if m.FaultDelays != 1 || m.FaultDrops != 1 {
		t.Errorf("FaultDelays=%d FaultDrops=%d, want 1 and 1", m.FaultDelays, m.FaultDrops)
	}
}

// TestProbThreshold pins the probability-to-threshold mapping the fate
// hash compares against: exact at the endpoints, monotone, and
// saturating (never an implementation-defined float conversion).
func TestProbThreshold(t *testing.T) {
	if got := probThreshold(0); got != 0 {
		t.Errorf("probThreshold(0) = %d", got)
	}
	if got := probThreshold(1); got != ^uint64(0) {
		t.Errorf("probThreshold(1) = %d", got)
	}
	if got := probThreshold(2); got != ^uint64(0) {
		t.Errorf("probThreshold(2) = %d", got)
	}
	half := probThreshold(0.5)
	if half < 1<<62 || half > 1<<63 {
		t.Errorf("probThreshold(0.5) = %d, want ~2^63", half)
	}
	almost := probThreshold(math.Nextafter(1, 0))
	if almost <= half {
		t.Errorf("probThreshold not monotone near 1: %d <= %d", almost, half)
	}
}

// TestFaultDeterminismAcrossWorkers extends the engine's determinism
// sweep to the fault plane: a seeded adversary with every fault type
// active must produce identical receptions and metrics at all worker
// counts, single-goroutine execution (workers 1) included.
func TestFaultDeterminismAcrossWorkers(t *testing.T) {
	adv := &Adversary{
		Seed:      11,
		DropProb:  0.1,
		DelayProb: 0.15,
		DelayMax:  3,
		Crashes:   []Crash{{Node: 3, Round: 5}, {Node: 7, Round: 0}, {Node: 12, Round: 9}},
		Partitions: []Partition{
			{From: 4, Until: 7, Side: []int{0, 1, 2, 3, 4, 5}},
		},
	}
	var wantFP uint64
	var wantMetrics string
	for _, w := range []int{1, 2, 3, 4, 8, 16} {
		recs, eng := runFaultGossip(t, 48, Config{Seed: 21, Workers: w, Adversary: adv})
		fp := fingerprintRecs(recs)
		m := eng.Metrics()
		ms := fmt.Sprintf("msgs=%d units=%d fdrops=%d fdelays=%d rounds=%d recv=%v",
			m.TotalMessages, m.TotalUnits, m.FaultDrops, m.FaultDelays, eng.Round(), m.PerNodeRecv)
		if w == 1 {
			wantFP, wantMetrics = fp, ms
			continue
		}
		if fp != wantFP {
			t.Errorf("workers=%d: reception fingerprint %016x != workers=1 %016x", w, fp, wantFP)
		}
		if ms != wantMetrics {
			t.Errorf("workers=%d: metrics diverged:\n got %s\nwant %s", w, ms, wantMetrics)
		}
	}
}

// TestFaultSequentialMatchesParallelConfig pins single-goroutine
// execution (workers 1) to the sharded fault path as well.
func TestFaultSequentialMatchesParallelConfig(t *testing.T) {
	adv := &Adversary{Seed: 1, DropProb: 0.2, DelayProb: 0.2, DelayMax: 2}
	seqRecs, _ := runFaultGossip(t, 32, Config{Seed: 8, Workers: 1, Adversary: adv})
	parRecs, _ := runFaultGossip(t, 32, Config{Seed: 8, Workers: 4, Adversary: adv})
	if a, b := fingerprintRecs(seqRecs), fingerprintRecs(parRecs); a != b {
		t.Fatalf("sequential fault run diverged from parallel: %016x vs %016x", a, b)
	}
}
