package sim

import (
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"slices"
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

// gossipRec sends burst(round, index) messages to pseudo-random peers
// every round for `rounds` rounds, recording everything it receives. It
// exercises the delivery path with enough traffic that per-message
// fates matter. A scribbling node overwrites its inbox once it has
// recorded it, as the Node contract allows.
type gossipRec struct {
	burst    func(round, index int) int
	rounds   int
	scribble bool
	inited   bool
	recv     []recEntry
	done     bool
}

func (g *gossipRec) Init(ctx *Ctx) {
	g.inited = true
	g.emit(ctx)
}

func (g *gossipRec) emit(ctx *Ctx) {
	all := ctx.engine.IDs()
	for k := g.burst(ctx.Round(), ctx.Index); k > 0; k-- {
		to := all[ctx.Rand.Intn(len(all))]
		Send(ctx, to, fvalMsg{v: uint64(ctx.Round())<<16 | uint64(ctx.Index)})
	}
}

func (g *gossipRec) Round(ctx *Ctx, inbox []Wire) {
	for _, w := range inbox {
		g.recv = append(g.recv, recEntry{round: ctx.Round(), from: w.From, val: w.W[0]})
	}
	if g.scribble {
		for k := range inbox {
			inbox[k] = Wire{From: ctx.ID, Kind: 0xffff, Units: -1, W: [4]uint64{^uint64(0), 1, 2, 3}}
		}
	}
	if ctx.Round() < g.rounds {
		g.emit(ctx)
	} else {
		g.done = true
	}
}

func (g *gossipRec) Halted() bool { return g.done }

// fanout is the burst of a gossip that sends k messages every round.
func fanout(k int) func(round, index int) int {
	return func(int, int) int { return k }
}

// newGossip builds n gossipRec nodes.
func newGossip(n, rounds int, burst func(round, index int) int) ([]Node, []*gossipRec) {
	nodes := make([]Node, n)
	recs := make([]*gossipRec, n)
	for i := range nodes {
		recs[i] = &gossipRec{burst: burst, rounds: rounds}
		nodes[i] = recs[i]
	}
	return nodes, recs
}

func runFaultGossip(t *testing.T, n int, cfg Config) ([]*gossipRec, *Engine) {
	t.Helper()
	cfg.N = n
	nodes, recs := newGossip(n, 12, fanout(3))
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
	// The sender paid for every lost message; the receiving side never
	// saw one.
	var sent int64
	for i := range recs {
		sent += m.PerNodeSent[i]
		if m.PerNodeRecv[i] != 0 {
			t.Errorf("node %d: PerNodeRecv = %d for lost messages", i, m.PerNodeRecv[i])
		}
	}
	// 32 nodes × fanout 3 × 12 emissions.
	if want := int64(32 * 3 * 12); sent != want || m.TotalUnits != want || m.TotalMessages != want {
		t.Errorf("sent %d, TotalUnits %d, TotalMessages %d, want %d each", sent, m.TotalUnits, m.TotalMessages, want)
	}
	if m.MaxRoundRecv() != 0 {
		t.Errorf("MaxRoundRecv = %d for lost messages", m.MaxRoundRecv())
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
// halts everyone immediately; node 1 records the arrival round, and
// every node how often it was ticked.
type oneShot struct {
	arrived []int
	ticks   int
}

func (o *oneShot) Init(ctx *Ctx) {
	if ctx.Index == 0 {
		Send(ctx, ctx.engine.IDs()[1], fvalMsg{v: 42})
	}
	ctx.Halt()
}

func (o *oneShot) Round(ctx *Ctx, inbox []Wire) {
	o.ticks++
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
// formed — or a destination that died — while it was in flight still
// claims it: exactly one fault drop, nobody woken, and the run over as
// soon as the holdback queue has drained.
func TestDelayedMessageHitsNewPartition(t *testing.T) {
	// The Init message would arrive at round 1; the delay pushes its
	// release into rounds 2..4, all inside the partition window and all
	// after the crash.
	for name, adv := range map[string]Adversary{
		"partition": {Partitions: []Partition{{From: 2, Until: 5, Side: []int{0}}}},
		"crash":     {Crashes: []Crash{{Node: 1, Round: 2}}},
	} {
		adv.DelayProb, adv.DelayMax = 1, 3
		nodes := []Node{&oneShot{}, &oneShot{}}
		eng := New(Config{N: 2, Seed: 1, Adversary: &adv}, nodes)
		eng.Run(20)
		if got := nodes[1].(*oneShot).arrived; len(got) != 0 {
			t.Fatalf("%s: delayed message survived its release round: arrivals %v", name, got)
		}
		m := eng.Metrics()
		if m.FaultDelays != 1 || m.FaultDrops != 1 {
			t.Errorf("%s: FaultDelays=%d FaultDrops=%d, want 1 and 1", name, m.FaultDelays, m.FaultDrops)
		}
		if a, b := nodes[0].(*oneShot).ticks, nodes[1].(*oneShot).ticks; a != 0 || b != 0 {
			t.Errorf("%s: a lost message woke somebody: ticks %d and %d", name, a, b)
		}
		// The message is claimed in the delivery pass of the round before
		// its due round, 2..4.
		if r := eng.Round(); r < 1 || r > 3 {
			t.Errorf("%s: run took %d rounds, want 1..3 (the queue drains by then)", name, r)
		}
		if m.TotalMessages != 1 || m.PerNodeSent[0] != 1 || m.PerNodeRecv[1] != 0 {
			t.Errorf("%s: msgs=%d sent[0]=%d recv[1]=%d, want 1, 1, 0", name, m.TotalMessages, m.PerNodeSent[0], m.PerNodeRecv[1])
		}
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

// everyFault is an adversary with every fault type active.
func everyFault() *Adversary {
	return &Adversary{
		Seed:      11,
		DropProb:  0.1,
		DelayProb: 0.15,
		DelayMax:  3,
		Crashes:   []Crash{{Node: 3, Round: 5}, {Node: 7, Round: 0}, {Node: 12, Round: 9}},
		Partitions: []Partition{
			{From: 4, Until: 7, Side: []int{0, 1, 2, 3, 4, 5}},
		},
	}
}

// TestFaultDeterminismAcrossWorkers extends the engine's determinism
// sweep to the fault plane: a seeded adversary with every fault type
// active must produce identical receptions and metrics at all worker
// counts, single-goroutine execution (workers 1) included.
func TestFaultDeterminismAcrossWorkers(t *testing.T) {
	adv := everyFault()
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

// specResult is what a run is held to beyond its receptions.
type specResult struct {
	msgs, units, faultDrops, faultDelays, recvDrops int64
	sent, recv                                      []int64
	maxRecv                                         []int
	rounds                                          int
}

// specRun is the specification of delivery under an adversary, as one
// sequential loop with no shards, arenas or active set. Per delivery
// round r it takes every queued message in (sender index, post-cap
// ordinal) order: the message is lost if its destination is dead at r,
// a cut separates the two ends at r, or its fate drops it, and parked
// with due = r + delay if its fate delays it. A node's inbox is the
// parked messages due at r, in parking order and re-checked against
// crashes and cuts at r, then the fresh ones; the receive cap samples
// what is left. The engine it builds serves only as the nodes' Ctxs
// (identifiers, streams, outboxes) and calls them the way a node pass
// does, as one chunk; it never runs.
func specRun(cfg Config, nodes []Node, maxRounds int) specResult {
	e := New(cfg, nodes)
	adv, n := e.adv, int32(cfg.N)
	if adv == nil {
		adv = compileAdversary(&Adversary{}, cfg.N) // faults nothing
	}
	res := specResult{sent: make([]int64, n), recv: make([]int64, n)}
	var held []heldWire
	var perm []int
	var keep []bool
	ob := &e.shards[0].blocks
	for i := int32(0); i < n; i++ {
		if !adv.dead(i, 0) {
			e.call(ob, i, nil)
		}
	}
	for {
		r := int32(e.round + 1)
		inbox := make([][]Wire, n)
		parked := held
		held = nil
		for _, h := range parked {
			switch {
			case h.due != r:
				held = append(held, h)
			case adv.dead(h.dest, r) || adv.cut(h.from, h.dest, r):
				res.faultDrops++
			default:
				inbox[h.dest] = append(inbox[h.dest], h.w)
			}
		}
		for i := int32(0); i < n; i++ {
			ctx := &e.ctxs[i]
			sent := ctx.sentUnits
			ctx.sentUnits = 0
			if cfg.SendCap > 0 && sent > cfg.SendCap {
				sent = capOutbox(ctx, cfg.SendCap, &perm, &keep)
			}
			res.sent[i] += int64(sent)
			res.units += int64(sent)
			outW, outD := ctx.drain()
			res.msgs += int64(len(outW))
			for k, w := range outW {
				d := outD[k]
				drop, delay := adv.fate(r, i, k)
				switch {
				case adv.dead(d, r) || adv.cut(i, d, r) || drop:
					res.faultDrops++
				case delay > 0:
					held = append(held, heldWire{w: w, from: i, dest: d, due: r + delay})
					res.faultDelays++
				default:
					inbox[d] = append(inbox[d], w)
				}
			}
		}
		maxRecv, busy := 0, len(held) > 0
		run := make([]bool, n)
		for j := int32(0); j < n; j++ {
			in, units := inbox[j], 0
			for _, w := range in {
				units += int(w.Units)
			}
			if cfg.RecvCap > 0 && units > cfg.RecvCap {
				keep := chooseWithin(len(in), cfg.RecvCap, func(k int) int { return int(in[k].Units) }, e.ctxs[j].Rand, &perm, &keep)
				inbox[j], units = nil, 0
				for k, w := range in {
					if keep[k] {
						inbox[j] = append(inbox[j], w)
						units += int(w.Units)
					}
				}
				res.recvDrops++
			}
			res.recv[j] += int64(units)
			maxRecv = max(maxRecv, units)
			// A live node runs unless it has halted and has no mail.
			run[j] = !adv.dead(j, r) && (len(inbox[j]) > 0 || !e.halted(j))
			busy = busy || run[j]
		}
		res.maxRecv = append(res.maxRecv, maxRecv)
		if !busy || e.round == maxRounds {
			res.rounds = e.round
			return res
		}
		e.round++
		ob.rewind()
		for j := int32(0); j < n; j++ {
			if run[j] {
				e.call(ob, j, inbox[j])
			}
		}
	}
}

// matchSpec runs one gossip, k sends a round, on the engine and on
// specRun and holds every node's reception list and the run's
// accounting to the specification.
func matchSpec(t *testing.T, name string, cfg Config, k, rounds int) {
	t.Helper()
	matchBurst(t, name, cfg, rounds, fanout(k))
}

// matchBurst is matchSpec for a gossip whose nodes send burst(round,
// index) messages a round. It returns the nodes and the engine it ran.
func matchBurst(t *testing.T, name string, cfg Config, rounds int, burst func(round, index int) int) ([]*gossipRec, *Engine) {
	t.Helper()
	specNodes, want := newGossip(cfg.N, rounds, burst)
	spec := specRun(cfg, specNodes, 64)
	nodes, got := newGossip(cfg.N, rounds, burst)
	eng := New(cfg, nodes)
	eng.Run(64)
	for i := range got {
		if got[i].inited != want[i].inited || !slices.Equal(got[i].recv, want[i].recv) {
			t.Fatalf("%s: node %d received\n %v\nspecification:\n %v", name, i, got[i].recv, want[i].recv)
		}
	}
	m := eng.Metrics()
	have := specResult{
		msgs: m.TotalMessages, units: m.TotalUnits, faultDrops: m.FaultDrops, faultDelays: m.FaultDelays,
		recvDrops: m.RecvDrops, sent: m.PerNodeSent, recv: m.PerNodeRecv, maxRecv: m.RoundMaxRecv, rounds: eng.Round(),
	}
	if !reflect.DeepEqual(have, spec) {
		t.Errorf("%s: accounting\n %+v\nspecification:\n %+v", name, have, spec)
	}
	return got, eng
}

// TestFaultDeliveryMatchesSpec holds the engine's one delivery path to
// specRun on every fault type alone and together, with fewer nodes than
// workers (2 and 5), shards of unequal size (257, and 48 at 7 workers),
// sender ranges that straddle shard boundaries (the run list thins out
// as nodes crash and halt, while the shards stay put) and a single
// shard.
func TestFaultDeliveryMatchesSpec(t *testing.T) {
	parts := []Partition{
		{From: 2, Until: 6, Side: []int{0, 1, 2, 3, 4, 5}},
		{From: 4, Until: 9, Side: []int{1, 5, 40, 41, 200, 256}},
	}
	crashes := []Crash{{Node: 0, Round: 0}, {Node: 1, Round: 6}, {Node: 30, Round: 3}, {Node: 256, Round: 9}}
	all := Adversary{Seed: 5, DropProb: 0.1, DelayProb: 0.2, DelayMax: 3, Crashes: crashes, Partitions: parts}
	cases := []struct {
		name             string
		adv              Adversary
		sendCap, recvCap int
	}{
		{"zero", Adversary{}, 0, 0},
		{"drop", Adversary{Seed: 1, DropProb: 0.3}, 0, 0},
		{"delay1", Adversary{Seed: 2, DelayProb: 0.4, DelayMax: 1}, 0, 0},
		{"delay3", Adversary{Seed: 3, DelayProb: 0.4, DelayMax: 3}, 0, 0},
		{"crash", Adversary{Crashes: crashes}, 0, 0},
		{"partitions", Adversary{Partitions: parts}, 0, 0},
		{"all", all, 0, 0},
		// A sender over the cap is capped first; its survivors' fates go
		// by their post-cap ordinals, and a lost message is not sampled
		// by its destination's receive cap.
		{"all-capped", all, 2, 3},
	}
	for _, n := range []int{2, 5, 48, 257} {
		for _, w := range []int{1, 2, 3, 7, 16} {
			for _, c := range cases {
				adv := c.adv
				cfg := Config{N: n, Seed: 21, Workers: w, SendCap: c.sendCap, RecvCap: c.recvCap, Adversary: &adv}
				matchSpec(t, fmt.Sprintf("%s/n=%d/workers=%d", c.name, n, w), cfg, 3, 12)
			}
		}
	}
}

// TestOutboxBlockBoundaries holds delivery to specRun and to the
// Workers: 1 run, metrics included, where outboxes cross the blocks
// they are carved from. With 16 nodes a block is 4·⌈16/w⌉ wires — 64,
// 32, 24 and 4 at workers 1, 2, 3 and 16 — and a node pass of a full
// run list gives chunk q the nodes of shard q, so the bursts below put
// a boundary exactly where each case says, and specRun's one chunk
// meets them at other places again.
func TestOutboxBlockBoundaries(t *testing.T) {
	const n = 16
	for _, c := range []struct {
		name  string
		burst func(round, index int) int
	}{
		// In round 2 node 5 sends more than a block at every worker count:
		// its outbox moves on to blocks allocated for it, each twice the
		// burst that overflowed the last.
		{"node-over-block", func(round, index int) int {
			if index == 5 && round == 2 {
				return 3*64 + 1
			}
			return 1
		}},
		// The first half send 8 each and fill a block exactly (8, 4 and 3
		// senders at workers 1, 2 and 3) before the next sender's first
		// message, which has to start the next block. (Under the adversary
		// node 7 never runs, and the boundary falls elsewhere.)
		{"chunk-fills-block", func(_, index int) int {
			if index < n/2 {
				return 8
			}
			return 2
		}},
		// Every third node sends more than half a block at workers 1, the
		// others nothing: each burst but the first starts in the middle of
		// a block, overflows it and moves on, past senders with no outbox.
		{"silent-between-bursts", func(_, index int) int {
			if index%3 == 0 {
				return 40
			}
			return 0
		}},
	} {
		for _, cc := range []struct {
			name             string
			sendCap, recvCap int
			adv              *Adversary
		}{
			{"plain", 0, 0, nil},
			{"capped", 24, 30, nil},
			{"adversary", 0, 0, everyFault()},
			{"adversary-capped", 24, 30, everyFault()},
		} {
			var want uint64
			var wantM *Metrics
			for _, w := range []int{1, 2, 3, 16} {
				name := fmt.Sprintf("%s/%s/workers=%d", c.name, cc.name, w)
				cfg := Config{N: n, Seed: 13, Workers: w, SendCap: cc.sendCap, RecvCap: cc.recvCap, Adversary: cc.adv}
				recs, eng := matchBurst(t, name, cfg, 6, c.burst)
				fp, m := fingerprintRecs(recs), eng.Metrics()
				if w == 1 {
					want, wantM = fp, m
					if len(eng.shards[0].blocks.list) < 2 {
						t.Errorf("%s: every outbox fitted one block; the case tests nothing", name)
					}
					continue
				}
				if fp != want || !reflect.DeepEqual(m, wantM) {
					t.Errorf("%s: receptions %016x and metrics\n %+v\ndiffer from workers=1: %016x\n %+v", name, fp, m, want, wantM)
				}
			}
		}
	}
}

// TestInboxOverwriteIsHarmless: a node may overwrite its own inbox
// during Round. Gossip nodes that scribble over theirs once they have
// read it receive what plain ones do, with identical metrics, at every
// worker count from 1 to 16, under every fault type and both caps.
func TestInboxOverwriteIsHarmless(t *testing.T) {
	for _, capped := range []int{0, 4} {
		cfg := Config{N: 257, Seed: 21, Workers: 1, SendCap: capped, RecvCap: capped, Adversary: everyFault()}
		plain, pe := runFaultGossip(t, cfg.N, cfg)
		for w := 1; w <= 16; w++ {
			cfg.Workers = w
			nodes, recs := newGossip(cfg.N, 12, fanout(3))
			for _, g := range recs {
				g.scribble = true
			}
			eng := New(cfg, nodes)
			eng.Run(64)
			if a, b := fingerprintRecs(recs), fingerprintRecs(plain); a != b {
				t.Errorf("cap=%d workers=%d: scribbling nodes received %016x, plain ones %016x", capped, w, a, b)
			}
			if !reflect.DeepEqual(eng.Metrics(), pe.Metrics()) || eng.Round() != pe.Round() {
				t.Errorf("cap=%d workers=%d: metrics diverged from the plain run:\n %+v\n %+v", capped, w, eng.Metrics(), pe.Metrics())
			}
		}
	}
}

// TestFaultPlaneGolden pins the whole faulted path, receive cap
// included, to constants recorded at commit 2dff774, where delivery
// under an adversary was still a fork of its own.
func TestFaultPlaneGolden(t *testing.T) {
	for _, g := range []struct {
		n, cap                         int
		fp                             uint64
		msgs, drops, delays, recvDrops int64
		rounds                         int
	}{
		{48, 0, 0x15dd8c59087e5e12, 1662, 304, 208, 0, 15},
		{257, 0, 0xdab852aac76940a7, 9186, 1087, 1250, 0, 15},
		{257, 4, 0x37d347a3fca92f3d, 9186, 1088, 1245, 377, 15},
	} {
		for _, w := range []int{1, 2, 3, 16} {
			recs, eng := runFaultGossip(t, g.n, Config{Seed: 21, Workers: w, SendCap: g.cap, RecvCap: g.cap, Adversary: everyFault()})
			m := eng.Metrics()
			if fp := fingerprintRecs(recs); fp != g.fp || m.TotalMessages != g.msgs || m.FaultDrops != g.drops ||
				m.FaultDelays != g.delays || m.RecvDrops != g.recvDrops || eng.Round() != g.rounds {
				t.Errorf("n=%d cap=%d workers=%d: fingerprint %016x, %d messages, %d fault drops, %d delays, %d recv drops, %d rounds; recorded %016x, %d, %d, %d, %d, %d",
					g.n, g.cap, w, fp, m.TotalMessages, m.FaultDrops, m.FaultDelays, m.RecvDrops, eng.Round(),
					g.fp, g.msgs, g.drops, g.delays, g.recvDrops, g.rounds)
			}
		}
	}
}

// FuzzFaultDelivery is TestFaultDeliveryMatchesSpec on generated
// schedules: a gossip of 2 + seed%47 nodes (fanout 1..3, 6 rounds) at
// 1 + workers%17 workers under drop and delay probabilities drop/255 and
// delay/255, delays up to 1 + delayMax%4 rounds, two crashes (a byte of
// crashes each: round in the low nibble, 15 for none, node position in
// sixteenths in the high one) and one partition (cut: first round in
// bits 0–2, length in bits 3–5 with 0 for none, size of the side — a
// prefix of the nodes — in the rest). Bit 8 of seed turns on send and
// receive caps of 2. Its seed corpus is committed under
// testdata/fuzz/FuzzFaultDelivery and runs with the tier-1 tests.
func FuzzFaultDelivery(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed, advSeed uint64, drop, delay, delayMax, workers uint8, crashes, cut uint16) {
		n := 2 + int(seed%47)
		adv := Adversary{
			Seed: advSeed, DropProb: float64(drop) / 255,
			DelayProb: float64(delay) / 255, DelayMax: 1 + int(delayMax)%4,
		}
		for c := crashes; c != 0; c >>= 8 {
			if round := int(c & 15); round != 15 {
				adv.Crashes = append(adv.Crashes, Crash{Node: int(c>>4&15) * n / 16, Round: round})
			}
		}
		if length := int(cut >> 3 & 7); length > 0 {
			side := make([]int, 1+int(cut>>6)%n)
			for i := range side {
				side[i] = i
			}
			adv.Partitions = []Partition{{From: int(cut & 7), Until: int(cut&7) + length, Side: side}}
		}
		cfg := Config{N: n, Seed: seed, Workers: 1 + int(workers)%17, Adversary: &adv}
		if seed&(1<<8) != 0 {
			cfg.SendCap, cfg.RecvCap = 2, 2
		}
		matchSpec(t, fmt.Sprintf("n=%d workers=%d %+v", n, cfg.Workers, adv), cfg, 1+int(seed>>9)%3, 6)
	})
}
