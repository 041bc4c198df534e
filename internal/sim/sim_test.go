package sim

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"overlay/internal/ids"
	"overlay/internal/rng"
)

// Test wire kinds and payloads.
const (
	kindVal uint16 = 1 + iota
	kindWide
)

// valMsg is a one-word wire payload carrying a counter or token.
type valMsg struct{ v uint64 }

func (m valMsg) Encode(w *Wire) {
	w.Kind = kindVal
	w.W[0] = m.v
}

func (m *valMsg) Decode(w Wire) { m.v = w.W[0] }

// wideMsg is a wire-native multi-unit payload (an ℓ-identifier token
// in the paper's accounting): Encode declares its size on Wire.Units.
type wideMsg struct {
	v     uint64
	units int32
}

func (m wideMsg) Encode(w *Wire) {
	w.Kind = kindWide
	w.W[0] = m.v
	w.Units = m.units
}

func (m *wideMsg) Decode(w Wire) {
	m.v = w.W[0]
	m.units = w.Units
}

// chainNode floods a counter down a chain of nodes by index order:
// node i sends its value +1 to node i+1 once it has received.
type chainNode struct {
	all      []ids.ID
	received int
	halted   bool
}

func (c *chainNode) Init(ctx *Ctx) {
	if ctx.Index == 0 {
		c.received = 1
		Send(ctx, c.all[1], valMsg{1})
		c.halted = true
	}
}

func (c *chainNode) Round(ctx *Ctx, inbox []Wire) {
	for _, w := range inbox {
		var m valMsg
		m.Decode(w)
		c.received = int(m.v)
		if ctx.Index+1 < len(c.all) {
			Send(ctx, c.all[ctx.Index+1], valMsg{m.v + 1})
		}
		c.halted = true
	}
}

func (c *chainNode) Halted() bool { return c.halted }

func TestChainDelivery(t *testing.T) {
	const n = 10
	nodes := make([]Node, n)
	chains := make([]*chainNode, n)
	for i := range nodes {
		chains[i] = &chainNode{}
		nodes[i] = chains[i]
	}
	e := New(Config{N: n, Seed: 1}, nodes)
	for i := range chains {
		chains[i].all = e.IDs()
	}
	rounds := e.Run(100)
	if rounds != n-1 {
		t.Errorf("rounds = %d, want %d", rounds, n-1)
	}
	// Node 0 sets 1 for itself at Init; node i >= 1 receives value i.
	for i, c := range chains {
		want := i
		if i == 0 {
			want = 1
		}
		if c.received != want {
			t.Errorf("node %d received %d, want %d", i, c.received, want)
		}
	}
	if e.Metrics().TotalMessages != n-1 {
		t.Errorf("total messages = %d, want %d", e.Metrics().TotalMessages, n-1)
	}
}

// spamNode sends `count` wire-native messages at Init and then runs
// one round to drain its inbox, checking the payloads arrive intact.
type spamNode struct {
	target ids.ID
	count  int
	got    int
	rounds int
	badAny int
}

func (s *spamNode) Init(ctx *Ctx) {
	for i := 0; i < s.count; i++ {
		Send(ctx, s.target, valMsg{uint64(i)})
	}
}

func (s *spamNode) Round(ctx *Ctx, inbox []Wire) {
	for _, w := range inbox {
		var m valMsg
		m.Decode(w)
		if w.Kind != kindVal || m.v != w.W[0] {
			s.badAny++
		}
	}
	s.got += len(inbox)
	s.rounds++
}

func (s *spamNode) Halted() bool { return s.rounds >= 1 }

func TestRecvCapDropsExcess(t *testing.T) {
	// 5 senders x 4 messages = 20 at one receiver with RecvCap 7.
	const senders, per, cap = 5, 4, 7
	nodes := make([]Node, senders+1)
	spams := make([]*spamNode, senders+1)
	for i := range nodes {
		spams[i] = &spamNode{count: 0}
		nodes[i] = spams[i]
	}
	e := New(Config{N: senders + 1, Seed: 3, RecvCap: cap}, nodes)
	target := e.IDs()[senders]
	for i := 0; i < senders; i++ {
		spams[i].target = target
		spams[i].count = per
	}
	spams[senders].target = e.IDs()[0] // self-target unused
	e.Run(2)
	if got := spams[senders].got; got != cap {
		t.Errorf("receiver got %d messages, want exactly cap %d", got, cap)
	}
	if spams[senders].badAny != 0 {
		t.Errorf("%d payloads arrived corrupted", spams[senders].badAny)
	}
	if e.Metrics().RecvDrops != 1 {
		t.Errorf("RecvDrops = %d, want 1", e.Metrics().RecvDrops)
	}
}

func TestSendCapEnforced(t *testing.T) {
	nodes := []Node{&spamNode{count: 10}, &spamNode{}}
	e := New(Config{N: 2, Seed: 5, SendCap: 4}, nodes)
	nodes[0].(*spamNode).target = e.IDs()[1]
	nodes[1].(*spamNode).target = e.IDs()[0]
	e.Run(2)
	if got := nodes[1].(*spamNode).got; got != 4 {
		t.Errorf("receiver got %d, want 4 (send cap)", got)
	}
	if e.Metrics().SendCapViolations != 1 {
		t.Errorf("SendCapViolations = %d, want 1", e.Metrics().SendCapViolations)
	}
}

// sizedSender sends one big wire-native payload, then runs one round
// to drain its inbox before halting.
type sizedSender struct {
	target ids.ID
	units  int
	got    int
	rounds int
}

func (s *sizedSender) Init(ctx *Ctx) {
	if s.units > 0 {
		Send(ctx, s.target, wideMsg{v: 1, units: int32(s.units)})
	}
}

func (s *sizedSender) Round(ctx *Ctx, inbox []Wire) {
	s.got += len(inbox)
	s.rounds++
}
func (s *sizedSender) Halted() bool { return s.rounds >= 1 }

func TestSizedPayloadAccounting(t *testing.T) {
	nodes := []Node{&sizedSender{units: 5}, &sizedSender{}}
	e := New(Config{N: 2, Seed: 7}, nodes)
	nodes[0].(*sizedSender).target = e.IDs()[1]
	nodes[1].(*sizedSender).target = e.IDs()[0]
	e.Run(1)
	m := e.Metrics()
	if m.TotalUnits != 5 {
		t.Errorf("TotalUnits = %d, want 5", m.TotalUnits)
	}
	if m.TotalMessages != 1 {
		t.Errorf("TotalMessages = %d, want 1", m.TotalMessages)
	}
	if m.PerNodeSent[0] != 5 || m.PerNodeRecv[1] != 5 {
		t.Errorf("per-node units: sent=%v recv=%v", m.PerNodeSent, m.PerNodeRecv)
	}
}

func TestSizedPayloadBlockedByRecvCap(t *testing.T) {
	// A 5-unit payload cannot fit a 4-unit receive cap and is dropped.
	nodes := []Node{&sizedSender{units: 5}, &sizedSender{}}
	e := New(Config{N: 2, Seed: 7, RecvCap: 4}, nodes)
	nodes[0].(*sizedSender).target = e.IDs()[1]
	nodes[1].(*sizedSender).target = e.IDs()[0]
	e.Run(1)
	if got := nodes[1].(*sizedSender).got; got != 0 {
		t.Errorf("oversized payload delivered (%d msgs)", got)
	}
}

// gossipNode floods a random token (fanout of them, at least one) to
// stress determinism checks.
type gossipNode struct {
	peers  []ids.ID
	fanout int
	sum    uint64
	turns  int
}

func (g *gossipNode) Init(ctx *Ctx) {
	g.send(ctx)
}

func (g *gossipNode) Round(ctx *Ctx, inbox []Wire) {
	for _, w := range inbox {
		var m valMsg
		m.Decode(w)
		g.sum += m.v
	}
	g.turns++
	if g.turns < 5 {
		g.send(ctx)
	}
}

func (g *gossipNode) send(ctx *Ctx) {
	for k := 0; k < max(g.fanout, 1); k++ {
		to := g.peers[ctx.Rand.Intn(len(g.peers))]
		Send(ctx, to, valMsg{ctx.Rand.Uint64()})
	}
}

func (g *gossipNode) Halted() bool { return g.turns >= 5 }

func runGossip(seed uint64, workers int) []uint64 {
	const n = 128
	nodes := make([]Node, n)
	gs := make([]*gossipNode, n)
	for i := range nodes {
		gs[i] = &gossipNode{}
		nodes[i] = gs[i]
	}
	e := New(Config{N: n, Seed: seed, Workers: workers}, nodes)
	for i := range gs {
		gs[i].peers = e.IDs()
	}
	e.Run(10)
	sums := make([]uint64, n)
	for i, g := range gs {
		sums[i] = g.sum
	}
	return sums
}

func TestDeterminismAcrossExecutionModes(t *testing.T) {
	a := runGossip(99, 0)
	b := runGossip(99, 1)
	c := runGossip(100, 1)
	diff := false
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("parallel vs sequential diverged at node %d", i)
		}
		if a[i] != c[i] {
			diff = true
		}
	}
	if !diff {
		t.Error("different seeds produced identical runs")
	}
}

// runGossipMetrics runs the gossip protocol, fanout sends a turn, for
// rounds rounds under cfg and returns the per-node sums plus the full
// metrics.
func runGossipMetrics(cfg Config, fanout, rounds int) ([]uint64, *Metrics) {
	nodes := make([]Node, cfg.N)
	gs := make([]*gossipNode, cfg.N)
	for i := range nodes {
		gs[i] = &gossipNode{fanout: fanout}
		nodes[i] = gs[i]
	}
	e := New(cfg, nodes)
	for i := range gs {
		gs[i].peers = e.IDs()
	}
	e.Run(rounds)
	sums := make([]uint64, cfg.N)
	for i, g := range gs {
		sums[i] = g.sum
	}
	return sums, e.Metrics()
}

// TestShardedDeliveryMatchesSequential is the guardrail for the
// sharded delivery: the sequential path and the parallel one (with the
// worker team forced on) must produce identical node states and
// bit-for-bit identical Metrics for the same seed. The worker counts
// make sender ranges straddle destination-shard boundaries (7 and 16 do
// not divide 256), run more workers than nodes (n = 5 at 16 workers)
// and leave the last shard short (n = 257); the configurations add
// caps and a delaying adversary, whose held messages cross from the
// ranges to the shards.
func TestShardedDeliveryMatchesSequential(t *testing.T) {
	adv := &Adversary{Seed: 3, DropProb: 0.05, DelayProb: 0.3, DelayMax: 3,
		Crashes: []Crash{{Node: 2, Round: 4}}}
	for _, c := range []struct {
		name string
		cfg  Config
	}{
		{"plain", Config{}},
		{"capped", Config{SendCap: 1, RecvCap: 2}},
		{"adversary", Config{Adversary: adv}},
		{"adversary-capped", Config{SendCap: 1, RecvCap: 2, Adversary: adv}},
	} {
		for _, n := range []int{5, 256, 257} {
			cfg := c.cfg
			cfg.N, cfg.Seed, cfg.Workers = n, 42, 1
			seqSums, seqM := runGossipMetrics(cfg, 3, 16)
			for _, workers := range []int{2, 3, 4, 7, 16} {
				cfg.Workers = workers
				parSums, parM := runGossipMetrics(cfg, 3, 16)
				if !reflect.DeepEqual(seqSums, parSums) {
					t.Errorf("%s n=%d workers=%d: sequential and sharded runs diverged in node state", c.name, n, workers)
				}
				if !reflect.DeepEqual(seqM, parM) {
					t.Errorf("%s n=%d workers=%d: sequential and sharded runs diverged in metrics:\nseq: %+v\npar: %+v",
						c.name, n, workers, seqM, parM)
				}
			}
		}
	}
}

// steadyNode sends two messages every round, one to its ring successor
// and one to a peer its stream picks, and never halts: the round's
// traffic is fixed even though its destinations are not.
type steadyNode struct {
	peers []ids.ID
	sum   uint64
}

func (s *steadyNode) Init(ctx *Ctx) { s.send(ctx) }

func (s *steadyNode) Round(ctx *Ctx, inbox []Wire) {
	for _, w := range inbox {
		s.sum += w.W[0]
	}
	s.send(ctx)
}

func (s *steadyNode) send(ctx *Ctx) {
	Send(ctx, s.peers[(ctx.Index+1)%len(s.peers)], valMsg{1})
	Send(ctx, s.peers[ctx.Rand.Intn(len(s.peers))], valMsg{2})
}

// TestSteadyStateDeliveryAllocatesNothing pins the point of delivery
// storage that grows and stays: once a run has seen its largest round,
// a round — node execution, send cap, delivery, receive cap and run
// list — allocates nothing. At Workers: 1 a Run of one round allocates
// nothing; sharded (Workers 2 and 4, every pass fanned out) a Run
// allocates its worker team's start-up and nothing per pass, so a Run of
// 64 rounds allocates exactly what a Run of one does. The warm-up is long
// enough that the per-round metric columns grow at most a few times
// during the measured rounds, which the per-Run average rounds away.
func TestSteadyStateDeliveryAllocatesNothing(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		for _, c := range []struct {
			name             string
			sendCap, recvCap int
		}{{"plain", 0, 0}, {"capped", 1, 1}} {
			e := newSteady(Config{N: 64, Seed: 9, Workers: workers, SendCap: c.sendCap, RecvCap: c.recvCap})
			e.Run(2000)
			one := testing.AllocsPerRun(100, func() { e.Run(1) })
			many := testing.AllocsPerRun(20, func() { e.Run(64) })
			if workers == 1 && one != 0 {
				t.Errorf("%s: a steady-state round allocates %.0f objects; want 0", c.name, one)
			}
			if one != many {
				t.Errorf("%s workers=%d: Run(1) allocates %.0f objects and Run(64) %.0f; want the same, the team's start-up",
					c.name, workers, one, many)
			}
			if c.sendCap > 0 && e.Metrics().SendCapViolations == 0 {
				t.Errorf("%s: the send cap never engaged", c.name)
			}
		}
	}
}

// TestRunStopsItsWorkers: the worker team of a sharded engine lives for
// one Run call, so the goroutine count is back at its baseline after Run
// returns, whichever way it ends — quiescence, its round budget or
// Config.Interrupt — and an engine can Run again afterwards.
func TestRunStopsItsWorkers(t *testing.T) {
	base := runtime.NumGoroutine()
	for _, workers := range []int{2, 3, 4, 16} {
		_, m := runGossipMetrics(Config{N: 64, Seed: 5, Workers: workers}, 2, 1000)
		if rounds := len(m.RoundMaxSent); rounds >= 1000 {
			t.Fatalf("workers=%d: the gossip run did not quiesce", workers)
		}
		if got := settledGoroutines(base); got > base {
			t.Errorf("workers=%d: %d goroutines after a quiescent Run, baseline %d", workers, got, base)
		}

		polls := 0
		e := newSteady(Config{N: 64, Seed: 5, Workers: workers, Interrupt: func() bool {
			polls++
			return polls > 12
		}})
		if r := e.Run(7); r != 7 || e.Interrupted() {
			t.Fatalf("workers=%d: Run(7) ran %d rounds, interrupted %v", workers, r, e.Interrupted())
		}
		if got := settledGoroutines(base); got > base {
			t.Errorf("workers=%d: %d goroutines after Run used up its rounds, baseline %d", workers, got, base)
		}
		if r := e.Run(100); r != 12 || !e.Interrupted() {
			t.Fatalf("workers=%d: the interrupted Run stopped at round %d, interrupted %v; want 12, true", workers, r, e.Interrupted())
		}
		if got := settledGoroutines(base); got > base {
			t.Errorf("workers=%d: %d goroutines after an interrupted Run, baseline %d", workers, got, base)
		}
	}
}

// newSteady builds an engine of cfg.N steadyNodes.
func newSteady(cfg Config) *Engine {
	nodes := make([]Node, cfg.N)
	ss := make([]*steadyNode, cfg.N)
	for i := range nodes {
		ss[i] = &steadyNode{}
		nodes[i] = ss[i]
	}
	e := New(cfg, nodes)
	for i := range ss {
		ss[i].peers = e.IDs()
	}
	return e
}

// settledGoroutines returns the goroutine count once it is at most base,
// or after a second of waiting: a worker that has returned from its loop
// may still be on its way out of the scheduler.
func settledGoroutines(base int) int {
	deadline := time.Now().Add(time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= base || time.Now().After(deadline) {
			return n
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRecvDropsReproducible pins capacity-drop behaviour: with a
// receive cap tight enough to force drops, both execution paths must
// drop the same messages (same per-node sums) and report the same
// RecvDrops count.
func TestRecvDropsReproducible(t *testing.T) {
	seqSums, seqM := runGossipMetrics(Config{N: 256, Seed: 7, Workers: 1, RecvCap: 2}, 1, 10)
	parSums, parM := runGossipMetrics(Config{N: 256, Seed: 7, Workers: 4, RecvCap: 2}, 1, 10)
	if seqM.RecvDrops == 0 {
		t.Fatal("test needs a cap tight enough to force drops")
	}
	if !reflect.DeepEqual(seqSums, parSums) {
		t.Error("capacity drops differed between sequential and sharded paths")
	}
	if !reflect.DeepEqual(seqM, parM) {
		t.Errorf("metrics diverged under drops:\nseq: %+v\npar: %+v", seqM, parM)
	}
	// And the whole run is reproducible from the seed alone.
	againSums, againM := runGossipMetrics(Config{N: 256, Seed: 7, Workers: 4, RecvCap: 2}, 1, 10)
	if !reflect.DeepEqual(parSums, againSums) || !reflect.DeepEqual(parM, againM) {
		t.Error("repeated run with equal seed diverged")
	}
}

// wakeNode halts immediately but counts every Round invocation: the
// active-set scheduler must not tick it while its inbox is empty, and
// must wake it when a message arrives.
type wakeNode struct {
	calls int
	got   int
}

func (w *wakeNode) Init(ctx *Ctx) { ctx.Halt() }
func (w *wakeNode) Halted() bool  { return true }
func (w *wakeNode) Round(ctx *Ctx, inbox []Wire) {
	w.calls++
	w.got += len(inbox)
}

// pingNode sends one message to its target in round 3 and halts in
// round 5 (staying active past the target's wake round).
type pingNode struct{ target ids.ID }

func (p *pingNode) Init(ctx *Ctx) {}
func (p *pingNode) Round(ctx *Ctx, inbox []Wire) {
	if ctx.Round() == 3 {
		Send(ctx, p.target, valMsg{1})
	}
	if ctx.Round() >= 5 {
		ctx.Halt()
	}
}

func TestActiveSetSkipsHaltedUntilMessage(t *testing.T) {
	sleeper := &wakeNode{}
	pinger := &pingNode{}
	e := New(Config{N: 2, Seed: 21}, []Node{sleeper, pinger})
	pinger.target = e.IDs()[0]
	rounds := e.Run(50)
	if rounds != 5 {
		t.Errorf("rounds = %d, want 5", rounds)
	}
	// The sleeper is halted from Init on: rounds 1-3 must not tick it,
	// round 4 delivers the ping and wakes it exactly once, and it goes
	// straight back to being skipped afterwards.
	if sleeper.calls != 1 {
		t.Errorf("halted node ticked %d times, want exactly 1 (its wake-up)", sleeper.calls)
	}
	if sleeper.got != 1 {
		t.Errorf("woken node saw %d messages, want 1", sleeper.got)
	}
	if e.NumActive() != 0 {
		t.Errorf("NumActive = %d after full halt, want 0", e.NumActive())
	}
}

// pingAndDieNode sends to its target and halts in the same round.
type pingAndDieNode struct{ target ids.ID }

func (p *pingAndDieNode) Init(ctx *Ctx) {}
func (p *pingAndDieNode) Round(ctx *Ctx, inbox []Wire) {
	if ctx.Round() == 2 {
		Send(ctx, p.target, valMsg{7})
		ctx.Halt()
	}
}

// TestWakeDeliveryAfterLastSenderHalts pins the wake-on-message
// guarantee at the engine's stop condition: when the last active node
// sends to a halted node and terminates in the same round, the engine
// must still run the wake round that delivers the message rather than
// stopping on "all halted" with mail in flight.
func TestWakeDeliveryAfterLastSenderHalts(t *testing.T) {
	sleeper := &wakeNode{}
	pinger := &pingAndDieNode{}
	e := New(Config{N: 2, Seed: 33}, []Node{sleeper, pinger})
	pinger.target = e.IDs()[0]
	rounds := e.Run(50)
	// Round 2: pinger sends and halts; round 3 is the wake round.
	if rounds != 3 {
		t.Errorf("rounds = %d, want 3", rounds)
	}
	if sleeper.calls != 1 || sleeper.got != 1 {
		t.Errorf("woken node: calls=%d got=%d, want 1 and 1 (message must not be lost)",
			sleeper.calls, sleeper.got)
	}
}

// TestNoSpuriousWakeWhenCapDropsEverything pins the wake contract on
// the capped path: a halted node whose entire inbox is dropped by the
// receive cap received no mail, so it must not be ticked.
func TestNoSpuriousWakeWhenCapDropsEverything(t *testing.T) {
	sleeper := &wakeNode{}
	// The sender emits one 5-unit payload in round 2, which cannot fit
	// a 4-unit receive cap and is dropped whole; it halts in round 5.
	sender := &bigPingNode{}
	e := New(Config{N: 2, Seed: 27, RecvCap: 4}, []Node{sleeper, sender})
	sender.target = e.IDs()[0]
	e.Run(50)
	if e.Metrics().RecvDrops != 1 {
		t.Fatalf("RecvDrops = %d, want 1", e.Metrics().RecvDrops)
	}
	if sleeper.calls != 0 {
		t.Errorf("halted node ticked %d times on a fully-dropped inbox, want 0", sleeper.calls)
	}
}

type bigPingNode struct{ target ids.ID }

func (p *bigPingNode) Init(ctx *Ctx) {}
func (p *bigPingNode) Round(ctx *Ctx, inbox []Wire) {
	if ctx.Round() == 2 {
		Send(ctx, p.target, wideMsg{v: 9, units: 5})
	}
	if ctx.Round() >= 5 {
		ctx.Halt()
	}
}

func TestUniqueIDs(t *testing.T) {
	nodes := make([]Node, 500)
	for i := range nodes {
		nodes[i] = &sizedSender{}
	}
	e := New(Config{N: 500, Seed: 11}, nodes)
	seen := ids.NewSet()
	for _, id := range e.IDs() {
		if seen.Has(id) {
			t.Fatalf("duplicate id %v", id)
		}
		if id == ids.Nil {
			t.Fatal("Nil id assigned")
		}
		seen.Add(id)
	}
	if i, ok := e.IndexOf(e.IDs()[42]); !ok || i != 42 {
		t.Error("IndexOf mismatch")
	}
}

func TestHaltStopsEngine(t *testing.T) {
	// Nodes that halt via Ctx.Halt (no Halter implementation).
	nodes := make([]Node, 4)
	for i := range nodes {
		nodes[i] = &haltingNode{}
	}
	e := New(Config{N: 4, Seed: 2}, nodes)
	rounds := e.Run(50)
	if rounds != 3 {
		t.Errorf("rounds = %d, want 3", rounds)
	}
}

type haltingNode struct{ r int }

func (h *haltingNode) Init(ctx *Ctx) {}
func (h *haltingNode) Round(ctx *Ctx, inbox []Wire) {
	h.r++
	if h.r >= 3 {
		ctx.Halt()
	}
}

func TestLogBound(t *testing.T) {
	cases := map[int]int{1: 1, 2: 1, 3: 2, 4: 2, 5: 3, 1024: 10, 1025: 11}
	for n, want := range cases {
		if got := LogBound(n); got != want {
			t.Errorf("LogBound(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestRoundMaxMetrics(t *testing.T) {
	nodes := []Node{&spamNode{count: 3}, &spamNode{}}
	e := New(Config{N: 2, Seed: 13}, nodes)
	nodes[0].(*spamNode).target = e.IDs()[1]
	nodes[1].(*spamNode).target = e.IDs()[0]
	e.Run(1)
	m := e.Metrics()
	if m.MaxRoundSent() != 3 || m.MaxRoundRecv() != 3 {
		t.Errorf("MaxRoundSent=%d MaxRoundRecv=%d, want 3,3", m.MaxRoundSent(), m.MaxRoundRecv())
	}
	if m.MaxPerNodeSent() != 3 {
		t.Errorf("MaxPerNodeSent = %d, want 3", m.MaxPerNodeSent())
	}
}

// TestQuiescenceFloor pins the floor's contract: with every node halted
// from Init on, Run still executes the rounds below the floor — empty
// ones, ticking nobody, each with its metrics row and its Interrupt
// poll — and stops exactly there; Interrupt still cuts them short; and
// a floor does not hold a run whose every node has crashed.
func TestQuiescenceFloor(t *testing.T) {
	build := func(cfg Config) (*Engine, []*wakeNode) {
		cfg.N = 3
		cfg.Seed = 33
		sleepers := []*wakeNode{{}, {}, {}}
		return New(cfg, []Node{sleepers[0], sleepers[1], sleepers[2]}), sleepers
	}

	e, _ := build(Config{})
	if got := e.Run(50); got != 0 {
		t.Fatalf("without a floor an all-halted network ran %d rounds, want 0", got)
	}

	polls := 0
	e, sleepers := build(Config{Interrupt: func() bool { polls++; return false }})
	e.SetFloor(7)
	if got := e.Run(50); got != 7 {
		t.Fatalf("floor 7: ran %d rounds, want 7", got)
	}
	for i, s := range sleepers {
		if s.calls != 0 {
			t.Errorf("floor round ticked halted node %d (%d calls)", i, s.calls)
		}
	}
	if polls != 7 {
		t.Errorf("Interrupt polled %d times over 7 floor rounds, want 7", polls)
	}
	if m := e.Metrics(); len(m.RoundMaxSent) != 8 || len(m.RoundMaxRecv) != 8 || m.TotalMessages != 0 {
		t.Errorf("floor rounds recorded %d/%d metric rows and %d messages, want 8/8 (Init + 7 rounds) and 0",
			len(m.RoundMaxSent), len(m.RoundMaxRecv), m.TotalMessages)
	}

	e, _ = build(Config{Interrupt: func() bool { return e.Round() == 3 }})
	e.SetFloor(7)
	if got := e.Run(50); got != 3 || !e.Interrupted() {
		t.Errorf("Interrupt at round 3 of 7 floor rounds: ran %d, interrupted=%v; want 3, true", got, e.Interrupted())
	}

	e, _ = build(Config{Adversary: &Adversary{Crashes: []Crash{{Node: 0, Round: 2}, {Node: 1, Round: 4}, {Node: 2, Round: 1}}}})
	e.SetFloor(7)
	if got := e.Run(50); got != 3 {
		t.Errorf("every node crashed by round 4: ran %d rounds under floor 7, want 3", got)
	}
}

// redrawIDs is the specification of identifier assignment, the loop New
// ran before identifiers were arithmetic: one draw at a time, skipping
// Nil and any value already handed out.
func redrawIDs(idents []ids.ID, src *rng.Source) {
	seen := make(map[ids.ID]struct{}, len(idents))
	for i := range idents {
		for {
			id := ids.ID(src.Uint64())
			if id == ids.Nil {
				continue
			}
			if _, dup := seen[id]; dup {
				continue
			}
			idents[i] = id
			seen[id] = struct{}{}
			break
		}
	}
}

// streamWithNilAt returns an identifier stream whose draw number k is
// ids.Nil: its state starts k+1 steps before unmix(Nil). rng exports no
// unmix and no way to set a state, but unmix can be read off the zero
// stream, whose draw d is mix((d+1)·golden), and rng.New mixes its seed
// into the state.
func streamWithNilAt(k uint64) rng.Source {
	const golden = 0x9e3779b97f4a7c15
	unmix := func(v uint64) uint64 {
		var zero rng.Source
		return (zero.DrawOf(v) + 1) * golden
	}
	start := unmix(uint64(ids.Nil)) - (k+1)*golden
	return *rng.New(unmix(start) - golden)
}

// checkIdentifiers holds an engine built over stream to the
// specification: its identifiers are redrawIDs', IndexOf inverts every
// one of them, and it rejects Nil, both neighbours of every member and
// a thousand random words unless they happen to be members.
func checkIdentifiers(t *testing.T, e *Engine, stream rng.Source) {
	t.Helper()
	want := make([]ids.ID, e.NumNodes())
	probes := stream.Split(1)
	redrawIDs(want, &stream)
	if !reflect.DeepEqual(e.IDs(), want) {
		t.Fatalf("identifiers %v differ from the redraw loop's %v", e.IDs(), want)
	}
	index := make(map[ids.ID]int, len(want))
	for i, id := range want {
		index[id] = i
	}
	check := func(id ids.ID) {
		t.Helper()
		i, member := index[id]
		if got, ok := e.IndexOf(id); ok != member || got != i {
			t.Fatalf("IndexOf(%v) = %d, %v; want %d, %v", id, got, ok, i, member)
		}
	}
	check(ids.Nil)
	for _, id := range want {
		check(id)
		check(id - 1)
		check(id + 1)
	}
	for k := 0; k < 1000; k++ {
		check(ids.ID(probes.Uint64()))
	}
}

// TestIdentifiersMatchRedraw pins that New's arithmetic assignment
// hands out exactly the identifiers the one-at-a-time redraw loop does
// and that lookup resolves members and only members — also on a stream
// whose Nil draw falls among the first n or just past them, which no
// seed anyone will try produces.
func TestIdentifiersMatchRedraw(t *testing.T) {
	wakeNodes := func(n int) []Node {
		nodes := make([]Node, n)
		for i := range nodes {
			nodes[i] = &wakeNode{}
		}
		return nodes
	}
	for _, n := range []int{0, 1, 2, 7, 64, 1000, 4099} {
		for seed := uint64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("n=%d/seed=%d", n, seed), func(t *testing.T) {
				e := New(Config{N: n, Seed: seed}, wakeNodes(n))
				checkIdentifiers(t, e, *rng.New(seed).Split(0xed5))
			})
		}
	}
	const n = 8
	for _, nilAt := range []uint64{0, 3, n - 1, n} {
		t.Run(fmt.Sprintf("nil-at-draw-%d", nilAt), func(t *testing.T) {
			stream := streamWithNilAt(nilAt)
			for s, k := stream, uint64(0); k <= nilAt; k++ {
				if v := s.Uint64(); (ids.ID(v) == ids.Nil) != (k == nilAt) {
					t.Fatalf("draw %d of the stream is %#x", k, v)
				}
			}
			e := newEngine(Config{N: n, Seed: 1}, wakeNodes(n), stream)
			checkIdentifiers(t, e, stream)
		})
	}
}

// TestSendUnknownPanics pins the closed-world contract: sending to an
// identifier no node holds, Nil included, is a bug in the protocol and
// panics naming sender and destination, on both send paths.
func TestSendUnknownPanics(t *testing.T) {
	e := New(Config{N: 3, Seed: 9}, []Node{&wakeNode{}, &wakeNode{}, &wakeNode{}})
	ctx := &e.ctxs[1]
	stranger := e.IDs()[2] + 1
	for name, send := range map[string]func(to ids.ID){
		"Send":     func(to ids.ID) { Send(ctx, to, valMsg{v: 1}) },
		"SendWire": func(to ids.ID) { ctx.SendWire(to, Wire{Kind: kindVal}) },
	} {
		for _, to := range []ids.ID{stranger, ids.Nil} {
			func() {
				defer func() {
					want := fmt.Sprintf("sim: node %v sent to unknown id %v", ctx.ID, to)
					if got := recover(); got != want {
						t.Errorf("%s to %v: panic %v, want %q", name, to, got, want)
					}
				}()
				send(to)
			}()
		}
	}
	if len(ctx.outW) != 0 || len(ctx.outD) != 0 || ctx.sentUnits != 0 {
		t.Errorf("refused sends left %d wires, %d destinations, %d units queued", len(ctx.outW), len(ctx.outD), ctx.sentUnits)
	}
}
