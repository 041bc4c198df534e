// Package sim is a deterministic synchronous message-passing engine
// implementing the overlay-network model of Section 1.1 of the paper.
//
// Time proceeds in synchronous rounds. Every node is a state machine:
// each round it receives the messages sent to it in the previous round,
// updates state, and sends new messages. A node can send to any node
// whose identifier it knows, and connections are established by
// forwarding identifiers; the engine routes purely by identifier, so
// "knowing" is exactly possessing the ID, as in the paper.
//
// Messages are fixed-width Wire values — the paper's O(log n)-bit
// messages are a constant number of machine words, and the engine
// represents them as exactly that ({From, Kind, Units, W [4]uint64}),
// never as boxed interface objects. Protocol payloads implement
// Encode(*Wire)/Decode(Wire); receivers dispatch on Wire.Kind.
//
// The NCC0 capacity restriction is enforced mechanically: messages are
// unit-counted (an O(log n)-bit message carrying a constant number of
// identifiers is one unit; Wire.Units sizes ℓ-identifier walk tokens),
// a node may send at most SendCap units and receive at most RecvCap
// units per round, and excess received messages are dropped as "an
// arbitrary subset" — here a uniformly random subset chosen by the
// receiver's private stream, which keeps runs reproducible while not
// favoring any protocol ordering.
//
// Determinism: every node owns a private rng stream split from the run
// seed; node handlers run concurrently across a worker team but observe
// only their own state, inbox, and stream. Delivery alternates between
// contiguous sender ranges of the run list and contiguous destination
// shards, both taken in index order (see deliver): each range counts
// its messages per destination, each shard gives every range its own
// stretch of each inbox in range order, and each range copies its
// messages into its stretches. Every inbox is thereby filled in
// exactly the order a sequential merge would produce — (sender-index,
// send-order) — with no locks or atomics, and a run is a pure function
// of (protocol, seed) regardless of Workers.
//
// Faults: there is one delivery path. An installed Adversary decides
// each message's fate once, in the sender range that already enforces
// its sender's send cap (see settleFates): a lost message is struck
// from its sender's destination column and a delayed one handed to its
// destination shard, which parks it in its holdback queue in range
// order — the same (sender-index, send-order) at every worker count.
// The shards deliver what is left, and what comes due, without
// consulting the adversary again, except to re-check a parked message
// at its release round.
//
// Scale: the engine is built for 100k+-node message-level runs.
// Outboxes are columnar (a []Wire window per sender with a parallel
// destination column) and carved, in send order, from fixed-size blocks
// owned by the worker chunk that runs the sender (see outBlocks), so
// send memory follows a round's traffic rather than every node's
// largest burst; each delivery shard owns one flat []Wire arena indexed
// by per-destination offset/count arrays (CSR-style), so delivery is a
// cache-linear scan instead of pointer chasing. Blocks, arenas, scratch
// and queues are kept for the engine's lifetime, so a round that moves
// no more traffic than an earlier one allocates nothing. Its five
// fanned-out passes a round (the node pass and delivery's four) run on
// one par.Team per Run call: the workers start at the call's first
// fanned-out pass, take each pass's chunks as job values over their own
// channels and are stopped before Run returns, so a pass spawns no
// goroutine and a Run allocates only the team's start-up, whatever its
// round count; the engine needs no Close. Between passes the workers
// wait awake for a bounded window before they park (see par), so the
// next pass, after the round's serial stretch, finds them running
// instead of paying a goroutine wake-up.
// Identifier routing is arithmetic, not a data structure: identifiers
// are consecutive draws of one splitmix64 stream, so inverting the
// stream turns an identifier back into its node index (see lookup). An
// active-set scheduler skips nodes that have halted, so a mostly-halted
// network costs only its live fraction per round. Consequently a node's
// inbox slice is only valid for the duration of its Round call, and a
// halted node's Round is invoked again only when a message arrives for
// it (a halted node with an empty inbox is not ticked).
//
// Quiescence floor: a protocol whose nodes halt whenever they have
// nothing scheduled (event-driven nodes that only react to mail) would
// otherwise let Run stop at the first silent round, although the
// protocol's agreed schedule — and the round count its callers bill —
// runs longer. SetFloor names the round up to which Run keeps ticking
// even with an empty run list; such a round touches no node, so it
// costs a few hundred nanoseconds, but it still advances the clock,
// appends its (zero) per-round metrics and polls Config.Interrupt
// exactly as a busy round does. Rounds with little to do (run list plus
// queued messages under inlineGrain) run on the driving goroutine
// instead of being fanned out to the worker team, unless Workers > 1
// asked for the sharded path explicitly.
package sim

import (
	"fmt"
	"math/bits"

	"overlay/internal/ids"
	"overlay/internal/par"
	"overlay/internal/rng"
)

// Node is a per-node protocol state machine.
type Node interface {
	// Init runs once before the first round.
	Init(ctx *Ctx)
	// Round runs every round with the messages delivered this round.
	// The inbox slice aliases the engine's delivery arena and is
	// reused: Round may overwrite it (filter it in place, say), but
	// must not retain it after returning.
	Round(ctx *Ctx, inbox []Wire)
}

// Halter is an optional Node extension: when every node reports Halted,
// the engine stops early. Nodes without Halter are covered by Ctx.Halt.
// A node reporting Halted is removed from the active set and its Round
// is only invoked again when a message is delivered to it.
type Halter interface {
	Halted() bool
}

// Config parameterizes an Engine.
type Config struct {
	// N is the number of nodes.
	N int
	// Seed is the run seed; equal seeds reproduce runs exactly.
	Seed uint64
	// SendCap and RecvCap are per-round unit capacities; 0 disables the
	// respective cap. The NCC0 model sets both to Θ(log n).
	SendCap, RecvCap int
	// Workers bounds the worker-team size for node execution and
	// sharded delivery. 0 means GOMAXPROCS; 1 forces single-goroutine
	// execution (useful when profiling protocol logic), bit-for-bit
	// identical to the parallel path. Values above 1 force the sharded
	// parallel path even on small inputs, which tests use to exercise
	// it.
	Workers int
	// Adversary installs the fault plane (see Adversary). nil runs with
	// no per-message checks; runs with an installed adversary remain a
	// pure function of (protocol, Seed, Adversary) at every worker
	// count.
	Adversary *Adversary
	// Interrupt, if non-nil, is polled at every round boundary; when it
	// reports true the engine stops before running the next round and
	// Interrupted() reports true. It is how deadline-aware callers
	// (context cancellation, per-request timeouts) bound a run without
	// perturbing it: an uninterrupted run is bit-identical with the
	// check installed, since the poll happens between rounds and
	// consumes no protocol randomness. The function must be safe to
	// call from the engine's driving goroutine.
	Interrupt func() bool
}

// Engine drives a set of nodes through synchronous rounds.
type Engine struct {
	cfg     Config
	nodes   []Node
	halters []Halter // halters[i] non-nil iff nodes[i] implements Halter
	ctxs    []Ctx
	rands   []rng.Source

	// Identifiers, by node index: the draws of idStream in order, leaving
	// out draw number nilDraw, the one that is ids.Nil. idStream stays at
	// the stream's start; lookup inverts it.
	idents   []ids.ID
	idStream rng.Source
	nilDraw  uint64

	// Columnar inbox index: node i's inbox is the slice
	// arena[inOff[i] : inOff[i]+inCnt[i]] of its delivery shard's
	// arena. inPos is the layout cursor. Destinations a shard did not
	// touch keep a stale inOff but an inCnt of zero, reset from the
	// shard's previous touched list, so per-round work is proportional
	// to traffic, not to N.
	inOff, inCnt, inPos []int32

	// tally[q*N+d] is sender range q's count of the round's messages for
	// destination d; once d's shard has laid out its arena it is the
	// position range q copies its next message for d to. A range zeroes
	// its column from its lanes' touched lists after scattering, so the
	// column is all zeros between rounds. It holds a column per range the
	// engine has used, and grows at most twice: to one column, then to
	// one per worker.
	tally []int32

	// Active-set scheduler state. active lists non-halted nodes in
	// ascending index order; runList is the merge of active with halted
	// nodes that received messages and is what actually runs next round.
	active  []int32
	runList []int32
	scratch []int32 // swap space for rebuilding active/runList

	// shards own disjoint contiguous destination ranges of shardSize
	// indices each: node i's inbox lives in shards[i/shardSize]. Worker q
	// also runs sender range q, the q-th of ranges contiguous stretches of
	// the run list (1 for a round run inline); see deliver.
	shards    []shardState
	shardSize int
	ranges    int

	// team runs the fanned-out passes, one worker per shard; Run closes
	// it before returning, so no worker outlives the call. pass is the
	// pass the team is running and passFn the one function every pass is
	// handed to it as, bound at the engine's first fanned-out pass so
	// that a pass allocates nothing.
	team   par.Team
	pass   pass
	passFn func(q, lo, hi int)

	// adv is the compiled fault plane; nil when no adversary is
	// installed, in which case the sender ranges settle no fates and the
	// holdback queues stay empty.
	adv *advState

	// sharded pins every round to the worker team (Config.Workers > 1);
	// otherwise rounds under inlineGrain run on the driving goroutine.
	// queued is the message count of the last delivery pass, the
	// next round's inbox volume.
	sharded bool
	queued  int
	// floor is the quiescence floor (see SetFloor).
	floor int

	metrics     Metrics
	round       int
	inited      bool
	interrupted bool
}

// inlineGrain is the amount of work (nodes to run plus messages to
// move) below which a round runs on the driving goroutine instead of
// fanning out. Measured on a 2-vCPU host, where a message costs the
// engine 30–40 ns: handing a chunk to a worker that is still awake from
// the previous pass costs 0.2–3 µs, a few dozen messages, but one that
// has parked costs 5–70 µs, the longer it slept, up to two thousand.
// Against the awake cost a lower grain could pay inside a long Run; it
// stays here because every repair round of a churn epoch is below it,
// so a repair engine never fans out and puts no spinning worker beside
// overlayd's request handlers.
const inlineGrain = 8192

// blockWires is the wire count of an outbox block (see outBlocks):
// large enough that a round's traffic takes a few blocks per worker,
// small enough that an engine whose rounds are quiet holds little. A
// block is also at most four wires per node of a shard, so a tiny
// engine's first blocks cost four wires a node, not thousands.
const blockWires = 4096

// shardState is one worker's private state: worker s lays out and caps
// destination shard s, sender range s counts and scatters its senders'
// messages, and node chunk s carves its nodes' outboxes from its
// blocks. Shards, ranges and chunks are disjoint, so workers never
// contend; the sender and shard passes never overlap, so one set of
// cap-sampling scratch serves the send cap and the receive cap. Every
// buffer keeps its capacity for the engine's lifetime, so a round that
// moves no more traffic than an earlier one allocates nothing. The tail
// padding keeps neighbouring workers' hot fields off a shared cache
// line.
type shardState struct {
	blocks  outBlocks
	arena   []Wire  // flat inbox storage for the shard's destinations
	touched []int32 // destinations that received messages this round
	// wake marks the halted destinations among touched, one bit per
	// destination of the shard's range (bit j-lo). Draining the words in
	// order yields the wake-ups ascending without sorting anything;
	// woken counts the set bits, so a quiet shard is not scanned at all.
	wake    []uint64
	woken   int
	perm    []int  // scratch permutation for cap sampling
	keep    []bool // scratch keep mask for cap sampling
	maxRecv int
	drops   int64

	// Fault-plane state (adversary runs only): the holdback queue of
	// delayed messages destined for this shard's range, which the shard
	// takes over from the sender ranges' lanes and releases from, and
	// the count of those a crash or a cut claimed at release, merged into
	// Metrics each round.
	held     []heldWire
	advDrops int64

	// Sender-range side: out[t] is the range's lane to shard t, and the
	// counters are the range's share of the round's sender-side metrics,
	// merged in range order once every range is counted.
	out                                     []lane
	sentMax, queued                         int
	units, capHits, faultDrops, faultDelays int64
	_                                       [64]byte
}

// lane is what one sender range hands one destination shard in a round:
// the shard's destinations the range has messages for, in first-message
// order (their counts are in the range's tally column), and the
// messages the range parked for the shard's holdback queue, in
// (sender-index, send-order). The padding gives each lane a cache line
// of its own, since ranges append to neighbouring lanes concurrently.
type lane struct {
	touched []int32
	held    []heldWire
	_       [16]byte
}

// outBlocks is the outbox storage of one worker chunk of a node pass:
// blocks of wires, each with a parallel destination column, handed out
// front to back. The chunk runs its nodes one at a time, and a node's
// outbox is the stretch of the current block from the cursor on (see
// Ctx.growOut); when the node returns, the cursor moves past what it
// sent. Every sender's outbox is thus one contiguous window, and the
// chunk's blocks hold the pass's traffic back to back. Delivery drains
// every outbox before the next node pass resets the cursor, and the
// blocks are kept for the engine's lifetime.
type outBlocks struct {
	list      []outBlock
	cur, used int // the first used wires of list[cur] are taken
}

// rewind hands the blocks out from the start again.
func (ob *outBlocks) rewind() { ob.cur, ob.used = 0, 0 }

// outBlock is one block of outbox storage: wires and their destination
// indices.
type outBlock struct {
	w []Wire
	d []int32
}

// Ctx is a node's handle to the engine, valid for the duration of the
// run. All methods must be called only from the owning node's Init or
// Round.
type Ctx struct {
	engine *Engine
	// Index is the node's position in [0, N): engine-level bookkeeping
	// only; protocols must address peers by ID.
	Index int
	// ID is this node's identifier.
	ID ids.ID
	// Rand is the node's private random stream.
	Rand *rng.Source

	// Columnar outbox: outW[k] goes to node index outD[k]. Both are
	// windows on one block of blocks, the outbox storage of the chunk
	// running the node this pass, and nil until the node's first send
	// after delivery drained them (see growOut).
	outW   []Wire
	outD   []int32
	blocks *outBlocks

	sentUnits int
	halted    bool
}

// New builds an engine running the given nodes. Node identifiers are
// assigned as random distinct 64-bit values so that minimum-ID
// elections are non-trivial.
func New(cfg Config, nodes []Node) *Engine {
	return newEngine(cfg, nodes, rng.New(cfg.Seed).SplitVal(0xed5))
}

// NewOf is New for n nodes of one protocol type T, whose states live in
// one slab instead of one heap object each. node is told each index and
// its zeroed state, fills in what the protocol needs before identifiers
// exist, and returns the state machine the engine drives for it:
// normally p itself, or a wrapper around it. The states are returned by
// index; Engine.IDs gives the identifiers the caller finishes wiring
// them with.
func NewOf[T any](cfg Config, node func(i int, p *T) Node) (*Engine, []*T) {
	slab := make([]T, cfg.N)
	protos := make([]*T, cfg.N)
	nodes := make([]Node, cfg.N)
	for i := range slab {
		protos[i] = &slab[i]
		nodes[i] = node(i, protos[i])
	}
	return New(cfg, nodes), protos
}

// newEngine is New with the identifier stream given, so that a test can
// put the stream's Nil draw among the first n.
func newEngine(cfg Config, nodes []Node, idStream rng.Source) *Engine {
	if len(nodes) != cfg.N {
		panic(fmt.Sprintf("sim: %d nodes for config N=%d", len(nodes), cfg.N))
	}
	n := cfg.N
	e := &Engine{
		cfg:      cfg,
		nodes:    nodes,
		halters:  make([]Halter, n),
		ctxs:     make([]Ctx, n),
		rands:    make([]rng.Source, n),
		idents:   make([]ids.ID, n),
		idStream: idStream,
		nilDraw:  idStream.DrawOf(uint64(ids.Nil)),
		inOff:    make([]int32, n),
		inCnt:    make([]int32, n),
		inPos:    make([]int32, n),
		sharded:  cfg.Workers > 1,
	}
	// The identifiers are the stream's draws in order, passing over Nil.
	// A splitmix64 stream repeats nothing within its 2^64 draws, so they
	// are distinct without anyone checking.
	draws := idStream
	for i := range e.idents {
		id := ids.ID(draws.Uint64())
		for id == ids.Nil {
			id = ids.ID(draws.Uint64())
		}
		e.idents[i] = id
	}
	root := rng.New(cfg.Seed)
	for i := 0; i < n; i++ {
		e.rands[i] = root.SplitVal(uint64(i) + 1)
		e.ctxs[i] = Ctx{
			engine: e,
			Index:  i,
			ID:     e.idents[i],
			Rand:   &e.rands[i],
		}
		if h, ok := nodes[i].(Halter); ok {
			e.halters[i] = h
		}
	}
	w := max(min(par.Workers(cfg.Workers), n), 1)
	e.team.Open(w)
	e.shards = make([]shardState, w)
	e.shardSize = (n + w - 1) / w
	if e.shardSize < 1 {
		e.shardSize = 1
	}
	// One slab of w·w lanes, row s the lanes of sender range s, and one
	// behind every shard's wake bitmap, its rows a cache line apart.
	lanes := make([]lane, w*w)
	words := (e.shardSize + 63) / 64
	wake := make([]uint64, w*(words+8))
	for s := range e.shards {
		e.shards[s].out = lanes[s*w : (s+1)*w : (s+1)*w]
		e.shards[s].wake = wake[s*(words+8) : s*(words+8)+words : s*(words+8)+words]
	}
	e.metrics.PerNodeSent = make([]int64, n)
	e.metrics.PerNodeRecv = make([]int64, n)
	e.adv = compileAdversary(cfg.Adversary, n)
	return e
}

// lookup resolves an identifier to a node index by inverting the
// identifier stream: a member's draw number is its index, one less past
// the draw that was skipped for being Nil. Every 64-bit value is some
// draw of the stream, so non-members are exactly Nil and the draws from
// n on. One call per Send makes this the hottest function of a
// message-level run; it touches no memory beyond the engine header.
//
//overlay:hotpath
func (e *Engine) lookup(id ids.ID) (int32, bool) {
	d := e.idStream.DrawOf(uint64(id))
	if d > e.nilDraw {
		d--
	}
	if d >= uint64(len(e.idents)) || id == ids.Nil {
		return 0, false
	}
	return int32(d), true
}

// panicUnknown reports a send to an identifier outside the simulation.
func panicUnknown(from, to ids.ID) {
	panic(fmt.Sprintf("sim: node %v sent to unknown id %v", from, to))
}

// IDs returns the identifier of every node by index. The slice is owned
// by the engine; callers must not modify it.
func (e *Engine) IDs() []ids.ID { return e.idents }

// IndexOf resolves an identifier to a node index; ok is false for an
// identifier no node holds.
func (e *Engine) IndexOf(id ids.ID) (int, bool) {
	i, ok := e.lookup(id)
	return int(i), ok
}

// NumNodes returns N.
func (e *Engine) NumNodes() int { return e.cfg.N }

// Round returns the number of rounds executed so far.
func (e *Engine) Round() int { return e.round }

// NumActive returns the number of nodes that have not halted. The
// active-set scheduler only spends time on these (plus halted nodes
// with arriving messages) each round.
func (e *Engine) NumActive() int {
	if !e.inited {
		return e.cfg.N
	}
	return len(e.active)
}

// Metrics returns the accumulated communication metrics.
func (e *Engine) Metrics() *Metrics { return &e.metrics }

// inboxOf returns node i's inbox for the current round: a slice of its
// delivery shard's arena, capped so appends cannot clobber neighbours.
//
//overlay:hotpath
func (e *Engine) inboxOf(i int32) []Wire {
	cnt := e.inCnt[i]
	if cnt == 0 {
		return nil
	}
	off := e.inOff[i]
	return e.shards[int(i)/e.shardSize].arena[off : off+cnt : off+cnt]
}

// Halt marks the node as locally terminated. The engine stops when all
// nodes are halted and no messages remain in flight.
func (c *Ctx) Halt() { c.halted = true }

// NumNodes exposes N. The paper only requires nodes to know an upper
// bound L ≥ log n; protocols should prefer LogBound.
func (c *Ctx) NumNodes() int { return c.engine.cfg.N }

// Round returns the current engine round (1 for the first Round call;
// 0 during Init). Protocols use it to follow globally agreed phase
// schedules, which the model permits since rounds are synchronous.
func (c *Ctx) Round() int { return c.engine.round }

// LogBound returns L = ⌈log₂ N⌉ (at least 1), the known upper bound on
// log n the paper's algorithms take as input.
func (c *Ctx) LogBound() int { return LogBound(c.engine.cfg.N) }

// LogBound returns ⌈log₂ n⌉, at least 1.
func LogBound(n int) int {
	if n <= 2 {
		return 1
	}
	// ⌈log₂ n⌉ = bit length of n-1 for n ≥ 2.
	return bits.Len(uint(n - 1))
}

// halted reports node i's halt state, preferring its Halter if present.
func (e *Engine) halted(i int32) bool {
	if h := e.halters[i]; h != nil {
		return h.Halted()
	}
	return e.ctxs[i].halted
}

// Run executes rounds until the network quiesces — every node has
// halted, no messages remain in flight and the quiescence floor is
// reached (or no node is left alive to reach it) — or maxRounds elapse,
// returning the number of rounds executed. The in-flight condition
// honors the wake-on-message guarantee: a message sent to a halted node
// by the last active sender still gets delivered (one wake round)
// before the engine stops. The worker team that runs the fanned-out
// passes lives for the call: it starts at the call's first fanned-out
// pass and is stopped before Run returns, however the run ends.
func (e *Engine) Run(maxRounds int) int {
	defer e.team.Close()
	e.initNodes()
	for r := 0; r < maxRounds; r++ {
		if len(e.runList) == 0 && !e.pendingHeld() && (e.round >= e.floor || e.allDead()) {
			break
		}
		if e.cfg.Interrupt != nil && e.cfg.Interrupt() {
			e.interrupted = true
			break
		}
		e.step()
	}
	return e.round
}

// SetFloor sets the quiescence floor: Run does not stop for lack of
// work before round has been executed. Protocols whose nodes halt
// between scheduled emissions set it to the end of their schedule, so
// the run is as long as if every node had stayed awake through it.
func (e *Engine) SetFloor(round int) { e.floor = round }

// allDead reports that every node will have crashed by the next round:
// the floor stands in for nodes staying awake through their schedule,
// and nobody is left to.
func (e *Engine) allDead() bool {
	return e.adv != nil && e.adv.allDeadAt <= int32(e.round+1)
}

// Interrupted reports that a Run stopped because Config.Interrupt
// fired (as opposed to quiescing or exhausting its round budget). The
// network state is whatever the completed rounds left behind; callers
// treat an interrupted run as void.
func (e *Engine) Interrupted() bool { return e.interrupted }

// pendingHeld reports whether any delivery shard still holds delayed
// messages; the engine keeps ticking (possibly empty) rounds until the
// holdback queues drain, so a delayed message can still wake a halted
// network.
func (e *Engine) pendingHeld() bool {
	if e.adv == nil {
		return false
	}
	for s := range e.shards {
		if len(e.shards[s].held) > 0 {
			return true
		}
	}
	return false
}

func (e *Engine) initNodes() {
	if e.inited {
		return
	}
	e.inited = true
	e.runList = make([]int32, 0, e.cfg.N)
	for i := 0; i < e.cfg.N; i++ {
		// A node crashed at round <= 0 is dead from the start: it never
		// runs Init and never joins a run list.
		if e.adv != nil && e.adv.deadFromStart(int32(i)) {
			continue
		}
		e.runList = append(e.runList, int32(i))
	}
	e.runNodes(len(e.runList))
	e.deliver()
}

func (e *Engine) step() {
	e.round++
	e.runNodes(len(e.runList) + e.queued)
	// Inboxes are consumed; the delivery pass resets the arenas (and
	// the per-destination counts, via each shard's touched list) before
	// refilling them for the next round.
	e.deliver()
}

// runNodes runs the node pass over the run list: Init in round 0,
// Round after. Delivery has drained every outbox, so each chunk hands
// out its blocks from the start again.
func (e *Engine) runNodes(work int) {
	for s := range e.shards {
		e.shards[s].blocks.rewind()
	}
	e.forEach(nodePass, len(e.runList), work)
}

// call runs node i — its Init in round 0, its Round with inbox after —
// with its sends carved from ob, and moves ob's cursor past them.
//
//overlay:hotpath
func (e *Engine) call(ob *outBlocks, i int32, inbox []Wire) {
	ctx := &e.ctxs[i]
	ctx.blocks = ob
	if e.round == 0 {
		e.nodes[i].Init(ctx)
	} else {
		e.nodes[i].Round(ctx, inbox)
	}
	ob.used += len(ctx.outW)
}

// pass names one of the engine's fanned-out loops. forEach records it
// in the engine and hands the team the one function runPass is bound to
// (passFn), rather than a closure per pass: a closure handed to the team
// escapes to the heap, and every pass would allocate one.
type pass uint8

const (
	nodePass    pass = iota // Init or Round of run-list entry k
	sendPass                // sender range k: caps, fates, tally
	layoutPass              // destination shard k: arena layout
	scatterPass             // sender range k: copies into the arenas
	capPass                 // destination shard k: receive cap, wake-ups
)

// runPass runs items [lo, hi) of the current pass as chunk q.
func (e *Engine) runPass(q, lo, hi int) {
	p := e.pass
	for k := lo; k < hi; k++ {
		switch p {
		case nodePass:
			i := e.runList[k]
			e.call(&e.shards[q].blocks, i, e.inboxOf(i))
		case sendPass:
			e.sendRange(k)
		case layoutPass:
			e.layoutShard(k)
		case scatterPass:
			e.scatterRange(k)
		case capPass:
			e.applyRecvCaps(k)
		}
	}
}

// spread is the number of chunks forEach splits a pass of k items into:
// 1, run inline, when the engine is effectively sequential or the pass
// is small — work is its size in nodes plus messages, and under
// inlineGrain the hand-off would cost more than it spreads
// (Config.Workers > 1 keeps even those on the team) — and otherwise one
// per worker.
func (e *Engine) spread(k, work int) int {
	w := len(e.shards)
	if w < 2 || k < 2 || (!e.sharded && work < inlineGrain) {
		return 1
	}
	return w
}

// forEach runs items 0..k-1 of pass p in contiguous chunks (see
// spread): on the driving goroutine alone, or across the team, whose
// chunk 0 is the driving goroutine's.
//
//overlay:hotpath
func (e *Engine) forEach(p pass, k, work int) {
	e.pass = p
	if e.spread(k, work) == 1 {
		e.runPass(0, 0, k)
		return
	}
	if e.passFn == nil {
		e.passFn = e.runPass
	}
	e.team.Run(k, e.passFn)
}

// deliver moves every queued outgoing message into its destination
// inbox, enforcing the send cap then the receive cap, and rebuilds the
// active set and next-round run list.
//
// Delivery runs in four share-nothing passes, with no locking and no
// atomics, alternating between sender ranges — contiguous stretches of
// the run list, one per worker or a single one for a round run inline —
// and destination shards:
//
//  1. sendRange: each range applies the send cap, settles fates under
//     an adversary and tallies its surviving messages per destination.
//  2. layoutShard: each shard sizes its destinations' inbox segments
//     from the ranges' tallies and gives every range its own stretch of
//     each segment, in range order, behind the held messages due.
//  3. scatterRange: each range copies its messages straight from the
//     outboxes into their stretches.
//  4. applyRecvCaps: each shard applies the receive cap and collects
//     wake-ups.
//
// Ranges are contiguous and taken in order, so each inbox receives its
// messages in (sender-index, send-order) and each holdback queue its
// parked messages in the same order — exactly what one sequential
// merge produces, whatever the worker count. Each message is read
// twice, both times on its sender's side, and copied once; no shard
// scans another shard's traffic.
func (e *Engine) deliver() {
	run := e.runList

	// The sender passes' work is the round's, the run list plus the inbox
	// volume it consumed.
	work := len(run) + e.queued
	e.ranges = e.spread(len(run), work)
	if need := e.ranges * e.cfg.N; len(e.tally) < need {
		if e.ranges > 1 {
			need = len(e.shards) * e.cfg.N
		}
		e.tally = make([]int32, need)
	}
	e.forEach(sendPass, e.ranges, work)
	roundSentMax, queued := 0, 0
	for q := range e.shards[:e.ranges] {
		sc := &e.shards[q]
		roundSentMax = max(roundSentMax, sc.sentMax)
		queued += sc.queued
		e.metrics.TotalUnits += sc.units
		e.metrics.SendCapViolations += sc.capHits
		e.metrics.FaultDrops += sc.faultDrops
		e.metrics.FaultDelays += sc.faultDelays
		sc.sentMax, sc.queued = 0, 0
		sc.units, sc.capHits, sc.faultDrops, sc.faultDelays = 0, 0, 0, 0
	}
	e.metrics.TotalMessages += int64(queued)
	e.queued = queued

	work = len(run) + queued
	e.forEach(layoutPass, len(e.shards), work)
	e.forEach(scatterPass, e.ranges, work)
	e.forEach(capPass, len(e.shards), work)

	// Merge shard accumulators (deterministic: max and sums).
	roundRecvMax := 0
	for s := range e.shards {
		sc := &e.shards[s]
		if sc.maxRecv > roundRecvMax {
			roundRecvMax = sc.maxRecv
		}
		e.metrics.RecvDrops += sc.drops
		e.metrics.FaultDrops += sc.advDrops
	}
	e.metrics.RoundMaxSent = append(e.metrics.RoundMaxSent, roundSentMax)
	e.metrics.RoundMaxRecv = append(e.metrics.RoundMaxRecv, roundRecvMax)

	// Rebuild the active set: nodes that ran and are still live. Nodes
	// that did not run cannot have changed state, and were halted.
	// Nodes whose crash round has arrived are removed for good.
	next := e.scratch[:0]
	if e.adv != nil && e.adv.hasCrash {
		for _, i := range run {
			if !e.halted(i) && !e.adv.dead(i, int32(e.round+1)) {
				next = append(next, i)
			}
		}
	} else {
		for _, i := range run {
			if !e.halted(i) {
				next = append(next, i)
			}
		}
	}
	e.scratch, e.active = e.active, next

	// Next round runs the active set plus any halted node with mail.
	// Shards cover disjoint ascending ranges and each wake bitmap drains
	// in ascending order, so walking shards in order yields a globally
	// sorted merge.
	merged := e.runList[:0]
	ai := 0
	for s := range e.shards {
		sc := &e.shards[s]
		if sc.woken == 0 {
			continue
		}
		sc.woken = 0
		base := int32(s * e.shardSize)
		for wi, word := range sc.wake {
			if word == 0 {
				continue
			}
			sc.wake[wi] = 0
			for ; word != 0; word &= word - 1 {
				j := base + int32(wi<<6+bits.TrailingZeros64(word))
				for ai < len(e.active) && e.active[ai] < j {
					merged = append(merged, e.active[ai])
					ai++
				}
				merged = append(merged, j)
			}
		}
	}
	merged = append(merged, e.active[ai:]...)
	e.runList = merged
}

// senders returns sender range q: the q-th of e.ranges contiguous
// stretches of the run list.
func (e *Engine) senders(q int) []int32 {
	run := e.runList
	chunk := (len(run) + e.ranges - 1) / e.ranges
	return run[min(q*chunk, len(run)):min((q+1)*chunk, len(run))]
}

// sendRange is sender range q's first pass. For each sender in index
// order it enforces the send cap (sampling with the sender's own
// stream), adds the sender-side metrics to the range's share and, after
// settleFates when an adversary is installed, tallies the surviving
// messages in the range's column, noting each destination's first
// message in the lane to its shard.
//
//overlay:hotpath
func (e *Engine) sendRange(q int) {
	sc := &e.shards[q]
	tally := e.tally[q*e.cfg.N : (q+1)*e.cfg.N]
	r := int32(e.round + 1) // the round the queued messages are consumed in
	for _, i := range e.senders(q) {
		ctx := &e.ctxs[i]
		sent := ctx.sentUnits
		ctx.sentUnits = 0
		if e.cfg.SendCap > 0 && sent > e.cfg.SendCap {
			// Enforce the cap by dropping a random subset of the sender's
			// messages and record the violation: correct protocols never
			// hit this.
			sent = capOutbox(ctx, e.cfg.SendCap, &sc.perm, &sc.keep)
			sc.capHits++
		}
		e.metrics.PerNodeSent[i] += int64(sent)
		sc.units += int64(sent)
		sc.queued += len(ctx.outW)
		sc.sentMax = max(sc.sentMax, sent)
		if e.adv != nil {
			e.settleFates(sc, i, ctx, r)
		}
		for _, d := range ctx.outD {
			if d == lost {
				continue
			}
			if tally[d] == 0 {
				ln := &sc.out[int(d)/e.shardSize]
				ln.touched = append(ln.touched, d)
			}
			tally[d]++
		}
	}
}

// lost replaces the destination of a message the fault plane has
// claimed: the tally and scatter passes pass over it, and a parked
// message claimed at its release round is skipped by its shard's
// scatter.
const lost = -1

// settleFates decides, once, what becomes of each message node i queued
// for round r: a message to a crashed destination, across an active cut
// or with a drop fate is marked lost in place, and a delayed one moves
// to the lane to its destination shard, to be parked in the shard's
// holdback queue. It runs after the send cap, so a fate's ordinal is the
// message's final outbox position, and consults no rng stream — the
// fault plane never perturbs protocol randomness.
//
//overlay:hotpath
func (e *Engine) settleFates(sc *shardState, i int32, ctx *Ctx, r int32) {
	adv := e.adv
	for k, d := range ctx.outD {
		drop, delay := true, int32(0)
		if !adv.dead(d, r) && !adv.cut(i, d, r) {
			drop, delay = adv.fate(r, i, k)
		}
		switch {
		case drop:
			sc.faultDrops++
		case delay > 0:
			ln := &sc.out[int(d)/e.shardSize]
			ln.held = append(ln.held, heldWire{w: ctx.outW[k], from: i, dest: d, due: r + delay})
			sc.faultDelays++
		default:
			continue
		}
		ctx.outD[k] = lost
	}
}

// layoutShard lays out shard s's arena for the next round. It takes over
// the messages the sender ranges parked for it, in range order, into its
// holdback queue; sums each destination's held messages due and the
// ranges' tallies into its inbox segment (CSR-style offsets); copies the
// held messages due to the front of their segments (held messages age
// first, in the order they were held); and turns each range's tally for
// a destination into the position where that range's stretch of the
// segment starts. Per-destination counts from the previous round are
// zeroed via the shard's old touched list, so the work is proportional
// to traffic rather than to N.
//
//overlay:hotpath
func (e *Engine) layoutShard(s int) {
	sc := &e.shards[s]
	r := int32(e.round + 1)
	e.resetShard(sc)
	for q := range e.shards[:e.ranges] {
		ln := &e.shards[q].out[s]
		sc.held = append(sc.held, ln.held...)
		ln.held = ln.held[:0]
	}

	// Count. A held message is re-checked against the schedule at its
	// release round — its destination may have crashed, or a partition
	// may have formed around it, while it was in flight.
	total := int32(0)
	for k := range sc.held {
		hm := &sc.held[k]
		if hm.due != r {
			continue
		}
		if e.adv.dead(hm.dest, r) || e.adv.cut(hm.from, hm.dest, r) {
			hm.dest = lost
			sc.advDrops++
			continue
		}
		if e.inCnt[hm.dest] == 0 {
			sc.touched = append(sc.touched, hm.dest)
		}
		e.inCnt[hm.dest]++
		total++
	}
	for q := range e.shards[:e.ranges] {
		tally := e.tally[q*e.cfg.N:]
		for _, d := range e.shards[q].out[s].touched {
			if e.inCnt[d] == 0 {
				sc.touched = append(sc.touched, d)
			}
			e.inCnt[d] += tally[d]
			total += tally[d]
		}
	}
	if total == 0 {
		sc.compactHeld(r)
		return
	}
	e.layoutArena(sc, total)

	// Held messages first, then one stretch per range, in range order.
	for k := range sc.held {
		hm := &sc.held[k]
		if hm.due != r || hm.dest == lost {
			continue
		}
		p := e.inPos[hm.dest]
		sc.arena[p] = hm.w
		e.inPos[hm.dest] = p + 1
	}
	sc.compactHeld(r)
	for q := range e.shards[:e.ranges] {
		tally := e.tally[q*e.cfg.N:]
		for _, d := range e.shards[q].out[s].touched {
			n := tally[d]
			tally[d] = e.inPos[d]
			e.inPos[d] += n
		}
	}
}

// scatterRange is sender range q's second pass: it drains its senders'
// outboxes, copying each surviving message to the position its tally
// column holds for the destination, then zeroes the column for the next
// round.
//
//overlay:hotpath
func (e *Engine) scatterRange(q int) {
	sc := &e.shards[q]
	tally := e.tally[q*e.cfg.N : (q+1)*e.cfg.N]
	for _, i := range e.senders(q) {
		outW, outD := e.ctxs[i].drain()
		for k, d := range outD {
			if d == lost {
				continue
			}
			p := tally[d]
			e.shards[int(d)/e.shardSize].arena[p] = outW[k]
			tally[d] = p + 1
		}
	}
	for t := range sc.out {
		ln := &sc.out[t]
		for _, d := range ln.touched {
			tally[d] = 0
		}
		ln.touched = ln.touched[:0]
	}
}

// resetShard clears the previous round's per-shard delivery state. The
// arena's wires are pointer-free, so truncation alone releases nothing
// to the GC and costs nothing.
//
//overlay:hotpath
func (e *Engine) resetShard(sc *shardState) {
	for _, j := range sc.touched {
		e.inCnt[j] = 0
	}
	sc.touched = sc.touched[:0]
	sc.arena = sc.arena[:0]
	sc.maxRecv = 0
	sc.drops = 0
	sc.advDrops = 0
}

// layoutArena assigns per-destination offsets (segments in
// first-arrival order of the touched list — contiguity is all inboxOf
// needs) and sizes the arena, growing it geometrically: a shard whose
// traffic grows round over round reallocates a logarithmic number of
// times, not every round. The factor is 1.25, not 2: most engines live
// a few rounds (every repair engine) and keep their last arena, so the
// overshoot of a doubling costs more bytes than the extra growth steps.
//
//overlay:hotpath
func (e *Engine) layoutArena(sc *shardState, total int32) {
	off := int32(0)
	for _, j := range sc.touched {
		e.inOff[j] = off
		e.inPos[j] = off
		off += e.inCnt[j]
	}
	if cap(sc.arena) < int(total) {
		sc.arena = make([]Wire, max(int(total), cap(sc.arena)+cap(sc.arena)/4)) //lint:alloc geometric growth, kept for the engine's lifetime
	}
	sc.arena = sc.arena[:total]
}

// applyRecvCaps is shard s's last pass: receive-cap enforcement,
// receiver-side metrics, and the wake list for halted destinations.
//
//overlay:hotpath
func (e *Engine) applyRecvCaps(s int) {
	sc := &e.shards[s]
	lo := int32(s * e.shardSize)
	for _, j := range sc.touched {
		seg := sc.arena[e.inOff[j] : e.inOff[j]+e.inCnt[j]]
		units := 0
		for k := range seg {
			units += int(seg[k].Units)
		}
		if e.cfg.RecvCap > 0 && units > e.cfg.RecvCap {
			units = e.capInbox(sc, j)
			sc.drops++
		}
		e.metrics.PerNodeRecv[j] += int64(units)
		if units > sc.maxRecv {
			sc.maxRecv = units
		}
		// Wake a halted destination only if messages actually survived
		// the cap: a fully-dropped inbox is no mail, and the contract
		// says a halted node with an empty inbox is not ticked.
		if e.inCnt[j] > 0 && e.halted(j) {
			sc.wake[(j-lo)>>6] |= 1 << uint((j-lo)&63)
			sc.woken++
		}
	}
}

// compactHeld removes holdback entries that were delivered (or dropped
// dead) at round r, preserving queue order. heldWire is pointer-free,
// so the stale tail pins nothing.
//
//overlay:hotpath
func (sc *shardState) compactHeld(r int32) {
	kept := 0
	for k := range sc.held {
		if sc.held[k].due == r {
			continue
		}
		sc.held[kept] = sc.held[k]
		kept++
	}
	sc.held = sc.held[:kept]
}

// capInbox keeps a random subset of destination j's arena segment
// within the receive cap, preserving arrival order among the kept, and
// returns the unit count actually delivered.
func (e *Engine) capInbox(sc *shardState, j int32) int {
	off := int(e.inOff[j])
	seg := sc.arena[off : off+int(e.inCnt[j])]
	keep := chooseWithin(len(seg), e.cfg.RecvCap,
		func(k int) int { return int(seg[k].Units) }, e.ctxs[j].Rand, &sc.perm, &sc.keep)
	kept, used := 0, 0
	for k := range seg {
		if !keep[k] {
			continue
		}
		seg[kept] = seg[k]
		used += int(seg[k].Units)
		kept++
	}
	e.inCnt[j] = int32(kept)
	return used
}

// capOutbox keeps a random subset of outgoing messages within cap
// units, preserving emission order among the kept, compacting all
// outbox columns in lockstep, and returns the units actually sent.
func capOutbox(c *Ctx, cap int, perm *[]int, keep *[]bool) int {
	mask := chooseWithin(len(c.outW), cap,
		func(k int) int { return int(c.outW[k].Units) }, c.Rand, perm, keep)
	kept, used := 0, 0
	for k := range c.outW {
		if !mask[k] {
			continue
		}
		c.outW[kept] = c.outW[k]
		c.outD[kept] = c.outD[k]
		used += int(c.outW[k].Units)
		kept++
	}
	c.outW = c.outW[:kept]
	c.outD = c.outD[:kept]
	return used
}

// chooseWithin marks a uniformly random subset of n items whose unit
// sizes fit within cap, greedily in random order, and returns the keep
// mask. perm and keep are reusable scratch buffers (grown as needed and
// written back), so once they have reached the largest capped inbox or
// outbox a capped node costs no allocation.
func chooseWithin(n, limit int, units func(int) int, src *rng.Source, perm *[]int, keep *[]bool) []bool {
	k := *keep
	if cap(k) < n {
		k = make([]bool, n)
	}
	k = k[:n]
	clear(k)
	*keep = k
	p := *perm
	if cap(p) < n {
		p = make([]int, n)
	}
	p = p[:n]
	*perm = p
	src.PermInto(p)
	used := 0
	for _, i := range p {
		u := units(i)
		if used+u <= limit {
			used += u
			k[i] = true
		}
	}
	return k
}
