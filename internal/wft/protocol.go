package wft

import (
	"fmt"
	"slices"

	"overlay/internal/graphx"
	"overlay/internal/ids"
	"overlay/internal/sim"
)

// Message-level well-formed-tree construction. The protocol runs on
// the low-diameter graph produced by CreateExpander and follows a
// globally known round schedule (all bounds are O(log n)):
//
//	phase A [0, F):        flood the minimum identifier with hop
//	                       counts; every node learns the root, its BFS
//	                       distance, and its BFS parent (footnote 8 of
//	                       the paper).
//	phase B {F, F+1}:      children adopt their parents.
//	phase C/D (F+1, 3F+6): subtree sizes are aggregated up the BFS
//	                       tree, then DFS pre-order rank intervals flow
//	                       down (the [27] merge step reduced to
//	                       interval arithmetic), defining a ranked ring.
//	phase E [3F+6, +2K+2): pointer jumping builds jump tables over the
//	                       ring: jump[k] = owner of rank r + 2^k mod n.
//	phase F afterwards:    every node greedily routes a "find" message
//	                       to ranks 2r+1 and 2r+2; arrivals establish
//	                       the binary-heap edges of the well-formed
//	                       tree. Routing takes ≤ K hops.
//
// F is the flood budget (≥ the graph's diameter; the expander gives
// O(log n)) and K = ⌈log₂ n⌉.
//
// Every message is a fixed-width sim.Wire — at most four payload words
// (one or two identifiers plus small integers), matching the model's
// O(log n)-bit messages — dispatched on Wire.Kind; nothing is boxed.

// Wire kinds of the tree protocol.
const (
	kindFlood uint16 = 1 + iota
	kindAdopt
	kindSize
	kindInterval
	kindJumpReq
	kindJumpResp
	kindFind
	kindChildAck
)

type floodMsg struct {
	root ids.ID
	dist int
}

func (m floodMsg) Encode(w *sim.Wire) {
	w.Kind = kindFlood
	w.W[0] = uint64(m.root)
	w.W[1] = uint64(m.dist)
}

func (m *floodMsg) Decode(w sim.Wire) {
	m.root = ids.ID(w.W[0])
	m.dist = int(w.W[1])
}

type adoptMsg struct{}

func (adoptMsg) Encode(w *sim.Wire) { w.Kind = kindAdopt }

func (*adoptMsg) Decode(sim.Wire) {}

type sizeMsg struct{ size int }

func (m sizeMsg) Encode(w *sim.Wire) {
	w.Kind = kindSize
	w.W[0] = uint64(m.size)
}

func (m *sizeMsg) Decode(w sim.Wire) { m.size = int(w.W[0]) }

type intervalMsg struct {
	lo, hi int
	after  ids.ID // owner of rank hi (pre-order successor of the subtree)
	total  int    // n, learned from the root
}

func (m intervalMsg) Encode(w *sim.Wire) {
	w.Kind = kindInterval
	w.W[0] = uint64(m.lo)
	w.W[1] = uint64(m.hi)
	w.W[2] = uint64(m.after)
	w.W[3] = uint64(m.total)
}

func (m *intervalMsg) Decode(w sim.Wire) {
	m.lo = int(w.W[0])
	m.hi = int(w.W[1])
	m.after = ids.ID(w.W[2])
	m.total = int(w.W[3])
}

type jumpReq struct{ level int }

func (m jumpReq) Encode(w *sim.Wire) {
	w.Kind = kindJumpReq
	w.W[0] = uint64(m.level)
}

func (m *jumpReq) Decode(w sim.Wire) { m.level = int(w.W[0]) }

type jumpResp struct {
	level int
	id    ids.ID
}

func (m jumpResp) Encode(w *sim.Wire) {
	w.Kind = kindJumpResp
	w.W[0] = uint64(m.level)
	w.W[1] = uint64(m.id)
}

func (m *jumpResp) Decode(w sim.Wire) {
	m.level = int(w.W[0])
	m.id = ids.ID(w.W[1])
}

type findMsg struct {
	target int
	origin ids.ID
}

func (m findMsg) Encode(w *sim.Wire) {
	w.Kind = kindFind
	w.W[0] = uint64(m.target)
	w.W[1] = uint64(m.origin)
}

func (m *findMsg) Decode(w sim.Wire) {
	m.target = int(w.W[0])
	m.origin = ids.ID(w.W[1])
}

type childAck struct{}

func (childAck) Encode(w *sim.Wire) { w.Kind = kindChildAck }

func (*childAck) Decode(sim.Wire) {}

// Protocol is the per-node state machine. Build with BuildEngine.
type Protocol struct {
	floodRounds int

	neighbors []ids.ID

	// Flood state.
	bestRoot ids.ID
	bestDist int
	parent   ids.ID

	// Tree state. children is sorted ascending after phase B and
	// childSize is aligned with it (a parallel column instead of a
	// per-node map; sizeKnown counts the filled entries). Children are
	// neighbours, so BuildEngine carves childSize's storage from a slab
	// parallel to the neighbour lists.
	children  []ids.ID
	childSize []int32
	sizeKnown int
	sizeSent  bool
	subtree   int

	// Rank state.
	rank  int
	total int
	after ids.ID
	succ  ids.ID

	// Jump tables: jump[k] = owner of rank (rank + 2^k) mod total, in
	// room for the ⌈log₂ n⌉+1 levels that BuildEngine carves from one
	// slab.
	jump []ids.ID

	// Results.
	HeapParent ids.ID
	HeapKids   []ids.ID

	// anomalies counts messages the node discarded because its own
	// state could not serve them (a jump request for a level it never
	// learned, a find that overshot its rank). In fault-free runs the
	// schedule guarantees this stays zero; under an installed fault
	// plane it is how the protocol degrades on silence instead of
	// deadlocking or panicking.
	anomalies int

	findStartedFlag bool
	done            bool
}

var _ sim.Node = (*Protocol)(nil)
var _ sim.Halter = (*Protocol)(nil)

// BuildEngine wires the simple graph g (typically expander output)
// into an engine running the tree protocol. floodRounds must be at
// least g's diameter; the caller passes its O(log n) budget.
func BuildEngine(g *graphx.Graph, floodRounds int, cfg sim.Config) (*sim.Engine, []*Protocol) {
	cfg.N = g.N
	eng, protos := sim.NewOf(cfg, func(_ int, p *Protocol) sim.Node {
		p.floodRounds = floodRounds
		return p
	})
	idOf := eng.IDs()
	// Neighbor lists share one flat arena (CSR-style, like the graph
	// they come from) instead of one slice per node. Deduplicate and
	// drop self-loops up front (preserving first occurrence order) so
	// broadcasts can iterate without a set; degrees are O(log n), so
	// the linear containment scan beats a per-node hash set.
	totalDeg := 0
	for i := range protos {
		totalDeg += g.Degree(i)
	}
	// The per-node columns the schedule fills later come from two more
	// slabs: childSize parallel to the neighbour lists, and a jump table
	// of ⌈log₂ n⌉+1 levels each.
	arena := make([]ids.ID, 0, totalDeg)
	sizes := make([]int32, totalDeg)
	levels := sim.LogBound(g.N) + 1
	jumps := make([]ids.ID, g.N*levels)
	for i, p := range protos {
		start := len(arena)
		for _, v := range g.Neighbors(i) {
			nb := idOf[v]
			if int(v) == i || slices.Contains(arena[start:], nb) {
				continue
			}
			arena = append(arena, nb)
		}
		p.neighbors = arena[start:len(arena):len(arena)]
		p.childSize = sizes[start:start:len(arena)]
		p.jump = jumps[i*levels : i*levels : (i+1)*levels]
	}
	return eng, protos
}

// Rounds returns the total round budget for the protocol on n nodes.
func Rounds(floodRounds, n int) int {
	k := sim.LogBound(n)
	return 3*floodRounds + 6 + 2*k + 2 + k + 6
}

// Halted implements sim.Halter.
func (p *Protocol) Halted() bool { return p.done }

// Anomalies returns the number of messages this node discarded because
// its state could not serve them; zero in fault-free runs.
func (p *Protocol) Anomalies() int { return p.anomalies }

// Init starts the flood with the node's own identifier.
func (p *Protocol) Init(ctx *sim.Ctx) {
	p.bestRoot = ctx.ID
	p.bestDist = 0
	p.parent = ids.Nil
	p.HeapParent = ids.Nil
	p.rank = -1
	p.broadcast(ctx, floodMsg{root: ctx.ID, dist: 0})
}

func (p *Protocol) broadcast(ctx *sim.Ctx, m floodMsg) {
	// Encode once for the whole broadcast; neighbors is deduplicated
	// and self-loop-free at BuildEngine time.
	var w sim.Wire
	m.Encode(&w)
	for _, nb := range p.neighbors {
		ctx.SendWire(nb, w)
	}
}

// Round advances the schedule.
//
//overlay:hotpath
func (p *Protocol) Round(ctx *sim.Ctx, inbox []sim.Wire) {
	if p.done {
		return
	}
	r := ctx.Round()
	f := p.floodRounds
	k := ctx.LogBound()
	phaseE := 3*f + 6
	phaseF := phaseE + 2*k + 2
	haltAt := phaseF + k + 6

	switch {
	case r < f:
		p.handleFlood(ctx, inbox)
	case r == f:
		// Drain any last flood messages, then adopt the parent.
		p.handleFlood(ctx, inbox)
		if p.parent != ids.Nil {
			sim.Send(ctx, p.parent, adoptMsg{})
		}
	case r == f+1:
		// Children are now known; leaves start the size aggregation.
		for _, w := range inbox {
			if w.Kind == kindAdopt {
				p.children = append(p.children, w.From)
			}
		}
		slices.Sort(p.children)
		p.childSize = p.childSize[:len(p.children)]
		p.maybeSendSize(ctx)
	case r < phaseE:
		for _, w := range inbox {
			switch w.Kind {
			case kindSize:
				var msg sizeMsg
				msg.Decode(w)
				if c := p.childIndex(w.From); c >= 0 && p.childSize[c] == 0 {
					p.childSize[c] = int32(msg.size)
					p.sizeKnown++
				}
			case kindInterval:
				var msg intervalMsg
				msg.Decode(w)
				p.applyInterval(ctx, msg)
			}
		}
		p.maybeSendSize(ctx)
	case r < phaseF:
		p.handleJump(ctx, inbox, r, phaseE, k)
	default:
		p.handleFind(ctx, inbox)
		if r >= haltAt {
			if p.rank == 0 {
				p.HeapParent = ctx.ID
			}
			slices.Sort(p.HeapKids)
			p.done = true
		}
	}
}

// childIndex locates a child by identifier in the sorted children list.
func (p *Protocol) childIndex(id ids.ID) int {
	lo, hi := 0, len(p.children)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if p.children[mid] < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(p.children) && p.children[lo] == id {
		return lo
	}
	return -1
}

// handleFlood adopts the best (root, distance, sender) candidate among
// the round's flood messages and re-broadcasts when it improved.
//
//overlay:hotpath
func (p *Protocol) handleFlood(ctx *sim.Ctx, inbox []sim.Wire) {
	improved := false
	for _, w := range inbox {
		if w.Kind != kindFlood {
			continue
		}
		var fm floodMsg
		fm.Decode(w)
		cand := floodMsg{root: fm.root, dist: fm.dist + 1}
		switch {
		case cand.root < p.bestRoot,
			cand.root == p.bestRoot && cand.dist < p.bestDist,
			cand.root == p.bestRoot && cand.dist == p.bestDist && p.parent != ids.Nil && w.From < p.parent:
			// Adopt strictly better candidates; among equal (root,
			// dist) prefer the lowest sender ID so the BFS tree is the
			// deterministic one FromGraph builds.
			p.bestRoot = cand.root
			p.bestDist = cand.dist
			p.parent = w.From
			improved = true
		}
	}
	if improved {
		p.broadcast(ctx, floodMsg{root: p.bestRoot, dist: p.bestDist})
	}
}

// maybeSendSize fires once all children reported (leaves immediately).
//
//overlay:hotpath
func (p *Protocol) maybeSendSize(ctx *sim.Ctx) {
	if p.sizeSent || p.sizeKnown < len(p.children) {
		return
	}
	p.sizeSent = true
	p.subtree = 1
	for _, s := range p.childSize {
		p.subtree += int(s)
	}
	if p.bestRoot == ctx.ID {
		// Root: start interval distribution. Its own interval is
		// [0, n) with itself as the wrap-around successor.
		p.applyInterval(ctx, intervalMsg{lo: 0, hi: p.subtree, after: ctx.ID, total: p.subtree})
		return
	}
	sim.Send(ctx, p.parent, sizeMsg{size: p.subtree})
}

// applyInterval fixes the node's pre-order rank and forwards child
// intervals; the ring successor falls out of the interval endpoints.
//
//overlay:hotpath
func (p *Protocol) applyInterval(ctx *sim.Ctx, msg intervalMsg) {
	p.rank = msg.lo
	p.total = msg.total
	p.after = msg.after
	lo := msg.lo + 1
	for i, c := range p.children {
		hi := lo + int(p.childSize[i])
		after := msg.after
		if i+1 < len(p.children) {
			after = p.children[i+1]
		}
		sim.Send(ctx, c, intervalMsg{lo: lo, hi: hi, after: after, total: msg.total})
		lo = hi
	}
	if len(p.children) > 0 {
		p.succ = p.children[0]
	} else {
		p.succ = msg.after
	}
}

// handleJump runs the level-locked pointer jumping: at phaseE + 2k the
// whole network sends level-k requests; responses arrive one round
// later; jump[k+1] is installed the round after.
//
//overlay:hotpath
func (p *Protocol) handleJump(ctx *sim.Ctx, inbox []sim.Wire, r, phaseE, k int) {
	for _, w := range inbox {
		switch w.Kind {
		case kindJumpReq:
			var msg jumpReq
			msg.Decode(w)
			if msg.level < 0 || msg.level >= len(p.jump) || p.jump[msg.level] == ids.Nil {
				// Under faults a peer may ask for a level this node never
				// established (its own response was lost, or ranks are
				// inconsistent across a healed partition). Stay silent
				// rather than panic: the requester's table simply stops
				// growing and the build aborts at extraction.
				p.anomalies++
				continue
			}
			sim.Send(ctx, w.From, jumpResp{level: msg.level, id: p.jump[msg.level]})
		case kindJumpResp:
			var msg jumpResp
			msg.Decode(w)
			for len(p.jump) <= msg.level+1 {
				p.jump = append(p.jump, ids.Nil)
			}
			p.jump[msg.level+1] = msg.id
		}
	}
	if (r-phaseE)%2 != 0 {
		return
	}
	level := (r - phaseE) / 2
	if level >= k {
		return
	}
	if level == 0 {
		if p.rank < 0 {
			// Never ranked (the interval flow died upstream under
			// faults): this node has no ring successor and cannot join
			// the pointer jumping. Its find messages will be dropped at
			// emission for the same reason.
			p.anomalies++
			return
		}
		p.jump = append(p.jump[:0], p.succ)
	}
	if level < len(p.jump) && p.jump[level] != ids.Nil {
		sim.Send(ctx, p.jump[level], jumpReq{level: level})
	}
}

// handleFind emits and routes the heap-edge discovery messages.
//
//overlay:hotpath
func (p *Protocol) handleFind(ctx *sim.Ctx, inbox []sim.Wire) {
	// Emission happens exactly once, on the first find-phase round.
	if !p.findStartedFlag {
		p.findStartedFlag = true
		for _, t := range []int{2*p.rank + 1, 2*p.rank + 2} {
			if t < p.total {
				p.routeFind(ctx, findMsg{target: t, origin: ctx.ID})
			}
		}
	}
	for _, w := range inbox {
		switch w.Kind {
		case kindFind:
			var msg findMsg
			msg.Decode(w)
			p.routeFind(ctx, msg)
		case kindChildAck:
			p.HeapKids = append(p.HeapKids, w.From)
		}
	}
}

// routeFind forwards toward the target rank along the largest jump not
// overshooting, or accepts the heap edge on arrival. A find this node
// cannot route — it overshot (inconsistent ranks under faults) or the
// local jump table is missing (this node was never ranked) — is
// dropped and counted, never propagated or panicked on: lost finds
// surface as missing heap parents at extraction.
//
//overlay:hotpath
func (p *Protocol) routeFind(ctx *sim.Ctx, msg findMsg) {
	if msg.target == p.rank {
		p.HeapParent = msg.origin
		sim.Send(ctx, msg.origin, childAck{})
		return
	}
	d := msg.target - p.rank
	if d < 0 {
		p.anomalies++
		return
	}
	level := 0
	for (1<<(level+1)) <= d && level+1 < len(p.jump) {
		level++
	}
	if level >= len(p.jump) || p.jump[level] == ids.Nil {
		p.anomalies++
		return
	}
	sim.Send(ctx, p.jump[level], msg)
}

// ExtractTree converts the finished protocol state into a Tree over
// every node: ExtractTreeSurvivors with nobody crashed.
func ExtractTree(eng *sim.Engine, protos []*Protocol) (*Tree, error) {
	t, _, err := ExtractTreeSurvivors(eng, protos, nil)
	return t, err
}

// ExtractTreeSurvivors converts the finished protocol state into a
// well-formed tree over the survivor subset: alive[i] == false marks a
// crashed node whose state is ignored. The returned tree is indexed in
// survivor-local space; nodes[local] gives the original engine index.
// An error means the survivors do not hold a consistent tree — the
// flood did not cover them, ranks collide, or heap parents are missing
// — which callers surface as an aborted build rather than a panic.
// alive == nil means every node survived.
func ExtractTreeSurvivors(eng *sim.Engine, protos []*Protocol, alive []bool) (*Tree, []int, error) {
	n := len(protos)
	nodes := make([]int, 0, n)
	local := make([]int, n) // engine index -> survivor-local index, -1 for the crashed
	for i := range local {
		local[i] = -1
		if alive == nil || alive[i] {
			local[i] = len(nodes)
			nodes = append(nodes, i)
		}
	}
	k := len(nodes)
	if k == 0 {
		return nil, nil, fmt.Errorf("wft: no survivors")
	}
	t := &Tree{
		Rank:   make([]int, k),
		NodeAt: make([]int, k),
		Parent: make([]int, k),
	}
	for i := range t.NodeAt {
		t.NodeAt[i] = -1
	}
	for li, gi := range nodes {
		p := protos[gi]
		if p.rank < 0 {
			return nil, nil, fmt.Errorf("wft: survivor %d was never ranked (flood did not cover the survivor set)", gi)
		}
		if p.rank >= k {
			return nil, nil, fmt.Errorf("wft: survivor %d has rank %d beyond survivor count %d", gi, p.rank, k)
		}
		if prev := t.NodeAt[p.rank]; prev >= 0 {
			return nil, nil, fmt.Errorf("wft: survivors %d and %d share rank %d", nodes[prev], gi, p.rank)
		}
		t.Rank[li] = p.rank
		t.NodeAt[p.rank] = li
		if p.rank == 0 {
			t.Root = li
		}
	}
	for li, gi := range nodes {
		p := protos[gi]
		if p.HeapParent == ids.Nil {
			return nil, nil, fmt.Errorf("wft: survivor %d has no heap parent", gi)
		}
		pg, ok := eng.IndexOf(p.HeapParent)
		if !ok {
			return nil, nil, fmt.Errorf("wft: unknown heap parent id %v", p.HeapParent)
		}
		if local[pg] < 0 {
			return nil, nil, fmt.Errorf("wft: survivor %d claims crashed node %d as heap parent", gi, pg)
		}
		t.Parent[li] = local[pg]
	}
	if err := t.Validate(); err != nil {
		return nil, nil, err
	}
	return t, nodes, nil
}
