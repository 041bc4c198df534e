package expander

import (
	"fmt"

	"overlay/internal/graphx"
	"overlay/internal/ids"
	"overlay/internal/sim"
)

// Message-level CreateExpander. Each evolution occupies ℓ+2 rounds on
// the engine clock:
//
//	offset 0:        every node emits ∆/8 fresh tokens (hop 1)
//	offsets 1..ℓ-1:  every node forwards the tokens it received
//	offset ℓ:        arrived tokens are accepted (≤ 3∆/8) and each
//	                 acceptor replies with its own identifier
//	offset ℓ+1:      origins receive replies; both sides install the
//	                 new edges and pad with self-loops to ∆
//
// The protocol sends only unit messages (a token is one identifier
// plus a hop counter, a reply is one identifier), so the engine's
// capacity accounting measures exactly the quantities of Theorem 1.1
// and Lemma 3.2. Both message types are single sim.Wire values
// dispatched on Wire.Kind; forwarding a token re-sends the received
// wire verbatim, so a walk round moves plain 48-byte values with no
// boxing anywhere.

// Wire kinds of the CreateExpander protocol.
const (
	kindToken uint16 = 1 + iota
	kindReply
)

// tokenMsg is a random-walk token: the origin's identifier.
type tokenMsg struct {
	origin ids.ID
}

func (m tokenMsg) Encode(w *sim.Wire) {
	w.Kind = kindToken
	w.W[0] = uint64(m.origin)
}

func (m *tokenMsg) Decode(w sim.Wire) { m.origin = ids.ID(w.W[0]) }

// replyMsg is the acceptance reply carrying the endpoint's identifier
// implicitly as the sender.
type replyMsg struct{}

func (replyMsg) Encode(w *sim.Wire) { w.Kind = kindReply }

func (*replyMsg) Decode(sim.Wire) {}

// Protocol runs CreateExpander as a sim.Node. Construct the node set
// with BuildEngine, run the engine, then read the result with
// FinalGraph.
type Protocol struct {
	params Params

	slots     []ids.ID // current incident slots (self-loops = own ID)
	nextEdges []ids.ID // cross edges collected for G_{i+1}
	evolution int
	offset    int
	done      bool

	// maxTokenLoad tracks Lemma 3.2's per-round token load.
	maxTokenLoad int
	dropped      int
}

var _ sim.Node = (*Protocol)(nil)
var _ sim.Halter = (*Protocol)(nil)

// BuildEngine wires a benign multigraph into an engine running the
// message-level CreateExpander with the given seed and capacity
// configuration. It returns the engine and the protocol nodes.
func BuildEngine(m *graphx.Multi, p Params, cfg sim.Config) (*sim.Engine, []*Protocol) {
	if !m.IsRegular(p.Delta) {
		panic(fmt.Sprintf("expander: BuildEngine on non-%d-regular graph", p.Delta))
	}
	cfg.N = m.N
	eng, protos := sim.NewOf(cfg, func(_ int, proto *Protocol) sim.Node {
		proto.params = p
		return proto
	})
	idOf := eng.IDs()
	// Slot lists live in two flat arenas (current and next generation),
	// one capacity-capped chunk of ∆ identifiers per node: a node's
	// cross edges never exceed ∆/2 and padding stops at ∆, so the
	// buffers are swapped between evolutions and no append ever
	// reallocates. Footprint matches the multigraph itself.
	slotArena := make([]ids.ID, m.N*p.Delta)
	nextArena := make([]ids.ID, m.N*p.Delta)
	for i, proto := range protos {
		lo, hi := i*p.Delta, (i+1)*p.Delta
		buf := slotArena[lo:lo:hi]
		for _, v := range m.SlotsOf(i) {
			buf = append(buf, idOf[v])
		}
		proto.slots = buf
		proto.nextEdges = nextArena[lo:lo:hi]
	}
	return eng, protos
}

// Halted reports protocol completion.
func (p *Protocol) Halted() bool { return p.done }

// MaxTokenLoad returns the maximum tokens held in any single walk
// round across the whole run (Lemma 3.2's quantity).
func (p *Protocol) MaxTokenLoad() int { return p.maxTokenLoad }

// DroppedTokens returns tokens rejected by the acceptance cap.
func (p *Protocol) DroppedTokens() int { return p.dropped }

// Slots exposes the node's current slot list (for FinalGraph).
func (p *Protocol) Slots() []ids.ID { return p.slots }

// Init emits the first evolution's tokens.
func (p *Protocol) Init(ctx *sim.Ctx) {
	p.emitTokens(ctx)
}

// Round advances the evolution state machine.
//
//overlay:hotpath
func (p *Protocol) Round(ctx *sim.Ctx, inbox []sim.Wire) {
	if p.done {
		return
	}
	ell := p.params.Ell
	p.offset++
	switch {
	case p.offset < ell:
		// Forward every token one more uniform step, re-sending the
		// received wire verbatim (SendWire restamps From).
		load := 0
		for _, w := range inbox {
			if w.Kind == kindToken {
				load++
				ctx.SendWire(p.slots[ctx.Rand.Intn(len(p.slots))], w)
			}
		}
		if load > p.maxTokenLoad {
			p.maxTokenLoad = load
		}
	case p.offset == ell:
		// Acceptance: keep at most 3∆/8 arrived tokens, reply to each
		// origin, and install the endpoint side of the edge. The token
		// wires are filtered in place, in the inbox this round owns.
		tokens := inbox[:0]
		for _, w := range inbox {
			if w.Kind == kindToken {
				tokens = append(tokens, w)
			}
		}
		if len(tokens) > p.maxTokenLoad {
			p.maxTokenLoad = len(tokens)
		}
		acceptCap := 3 * p.params.Delta / 8
		if len(tokens) > acceptCap {
			picked := ctx.Rand.SampleWithoutReplacement(len(tokens), acceptCap)
			p.dropped += len(tokens) - acceptCap
			for _, i := range picked {
				p.accept(ctx, tokens[i])
			}
		} else {
			for _, w := range tokens {
				p.accept(ctx, w)
			}
		}
	case p.offset == ell+1:
		// Replies complete the origin side; swap the generation buffers
		// and pad to ∆ for G_{i+1} (both stay within their arena caps).
		for _, w := range inbox {
			if w.Kind == kindReply {
				p.nextEdges = append(p.nextEdges, w.From)
			}
		}
		p.slots, p.nextEdges = p.nextEdges, p.slots[:0]
		for len(p.slots) < p.params.Delta {
			p.slots = append(p.slots, ctx.ID)
		}
		p.evolution++
		if p.evolution >= p.params.Evolutions {
			p.done = true
			return
		}
		p.emitTokens(ctx)
		p.offset = 0
	}
}

// accept installs the endpoint side of the walk edge token w ends and
// replies to its origin.
//
//overlay:hotpath
func (p *Protocol) accept(ctx *sim.Ctx, w sim.Wire) {
	var tok tokenMsg
	tok.Decode(w)
	if tok.origin == ctx.ID {
		return // a walk that returned home creates no edge
	}
	p.nextEdges = append(p.nextEdges, tok.origin)
	sim.Send(ctx, tok.origin, replyMsg{})
}

// emitTokens starts ∆/8 fresh walks (first hop happens immediately),
// encoding this node's token once for the batch.
//
//overlay:hotpath
func (p *Protocol) emitTokens(ctx *sim.Ctx) {
	var w sim.Wire
	tokenMsg{origin: ctx.ID}.Encode(&w)
	for k := 0; k < p.params.Delta/8; k++ {
		ctx.SendWire(p.slots[ctx.Rand.Intn(len(p.slots))], w)
	}
}

// FinalGraph reconstructs the final multigraph from the protocol
// nodes' slot lists, translating identifiers back to node indices.
func FinalGraph(eng *sim.Engine, protos []*Protocol) *graphx.Multi {
	delta := 4
	if len(protos) > 0 {
		delta = protos[0].params.Delta
	}
	m := graphx.NewMultiRegular(len(protos), delta)
	for i, proto := range protos {
		for _, id := range proto.Slots() {
			j, ok := eng.IndexOf(id)
			if !ok {
				panic(fmt.Sprintf("expander: unknown identifier %v in slots", id))
			}
			if j == i {
				m.AddSelfLoop(i)
			} else if j > i {
				// Cross edges appear in both endpoint slot lists; add
				// once from the lower index. Asymmetries (possible only
				// under capacity drops) are repaired toward symmetry.
				m.AddCrossEdge(i, j)
			}
		}
	}
	return m
}

// RunMessageLevel is a convenience wrapper: prepare, run, extract. It
// returns the final graph, the engine (for metrics), and the protocol
// nodes (for token statistics). cfg carries the seed and the engine
// execution knob (Workers); its capacity fields are
// overridden to follow the NCC0 regime, κ·⌈log₂ n⌉ units per node per
// round (capFactor 0 disables the caps for measurement mode).
func RunMessageLevel(m *graphx.Multi, p Params, cfg sim.Config, capFactor int) (*graphx.Multi, *sim.Engine, []*Protocol) {
	cap := 0
	if capFactor > 0 {
		cap = capFactor * sim.LogBound(m.N)
	}
	cfg.SendCap, cfg.RecvCap = cap, cap
	eng, protos := BuildEngine(m, p, cfg)
	rounds := p.Evolutions*(p.Ell+2) + 1
	eng.Run(rounds + 4)
	return FinalGraph(eng, protos), eng, protos
}
