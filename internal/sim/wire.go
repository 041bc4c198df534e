package sim

import "overlay/internal/ids"

// Wire is the fixed-width wire format of a message: the model's
// O(log n)-bit message is a constant number of machine words, and Wire
// makes that literal. From is the sender's identifier (messages
// conventionally carry it, see the package comment), Kind is the
// protocol-level message tag, Units is the message's size in capacity
// units (an O(ℓ)-identifier walk token is ℓ units), and W holds up to
// four payload words — enough for a constant number of identifiers,
// which is exactly what the paper's messages contain.
//
// A Wire is a pure value: it contains no pointers, so outboxes and
// inboxes are flat arrays the delivery shards scan and copy without
// allocating, boxing, or dragging the GC through per-message objects.
type Wire struct {
	// From is the sender's identifier, stamped by SendWire.
	From ids.ID
	// Kind tags the payload so receivers dispatch without type
	// assertions. Kinds are protocol-local; 0 is reserved as "unset".
	Kind uint16
	// Units is the message's size in capacity units. SendWire treats
	// values <= 0 as 1; multi-unit payloads set it in their Encode.
	Units int32
	// W holds the payload words written by Payload.Encode.
	W [4]uint64
}

// Payload is a message that knows how to serialize itself onto a Wire.
// Encode must set Kind and the W words it uses, and may set Units for
// multi-unit messages (0 means 1). The inverse is conventionally a
// Decode(Wire) method on the pointer receiver; see Decoder.
type Payload interface {
	Encode(*Wire)
}

// Decoder is the conventional inverse of Payload, implemented on the
// pointer receiver. The engine never calls it — receivers dispatch on
// Wire.Kind and decode explicitly — but the symmetry gives every
// payload a round-trip property that wire_test files fuzz.
type Decoder interface {
	Decode(Wire)
}

// Send encodes p and queues it to the node with identifier to. The
// generic instantiation never boxes p, and Encode writes straight into
// the outbox slot (a stack-local Wire would be forced to the heap by
// the indirect Encode call), so a send costs zero allocations.
// Encode implementations must not themselves send.
//
//overlay:hotpath
func Send[P Payload](c *Ctx, to ids.ID, p P) {
	w := c.slot(to)
	*w = Wire{}
	p.Encode(w)
	c.seal(w)
}

// SendWire queues an already-encoded wire message to the node with
// identifier to, delivered at the start of the next round. From is
// overwritten with the sender's identifier and Units values <= 0
// count as 1. Re-sending a received Wire verbatim is the idiomatic
// zero-cost forward (the walk tokens of CreateExpander do this).
// Sending to an unknown identifier is a programming error in this
// closed-world simulation and panics.
//
//overlay:hotpath
func (c *Ctx) SendWire(to ids.ID, w Wire) {
	s := c.slot(to)
	*s = w
	c.seal(s)
}

// slot opens the next outbox entry, addressed to the node with
// identifier to, and returns its wire for the caller to fill (it holds
// whatever an earlier round left there) and then seal.
//
//overlay:hotpath
func (c *Ctx) slot(to ids.ID) *Wire {
	j, ok := c.engine.lookup(to)
	if !ok {
		panicUnknown(c.ID, to)
	}
	if len(c.outW) == cap(c.outW) {
		c.growOut()
	}
	c.outD = append(c.outD, j)
	c.outW = c.outW[:len(c.outW)+1]
	return &c.outW[len(c.outW)-1]
}

// seal stamps a filled outbox wire with its sender and counts its
// units against the send cap.
//
//overlay:hotpath
func (c *Ctx) seal(w *Wire) {
	if w.Units <= 0 {
		w.Units = 1
	}
	w.From = c.ID
	c.sentUnits += int(w.Units)
}

// growOut gives a full outbox room for one more message from the blocks
// of the chunk running the node. A node's first send takes the rest of
// the current block as its window. A node that fills its window has
// reached the end of the block, and moves the b messages it has sent so
// far to the next block with room for more than b; a block of
// max(blockWires, 2b) wires (fewer in a tiny engine) is allocated only
// when no block is left. Either way the outbox stays one contiguous
// window, ending where its block ends.
func (c *Ctx) growOut() {
	ob, b := c.blocks, len(c.outW)
	for ob.cur < len(ob.list) && len(ob.list[ob.cur].w)-ob.used <= b {
		ob.cur, ob.used = ob.cur+1, 0
	}
	if ob.cur == len(ob.list) {
		n := max(min(blockWires, 4*c.engine.shardSize), 2*b)
		ob.list = append(ob.list, outBlock{w: make([]Wire, n), d: make([]int32, n)})
	}
	blk := &ob.list[ob.cur]
	c.outW = append(blk.w[ob.used:ob.used], c.outW...)
	c.outD = append(blk.d[ob.used:ob.used], c.outD...)
}

// drain hands the outbox over to delivery and leaves it nil; its wires
// stay in their block until the next node pass hands the block out
// again.
//
//overlay:hotpath
func (c *Ctx) drain() ([]Wire, []int32) {
	w, d := c.outW, c.outD
	c.outW, c.outD = nil, nil
	return w, d
}
