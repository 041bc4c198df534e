package sim

import (
	"reflect"
	"testing"

	"overlay/internal/ids"
)

// TestSendWireDefaults pins the SendWire contract: From is stamped
// with the sender's identifier regardless of what the caller wrote,
// and Units <= 0 counts as one unit.
func TestSendWireDefaults(t *testing.T) {
	recv := &recorderNode{}
	send := &rawWireNode{}
	e := New(Config{N: 2, Seed: 3}, []Node{recv, send})
	send.target = e.IDs()[0]
	send.self = e.IDs()[1]
	e.Run(2)
	if len(recv.wires) != 2 {
		t.Fatalf("got %d wires, want 2", len(recv.wires))
	}
	for k, w := range recv.wires {
		if w.From != send.self {
			t.Errorf("wire %d: From = %v, want sender id %v (must be restamped)", k, w.From, send.self)
		}
		if w.Units != 1 {
			t.Errorf("wire %d: Units = %d, want 1 (defaulted)", k, w.Units)
		}
	}
	if e.Metrics().TotalUnits != 2 {
		t.Errorf("TotalUnits = %d, want 2", e.Metrics().TotalUnits)
	}
}

// rawWireNode sends wires with a forged From and zero/negative Units.
type rawWireNode struct {
	target, self ids.ID
	r            int
}

func (n *rawWireNode) Init(ctx *Ctx) {
	ctx.SendWire(n.target, Wire{From: ids.ID(0xdead), Kind: kindVal, Units: 0})
	ctx.SendWire(n.target, Wire{From: ids.ID(0xbeef), Kind: kindVal, Units: -7})
}
func (n *rawWireNode) Round(ctx *Ctx, inbox []Wire) { n.r++ }
func (n *rawWireNode) Halted() bool                 { return n.r >= 1 }

// recorderNode copies its first inbox for inspection.
type recorderNode struct {
	wires []Wire
	r     int
}

func (n *recorderNode) Init(ctx *Ctx) {}
func (n *recorderNode) Round(ctx *Ctx, inbox []Wire) {
	if len(inbox) > 0 && n.wires == nil {
		n.wires = append(n.wires, inbox...)
	}
	n.r++
}
func (n *recorderNode) Halted() bool { return n.r >= 2 }

// TestSpraySharedDeterminism runs a many-sender wire workload under
// sequential and forced-parallel delivery with a tight receive cap,
// checking the messages that survive cap compaction are identical:
// receive-cap sampling must ride the deterministic merge regardless of
// the worker count.
func TestSpraySharedDeterminism(t *testing.T) {
	run := func(cfg Config) []Wire {
		const n = 64
		cfg.N = n
		cfg.RecvCap = 3
		nodes := make([]Node, n)
		recv := &recorderNode{}
		nodes[0] = recv
		for i := 1; i < n; i++ {
			nodes[i] = &sprayNode{payload: uint64(i)}
		}
		e := New(cfg, nodes)
		for i := 1; i < n; i++ {
			nodes[i].(*sprayNode).target = e.IDs()[0]
		}
		e.Run(3)
		if e.Metrics().RecvDrops == 0 {
			t.Fatal("test needs drops to exercise cap compaction")
		}
		return recv.wires
	}
	seq := run(Config{Seed: 5, Workers: 1})
	for _, w := range []int{2, 8, 16} {
		par := run(Config{Seed: 5, Workers: w})
		if !reflect.DeepEqual(seq, par) {
			t.Errorf("workers=%d: surviving messages diverged: %v vs %v", w, seq, par)
		}
	}
	if len(seq) == 0 {
		t.Error("no messages survived the cap")
	}
}

type sprayNode struct {
	target  ids.ID
	payload uint64
	r       int
}

func (n *sprayNode) Init(ctx *Ctx) {
	Send(ctx, n.target, valMsg{n.payload})
}
func (n *sprayNode) Round(ctx *Ctx, inbox []Wire) { n.r++ }
func (n *sprayNode) Halted() bool                 { return n.r >= 1 }
