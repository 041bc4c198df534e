package wft

import (
	"testing"

	"overlay/internal/ids"
	"overlay/internal/rng"
	"overlay/internal/sim"
)

// checkWire encodes in, decodes into out, and verifies the re-encoded
// wire is word-identical — the round-trip property every payload of
// the protocol must satisfy for the wire plane to be lossless.
func checkWire(t *testing.T, in sim.Payload, out interface {
	sim.Payload
	sim.Decoder
}) {
	t.Helper()
	var w sim.Wire
	in.Encode(&w)
	out.Decode(w)
	var w2 sim.Wire
	out.Encode(&w2)
	if w != w2 {
		t.Fatalf("round trip not word-identical:\nin:  %+v -> %+v\nout: %+v -> %+v", in, w, out, w2)
	}
}

// TestPayloadRoundTripsProperty drives every payload type of the tree
// protocol through encode/decode with rng-random field values.
func TestPayloadRoundTripsProperty(t *testing.T) {
	src := rng.New(0x1f)
	for i := 0; i < 2000; i++ {
		fm := floodMsg{root: ids.ID(src.Uint64()), dist: int(src.Uint64())}
		var fm2 floodMsg
		checkWire(t, fm, &fm2)
		if fm2 != fm {
			t.Fatalf("floodMsg fields: %+v != %+v", fm2, fm)
		}

		sm := sizeMsg{size: int(src.Uint64())}
		var sm2 sizeMsg
		checkWire(t, sm, &sm2)
		if sm2 != sm {
			t.Fatalf("sizeMsg fields: %+v != %+v", sm2, sm)
		}

		im := intervalMsg{
			lo: int(src.Uint64()), hi: int(src.Uint64()),
			after: ids.ID(src.Uint64()), total: int(src.Uint64()),
		}
		var im2 intervalMsg
		checkWire(t, im, &im2)
		if im2 != im {
			t.Fatalf("intervalMsg fields: %+v != %+v", im2, im)
		}

		jq := jumpReq{level: int(src.Uint64())}
		var jq2 jumpReq
		checkWire(t, jq, &jq2)
		if jq2 != jq {
			t.Fatalf("jumpReq fields: %+v != %+v", jq2, jq)
		}

		jr := jumpResp{level: int(src.Uint64()), id: ids.ID(src.Uint64())}
		var jr2 jumpResp
		checkWire(t, jr, &jr2)
		if jr2 != jr {
			t.Fatalf("jumpResp fields: %+v != %+v", jr2, jr)
		}

		fd := findMsg{target: int(src.Uint64()), origin: ids.ID(src.Uint64())}
		var fd2 findMsg
		checkWire(t, fd, &fd2)
		if fd2 != fd {
			t.Fatalf("findMsg fields: %+v != %+v", fd2, fd)
		}

		var am adoptMsg
		checkWire(t, adoptMsg{}, &am)
		var ca childAck
		checkWire(t, childAck{}, &ca)
	}
}

// TestPayloadKindsDistinct pins the dispatch invariant: every payload
// type of the protocol encodes a distinct, non-reserved Kind.
func TestPayloadKindsDistinct(t *testing.T) {
	payloads := []sim.Payload{
		floodMsg{}, adoptMsg{}, sizeMsg{}, intervalMsg{},
		jumpReq{}, jumpResp{}, findMsg{}, childAck{},
	}
	seen := map[uint16]int{}
	for i, p := range payloads {
		var w sim.Wire
		p.Encode(&w)
		if w.Kind == 0 {
			t.Errorf("payload %d (%T) uses reserved kind %d", i, p, w.Kind)
		}
		if j, dup := seen[w.Kind]; dup {
			t.Errorf("payloads %d and %d share kind %d", j, i, w.Kind)
		}
		seen[w.Kind] = i
	}
}

// FuzzFloodIntervalRoundTrip fuzzes the two widest payloads (flood
// carries an identifier + distance, interval uses all four words).
func FuzzFloodIntervalRoundTrip(f *testing.F) {
	f.Add(uint64(1), uint64(2), uint64(3), uint64(4))
	f.Add(^uint64(0), uint64(0), ^uint64(0)>>1, uint64(1)<<63)
	f.Fuzz(func(t *testing.T, a, b, c, d uint64) {
		in := floodMsg{root: ids.ID(a), dist: int(b)}
		var w sim.Wire
		in.Encode(&w)
		var out floodMsg
		out.Decode(w)
		if out != in {
			t.Fatalf("floodMsg: %+v != %+v", out, in)
		}
		iv := intervalMsg{lo: int(a), hi: int(b), after: ids.ID(c), total: int(d)}
		var w2 sim.Wire
		iv.Encode(&w2)
		var out2 intervalMsg
		out2.Decode(w2)
		if out2 != iv {
			t.Fatalf("intervalMsg: %+v != %+v", out2, iv)
		}
	})
}

// FuzzJumpFindRoundTrip fuzzes the routing payloads.
func FuzzJumpFindRoundTrip(f *testing.F) {
	f.Add(uint64(0), uint64(7))
	f.Fuzz(func(t *testing.T, a, b uint64) {
		jr := jumpResp{level: int(a), id: ids.ID(b)}
		var w sim.Wire
		jr.Encode(&w)
		var jrOut jumpResp
		jrOut.Decode(w)
		if jrOut != jr {
			t.Fatalf("jumpResp: %+v != %+v", jrOut, jr)
		}
		fd := findMsg{target: int(a), origin: ids.ID(b)}
		var w2 sim.Wire
		fd.Encode(&w2)
		var fdOut findMsg
		fdOut.Decode(w2)
		if fdOut != fd {
			t.Fatalf("findMsg: %+v != %+v", fdOut, fd)
		}
		jq := jumpReq{level: int(a)}
		var w3 sim.Wire
		jq.Encode(&w3)
		var jqOut jumpReq
		jqOut.Decode(w3)
		if jqOut != jq {
			t.Fatalf("jumpReq: %+v != %+v", jqOut, jq)
		}
		sm := sizeMsg{size: int(b)}
		var w4 sim.Wire
		sm.Encode(&w4)
		var smOut sizeMsg
		smOut.Decode(w4)
		if smOut != sm {
			t.Fatalf("sizeMsg: %+v != %+v", smOut, sm)
		}
	})
}

// FuzzRepairWireRoundTrip fuzzes the repair protocol's six payloads:
// decode∘encode is the identity on each, and each stamps its own kind,
// 9 to 14 in declaration order after the build protocol's 1..8.
func FuzzRepairWireRoundTrip(f *testing.F) {
	f.Add(uint64(1), uint64(2), uint64(3), uint64(4))
	f.Add(^uint64(0), uint64(0), ^uint64(0)>>1, uint64(1)<<63)
	f.Fuzz(func(t *testing.T, a, b, c, d uint64) {
		checkRoundTrip(t, censusMsg{alive: int(a)}, 9)
		checkRoundTrip(t, commitMsg{members: int(b)}, 10)
		checkRoundTrip(t, join1Msg{joiner: ids.ID(a), target: int(b)}, 11)
		checkRoundTrip(t, join2Msg{j1: ids.ID(a), t1: int(b), j2: ids.ID(c), t2: int(d)}, 12)
		checkRoundTrip(t, attachAckMsg{}, 13)
		checkRoundTrip(t, epochCommitMsg{members: int(c)}, 14)
	})
}

// checkRoundTrip encodes in, checks the wire carries kind, and checks
// that decoding the wire gives in back.
func checkRoundTrip[P interface {
	sim.Payload
	comparable
}, D interface {
	*P
	sim.Decoder
}](t *testing.T, in P, kind uint16) {
	t.Helper()
	var w sim.Wire
	in.Encode(&w)
	if w.Kind != kind {
		t.Fatalf("%T stamps kind %d, want %d", in, w.Kind, kind)
	}
	var out P
	D(&out).Decode(w)
	if out != in {
		t.Fatalf("%T: %+v decodes to %+v", in, in, out)
	}
}
