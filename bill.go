package overlay

import "overlay/internal/sim"

// Bill is the unified cost schema of every plane of this package: a
// one-shot build, a charged patch estimate, a measured patch-epoch
// protocol, a recovery rebuild, and the hybrid-model algorithms all
// report rounds and message loads through the same fields, so
// harnesses (overlaycli, overlayd, bench/, the scenario runner) account
// for all of them identically. BuildStats and EpochBill embed it;
// the hybrid results (ConnectedComponents, SpanningTree, …) carry it
// directly.
type Bill struct {
	// Path names the execution path that produced the numbers:
	// "build/fast", "build/measured", "patch/charged",
	// "patch/measured", "patch/noop", "rebuild/fast",
	// "rebuild/measured", "hybrid", or a "+"-joined sequence when a
	// measured patch aborted and fell back to a rebuild. Under the
	// epoch recovery ladder consecutive repeats compress to a
	// run-length form — "patch/measured×2+rebuild/measured×3" reads
	// "two defeated patch attempts, two defeated rebuilds, the third
	// rebuild committed".
	Path string
	// Rounds is the synchronous round cost: measured on the engine for
	// the message-level paths, analytically charged otherwise.
	Rounds int
	// Messages counts every wire message individually simulated
	// (measured paths) or charged by the analytic cost model. The fast
	// build path simulates none and reports 0.
	Messages int64
	// MaxMessagesPerRound is the largest per-node per-round unit count
	// (measured paths only; the NCC0 bound is O(log n)).
	MaxMessagesPerRound int
	// MaxMessagesTotal is the largest per-node total (Theorem 1.1
	// bounds it by O(log² n); measured paths only).
	MaxMessagesTotal int64
	// CapacityDrops counts receive-capacity drops (0 in correct runs).
	CapacityDrops int64
	// FaultDrops and FaultDelays count messages the installed fault
	// plane discarded or held back (0 without a fault plan).
	FaultDrops  int64
	FaultDelays int64
	// ProtocolAnomalies counts messages a protocol discarded because
	// its local state could not serve them — the degrade-to-silence
	// path faults push protocols onto. Always 0 in fault-free runs;
	// tests pin that.
	ProtocolAnomalies int64
	// GlobalCapacity is the peak per-node per-round global-message
	// load γ of a hybrid-model algorithm (hybrid paths only).
	GlobalCapacity int
	// Itemized is the human-readable per-phase breakdown, where the
	// path produces one (maintenance epochs and hybrid algorithms).
	Itemized string
}

// add accumulates another bill's costs into b (used when a measured
// patch aborts and its cost is carried into the fallback rebuild).
// Path is joined with "+"; the per-round and per-node maxima combine
// conservatively (max and sum respectively — the two runs happen in
// sequence on the session clock).
func (b *Bill) add(o Bill) {
	if b.Path == "" {
		b.Path = o.Path
	} else if o.Path != "" {
		b.Path += "+" + o.Path
	}
	b.Rounds += o.Rounds
	b.Messages += o.Messages
	if o.MaxMessagesPerRound > b.MaxMessagesPerRound {
		b.MaxMessagesPerRound = o.MaxMessagesPerRound
	}
	b.MaxMessagesTotal += o.MaxMessagesTotal
	b.CapacityDrops += o.CapacityDrops
	b.FaultDrops += o.FaultDrops
	b.FaultDelays += o.FaultDelays
	b.ProtocolAnomalies += o.ProtocolAnomalies
	if o.GlobalCapacity > b.GlobalCapacity {
		b.GlobalCapacity = o.GlobalCapacity
	}
	b.Itemized += o.Itemized
}

// engineBill reads a finished engine run into a bill on the given path.
func engineBill(path string, eng *sim.Engine) Bill {
	m := eng.Metrics()
	return Bill{
		Path:                path,
		Rounds:              eng.Round(),
		Messages:            m.TotalMessages,
		MaxMessagesPerRound: m.MaxRoundSent(),
		MaxMessagesTotal:    m.MaxPerNodeSent(),
		CapacityDrops:       m.RecvDrops,
		FaultDrops:          m.FaultDrops,
		FaultDelays:         m.FaultDelays,
	}
}

// Accounting selects how a Session bills patch epochs.
type Accounting int

const (
	// Charged estimates patch costs analytically from the repair
	// structure (the default; no messages are simulated).
	Charged Accounting = iota
	// Measured runs each patch epoch as a real wire protocol on the
	// simulation engine — the session fault plan applies to the repair
	// traffic itself, and the bill reports measured rounds, messages,
	// and fault-plane counters.
	Measured
)

// String names the accounting mode.
func (a Accounting) String() string {
	switch a {
	case Charged:
		return "charged"
	case Measured:
		return "measured"
	}
	return "invalid"
}
