// Package overlay constructs low-diameter overlay networks from
// arbitrary weakly connected graphs in O(log n) rounds, implementing
// "Time-Optimal Construction of Overlay Networks" (Götte, Hinnenthal,
// Scheideler, Werthmann; PODC 2021).
//
// The core operation is BuildTree: starting from a weakly connected
// knowledge graph of bounded degree, it produces a well-formed tree —
// a rooted tree of degree ≤ 3 and depth ⌈log₂ n⌉ containing every
// node — via the paper's CreateExpander procedure: the graph is made
// benign (Θ(log n)-regular, lazy, Θ(log n) minimum cut), then O(log n)
// random-walk evolutions raise its conductance to a constant, and the
// resulting O(log n)-diameter expander is contracted into the tree.
//
// Two execution modes are offered. The fast path (default) runs the
// evolutions as in-memory graph transformations and reports the round
// cost analytically; the message-level path (Options.MessageLevel)
// executes the actual distributed protocol on a synchronous engine
// with NCC0 capacity enforcement, and reports measured rounds and
// message loads. Both produce a valid well-formed tree; tests pin the
// message-level tree to the deterministic in-memory construction.
//
// The derived overlays of Section 1.4 (sorted ring, hypercube,
// butterfly, De Bruijn) are available through the Ring/… methods on
// BuildResult, and the hybrid-model applications of Section 4
// (connected components, spanning trees, biconnected components, MIS)
// through the corresponding top-level functions.
package overlay

import (
	"errors"
	"fmt"
	"slices"

	"overlay/internal/benign"
	"overlay/internal/expander"
	"overlay/internal/graphx"
	"overlay/internal/rng"
	"overlay/internal/sim"
	"overlay/internal/wft"
)

// Graph is an input knowledge graph: a directed edge (u,v) means u
// initially knows v's identifier. The zero value is an empty graph;
// set N and add edges.
type Graph struct {
	// N is the number of nodes, indexed 0..N-1.
	N int
	// Edges lists directed edges as (from, to) pairs.
	Edges [][2]int
}

// NewGraph returns an empty graph on n nodes.
func NewGraph(n int) *Graph { return &Graph{N: n} }

// AddEdge appends the directed edge (u, v).
func (g *Graph) AddEdge(u, v int) { g.Edges = append(g.Edges, [2]int{u, v}) }

// digraph converts to the internal representation, validating bounds.
func (g *Graph) digraph() (*graphx.Digraph, error) {
	if g.N < 0 {
		return nil, fmt.Errorf("overlay: negative node count %d", g.N)
	}
	for _, e := range g.Edges {
		if e[0] < 0 || e[0] >= g.N || e[1] < 0 || e[1] >= g.N {
			return nil, fmt.Errorf("overlay: edge %v out of range [0,%d)", e, g.N)
		}
	}
	return graphx.DigraphFromEdges(g.N, g.Edges), nil
}

// Options tune BuildTree. The zero value requests defaults everywhere.
type Options struct {
	// Seed makes runs reproducible; equal seeds give identical output.
	Seed uint64
	// MessageLevel runs the real distributed protocol on the NCC0
	// engine (slower; yields measured round/message statistics)
	// instead of the in-memory fast path.
	MessageLevel bool
	// Delta overrides the benign degree ∆ (0 = derive from n and the
	// input degree). Must be a positive multiple of 8.
	Delta int
	// Lambda overrides the minimum-cut parameter Λ (0 = ⌈log₂ n⌉).
	Lambda int
	// Ell overrides the walk length ℓ (0 = default 16).
	Ell int
	// Evolutions overrides L, the number of evolutions (0 = 2⌈log₂ n⌉).
	Evolutions int
	// CapFactor κ sets the NCC0 per-round capacity κ·⌈log₂ n⌉ for the
	// message-level path (0 = uncapped measurement mode).
	CapFactor int
	// Workers bounds the worker teams of both paths (0 = GOMAXPROCS, 1 =
	// a single goroutine, for profiling or running under instrumentation).
	// The message-level engine shards message delivery across this many
	// goroutines; the fast path splits the evolution token walks and
	// spectral mat-vecs the same way. Results never depend on the
	// value: every parallel stage is partitioned deterministically.
	Workers int
	// Faults installs a fault schedule (message drops, delays,
	// crash-stop failures, partitions) on the message-level engines;
	// see FaultPlan. Requires MessageLevel (the fast path simulates no
	// messages to fault). A faulted build either produces a well-formed
	// tree over the surviving nodes (BuildResult.Survivors) or reports
	// BuildResult.Aborted with a reason — it never errors merely
	// because the adversary won.
	Faults *FaultPlan
	// Interrupt, if non-nil, is polled between engine rounds on the
	// message-level path, and on the fast path before the build,
	// between evolutions and after the last; when it reports true the
	// build stops and BuildTree returns an error wrapping
	// ErrInterrupted that names where it stopped. Deadline-aware
	// callers install a poll of their context here; a build that runs
	// to completion is bit-identical whether or not the check was
	// installed.
	Interrupt func() bool
}

// Tree is a well-formed tree: rooted, degree ≤ 3, depth ⌈log₂ n⌉.
// Root is the minimum-identifier node's index, Parent[Root] == Root,
// and the children of heap rank r are ranks 2r+1 and 2r+2 (Rank and
// NodeAt are inverse), so routing and aggregation are index arithmetic.
type Tree = wft.Tree

// BuildStats reports the cost accounting of a BuildTree run: the
// unified Bill (Path "build/fast" or "build/measured"; Rounds charged
// analytically as L·(ℓ+2) evolutions plus the tree phases on the fast
// path, measured across both engine phases on the message-level path)
// plus the expander quality figures.
type BuildStats struct {
	Bill
	// ExpanderDiameter is the diameter of the final evolved graph.
	ExpanderDiameter int
	// SpectralGap brackets the final graph's conductance. It is an
	// estimate from 200 steps of power iteration whose start vector is
	// drawn from the seed, so another start vector reads another value
	// for the same graph (0.0171 and 0.0149 for one 256-node line
	// evolved with ℓ = 8).
	SpectralGap float64
}

// BuildResult carries the constructed tree and run statistics.
type BuildResult struct {
	// Tree is the constructed well-formed tree. When Survivors is
	// non-nil, Tree is indexed in survivor-local space: node v of the
	// tree is input node Survivors[v]. Tree is nil when Aborted.
	Tree  *Tree
	Stats BuildStats

	// Aborted reports that an installed fault schedule prevented the
	// build from completing a consistent tree (the protocol degraded
	// to silence instead of deadlocking); AbortReason says why.
	// Fault-free builds never abort — they error on invalid input.
	Aborted     bool
	AbortReason string
	// Survivors lists the input node indices alive at the end of a
	// faulted build, in ascending order; nil means every node survived
	// (in particular, always nil without Options.Faults).
	Survivors []int

	// expander retains the evolved low-diameter graph for derived
	// overlays (Ring, Hypercube, Butterfly, DeBruijn).
	expander *graphx.Graph
}

// ErrNotConnected is returned when the input graph is not weakly
// connected (use ConnectedComponents for multi-component inputs).
var ErrNotConnected = errors.New("overlay: input graph is not weakly connected")

// ErrInterrupted is returned (wrapped) when Options.Interrupt — or the
// context a Session.ApplyEpochCtx caller installed — fired before the
// run completed. It is a hard error, never an adversary abort: a
// session epoch that hits it rolls back to the pre-epoch state.
var ErrInterrupted = errors.New("overlay: run interrupted before completion")

// ErrEvolutionDisconnected is returned (wrapped, with the size of the
// smaller side) when the expander evolutions lost a cut of a connected
// input: an evolution keeps only the edges its walks create, so at small
// n a seed can draw badly (a few percent of n = 16 lines do). It is a
// losing draw, not a bad input: another seed redraws it, and a session's
// rebuild rung treats it as a defeat that RebuildRetries retries.
var ErrEvolutionDisconnected = errors.New("overlay: evolved graph disconnected")

// disconnectedError wraps ErrEvolutionDisconnected with the losing
// draw's size and the bill of the rounds it spent.
type disconnectedError struct {
	smaller, n int
	bill       Bill
}

func (e *disconnectedError) Error() string {
	return fmt.Sprintf("%v: %d of %d nodes cut off (redraw with another seed, or raise Delta or Evolutions)",
		ErrEvolutionDisconnected, e.smaller, e.n)
}

func (e *disconnectedError) Unwrap() error { return ErrEvolutionDisconnected }

// lostDraw is the error for an evolved graph s that is not connected:
// its smaller side is every node outside the largest component.
func lostDraw(s *graphx.Graph, bill Bill) error {
	labels, k := s.ConnectedComponents()
	size := make([]int, k)
	for _, l := range labels {
		size[l]++
	}
	return &disconnectedError{smaller: s.N - slices.Max(size), n: s.N, bill: bill}
}

// BuildTree constructs a well-formed tree over the input graph.
func BuildTree(g *Graph, opt *Options) (*BuildResult, error) {
	if opt == nil {
		opt = &Options{}
	}
	if opt.Faults != nil && !opt.MessageLevel {
		return nil, errors.New("overlay: Options.Faults requires MessageLevel (the fast path simulates no messages to fault)")
	}
	dg, err := g.digraph()
	if err != nil {
		return nil, err
	}
	if g.N == 0 {
		return &BuildResult{Tree: &Tree{Root: 0}}, nil
	}
	simple := dg.Undirected()
	if !simple.IsConnected() {
		return nil, ErrNotConnected
	}
	if opt.Faults != nil {
		if err := opt.Faults.validate(g.N); err != nil {
			return nil, err
		}
	}
	if opt.Interrupt != nil && opt.Interrupt() {
		return nil, fmt.Errorf("%w (before the build started)", ErrInterrupted)
	}

	bp := benign.Defaults(g.N, dg.MaxDegree())
	if opt.Delta > 0 {
		bp.Delta = opt.Delta
	}
	if opt.Lambda > 0 {
		bp.Lambda = opt.Lambda
	}
	m, err := benign.Prepare(dg, bp)
	if err != nil {
		return nil, err
	}
	ep := expander.DefaultParams(g.N)
	ep.Delta = bp.Delta
	if opt.Ell > 0 {
		ep.Ell = opt.Ell
	}
	if opt.Evolutions > 0 {
		ep.Evolutions = opt.Evolutions
	}
	ep.Workers = opt.Workers

	if opt.MessageLevel {
		return buildMessageLevel(m, ep, opt)
	}
	return buildFast(m, ep, opt)
}

// buildFast runs in-memory evolutions and the deterministic tree
// construction, charging rounds analytically.
func buildFast(m *graphx.Multi, ep expander.Params, opt *Options) (*BuildResult, error) {
	src := rng.New(opt.Seed)
	ep.Interrupt = opt.Interrupt
	res := expander.CreateExpander(m, ep, src)
	if ran := len(res.History); ran < ep.Evolutions {
		return nil, fmt.Errorf("%w (before evolution %d of %d)", ErrInterrupted, ran+1, ep.Evolutions)
	}
	if opt.Interrupt != nil && opt.Interrupt() {
		return nil, fmt.Errorf("%w (after expander evolution)", ErrInterrupted)
	}
	s := res.Final.Simple()
	if !s.IsConnected() {
		return nil, lostDraw(s, Bill{Path: "build/fast", Rounds: ep.Evolutions * (ep.Ell + 2)})
	}
	tree, err := wft.FromGraph(s, nil)
	if err != nil {
		return nil, err
	}
	diam := s.DiameterEstimate()
	flood := diam + 2
	rounds := ep.Evolutions*(ep.Ell+2) + wft.Rounds(flood, m.N)
	out := &BuildResult{
		Tree: tree,
		Stats: BuildStats{
			Bill:             Bill{Path: "build/fast", Rounds: rounds},
			ExpanderDiameter: diam,
			SpectralGap:      res.Final.SpectralGapWorkers(200, src.Split(0x9a9), ep.Workers),
		},
		expander: s,
	}
	return out, nil
}

// buildMessageLevel runs the full distributed pipeline on the engine.
// With Options.Faults installed, both engine phases run under the
// compiled adversary; a build the adversary defeats is reported as
// Aborted (with partial statistics) rather than as an error.
func buildMessageLevel(m *graphx.Multi, ep expander.Params, opt *Options) (*BuildResult, error) {
	engCfg := sim.Config{Seed: opt.Seed, Workers: opt.Workers, Interrupt: opt.Interrupt}
	// Correlated failure domains flatten into plain crashes and
	// partitions over the build's id space before compilation.
	faults := opt.Faults.expandDomains(m.N)
	var crashes []Crash
	if faults != nil {
		crashes = faults.materializeCrashes(m.N)
		engCfg.Adversary = faults.adversary(0, 1, crashes)
	}
	final, eng1, _ := expander.RunMessageLevel(m, ep, engCfg, opt.CapFactor)
	if eng1.Interrupted() {
		return nil, fmt.Errorf("%w (expander phase, round %d)", ErrInterrupted, eng1.Round())
	}
	s := final.Simple()
	src := rng.New(opt.Seed)

	// stats merges whatever engine phases have run; the abort paths
	// report partial accounting the same way a completed build does.
	stats := func(eng2 *sim.Engine) BuildStats {
		st := BuildStats{
			Bill:             engineBill("build/measured", eng1),
			ExpanderDiameter: s.DiameterEstimate(),
			SpectralGap:      final.SpectralGapWorkers(200, src.Split(0x9a9), ep.Workers),
		}
		if eng2 != nil {
			// The tree phase runs after the expander phase on the same
			// clock: Bill.add's sequential fold (a pathless bill keeps
			// the path).
			st.Bill.add(engineBill("", eng2))
		}
		return st
	}

	if !s.IsConnected() {
		if faults == nil {
			return nil, lostDraw(s, engineBill("build/measured", eng1))
		}
		return &BuildResult{
			Aborted:     true,
			AbortReason: "evolved graph disconnected under faults",
			Stats:       stats(nil),
			expander:    s,
		}, nil
	}
	flood := 2*sim.LogBound(m.N) + 2
	if d := s.DiameterUpperBound(); d+2 > flood {
		flood = d + 2
	}
	cap := 0
	if opt.CapFactor > 0 {
		cap = opt.CapFactor * sim.LogBound(m.N)
	}
	cfg2 := sim.Config{
		Seed: opt.Seed + 1, SendCap: cap, RecvCap: cap,
		Workers: opt.Workers, Interrupt: opt.Interrupt,
	}
	r1 := eng1.Round()
	if faults != nil {
		cfg2.Adversary = faults.adversary(r1, 2, crashes)
	}
	eng2, protos := wft.BuildEngine(s, flood, cfg2)
	eng2.Run(wft.Rounds(flood, m.N) + 4)
	if eng2.Interrupted() {
		return nil, fmt.Errorf("%w (tree phase, round %d)", ErrInterrupted, r1+eng2.Round())
	}
	var anomalies int64
	for _, p := range protos {
		anomalies += int64(p.Anomalies())
	}

	// The tree spans the nodes no crash has stopped; Survivors is set
	// only when somebody died.
	alive := aliveAfter(crashes, m.N, r1+eng2.Round())
	tree, survivors, err := wft.ExtractTreeSurvivors(eng2, protos, alive)
	if err != nil && faults == nil {
		return nil, err
	}
	st := stats(eng2)
	st.ProtocolAnomalies = anomalies
	if err != nil {
		return &BuildResult{
			Aborted:     true,
			AbortReason: err.Error(),
			Stats:       st,
			expander:    s,
		}, nil
	}
	if alive == nil {
		survivors = nil
	}
	out := &BuildResult{
		Tree:      tree,
		Stats:     st,
		Survivors: survivors,
		expander:  s,
	}
	return out, nil
}
