// Package expander implements CreateExpander (Section 2.1), the
// paper's core contribution: repeated graph evolutions that rewire a
// benign graph through short random walks until it has constant
// conductance and hence O(log n) diameter.
//
// One evolution on the current benign graph G_i:
//
//  1. every node creates ∆/8 tokens carrying its identifier;
//  2. for ℓ rounds each token moves along a uniformly random incident
//     slot (self-loops included, so the walk is lazy);
//  3. every node accepts up to 3∆/8 of the tokens it holds (a random
//     subset without replacement) and creates a bidirected edge to
//     each accepted token's origin;
//  4. every node pads with self-loops back to degree ∆.
//
// G_{i+1} consists solely of the new edges. Lemma 3.1 shows each
// evolution multiplies the conductance by Θ(√ℓ) w.h.p., so L = O(log n)
// evolutions reach a constant-conductance expander.
//
// The package provides the evolution both as an in-memory transformation
// (Evolve/CreateExpander — used by the public API fast path, the
// conductance experiments, and the spanning-tree unwinding, which needs
// the full walk history) and as a message-level protocol on the
// simulation engine (Protocol — used to measure rounds and per-node
// message loads under the NCC0 capacity regime).
//
// Randomness schedule: every token owns a private stream split from
// the evolution seed by its token index, and every node owns a private
// acceptance stream split by its node index. Tokens and nodes are
// therefore independent of each other and of execution order, which is
// what lets an evolution run its walk, acceptance and row-building
// phases across a worker team — and advance many tokens at once within
// one worker — while staying a pure function of (graph, params, seed):
// the output is bit-for-bit identical at every worker count, and
// identical to the one-token-at-a-time, one-edge-at-a-time specification
// in evolve_spec_test.go.
package expander

import (
	"fmt"

	"overlay/internal/graphx"
	"overlay/internal/par"
	"overlay/internal/rng"
	"overlay/internal/sim"
)

// Params control one run of CreateExpander.
type Params struct {
	// Delta is the benign degree ∆ (a multiple of 8 at least 16).
	Delta int
	// Ell is the walk length ℓ (a small constant in the NCC0 variant).
	Ell int
	// Evolutions is L, the number of evolutions to run.
	Evolutions int
	// RecordPaths retains, for every created edge, the walk path that
	// produced it; required by the spanning-tree construction
	// (Theorem 1.3) and by tests, at O(ℓ) memory per edge. It also
	// turns on Stats.MaxTokenLoad, which is read off the same trail.
	RecordPaths bool
	// Workers bounds the worker team for the walk, acceptance and
	// row-building phases (0 = GOMAXPROCS, 1 = sequential). The result
	// is bit-identical at every value.
	Workers int
	// Interrupt, if non-nil, is polled by CreateExpander between
	// evolutions — after each one but the last. When it reports true
	// CreateExpander stops there, and its Result holds the evolutions run
	// so far (fewer than Evolutions) with the last of their graphs as
	// Final. A sequence that runs to completion is bit-identical whether
	// or not the poll was installed.
	Interrupt func() bool
}

// DefaultParams returns practical parameters for n nodes: ∆ = 8·⌈log₂ n⌉
// (matching benign.Defaults' floor), ℓ = 16, and L = 2·⌈log₂ n⌉
// evolutions. These constants were calibrated empirically: across
// seeds and topologies they keep every evolution connected and reach a
// spectral gap ≥ 0.05 (constant conductance) with diameter ≤ 4 at
// n ≤ 4096. Callers preparing inputs of degree d > 2 should take ∆
// from benign.Defaults, which dominates this value.
func DefaultParams(n int) Params {
	delta := 8 * sim.LogBound(n)
	if delta < 16 {
		delta = 16
	}
	if r := delta % 8; r != 0 {
		delta += 8 - r
	}
	return Params{Delta: delta, Ell: 16, Evolutions: 2 * sim.LogBound(n)}
}

// Evolution is the record of a single evolution step.
type Evolution struct {
	// Next is G_{i+1}. Evolve returns it; the records in Result.History
	// leave it nil, because CreateExpander writes G_{i+1} over G_{i-1}.
	Next *graphx.Multi
	// Edges lists the created cross edges as (origin, endpoint) pairs,
	// before self-loop padding. Multiplicity is explicit. In
	// Result.History it is kept only under Params.RecordPaths.
	Edges [][2]int
	// Paths[k] is the node sequence (origin ... endpoint, ℓ+1 entries)
	// of the walk that created Edges[k]; nil unless RecordPaths.
	Paths [][]int
	// Stats carries the token measurements of Lemma 3.2.
	Stats Stats
}

// Stats aggregates token behaviour within one evolution.
type Stats struct {
	// MaxTokenLoad is the largest number of tokens held by any node in
	// any walk round (Lemma 3.2 bounds this by 3∆/8 w.h.p.). It is
	// measured only under Params.RecordPaths, from the recorded walks;
	// otherwise it is 0. The algorithm itself never reads it.
	MaxTokenLoad int
	// DroppedTokens counts tokens rejected by the 3∆/8 acceptance cap.
	DroppedTokens int
	// SelfArrivals counts tokens that ended at their own origin (they
	// create no cross edge; the slot is repadded as a self-loop).
	SelfArrivals int
}

// Rng stream labels separating the walk and acceptance phases of one
// evolution.
const (
	walkStreamLabel   = 0x3a1c
	acceptStreamLabel = 0xacce
)

// evolver runs evolutions of one shape (n, ∆, ℓ, workers). It owns
// every buffer an evolution works in, so the L evolutions of
// CreateExpander allocate their working set once, and it shares nothing
// between workers: each phase partitions its index space into
// contiguous ranges whose writes are disjoint. The scratch is O(n·∆/8)
// token state, and ℓ times that under RecordPaths for the trail. One
// worker team runs every phase of every evolution; its owner closes it
// before returning. The three phase functions are bound once, in
// newEvolver, and read the evolution at hand from the evolver's fields,
// so a phase hands the team no fresh closure.
type evolver struct {
	n, delta, ell             int
	perNode, acceptCap, total int
	workers                   int
	team                      par.Team

	// The evolution being run: G_i's slots (in, stride), G_{i+1}'s (out)
	// and its walk and acceptance streams.
	in, out              []int32
	stride               int
	walkRoot, acceptRoot *rng.Source
	// walkFn, acceptFn and rowFn are the bound phases: walk, accept and
	// fillRows.
	walkFn, acceptFn, rowFn func(chunk, lo, hi int)

	pos     []int32      // [total] token t's node; after the walk, its endpoint
	draws   []int32      // [walk chunks][ell][walkBlock] slots drawn for the block being walked
	start   []int32      // [n+1] endpoint v's tokens are grouped[start[v]:start[v+1]]
	grouped []int32      // [total] token indices by endpoint, kept ones first
	kept    []int32      // [n] trail histogram, counting-sort cursors, then the tokens endpoint v accepted
	rank    []int32      // [total] token t's index in its endpoint's kept prefix, -1 if dropped
	keys    []uint64     // [row chunks][perNode] row-fill sort scratch
	trail   []int32      // [ell][total] token positions after each step; RecordPaths only
	partial []chunkStats // per node chunk
}

// chunkStats is one node chunk's share of Stats.
type chunkStats struct {
	dropped, selfArrivals int
}

func newEvolver(n int, p Params) *evolver {
	e := &evolver{
		n: n, delta: p.Delta, ell: p.Ell,
		perNode: p.Delta / 8, acceptCap: 3 * p.Delta / 8,
		workers: par.Workers(p.Workers),
	}
	e.total = n * e.perNode
	e.pos = make([]int32, e.total)
	e.draws = make([]int32, e.workers*e.ell*walkBlock)
	e.start = make([]int32, n+1)
	e.grouped = make([]int32, e.total)
	e.kept = make([]int32, n)
	e.rank = make([]int32, e.total)
	e.keys = make([]uint64, e.workers*e.perNode)
	e.partial = make([]chunkStats, e.workers)
	if p.RecordPaths {
		e.trail = make([]int32, e.ell*e.total)
	}
	e.team.Open(e.workers)
	e.walkFn, e.acceptFn, e.rowFn = e.walk, e.accept, e.fillRows
	return e
}

// evolve runs one evolution on a ∆-regular graph — node u's slots are
// in[u*stride : u*stride+∆] — writes G_{i+1} over every slot of the
// ∆-strided out and returns the record without Next. Edges, and Paths
// when the evolver records trails, are built only if keepEdges.
//
// Phases: (1) walk — parallel over token ranges, a block of tokens a
// step at a time (see walk); under RecordPaths, Lemma 3.2's maximum
// load is then counted off the trail (sequential, O(ℓ·tokens));
// (2) tokens are grouped by endpoint with a counting sort (sequential,
// O(tokens)); (3) each endpoint applies the 3∆/8 cap on its private
// stream and ranks the tokens it keeps — parallel over node ranges;
// (4) every node pulls its own row of G_{i+1} — parallel over node
// ranges, see fillRows.
func (e *evolver) evolve(in []int32, stride int, out []int32, src *rng.Source, keepEdges bool) *Evolution {
	n := e.n
	e.in, e.stride, e.out = in, stride, out
	e.walkRoot = src.Split(walkStreamLabel)
	e.acceptRoot = src.Split(acceptStreamLabel)
	for i := range e.partial {
		e.partial[i] = chunkStats{}
	}

	// Phase 1.
	e.team.Run(e.total, e.walkFn)
	ev := &Evolution{}
	if e.trail != nil {
		ev.Stats.MaxTokenLoad = e.maxLoad()
	}

	// Phase 2: counting sort of token indices by endpoint, stable in
	// token order.
	clear(e.start)
	for _, v := range e.pos {
		e.start[v+1]++
	}
	for v := 0; v < n; v++ {
		e.start[v+1] += e.start[v]
	}
	copy(e.kept, e.start)
	for t, v := range e.pos {
		e.grouped[e.kept[v]] = int32(t)
		e.kept[v]++
	}

	// Phase 3.
	e.team.Run(n, e.acceptFn)
	for _, st := range e.partial {
		ev.Stats.DroppedTokens += st.dropped
		ev.Stats.SelfArrivals += st.selfArrivals
	}

	// Phase 4.
	e.team.Run(n, e.rowFn)
	if keepEdges {
		e.edges(ev)
	}
	return ev
}

// walkBlock is how many tokens walk together: few enough that their
// draws for all ℓ steps stay in L1, many enough that a step finds more
// independent loads than the core can keep in flight.
const walkBlock = 256

// walk runs the walks of tokens [lo, hi) — laid out origin-major, so
// token t starts at t/(∆/8) — a block at a time: first every draw of
// the block, each token's ℓ in a row on its own stream with the state
// in a register; then ℓ steps, each over the whole block.
func (e *evolver) walk(chunk, lo, hi int) {
	ell := e.ell
	flat, stride, walkRoot := e.in, e.stride, e.walkRoot
	draws := e.draws[chunk*ell*walkBlock:][:ell*walkBlock]
	for b := lo; b < hi; b += walkBlock {
		pos := e.pos[b:min(b+walkBlock, hi)]
		drawSlots(walkRoot, b, len(pos), ell, e.delta, draws)
		for i := range pos {
			pos[i] = int32((b + i) / e.perNode)
		}
		for s := 0; s < ell; s++ {
			stepBlock(flat, stride, draws[s*walkBlock:][:len(pos)], pos)
			if e.trail != nil {
				copy(e.trail[s*e.total+b:], pos)
			}
		}
	}
}

// drawSlots fills draws[s*walkBlock+i] with the slot token first+i
// draws at step s.
//
//overlay:hotpath
func drawSlots(walkRoot *rng.Source, first, count, ell, delta int, draws []int32) {
	for i := 0; i < count; i++ {
		ts := walkRoot.SplitVal(uint64(first + i))
		for s := 0; s < ell; s++ {
			draws[s*walkBlock+i] = int32(ts.Intn(delta))
		}
	}
}

// stepBlock advances each token of a block one lazy step, to the slot
// drawn for it. The tokens are independent, so their loads of flat are
// in flight together.
//
//overlay:hotpath
func stepBlock(flat []int32, stride int, slots, pos []int32) {
	pos = pos[:len(slots)]
	for i, slot := range slots {
		pos[i] = flat[int(pos[i])*stride+int(slot)]
	}
}

// maxLoad is Lemma 3.2's measurement: the largest number of tokens any
// node holds after any step, counted off the recorded trail one step at
// a time in kept, which phase 2 then overwrites.
func (e *evolver) maxLoad() int {
	m := int32(0)
	for s := 0; s < e.ell; s++ {
		clear(e.kept)
		for _, v := range e.trail[s*e.total:][:e.total] {
			e.kept[v]++
			m = max(m, e.kept[v])
		}
	}
	return int(m)
}

// accept applies the acceptance cap at endpoints [lo, hi): a node
// holding more than 3∆/8 tokens keeps a random subset drawn without
// replacement on its private stream, compacted to the front of its
// segment in acceptance order; every token learns its rank there.
func (e *evolver) accept(chunk, lo, hi int) {
	acceptRoot, st := e.acceptRoot, &e.partial[chunk]
	for v := lo; v < hi; v++ {
		seg := e.grouped[e.start[v]:e.start[v+1]]
		if len(seg) > e.acceptCap {
			as := acceptRoot.SplitVal(uint64(v))
			picked := as.SampleWithoutReplacement(len(seg), e.acceptCap)
			for i, pi := range picked {
				picked[i] = int(seg[pi])
			}
			for _, t := range seg {
				e.rank[t] = -1
			}
			st.dropped += len(seg) - e.acceptCap
			seg = seg[:e.acceptCap]
			for i, t := range picked {
				seg[i] = int32(t)
			}
		}
		e.kept[v] = int32(len(seg))
		own := v * e.perNode
		for i, t := range seg {
			e.rank[t] = int32(i)
			if uint(int(t)-own) < uint(e.perNode) {
				st.selfArrivals++
			}
		}
	}
}

// fillRows writes rows [lo, hi) of G_{i+1}. Inserting one cross edge
// per kept token in (endpoint, acceptance) order — the specification —
// leaves node u's slots in this order: the endpoints below u of u's own
// kept tokens, by (endpoint, rank); the origins of the tokens u kept,
// in acceptance order; the endpoints above u of its own kept tokens;
// self-loops up to ∆. Tokens that returned to their origin make no
// edge. The acceptance cap bounds the cross slots by ∆/8 + 3∆/8. The
// chunk's keys are scratch for u's ≤ ∆/8 own tokens.
//
//overlay:hotpath
func (e *evolver) fillRows(chunk, lo, hi int) {
	perNode, delta, out := e.perNode, e.delta, e.out
	keys := e.keys[chunk*perNode : (chunk+1)*perNode]
	for u := lo; u < hi; u++ {
		nk := 0
		for t := u * perNode; t < (u+1)*perNode; t++ {
			v, r := e.pos[t], e.rank[t]
			if r < 0 || int(v) == u {
				continue
			}
			key := uint64(v)<<32 | uint64(r)
			i := nk
			for ; i > 0 && keys[i-1] > key; i-- {
				keys[i] = keys[i-1]
			}
			keys[i] = key
			nk++
		}
		row := out[u*delta : (u+1)*delta]
		k, i := 0, 0
		for ; i < nk && int(keys[i]>>32) < u; i++ {
			row[k] = int32(keys[i] >> 32)
			k++
		}
		for _, t := range e.grouped[e.start[u] : e.start[u]+e.kept[u]] {
			if o := uint32(t) / uint32(perNode); int(o) != u {
				row[k] = int32(o)
				k++
			}
		}
		for ; i < nk; i++ {
			row[k] = int32(keys[i] >> 32)
			k++
		}
		for ; k < delta; k++ {
			row[k] = int32(u)
		}
	}
}

// edges lists the created cross edges in (endpoint, acceptance) order
// and, from the recorded trail, the walk behind each.
func (e *evolver) edges(ev *Evolution) {
	ev.Edges = make([][2]int, 0, e.total-ev.Stats.DroppedTokens-ev.Stats.SelfArrivals)
	var walks []int
	if e.trail != nil {
		ev.Paths = make([][]int, 0, cap(ev.Edges))
		walks = make([]int, cap(ev.Edges)*(e.ell+1))
	}
	for v := 0; v < e.n; v++ {
		for _, t := range e.grouped[e.start[v] : e.start[v]+e.kept[v]] {
			o := int(t) / e.perNode
			if o == v {
				continue
			}
			ev.Edges = append(ev.Edges, [2]int{o, v})
			if e.trail != nil {
				path := walks[: e.ell+1 : e.ell+1]
				walks = walks[e.ell+1:]
				path[0] = o
				for s := 0; s < e.ell; s++ {
					path[s+1] = int(e.trail[s*e.total+int(t)])
				}
				ev.Paths = append(ev.Paths, path)
			}
		}
	}
}

// checkRegular panics unless m is ∆-regular: the walk distribution (and
// Lemma 3.2's load bound) depend on it.
func checkRegular(m *graphx.Multi, delta int) {
	if !m.IsRegular(delta) {
		panic(fmt.Sprintf("expander: Evolve on non-%d-regular graph", delta))
	}
}

// Evolve runs one evolution on m and returns the full record: G_{i+1},
// the created edges, and their walks if p.RecordPaths. m must be
// ∆-regular for p.Delta; violations panic.
func Evolve(m *graphx.Multi, p Params, src *rng.Source) *Evolution {
	checkRegular(m, p.Delta)
	in, stride := m.FlatSlots()
	out := make([]int32, m.N*p.Delta)
	e := newEvolver(m.N, p)
	defer e.team.Close()
	ev := e.evolve(in, stride, out, src, true)
	ev.Next = graphx.MultiFromRows(m.N, p.Delta, out)
	return ev
}

// Result is the outcome of CreateExpander.
type Result struct {
	// Final is G_L, the constant-conductance graph.
	Final *graphx.Multi
	// History holds the record of every evolution in order: always its
	// Stats; its Edges and Paths only when Params.RecordPaths was set;
	// never Next — the intermediate graphs are not retained.
	History []*Evolution
}

// CreateExpander runs L evolutions starting from the benign graph g0,
// which it does not modify, or fewer when Params.Interrupt fires. One
// evolver serves all of them, and G_{i+1} is written over G_{i-1}: two
// row arrays alternate, so the working set is two graphs however large
// L is.
func CreateExpander(g0 *graphx.Multi, p Params, src *rng.Source) *Result {
	res := &Result{Final: g0, History: make([]*Evolution, 0, p.Evolutions)}
	if p.Evolutions <= 0 {
		return res
	}
	checkRegular(g0, p.Delta)
	e := newEvolver(g0.N, p)
	defer e.team.Close()
	cur, stride := g0.FlatSlots()
	var bufs [2][]int32
	for i := 0; i < p.Evolutions; i++ {
		if i > 0 && p.Interrupt != nil && p.Interrupt() {
			break
		}
		if i < 2 {
			bufs[i] = make([]int32, g0.N*p.Delta)
		}
		next := bufs[i&1]
		res.History = append(res.History, e.evolve(cur, stride, next, src.Split(uint64(i)+0xe0), p.RecordPaths))
		cur, stride = next, p.Delta
	}
	res.Final = graphx.MultiFromRows(g0.N, p.Delta, cur)
	return res
}
