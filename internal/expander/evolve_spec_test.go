package expander

// The specification of one evolution: the sequential-at-heart Evolve
// and CreateExpander this package shipped until the evolver in
// evolve.go replaced them, kept verbatim (renamed, and fanned out on a
// par.Team since par.For went) as the oracle TestEvolveMatchesSpec and
// FuzzEvolveMatchesSpec compare the evolver against, slot for slot. It builds G_{i+1} the obvious way —
// one AddCrossEdge per accepted token in (endpoint, acceptance) order,
// then PadSelfLoops — and retains every intermediate graph.

import (
	"fmt"
	"sync/atomic"

	"overlay/internal/graphx"
	"overlay/internal/par"
	"overlay/internal/rng"
)

// specEvolve runs one evolution on m and returns the record. m must be
// ∆-regular for p.Delta; the walk distribution (and Lemma 3.2's load
// bound) depend on it, so violations panic.
//
// Phases: (1) every token walks ℓ steps on its private rng stream —
// parallel over token ranges, with per-(round,node) token loads
// accumulated atomically under RecordPaths (without it MaxTokenLoad is
// 0); (2) tokens are grouped by endpoint with a
// counting sort (sequential, O(tokens)); (3) each endpoint applies the
// 3∆/8 acceptance cap on its private stream — parallel over node
// ranges; (4) edges, paths, and G_{i+1} are materialized in canonical
// (endpoint, acceptance-order) order — sequential, O(edges + n·∆).
func specEvolve(m *graphx.Multi, p Params, src *rng.Source) *Evolution {
	delta := p.Delta
	if !m.IsRegular(delta) {
		panic(fmt.Sprintf("expander: Evolve on non-%d-regular graph", delta))
	}
	n := m.N
	perNode := delta / 8
	acceptCap := 3 * delta / 8
	total := n * perNode
	workers := par.Workers(p.Workers)
	var team par.Team
	team.Open(workers)
	defer team.Close()
	flat, stride := m.FlatSlots()
	walkRoot := src.Split(walkStreamLabel)
	acceptRoot := src.Split(acceptStreamLabel)

	ev := &Evolution{}
	if total == 0 {
		ev.Next = graphx.NewMultiRegular(n, delta)
		ev.Next.PadSelfLoops(delta)
		return ev
	}

	// Phase 1: walks. pos[t] is token t's position after each step;
	// loads[step*n+v] counts tokens at v after that step, under
	// RecordPaths only. Tokens are independent given their private
	// streams, so workers share only the load counters, which are summed
	// atomically — integer addition commutes, so the totals match the
	// sequential schedule exactly.
	pos := make([]int32, total)
	loads := make([]int32, p.Ell*n)
	var paths [][]int
	if p.RecordPaths {
		paths = make([][]int, total)
	}
	team.Run(total, func(_, lo, hi int) {
		for t := lo; t < hi; t++ {
			ts := walkRoot.SplitVal(uint64(t))
			at := int32(t / perNode) // tokens are laid out origin-major
			var path []int
			if p.RecordPaths {
				path = make([]int, 1, p.Ell+1)
				path[0] = int(at)
			}
			for step := 0; step < p.Ell; step++ {
				at = flat[int(at)*stride+ts.Intn(delta)]
				if p.RecordPaths {
					atomic.AddInt32(&loads[step*n+int(at)], 1)
					path = append(path, int(at))
				}
			}
			pos[t] = at
			if p.RecordPaths {
				paths[t] = path
			}
		}
	})
	for _, l := range loads {
		if int(l) > ev.Stats.MaxTokenLoad {
			ev.Stats.MaxTokenLoad = int(l)
		}
	}

	// Phase 2: group token indices by endpoint (counting sort, stable
	// in token order).
	start := make([]int32, n+1)
	for _, v := range pos {
		start[v+1]++
	}
	for v := 0; v < n; v++ {
		start[v+1] += start[v]
	}
	grouped := make([]int32, total)
	fill := make([]int32, n)
	for t, v := range pos {
		grouped[start[v]+fill[v]] = int32(t)
		fill[v]++
	}

	// Phase 3: acceptance. Each endpoint keeps at most 3∆/8 tokens,
	// chosen without replacement on its private stream; kept tokens are
	// compacted to the front of the node's segment in acceptance order.
	kept := fill // reuse: kept[v] <= fill[v]
	type accStats struct{ dropped, selfArrivals int }
	partial := make([]accStats, workers)
	team.Run(n, func(chunk, lo, hi int) {
		sel := make([]int32, acceptCap)
		st := &partial[chunk]
		for v := lo; v < hi; v++ {
			seg := grouped[start[v]:start[v+1]]
			if len(seg) > acceptCap {
				as := acceptRoot.SplitVal(uint64(v))
				picked := as.SampleWithoutReplacement(len(seg), acceptCap)
				for i, pi := range picked {
					sel[i] = seg[pi]
				}
				copy(seg, sel)
				st.dropped += len(seg) - acceptCap
				kept[v] = int32(acceptCap)
			} else {
				kept[v] = int32(len(seg))
			}
			for _, t := range seg[:kept[v]] {
				if int(t)/perNode == v {
					st.selfArrivals++
				}
			}
		}
	})
	accepted := 0
	for v := 0; v < n; v++ {
		accepted += int(kept[v])
	}
	for i := range partial {
		ev.Stats.DroppedTokens += partial[i].dropped
		ev.Stats.SelfArrivals += partial[i].selfArrivals
	}

	// Phase 4: materialize edges and G_{i+1} in canonical order.
	next := graphx.NewMultiRegular(n, delta)
	ev.Edges = make([][2]int, 0, accepted-ev.Stats.SelfArrivals)
	if p.RecordPaths {
		ev.Paths = make([][]int, 0, cap(ev.Edges))
	}
	for v := 0; v < n; v++ {
		for _, t := range grouped[start[v] : start[v]+kept[v]] {
			o := int(t) / perNode
			if o == v {
				continue
			}
			next.AddCrossEdge(o, v)
			ev.Edges = append(ev.Edges, [2]int{o, v})
			if p.RecordPaths {
				ev.Paths = append(ev.Paths, paths[t])
			}
		}
	}

	// Self-loop padding back to ∆-regularity. Acceptance caps guarantee
	// degree ≤ ∆/8 (own accepted tokens) + 3∆/8 (accepted others) = ∆/2.
	next.PadSelfLoops(delta)
	ev.Next = next
	return ev
}

// specCreateExpander runs L evolutions starting from the benign graph
// g0, retaining every evolution (graph, edges, and paths if recorded).
func specCreateExpander(g0 *graphx.Multi, p Params, src *rng.Source) *Result {
	res := &Result{Final: g0, History: make([]*Evolution, 0, p.Evolutions)}
	for i := 0; i < p.Evolutions; i++ {
		ev := specEvolve(res.Final, p, src.Split(uint64(i)+0xe0))
		res.History = append(res.History, ev)
		res.Final = ev.Next
	}
	return res
}
