package main

import (
	"fmt"
	"math"
	"time"

	"overlay"
	"overlay/internal/benign"
	"overlay/internal/expander"
	"overlay/internal/graphx"
	"overlay/internal/overlays"
	"overlay/internal/rng"
	"overlay/internal/scenario"
	"overlay/internal/sim"
	"overlay/internal/wft"
)

// lineGraph and ringGraph are the two input topologies (the line is
// the worst-case-diameter input; the ring is what overlayd builds).
func lineGraph(n int) *overlay.Graph {
	g := overlay.NewGraph(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1)
	}
	return g
}

func ringGraph(n int) *overlay.Graph {
	g := lineGraph(n)
	if n > 2 {
		g.AddEdge(n-1, 0)
	}
	return g
}

// buildOut is what one build produced, from either the public entry
// point or the recomposed pipeline: the tree and every simulated
// statistic, so the two can be compared bit for bit.
type buildOut struct {
	tree     *overlay.Tree
	rounds   int
	msgs     int64
	maxRound int
	maxTotal int64
	capDrops int64
	diam     int
	gap      float64
}

func (b *buildOut) print() uint64 {
	p := newPrint()
	p.ints(b.rounds, b.maxRound, b.diam)
	p.u64(uint64(b.msgs), uint64(b.maxTotal), uint64(b.capDrops), math.Float64bits(b.gap))
	p.tree(b.tree)
	return p.h
}

func (b *buildOut) counts() map[string]int64 {
	return map[string]int64{"rounds": int64(b.rounds), "msgs": b.msgs, "capacity_drops": b.capDrops}
}

// runBuild drives build_msglevel and build_fast.
func runBuild(r *run) {
	msgLevel := r.cfg.Workload == "build_msglevel"
	n := r.sz.n
	var g *overlay.Graph
	for rep := 0; rep < r.sz.setupReps; rep++ {
		t0 := time.Now()
		if msgLevel {
			g = lineGraph(n)
		} else {
			g = ringGraph(n)
		}
		for w := 0; w < r.sz.warm; w++ {
			if out := r.plainBuild(g, msgLevel, derive(r.cfg.Seed, "warm", w)); out != nil {
				r.checkBuild(out, n, -1)
			}
		}
		r.since("setup", t0)
	}

	seedOf := func(i int) uint64 { return derive(r.cfg.Seed, "build", i) }
	start := time.Now()
	for i := 0; i < r.sz.minOps || time.Since(start) < r.budget(); i++ {
		// The operation under test: overlay.BuildTree.
		var plain *buildOut
		var dPlain time.Duration
		runPlain := func() {
			r.attempted++
			dPlain = r.timedOp("op", func() { plain = r.plainBuild(g, msgLevel, seedOf(i)) })
			if plain != nil {
				r.checkBuild(plain, n, i)
				r.add("build.msgs_per_s", float64(plain.msgs)/dPlain.Seconds())
			}
		}
		if !r.cfg.Trace {
			if runPlain(); plain != nil {
				r.fold(i, plain.print(), plain.counts())
				r.buildLookups(plain.tree, seedOf(i))
			}
			continue
		}

		// Traced pass: the recomposed pipeline and the public entry point
		// on the same seed, which must agree bit for bit. Which of the two
		// goes first alternates, so their ratio carries no order bias.
		var traced *buildOut
		var dTraced time.Duration
		runTraced := func() {
			r.attempted++
			trace := int32(i + 1)
			var err error
			root := r.tr.begin(trace, 0, "build")
			dTraced = r.timedOp("op.traced", func() { traced, err = r.tracedBuild(g, msgLevel, seedOf(i), 0, trace, root) })
			r.tr.end(root)
			if err != nil {
				r.violate("traced build %d: %v", i, err)
				traced = nil
				return
			}
			r.add("build.msgs_per_s.traced", float64(traced.msgs)/dTraced.Seconds())
			r.checkBuild(traced, n, i)
			r.fold(i, traced.print(), traced.counts())
		}
		if i%2 == 0 {
			runTraced()
			runPlain()
		} else {
			runPlain()
			runTraced()
		}
		if traced == nil || plain == nil {
			continue
		}
		if traced.print() != plain.print() {
			r.violate("build %d: the recomposed pipeline and overlay.BuildTree disagree (tree or statistics differ)", i)
		}
		r.add("ovh.ratio", dTraced.Seconds()/dPlain.Seconds())
		r.buildLookups(plain.tree, seedOf(i))
	}
	if r.cfg.Trace {
		// One extra pipeline at Workers 1: its ratio to the default run
		// is the measured parallel speed-up.
		if _, err := r.tracedBuild(g, msgLevel, seedOf(0), 1, 0, 0); err != nil {
			r.violate("workers=1 build: %v", err)
		}
	}
}

// plainBuild is the operation under test: overlay.BuildTree.
func (r *run) plainBuild(g *overlay.Graph, msgLevel bool, seed uint64) *buildOut {
	res, err := overlay.BuildTree(g, &overlay.Options{Seed: seed, MessageLevel: msgLevel})
	if err != nil {
		r.violate("BuildTree(seed %d): %v", seed, err)
		return nil
	}
	if res.Aborted || res.Tree == nil {
		r.violate("BuildTree(seed %d) aborted: %s", seed, res.AbortReason)
		return nil
	}
	st := res.Stats
	return &buildOut{tree: res.Tree, rounds: st.Rounds, msgs: st.Messages, maxRound: st.MaxMessagesPerRound,
		maxTotal: st.MaxMessagesTotal, capDrops: st.CapacityDrops, diam: st.ExpanderDiameter, gap: st.SpectralGap}
}

// checkBuild is the output check of one build, outside the timed region.
func (r *run) checkBuild(out *buildOut, n, i int) {
	for _, v := range scenario.TreeShapeViolations(n, out.tree) {
		r.violate("build %d: %s", i, v)
	}
	if budget := scenario.DefaultRoundBudget(n, nil); out.rounds > budget {
		r.violate("build %d: %d rounds exceed the O(log n) budget %d", i, out.rounds, budget)
	}
}

// buildLookups times batches of greedy finger lookups over a fresh
// tree (one sample per batch) and checks every path.
func (r *run) buildLookups(t *overlay.Tree, seed uint64) {
	n := len(t.Rank)
	if n < 2 {
		return
	}
	src := rng.New(seed).Split(0x100c)
	pairs := make([][2]int, r.sz.lookups)
	paths := make([][]int, len(pairs))
	for b := 0; b < r.sz.batches; b++ {
		for i := range pairs {
			pairs[i] = [2]int{src.Intn(n), src.Intn(n)}
		}
		t0 := time.Now()
		for i, p := range pairs {
			ranks := overlays.RouteChord(n, t.Rank[p[0]], t.Rank[p[1]])
			path := make([]int, len(ranks))
			for k, rk := range ranks {
				path[k] = t.NodeAt[rk]
			}
			paths[i] = path
		}
		r.add("lookup", time.Since(t0).Seconds()/float64(len(pairs)))
		for i, p := range pairs {
			r.checkPath(paths[i], p[0], p[1], n)
		}
	}
}

// checkPath is the lookup output check: the path starts at from, ends
// at to and takes at most ⌈log₂ k⌉ hops.
func (r *run) checkPath(path []int, from, to, k int) {
	r.attempted++
	switch {
	case len(path) == 0 || path[0] != from || path[len(path)-1] != to:
		r.violate("lookup %d→%d returned path %v", from, to, path)
	case len(path)-1 > sim.LogBound(k):
		r.violate("lookup %d→%d took %d hops, bound ⌈log₂ %d⌉ = %d", from, to, len(path)-1, k, sim.LogBound(k))
	}
}

// roundTimer reads a clock at every round boundary of an engine run
// through sim.Config.Interrupt, which the engine polls between rounds
// without consuming protocol randomness.
type roundTimer struct{ marks []time.Time }

func (rt *roundTimer) poll() bool { rt.marks = append(rt.marks, time.Now()); return false }

// flush records the per-round durations; end closes the last round.
func (rt *roundTimer) flush(r *run, end time.Time) {
	for i := range rt.marks {
		next := end
		if i+1 < len(rt.marks) {
			next = rt.marks[i+1]
		}
		r.add("sim.round", next.Sub(rt.marks[i]).Seconds())
	}
}

// tracedBuild re-composes BuildTree from the layers' public functions,
// one span per layer boundary, following overlay.buildMessageLevel and
// overlay.buildFast step for step; the caller proves it measured the
// same program by comparing the outcome with overlay.BuildTree's. The
// run at Workers: 1 keeps only the speed-up samples and returns nothing.
func (r *run) tracedBuild(g *overlay.Graph, msgLevel bool, seed uint64, workers int, trace, root int32) (*buildOut, error) {
	tr := r.tr
	record := workers == 0
	if !record {
		tr = nil
	}
	var dg *graphx.Digraph
	tr.do(trace, root, "graphx.digraph", func() {
		dg = graphx.NewDigraph(g.N)
		for _, e := range g.Edges {
			dg.AddEdge(e[0], e[1])
		}
	})
	var simple *graphx.Graph
	tr.do(trace, root, "graphx.simple", func() { simple = dg.Undirected() })
	connected := false
	tr.do(trace, root, "graphx.connected", func() { connected = simple.IsConnected() })
	if !connected {
		return nil, overlay.ErrNotConnected
	}
	bp := benign.Defaults(g.N, dg.MaxDegree())
	var m *graphx.Multi
	var err error
	tr.do(trace, root, "benign.prepare", func() { m, err = benign.Prepare(dg, bp) })
	if err != nil {
		return nil, err
	}
	ep := expander.DefaultParams(g.N)
	ep.Delta = bp.Delta
	ep.Workers = workers
	src := rng.New(seed)
	out := &buildOut{}
	if record {
		r.add("expander.evolutions", float64(ep.Evolutions))
	}

	var final *graphx.Multi
	var s *graphx.Graph
	if !msgLevel {
		t0 := time.Now()
		tr.do(trace, root, "expander.create", func() { final = expander.CreateExpander(m, ep, src).Final })
		if !record {
			r.since("expander.create_workers1", t0)
			return nil, nil
		}
		tr.do(trace, root, "graphx.simple", func() { s = final.Simple() })
		tr.do(trace, root, "graphx.connected", func() { connected = s.IsConnected() })
		if !connected {
			return nil, fmt.Errorf("evolved graph disconnected")
		}
		var wt *wft.Tree
		tr.do(trace, root, "wft.fromgraph", func() { wt, err = wft.FromGraph(s, nil) })
		if err != nil {
			return nil, err
		}
		tr.do(trace, root, "graphx.diameter", func() { out.diam = s.DiameterEstimate() })
		out.rounds = ep.Evolutions*(ep.Ell+2) + wft.Rounds(out.diam+2, m.N)
		tr.do(trace, root, "graphx.spectralgap", func() { out.gap = final.SpectralGapWorkers(200, src.Split(0x9a9), ep.Workers) })
		out.tree = &overlay.Tree{Root: wt.Root, Parent: wt.Parent, Rank: wt.Rank, NodeAt: wt.NodeAt}
		return out, nil
	}

	// Message level: the expander protocol, then the tree protocol,
	// each on its own engine.
	var eng1 *sim.Engine
	var protos1 []*expander.Protocol
	rt1 := &roundTimer{}
	cfg1 := sim.Config{Seed: seed, Workers: workers, Interrupt: rt1.poll}
	tr.do(trace, root, "expander.engine_new", func() { eng1, protos1 = expander.BuildEngine(m, ep, cfg1) })
	t0 := time.Now()
	tr.do(trace, root, "expander.run", func() { eng1.Run(ep.Evolutions*(ep.Ell+2) + 1 + 4) })
	run1, end1 := time.Since(t0), time.Now()
	tr.do(trace, root, "expander.final_graph", func() { final = expander.FinalGraph(eng1, protos1) })
	tr.do(trace, root, "graphx.simple", func() { s = final.Simple() })
	tr.do(trace, root, "graphx.connected", func() { connected = s.IsConnected() })
	if !connected {
		return nil, fmt.Errorf("evolved graph disconnected")
	}
	flood := 2*sim.LogBound(m.N) + 2
	tr.do(trace, root, "graphx.diameter", func() {
		if d := s.DiameterUpperBound(); d+2 > flood {
			flood = d + 2
		}
	})
	var eng2 *sim.Engine
	var protos2 []*wft.Protocol
	rt2 := &roundTimer{}
	cfg2 := sim.Config{Seed: seed + 1, Workers: workers, Interrupt: rt2.poll}
	tr.do(trace, root, "wft.build_engine_new", func() { eng2, protos2 = wft.BuildEngine(s, flood, cfg2) })
	t0 = time.Now()
	tr.do(trace, root, "wft.build_run", func() { eng2.Run(wft.Rounds(flood, m.N) + 4) })
	run2, end2 := time.Since(t0), time.Now()
	m1, m2 := eng1.Metrics(), eng2.Metrics()
	if !record {
		r.inc("sim.w1_run_s", (run1 + run2).Seconds())
		r.inc("sim.w1_msgs", float64(m1.TotalMessages+m2.TotalMessages))
		return nil, nil
	}
	var wt *wft.Tree
	tr.do(trace, root, "wft.extract", func() { wt, err = wft.ExtractTree(eng2, protos2) })
	if err != nil {
		return nil, err
	}
	tr.do(trace, root, "graphx.diameter", func() { out.diam = s.DiameterEstimate() })
	tr.do(trace, root, "graphx.spectralgap", func() { out.gap = final.SpectralGapWorkers(200, src.Split(0x9a9), ep.Workers) })

	rt1.flush(r, end1)
	rt2.flush(r, end2)
	r.inc("sim.run_s", (run1 + run2).Seconds())
	r.inc("sim.msgs", float64(m1.TotalMessages+m2.TotalMessages))
	r.inc("sim.engines_built", 2)
	r.inc("sim.capacity_drops", float64(m1.RecvDrops+m2.RecvDrops))
	r.add("expander.rounds", float64(eng1.Round()))
	r.add("expander.msgs", float64(m1.TotalMessages))
	r.add("wft.build_rounds", float64(eng2.Round()))
	r.add("wft.build_msgs", float64(m2.TotalMessages))

	out.tree = &overlay.Tree{Root: wt.Root, Parent: wt.Parent, Rank: wt.Rank, NodeAt: wt.NodeAt}
	out.rounds = eng1.Round() + eng2.Round()
	out.msgs = m1.TotalMessages + m2.TotalMessages
	out.maxRound = max(m1.MaxRoundSent(), m2.MaxRoundSent())
	out.maxTotal = m1.MaxPerNodeSent() + m2.MaxPerNodeSent()
	out.capDrops = m1.RecvDrops + m2.RecvDrops
	return out, nil
}
