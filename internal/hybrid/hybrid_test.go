package hybrid

import (
	"testing"

	"overlay/internal/graphx"
	"overlay/internal/rng"
	"overlay/internal/sim"
	"overlay/internal/topology"
)

func TestSpannerPreservesComponents(t *testing.T) {
	for name, g := range map[string]*graphx.Digraph{
		"line":  topology.Line(80),
		"er":    topology.ErdosRenyi(120, 0.1, rng.New(1)),
		"star":  topology.Star(100),
		"multi": topology.DisjointCopies(3, func(i int) *graphx.Digraph { return topology.Ring(30) }),
	} {
		und := g.Undirected()
		sp := Spanner(und, und.N, 0, rng.New(7))
		wantLabels, wantK := und.ConnectedComponents()
		gotLabels, gotK := sp.H.ConnectedComponents()
		if gotK != wantK {
			t.Errorf("%s: H has %d components, want %d", name, gotK, wantK)
			continue
		}
		// Same partition (labels may permute).
		if !graphx.SameBiconnectedPartition(gotLabels, wantLabels) {
			t.Errorf("%s: H partitions nodes differently", name)
		}
	}
}

func TestSpannerBoundsDegree(t *testing.T) {
	// A dense graph must be thinned to O(log n) degree.
	g := topology.ErdosRenyi(300, 0.2, rng.New(3)).Undirected()
	sp := Spanner(g, g.N, 0, rng.New(5))
	lg := sim.LogBound(g.N)
	if d := sp.H.MaxDegree(); d > 8*lg {
		t.Errorf("H degree %d exceeds 8·log n = %d (input degree %d)", d, 8*lg, g.MaxDegree())
	}
	if sp.H.NumEdges() >= g.NumEdges() {
		t.Errorf("spanner did not sparsify: %d >= %d edges", sp.H.NumEdges(), g.NumEdges())
	}
}

func TestSpannerDelegationCentersValid(t *testing.T) {
	g := topology.Star(200).Undirected()
	sp := Spanner(g, g.N, 0, rng.New(9))
	for e, center := range sp.DelegationCenter {
		if g.HasEdge(e[0], e[1]) {
			t.Errorf("edge %v recorded as delegated but exists in G", e)
		}
		if !g.HasEdge(e[0], center) || !g.HasEdge(e[1], center) {
			t.Errorf("delegation center %d of %v not adjacent in G", center, e)
		}
	}
	// The star must collapse to degree O(1)-ish at the hub.
	if d := sp.H.Degree(0); d > 2*sim.LogBound(g.N)+4 {
		t.Errorf("hub degree %d not balanced", d)
	}
}

func TestConnectedComponentsMatchesOracle(t *testing.T) {
	sizes := []int{40, 55, 70}
	g := topology.DisjointCopies(len(sizes), func(i int) *graphx.Digraph {
		return topology.Line(sizes[i])
	})
	res, err := ConnectedComponents(g, CCParams{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	wantLabels, wantK := g.Undirected().ConnectedComponents()
	if res.NumComponents != wantK {
		t.Fatalf("components = %d, want %d", res.NumComponents, wantK)
	}
	if !graphx.SameBiconnectedPartition(res.Labels, wantLabels) {
		t.Error("component partition differs from oracle")
	}
	// Every component tree is valid and covers its members.
	for c, ct := range res.Trees {
		if err := ct.Tree.Validate(); err != nil {
			t.Errorf("component %d: %v", c, err)
		}
		if len(ct.Nodes) != ct.Tree.N() {
			t.Errorf("component %d: %d nodes vs tree size %d", c, len(ct.Nodes), ct.Tree.N())
		}
	}
	if res.Ledger.Rounds() <= 0 {
		t.Error("no rounds billed")
	}
}

func TestConnectedComponentsSingletons(t *testing.T) {
	g := graphx.NewDigraph(5) // five isolated nodes
	res, err := ConnectedComponents(g, CCParams{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumComponents != 5 {
		t.Errorf("components = %d, want 5", res.NumComponents)
	}
}

func TestConnectedComponentsHighDegree(t *testing.T) {
	// Stars exercise the unbounded-degree path the hybrid model exists
	// for: the hub exceeds any NCC0 budget but the spanner tames it.
	g := topology.DisjointCopies(2, func(i int) *graphx.Digraph { return topology.Star(150) })
	res, err := ConnectedComponents(g, CCParams{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumComponents != 2 {
		t.Errorf("components = %d, want 2", res.NumComponents)
	}
}

func TestCCRoundsScaleWithComponentSize(t *testing.T) {
	// E7's shape: for fixed component size m the bill is flat in n;
	// the dominant term scales with log m. Compare bills for m=16 vs
	// m=256 at equal n.
	bill := func(m, copies int) int {
		g := topology.DisjointCopies(copies, func(i int) *graphx.Digraph { return topology.Ring(m) })
		res, err := ConnectedComponents(g, CCParams{Seed: 8, MBound: m})
		if err != nil {
			t.Fatal(err)
		}
		return res.Ledger.Rounds()
	}
	small := bill(16, 16) // n = 256
	large := bill(256, 1) // n = 256
	if small >= large {
		t.Errorf("m=16 bill (%d) should undercut m=256 bill (%d) at equal n", small, large)
	}
}

func TestSpanningTreeValid(t *testing.T) {
	for name, g := range map[string]*graphx.Digraph{
		"line": topology.Line(90),
		"ring": topology.Ring(120),
		"er":   topology.ErdosRenyi(100, 0.08, rng.New(2)),
		"star": topology.Star(80),
		"grid": topology.Grid(8, 10),
	} {
		res, err := SpanningTree(g, 13)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if !g.Undirected().IsSpanningTree(res.Edges) {
			t.Errorf("%s: result is not a spanning tree of G", name)
		}
	}
}

// TestExpanderHistoryFeedsUnwinding pins what SpanningTree reads from
// expander.Result.History: with RecordPaths every evolution keeps its
// edges and, for each, the walk that made it (ℓ+1 nodes, origin to
// endpoint) — the unwinding fails on the first edge without one — and
// its measured Lemma 3.2 load; without RecordPaths the history is still
// one record per evolution, with the acceptance counts but no load and
// nothing else retained.
func TestExpanderHistoryFeedsUnwinding(t *testing.T) {
	g := topology.Grid(8, 10)
	for _, record := range []bool{true, false} {
		cc, err := ConnectedComponents(g, CCParams{Seed: 13, RecordPaths: record})
		if err != nil {
			t.Fatal(err)
		}
		ep := hybridExpanderParams(cc.spanner.H, g.N)
		if len(cc.expander.History) != ep.Evolutions {
			t.Fatalf("record=%v: %d history records for %d evolutions", record, len(cc.expander.History), ep.Evolutions)
		}
		for i, ev := range cc.expander.History {
			if (ev.Stats.MaxTokenLoad > 0) != record {
				t.Errorf("record=%v: evolution %d has max token load %d", record, i, ev.Stats.MaxTokenLoad)
			}
			if !record {
				if ev.Stats.SelfArrivals == 0 {
					t.Errorf("evolution %d counts no self-arrivals", i)
				}
				if ev.Edges != nil || ev.Paths != nil || ev.Next != nil {
					t.Errorf("evolution %d retains edges, paths or its graph without RecordPaths", i)
				}
				continue
			}
			if len(ev.Edges) == 0 || len(ev.Paths) != len(ev.Edges) {
				t.Fatalf("evolution %d: %d edges, %d paths", i, len(ev.Edges), len(ev.Paths))
			}
			for k, e := range ev.Edges {
				if p := ev.Paths[k]; len(p) != ep.Ell+1 || p[0] != e[0] || p[ep.Ell] != e[1] {
					t.Fatalf("evolution %d edge %v: walk %v", i, e, p)
				}
			}
		}
	}
}

func TestSpanningTreeRejectsDisconnected(t *testing.T) {
	g := topology.DisjointCopies(2, func(i int) *graphx.Digraph { return topology.Ring(10) })
	if _, err := SpanningTree(g, 1); err == nil {
		t.Error("disconnected input accepted")
	}
}

func TestSpanningTreeTiny(t *testing.T) {
	if res, err := SpanningTree(topology.Line(1), 1); err != nil || len(res.Edges) != 0 {
		t.Errorf("n=1: %v, %d edges", err, len(res.Edges))
	}
	res, err := SpanningTree(topology.Line(2), 1)
	if err != nil || len(res.Edges) != 1 {
		t.Errorf("n=2: %v, %d edges", err, len(res.Edges))
	}
}

// TestSpannerDeterministicAdjacency regression-tests the edge
// selection's sorted drain: same graph, same seed must give the same
// spanner edges in the same adjacency order, because downstream
// traversals (BFS parent selection, delegation chains) tie-break on
// that order. Before the sorted drain, the selection iterated the
// per-node source map directly and the adjacency order varied run to
// run within one process.
func TestSpannerDeterministicAdjacency(t *testing.T) {
	g := topology.ErdosRenyi(200, 0.08, rng.New(11)).Undirected()
	a := Spanner(g, g.N, 0, rng.New(42))
	b := Spanner(g, g.N, 0, rng.New(42))
	for v := 0; v < g.N; v++ {
		av, bv := a.Spanner.Out[v], b.Spanner.Out[v]
		if len(av) != len(bv) {
			t.Fatalf("node %d: spanner out-degree %d vs %d across runs", v, len(av), len(bv))
		}
		for i := range av {
			if av[i] != bv[i] {
				t.Fatalf("node %d: adjacency order differs at slot %d (%d vs %d)", v, i, av[i], bv[i])
			}
		}
	}
	if len(a.DelegationCenter) != len(b.DelegationCenter) {
		t.Fatalf("delegation records differ: %d vs %d", len(a.DelegationCenter), len(b.DelegationCenter))
	}
	for e, c := range a.DelegationCenter {
		if b.DelegationCenter[e] != c {
			t.Fatalf("delegation center of %v differs: %d vs %d", e, c, b.DelegationCenter[e])
		}
	}
}

func TestSpanningTreeDeterministic(t *testing.T) {
	g := topology.Grid(6, 6)
	a, err := SpanningTree(g, 21)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SpanningTree(g, 21)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Edges) != len(b.Edges) {
		t.Fatal("same seed produced different trees")
	}
	for i := range a.Edges {
		if a.Edges[i] != b.Edges[i] {
			t.Fatal("same seed produced different trees")
		}
	}
}

func TestBiconnectivityMatchesOracle(t *testing.T) {
	for name, g := range map[string]*graphx.Digraph{
		"cycle":     topology.Ring(40),
		"gadget":    topology.CutGadget(4, 5),
		"barbell":   topology.Barbell(6, 3),
		"line":      topology.Line(30),
		"er":        topology.ErdosRenyi(60, 0.08, rng.New(5)),
		"lollipop":  topology.Lollipop(40, 10),
		"caterpill": topology.Caterpillar(10, 2),
	} {
		und := g.Undirected()
		got, err := Biconnectivity(g, 17)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		want := und.BiconnectedComponents()
		if got.NumComponents != want.NumComponents {
			t.Errorf("%s: %d components, want %d", name, got.NumComponents, want.NumComponents)
			continue
		}
		if !graphx.SameBiconnectedPartition(got.EdgeComponent, want.EdgeComponent) {
			t.Errorf("%s: edge partition differs from Hopcroft-Tarjan", name)
		}
		if len(got.CutVertices) != len(want.CutVertices) {
			t.Errorf("%s: cut vertices %v, want %v", name, got.CutVertices, want.CutVertices)
		} else {
			for i := range want.CutVertices {
				if got.CutVertices[i] != want.CutVertices[i] {
					t.Errorf("%s: cut vertices %v, want %v", name, got.CutVertices, want.CutVertices)
					break
				}
			}
		}
		if len(got.Bridges) != len(want.Bridges) {
			t.Errorf("%s: bridges %v, want %v", name, got.Bridges, want.Bridges)
		} else {
			for i := range want.Bridges {
				if got.Bridges[i] != want.Bridges[i] {
					t.Errorf("%s: bridges %v, want %v", name, got.Bridges, want.Bridges)
					break
				}
			}
		}
		if got.IsBiconnected != und.IsBiconnected() {
			t.Errorf("%s: IsBiconnected = %v, oracle %v", name, got.IsBiconnected, und.IsBiconnected())
		}
	}
}

func TestBiconnectivityRandomizedAgainstOracle(t *testing.T) {
	// Random connected graphs across several seeds.
	for seed := uint64(0); seed < 6; seed++ {
		src := rng.New(seed)
		n := 20 + src.Intn(40)
		g := topology.ErdosRenyi(n, 0.07, src)
		got, err := Biconnectivity(g, seed+100)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		want := g.Undirected().BiconnectedComponents()
		if !graphx.SameBiconnectedPartition(got.EdgeComponent, want.EdgeComponent) {
			t.Errorf("seed %d: partition mismatch", seed)
		}
	}
}

func TestMISValidOnTopologies(t *testing.T) {
	for name, g := range map[string]*graphx.Digraph{
		"line":  topology.Line(200),
		"ring":  topology.Ring(151),
		"star":  topology.Star(100),
		"er":    topology.ErdosRenyi(150, 0.05, rng.New(4)),
		"grid":  topology.Grid(12, 12),
		"multi": topology.DisjointCopies(3, func(i int) *graphx.Digraph { return topology.Ring(31) }),
	} {
		res, err := MIS(g, 23)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		und := g.Undirected()
		ind, max := und.VerifyMIS(res.InMIS)
		if !ind || !max {
			t.Errorf("%s: independent=%v maximal=%v", name, ind, max)
		}
	}
}

func TestMISShatteringLeavesSmallComponents(t *testing.T) {
	g := topology.Grid(20, 20)
	res, err := MIS(g, 31)
	if err != nil {
		t.Fatal(err)
	}
	if res.UndecidedAfterShatter > g.N/4 {
		t.Errorf("shattering left %d of %d nodes undecided", res.UndecidedAfterShatter, g.N)
	}
	if res.MaxComponent > 40 {
		t.Errorf("largest undecided component %d too large", res.MaxComponent)
	}
}

func TestMISDeterministic(t *testing.T) {
	g := topology.ErdosRenyi(120, 0.06, rng.New(6))
	a, err := MIS(g, 41)
	if err != nil {
		t.Fatal(err)
	}
	b, err := MIS(g, 41)
	if err != nil {
		t.Fatal(err)
	}
	for v := range a.InMIS {
		if a.InMIS[v] != b.InMIS[v] {
			t.Fatal("same seed produced different MIS")
		}
	}
}

func TestMISEmptyAndTiny(t *testing.T) {
	if _, err := MIS(graphx.NewDigraph(0), 1); err != nil {
		t.Errorf("empty: %v", err)
	}
	res, err := MIS(topology.Line(1), 1)
	if err != nil || !res.InMIS[0] {
		t.Errorf("singleton must join MIS: %v", err)
	}
}

func TestLedgerAccounting(t *testing.T) {
	l := &Ledger{}
	l.Measure("a", 5, 2)
	l.Charge("b", 7, 9)
	if l.Rounds() != 12 {
		t.Errorf("Rounds = %d, want 12", l.Rounds())
	}
	if l.MaxGlobalPerRound() != 9 {
		t.Errorf("MaxGlobal = %d, want 9", l.MaxGlobalPerRound())
	}
	other := &Ledger{}
	other.Measure("c", 1, 1)
	l.Append("x/", other)
	if l.Rounds() != 13 || l.Phases[2].Name != "x/c" {
		t.Error("Append wrong")
	}
	if l.String() == "" {
		t.Error("String empty")
	}
}
