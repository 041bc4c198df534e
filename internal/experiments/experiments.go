// Package experiments implements the per-claim experiment harness:
// every experiment E1…E12 regenerates one table or series, each headed
// by the paper claim it checks. The tables that build a tree call
// overlay.BuildTree, so they measure the library itself. The bench
// targets in this package's bench_test.go and cmd/benchharness both
// run these functions (README, "Tests, benches, CI").
package experiments

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"overlay"
	"overlay/internal/baseline"
	"overlay/internal/benign"
	"overlay/internal/expander"
	"overlay/internal/graphx"
	"overlay/internal/hybrid"
	"overlay/internal/rng"
	"overlay/internal/sim"
	"overlay/internal/topology"
)

// Table is one experiment's tabular output.
type Table struct {
	// Name and Claim identify the experiment and the paper claim.
	Name, Claim string
	// Header labels the columns.
	Header []string
	// Rows hold the formatted cells.
	Rows [][]string
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "## %s — %s\n", t.Name, t.Claim)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			fmt.Fprintf(&b, "%-*s  ", widths[i], c)
		}
		b.WriteString("\n")
	}
	line(t.Header)
	for _, row := range t.Rows {
		line(row)
	}
	return b.String()
}

// topologyFor builds the named input graph family at size n.
func topologyFor(name string, n int, src *rng.Source) *graphx.Digraph {
	switch name {
	case "line":
		return topology.Line(n)
	case "ring":
		return topology.Ring(n)
	case "tree":
		return topology.BinaryTree(n)
	case "grid":
		side := 1
		for side*side < n {
			side++
		}
		return topology.Grid(side, side)
	case "regular":
		if n%2 == 1 {
			n++
		}
		return topology.RandomRegular(n, 3, src)
	default:
		panic("experiments: unknown topology " + name)
	}
}

// buildBenign prepares the benign graph for an input.
func buildBenign(g *graphx.Digraph) (*graphx.Multi, benign.Params, error) {
	bp := benign.Defaults(g.N, g.MaxDegree())
	m, err := benign.Prepare(g, bp)
	return m, bp, err
}

// inputGraph copies g's out-lists, in order, into BuildTree's input
// type, from which BuildTree rebuilds the same digraph.
func inputGraph(g *graphx.Digraph) *overlay.Graph {
	in := overlay.NewGraph(g.N)
	for u, out := range g.Out {
		for _, v := range out {
			in.AddEdge(u, v)
		}
	}
	return in
}

// measuredBuild runs BuildTree on the message-level path: both phases'
// rounds and message loads are in the result's Stats.Bill.
func measuredBuild(g *graphx.Digraph, seed uint64, workers int) (*overlay.BuildResult, error) {
	return overlay.BuildTree(inputGraph(g), &overlay.Options{Seed: seed, MessageLevel: true, Workers: workers})
}

// E1RoundsVsN measures message-level pipeline rounds across topologies
// and sizes; Theorem 1.1 predicts rounds/log₂ n constant.
func E1RoundsVsN(ns []int, seed uint64) (*Table, error) {
	t := &Table{
		Name:   "E1",
		Claim:  "Theorem 1.1: well-formed tree in O(log n) rounds",
		Header: []string{"topology", "n", "rounds", "rounds/log2n"},
	}
	for _, name := range []string{"line", "ring", "tree", "grid"} {
		for _, n := range ns {
			g := topologyFor(name, n, rng.New(seed))
			res, err := measuredBuild(g, seed, 0)
			if err != nil {
				return nil, fmt.Errorf("E1 %s n=%d: %w", name, n, err)
			}
			rounds := res.Stats.Rounds
			t.Rows = append(t.Rows, []string{
				name, itoa(g.N), itoa(rounds),
				fmt.Sprintf("%.1f", float64(rounds)/float64(sim.LogBound(g.N))),
			})
		}
	}
	return t, nil
}

// E2Messages measures per-round and total per-node message loads;
// Theorem 1.1 predicts O(log n) and O(log² n).
func E2Messages(ns []int, seed uint64) (*Table, error) {
	t := &Table{
		Name:   "E2",
		Claim:  "Theorem 1.1: O(log n) msgs/round, O(log² n) total per node",
		Header: []string{"n", "max/round", "per-log n", "max total", "per-log2 n"},
	}
	for _, n := range ns {
		g := topology.Line(n)
		res, err := measuredBuild(g, seed, 0)
		if err != nil {
			return nil, fmt.Errorf("E2 n=%d: %w", n, err)
		}
		maxRound, maxTotal := res.Stats.MaxMessagesPerRound, res.Stats.MaxMessagesTotal
		lg := float64(sim.LogBound(n))
		t.Rows = append(t.Rows, []string{
			itoa(n), itoa(maxRound), fmt.Sprintf("%.1f", float64(maxRound)/lg),
			fmt.Sprintf("%d", maxTotal), fmt.Sprintf("%.1f", float64(maxTotal)/(lg*lg)),
		})
	}
	return t, nil
}

// E3Conductance records the spectral-gap series across evolutions on a
// line; Lemma 3.1 predicts monotone growth to a constant plateau.
func E3Conductance(n int, seed uint64) (*Table, error) {
	t := &Table{
		Name:   "E3",
		Claim:  "Lemma 3.1/3.3: conductance grows by Θ(√ℓ) per evolution until constant",
		Header: []string{"evolution", "spectral gap (≥Φ²/2)", "sweep Φ (≥Φ)", "min cut"},
	}
	g := topology.Line(n)
	m, bp, err := buildBenign(g)
	if err != nil {
		return nil, err
	}
	ep := expander.DefaultParams(n)
	ep.Delta = bp.Delta
	src := rng.New(seed)
	cur := m
	for i := 0; i <= ep.Evolutions; i++ {
		gap := cur.SpectralGap(300, src.Split(uint64(1000+i)))
		sweep := cur.SweepConductance(bp.Delta, 300, src.Split(uint64(2000+i)))
		cut := "-"
		if n <= 512 {
			cut = itoa(cur.MinCut())
		}
		t.Rows = append(t.Rows, []string{
			itoa(i), fmt.Sprintf("%.5f", gap), fmt.Sprintf("%.5f", sweep), cut,
		})
		if i < ep.Evolutions {
			cur = expander.Evolve(cur, ep, src.Split(uint64(i))).Next
		}
	}
	return t, nil
}

// E4TokenLoad measures the maximum token load per evolution against
// Lemma 3.2's 3∆/8 bound.
func E4TokenLoad(n int, seed uint64) (*Table, error) {
	t := &Table{
		Name:   "E4",
		Claim:  "Lemma 3.2: P[node holds ≥ 3∆/8 tokens] ≤ e^{-∆}",
		Header: []string{"evolution", "max load", "3∆/8 bound", "dropped", "self-arrivals"},
	}
	g := topology.Ring(n)
	m, bp, err := buildBenign(g)
	if err != nil {
		return nil, err
	}
	ep := expander.DefaultParams(n)
	ep.Delta = bp.Delta
	ep.RecordPaths = true // the evolver measures the load only from recorded walks
	res := expander.CreateExpander(m, ep, rng.New(seed))
	for i, ev := range res.History {
		t.Rows = append(t.Rows, []string{
			itoa(i), itoa(ev.Stats.MaxTokenLoad), itoa(3 * bp.Delta / 8),
			itoa(ev.Stats.DroppedTokens), itoa(ev.Stats.SelfArrivals),
		})
	}
	return t, nil
}

// E5TreeQuality reports depth and degree of the constructed trees.
func E5TreeQuality(ns []int, seed uint64) (*Table, error) {
	t := &Table{
		Name:   "E5",
		Claim:  "Definition: well-formed tree has constant degree and O(log n) depth",
		Header: []string{"n", "depth", "ceil(log2(n))", "max degree"},
	}
	for _, n := range ns {
		res, err := overlay.BuildTree(inputGraph(topology.Line(n)), &overlay.Options{Seed: seed})
		if err != nil {
			return nil, err
		}
		tree := res.Tree
		maxDeg := 0
		for v := 0; v < n; v++ {
			deg := len(tree.Children(v)) + 1
			if deg > maxDeg {
				maxDeg = deg
			}
		}
		t.Rows = append(t.Rows, []string{itoa(n), itoa(tree.Depth()), itoa(sim.LogBound(n)), itoa(maxDeg)})
	}
	return t, nil
}

// E6Baseline compares the construction against supernode merging;
// Section 1 predicts the baseline loses by a Θ(log n) factor.
func E6Baseline(ns []int, seed uint64) (*Table, error) {
	t := &Table{
		Name:   "E6",
		Claim:  "§1: beats the O(log² n) supernode-merging approach of [2]/[27]",
		Header: []string{"n", "this work (rounds)", "supernode merging", "ratio"},
	}
	for _, n := range ns {
		g := topology.Line(n)
		res, err := measuredBuild(g, seed, 0)
		if err != nil {
			return nil, err
		}
		rounds := res.Stats.Rounds
		base := baseline.Run(g.Undirected(), rng.New(seed), 10000)
		t.Rows = append(t.Rows, []string{
			itoa(n), itoa(rounds), itoa(base.Rounds),
			fmt.Sprintf("%.2f", float64(base.Rounds)/float64(rounds)),
		})
	}
	return t, nil
}

// E7CC measures the connected-components bill versus component size m
// at fixed total n; Theorem 1.2 predicts O(log m + log log n) rounds
// at γ = O(log³ n).
func E7CC(total int, ms []int, seed uint64) (*Table, error) {
	t := &Table{
		Name:   "E7",
		Claim:  "Theorem 1.2: components in O(log m + log log n) rounds, γ = O(log³ n)",
		Header: []string{"n", "m", "components", "rounds", "rounds/log m", "γ", "log³ n"},
	}
	for _, m := range ms {
		copies := total / m
		if copies < 1 {
			copies = 1
		}
		g := topology.DisjointCopies(copies, func(int) *graphx.Digraph { return topology.Ring(m) })
		res, err := hybrid.ConnectedComponents(g, hybrid.CCParams{Seed: seed, MBound: m})
		if err != nil {
			return nil, fmt.Errorf("E7 m=%d: %w", m, err)
		}
		if res.NumComponents != copies {
			return nil, fmt.Errorf("E7 m=%d: got %d components, want %d", m, res.NumComponents, copies)
		}
		lg := sim.LogBound(g.N)
		t.Rows = append(t.Rows, []string{
			itoa(g.N), itoa(m), itoa(res.NumComponents), itoa(res.Ledger.Rounds()),
			fmt.Sprintf("%.1f", float64(res.Ledger.Rounds())/float64(sim.LogBound(m))),
			itoa(res.Ledger.MaxGlobalPerRound()), itoa(lg * lg * lg),
		})
	}
	return t, nil
}

// E8SpanningTree validates spanning trees across sizes and reports
// the round bill; Theorem 1.3 predicts O(log n) rounds.
func E8SpanningTree(ns []int, seed uint64) (*Table, error) {
	t := &Table{
		Name:   "E8",
		Claim:  "Theorem 1.3: spanning tree in O(log n) rounds, γ = O(log⁵ n)",
		Header: []string{"n", "valid", "rounds", "rounds/log n"},
	}
	for _, n := range ns {
		g := topology.Grid(n/16+1, 16)
		res, err := hybrid.SpanningTree(g, seed)
		if err != nil {
			return nil, fmt.Errorf("E8 n=%d: %w", n, err)
		}
		valid := g.Undirected().IsSpanningTree(res.Edges)
		t.Rows = append(t.Rows, []string{
			itoa(g.N), fmt.Sprintf("%v", valid), itoa(res.Ledger.Rounds()),
			fmt.Sprintf("%.1f", float64(res.Ledger.Rounds())/float64(sim.LogBound(g.N))),
		})
	}
	return t, nil
}

// E9Biconnectivity checks agreement with the sequential oracle across
// structured and random graphs; Theorem 1.4 predicts O(log n) rounds.
func E9Biconnectivity(seed uint64) (*Table, error) {
	t := &Table{
		Name:   "E9",
		Claim:  "Theorem 1.4: biconnected components in O(log n) rounds, exact",
		Header: []string{"graph", "n", "components", "cuts", "bridges", "matches oracle", "rounds"},
	}
	cases := []struct {
		name string
		g    *graphx.Digraph
	}{
		{"cycle-64", topology.Ring(64)},
		{"cutgadget-6x5", topology.CutGadget(6, 5)},
		{"barbell-8", topology.Barbell(8, 4)},
		{"lollipop-60", topology.Lollipop(60, 20)},
		{"er-100", topology.ErdosRenyi(100, 0.06, rng.New(seed))},
	}
	for _, c := range cases {
		res, err := hybrid.Biconnectivity(c.g, seed)
		if err != nil {
			return nil, fmt.Errorf("E9 %s: %w", c.name, err)
		}
		want := c.g.Undirected().BiconnectedComponents()
		match := graphx.SameBiconnectedPartition(res.EdgeComponent, want.EdgeComponent) &&
			len(res.CutVertices) == len(want.CutVertices) &&
			len(res.Bridges) == len(want.Bridges)
		t.Rows = append(t.Rows, []string{
			c.name, itoa(c.g.N), itoa(res.NumComponents), itoa(len(res.CutVertices)),
			itoa(len(res.Bridges)), fmt.Sprintf("%v", match), itoa(res.Ledger.Rounds()),
		})
	}
	return t, nil
}

// E10MIS measures MIS rounds versus input degree at fixed n and
// compares against a single global Métivier/Luby execution;
// Theorem 1.5 predicts O(log d + log log n).
func E10MIS(n int, degrees []int, seed uint64) (*Table, error) {
	t := &Table{
		Name:   "E10",
		Claim:  "Theorem 1.5: MIS in O(log d + log log n) rounds",
		Header: []string{"n", "d", "shatter rounds", "max leftover", "total rounds", "Luby-style rounds"},
	}
	for _, d := range degrees {
		nn := n
		if nn*d%2 != 0 {
			nn++
		}
		g := topology.RandomRegular(nn, d, rng.New(seed+uint64(d)))
		res, err := hybrid.MIS(g, seed)
		if err != nil {
			return nil, fmt.Errorf("E10 d=%d: %w", d, err)
		}
		luby := lubyRounds(g.Undirected(), rng.New(seed^0x10b1))
		t.Rows = append(t.Rows, []string{
			itoa(nn), itoa(d), itoa(res.ShatterRounds), itoa(res.MaxComponent),
			itoa(res.Ledger.Rounds()), itoa(luby),
		})
	}
	return t, nil
}

// lubyRounds runs one global Métivier-style execution to completion
// and returns its round count (the Θ(log n) baseline).
func lubyRounds(g *graphx.Graph, src *rng.Source) int {
	n := g.N
	alive := make([]bool, n)
	remaining := n
	for i := range alive {
		alive[i] = true
	}
	rounds := 0
	for remaining > 0 {
		rounds++
		rank := make([]uint64, n)
		for v := 0; v < n; v++ {
			if alive[v] {
				rank[v] = src.Uint64()
			}
		}
		var joiners []int
		for v := 0; v < n; v++ {
			if !alive[v] {
				continue
			}
			lone := true
			for _, w32 := range g.Neighbors(v) {
				w := int(w32)
				if alive[w] && (rank[w] < rank[v] || (rank[w] == rank[v] && w < v)) {
					lone = false
					break
				}
			}
			if lone {
				joiners = append(joiners, v)
			}
		}
		for _, v := range joiners {
			if alive[v] {
				alive[v] = false
				remaining--
			}
			for _, w := range g.Neighbors(v) {
				if alive[w] {
					alive[w] = false
					remaining--
				}
			}
		}
	}
	return rounds
}

// E11Spanner reports spanner degree and connectivity on dense inputs;
// Lemmas 4.8/4.10 predict connectivity and O(log n) out-degree.
func E11Spanner(ns []int, seed uint64) (*Table, error) {
	t := &Table{
		Name:   "E11",
		Claim:  "Lemmas 4.5/4.8/4.10: spanner connected, degree O(log n)",
		Header: []string{"n", "input deg", "H deg", "8·log n", "components kept", "inactive"},
	}
	for _, n := range ns {
		g := topology.ErdosRenyi(n, 0.15, rng.New(seed)).Undirected()
		sp := hybrid.Spanner(g, n, 0, rng.New(seed+1))
		_, wantK := g.ConnectedComponents()
		_, gotK := sp.H.ConnectedComponents()
		t.Rows = append(t.Rows, []string{
			itoa(n), itoa(g.MaxDegree()), itoa(sp.H.MaxDegree()), itoa(8 * sim.LogBound(n)),
			fmt.Sprintf("%v", gotK == wantK), itoa(sp.Inactive),
		})
	}
	return t, nil
}

// E12ScaleSweep runs BuildTree on the message-level path (CreateExpander
// then the tree protocol, every message individually simulated) at
// large n and reports rounds, peak per-round load, wall time, and heap
// allocations. It exists to pin the engine's scaling behaviour: rounds
// stay O(log n) per Theorem 1.1 while wall time and allocations grow
// near-linearly in the message volume thanks to the pooled-buffer
// engine. workers bounds the engine worker pool (0 = GOMAXPROCS).
// bench/'s traced pass splits a build's time between its layers.
func E12ScaleSweep(ns []int, seed uint64, workers int) (*Table, error) {
	t := &Table{
		Name:   "E12",
		Claim:  "engine scales message-level builds to 100k-node inputs",
		Header: []string{"n", "rounds", "rounds/log2n", "peak/round", "total msgs", "allocs", "wall (s)"},
	}
	for _, n := range ns {
		g := topology.Line(n)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		res, err := measuredBuild(g, seed, workers)
		wall := time.Since(start)
		runtime.ReadMemStats(&after)
		if err != nil {
			return nil, fmt.Errorf("E12 n=%d: %w", n, err)
		}
		bill := res.Stats.Bill
		t.Rows = append(t.Rows, []string{
			itoa(n), itoa(bill.Rounds),
			fmt.Sprintf("%.1f", float64(bill.Rounds)/float64(sim.LogBound(n))),
			itoa(bill.MaxMessagesPerRound), fmt.Sprintf("%d", bill.Messages),
			fmt.Sprintf("%d", after.Mallocs-before.Mallocs),
			fmt.Sprintf("%.2f", wall.Seconds()),
		})
	}
	return t, nil
}

func itoa(v int) string { return fmt.Sprintf("%d", v) }
