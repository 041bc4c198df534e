package wft

import (
	"strings"
	"testing"
	"testing/quick"

	"overlay/internal/benign"
	"overlay/internal/expander"
	"overlay/internal/graphx"
	"overlay/internal/ids"
	"overlay/internal/rng"
	"overlay/internal/sim"
	"overlay/internal/topology"
)

func ringGraph(n int) *graphx.Graph {
	g := graphx.NewGraph(n)
	for i := 0; i < n; i++ {
		if n > 2 || i == 0 {
			g.AddEdge(i, (i+1)%n)
		}
	}
	return g
}

func TestFromGraphBasics(t *testing.T) {
	g := ringGraph(10)
	tree, err := FromGraph(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
	if tree.Root != 0 {
		t.Errorf("root = %d, want 0 (lowest id)", tree.Root)
	}
	if d := tree.Depth(); d != 3 {
		t.Errorf("depth = %d, want 3 for n=10", d)
	}
	// Degree bound: each node has <= 2 children + 1 parent.
	for v := 0; v < 10; v++ {
		if len(tree.Children(v)) > 2 {
			t.Errorf("node %d has %d children", v, len(tree.Children(v)))
		}
	}
}

func TestFromGraphDisconnected(t *testing.T) {
	g := graphx.NewGraph(4)
	g.AddEdge(0, 1)
	if _, err := FromGraph(g, nil); err == nil {
		t.Error("disconnected graph accepted")
	}
}

func TestFromGraphSingleNode(t *testing.T) {
	tree, err := FromGraph(graphx.NewGraph(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
	if tree.Root != 0 || tree.Parent[0] != 0 {
		t.Error("single-node tree wrong")
	}
}

func TestFromGraphEmpty(t *testing.T) {
	tree, err := FromGraph(graphx.NewGraph(0), nil)
	if err != nil || tree.N() != 0 {
		t.Errorf("empty graph: %v, n=%d", err, tree.N())
	}
}

func TestFromGraphCustomIDs(t *testing.T) {
	// With reversed ids the root must be the last node.
	g := ringGraph(8)
	id := make([]uint64, 8)
	for i := range id {
		id[i] = uint64(100 - i)
	}
	tree, err := FromGraph(g, id)
	if err != nil {
		t.Fatal(err)
	}
	if tree.Root != 7 {
		t.Errorf("root = %d, want 7 (lowest custom id)", tree.Root)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	g := ringGraph(6)
	tree, _ := FromGraph(g, nil)
	tree.Rank[1], tree.Rank[2] = tree.Rank[2], tree.Rank[1]
	if err := tree.Validate(); err == nil {
		t.Error("corrupted ranks passed validation")
	}
}

func TestFromGraphRanksArePermutation(t *testing.T) {
	f := func(seed uint64) bool {
		src := rng.New(seed)
		n := 2 + src.Intn(60)
		g := ringGraph(n)
		for i := 0; i < n/2; i++ {
			u, v := src.Intn(n), src.Intn(n)
			if u != v && !g.HasEdge(u, v) {
				g.AddEdge(u, v)
			}
		}
		tree, err := FromGraph(g, nil)
		if err != nil {
			return false
		}
		return tree.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// buildExpander produces a low-diameter graph for protocol tests.
func buildExpander(t *testing.T, n int, seed uint64) *graphx.Graph {
	t.Helper()
	g := topology.Line(n)
	bp := benign.Defaults(n, g.MaxDegree())
	m, err := benign.Prepare(g, bp)
	if err != nil {
		t.Fatal(err)
	}
	p := expander.DefaultParams(n)
	p.Delta = bp.Delta
	res := expander.CreateExpander(m, p, rng.New(seed))
	s := res.Final.Simple()
	if !s.IsConnected() {
		t.Fatal("expander disconnected")
	}
	return s
}

func TestProtocolBuildsValidTree(t *testing.T) {
	g := buildExpander(t, 200, 3)
	flood := g.Diameter() + 2
	eng, protos := BuildEngine(g, flood, sim.Config{Seed: 11})
	eng.Run(Rounds(flood, g.N) + 4)
	tree, err := ExtractTree(eng, protos)
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestProtocolMatchesFromGraph(t *testing.T) {
	// The protocol's tie-breaking is designed to reproduce FromGraph
	// exactly when given the engine's identifier assignment.
	g := buildExpander(t, 150, 7)
	flood := g.Diameter() + 2
	eng, protos := BuildEngine(g, flood, sim.Config{Seed: 13})
	eng.Run(Rounds(flood, g.N) + 4)
	got, err := ExtractTree(eng, protos)
	if err != nil {
		t.Fatal(err)
	}
	id := make([]uint64, g.N)
	for i, v := range eng.IDs() {
		id[i] = uint64(v)
	}
	want, err := FromGraph(g, id)
	if err != nil {
		t.Fatal(err)
	}
	if got.Root != want.Root {
		t.Fatalf("root: got %d, want %d", got.Root, want.Root)
	}
	for v := range got.Rank {
		if got.Rank[v] != want.Rank[v] {
			t.Fatalf("rank of node %d: got %d, want %d", v, got.Rank[v], want.Rank[v])
		}
	}
}

func TestProtocolRoundsAreLogarithmic(t *testing.T) {
	g := buildExpander(t, 300, 5)
	flood := 2*sim.LogBound(g.N) + 2
	if d := g.Diameter(); d+2 > flood {
		t.Fatalf("expander diameter %d exceeded the O(log n) flood budget", d)
	}
	eng, protos := BuildEngine(g, flood, sim.Config{Seed: 17})
	budget := Rounds(flood, g.N)
	eng.Run(budget + 4)
	if eng.Round() > budget+4 {
		t.Errorf("protocol used %d rounds, budget %d", eng.Round(), budget)
	}
	if _, err := ExtractTree(eng, protos); err != nil {
		t.Fatal(err)
	}
}

func TestProtocolSingleNode(t *testing.T) {
	g := graphx.NewGraph(1)
	eng, protos := BuildEngine(g, 3, sim.Config{Seed: 1})
	eng.Run(Rounds(3, 1) + 4)
	tree, err := ExtractTree(eng, protos)
	if err != nil {
		t.Fatal(err)
	}
	if tree.Root != 0 {
		t.Error("single node should be root")
	}
}

func TestProtocolTwoNodes(t *testing.T) {
	g := graphx.NewGraph(2)
	g.AddEdge(0, 1)
	eng, protos := BuildEngine(g, 3, sim.Config{Seed: 9})
	eng.Run(Rounds(3, 2) + 4)
	tree, err := ExtractTree(eng, protos)
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestExtractTreeRejectsMalformed: ExtractTree is the survivors
// extraction with everyone alive, so finished state that does not hold
// a tree is refused with that path's reasons, not folded into a tree.
func TestExtractTreeRejectsMalformed(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(protos []*Protocol)
		want    string
	}{
		{"rank collision", func(p []*Protocol) { p[3].rank = p[5].rank }, "survivors 3 and 5 share rank"},
		{"unranked node", func(p []*Protocol) { p[3].rank = -1 }, "survivor 3 was never ranked"},
		{"missing heap parent", func(p []*Protocol) { p[3].HeapParent = ids.Nil }, "survivor 3 has no heap parent"},
	}
	for _, c := range cases {
		g := ringGraph(12)
		flood := g.Diameter() + 2
		eng, protos := BuildEngine(g, flood, sim.Config{Seed: 21})
		eng.Run(Rounds(flood, g.N) + 4)
		if _, err := ExtractTree(eng, protos); err != nil {
			t.Fatalf("%s: intact state refused: %v", c.name, err)
		}
		c.corrupt(protos)
		if _, err := ExtractTree(eng, protos); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want one containing %q", c.name, err, c.want)
		}
	}
}

// TestRepairIdentity: no dead, no joiners — the repaired tree is the
// original.
func TestRepairIdentity(t *testing.T) {
	tree, err := FromGraph(ringGraph(13), nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Repair(tree, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 13; v++ {
		if got.Rank[v] != tree.Rank[v] || got.Parent[v] != tree.Parent[v] {
			t.Fatalf("identity repair changed node %d", v)
		}
	}
}

// TestRepairCompaction: survivors keep their relative rank order,
// ranks compact to a gap-free prefix, joiners take the tail ranks in
// order, and the result validates as a well-formed tree.
func TestRepairCompaction(t *testing.T) {
	const n, joiners = 29, 4
	tree, err := FromGraph(ringGraph(n), nil)
	if err != nil {
		t.Fatal(err)
	}
	dead := make([]bool, n)
	for _, v := range []int{tree.NodeAt[0], tree.NodeAt[7], tree.NodeAt[n-1]} {
		dead[v] = true // includes the old root and the last rank
	}
	got, err := Repair(tree, dead, joiners)
	if err != nil {
		t.Fatal(err)
	}
	s := n - 3
	if got.N() != s+joiners {
		t.Fatalf("repaired size %d, want %d", got.N(), s+joiners)
	}
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
	// Survivors sit at new indices 0..s-1 in old index order; their
	// compacted ranks must preserve the old rank order.
	order := make([]int, 0, s)
	for v := 0; v < n; v++ {
		if !dead[v] {
			order = append(order, tree.Rank[v])
		}
	}
	for a := 0; a < s; a++ {
		for b := a + 1; b < s; b++ {
			if (order[a] < order[b]) != (got.Rank[a] < got.Rank[b]) {
				t.Fatalf("survivors %d,%d flipped rank order", a, b)
			}
		}
	}
	for j := 0; j < joiners; j++ {
		if got.Rank[s+j] != s+j {
			t.Fatalf("joiner %d has rank %d, want tail rank %d", j, got.Rank[s+j], s+j)
		}
	}
}

// TestRepairErrors: malformed inputs fail loudly.
func TestRepairErrors(t *testing.T) {
	tree, err := FromGraph(ringGraph(8), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Repair(tree, make([]bool, 5), 0); err == nil {
		t.Error("short dead mask: no error")
	}
	if _, err := Repair(tree, nil, -1); err == nil {
		t.Error("negative joiners: no error")
	}
	all := make([]bool, 8)
	for i := range all {
		all[i] = true
	}
	if _, err := Repair(tree, all, 0); err == nil {
		t.Error("no survivors: no error")
	}
	if got, err := Repair(tree, all, 3); err != nil {
		t.Errorf("all-dead with joiners should rebuild from the joiners: %v", err)
	} else if got.N() != 3 || got.Rank[0] != 0 {
		t.Errorf("all-dead repair got %d nodes root rank %d", got.N(), got.Rank[0])
	}
}
