package topology

import (
	"reflect"
	"testing"
	"testing/quick"

	"overlay/internal/graphx"
	"overlay/internal/rng"
)

func TestLine(t *testing.T) {
	g := Line(5)
	if g.NumEdges() != 4 {
		t.Errorf("edges = %d, want 4", g.NumEdges())
	}
	u := g.Undirected()
	if !u.IsConnected() {
		t.Error("line not connected")
	}
	if d := u.Diameter(); d != 4 {
		t.Errorf("diameter = %d, want 4", d)
	}
	if g.MaxDegree() != 2 {
		t.Errorf("max degree = %d, want 2", g.MaxDegree())
	}
}

func TestRing(t *testing.T) {
	g := Ring(8)
	u := g.Undirected()
	if !u.IsConnected() || u.NumEdges() != 8 || u.Diameter() != 4 {
		t.Errorf("ring: connected=%v edges=%d diam=%d", u.IsConnected(), u.NumEdges(), u.Diameter())
	}
	if Ring(1).NumEdges() != 0 {
		t.Error("degenerate ring should have no edges")
	}
}

func TestStar(t *testing.T) {
	g := Star(10)
	u := g.Undirected()
	if !u.IsConnected() || u.Diameter() != 2 {
		t.Error("star shape wrong")
	}
	if g.MaxDegree() != 9 {
		t.Errorf("hub degree = %d, want 9", g.MaxDegree())
	}
}

func TestBinaryTree(t *testing.T) {
	g := BinaryTree(15)
	u := g.Undirected()
	if !u.IsConnected() || u.NumEdges() != 14 {
		t.Error("binary tree shape wrong")
	}
	if d := u.Diameter(); d != 6 {
		t.Errorf("depth-3 complete tree diameter = %d, want 6", d)
	}
}

func TestGridAndTorus(t *testing.T) {
	g := Grid(3, 4)
	u := g.Undirected()
	if !u.IsConnected() || u.NumEdges() != 3*3+2*4 {
		t.Errorf("grid: edges = %d", u.NumEdges())
	}
	if d := u.Diameter(); d != 5 {
		t.Errorf("3x4 grid diameter = %d, want 5", d)
	}
	tor := Torus(4, 4).Undirected()
	if !tor.IsConnected() || tor.Diameter() != 4 {
		t.Errorf("4x4 torus diameter = %d, want 4", tor.Diameter())
	}
}

func TestHypercube(t *testing.T) {
	g := Hypercube(4)
	u := g.Undirected()
	if u.N != 16 || !u.IsConnected() || u.Diameter() != 4 {
		t.Error("hypercube shape wrong")
	}
	for v := 0; v < u.N; v++ {
		if u.Degree(v) != 4 {
			t.Errorf("node %d degree %d, want 4", v, u.Degree(v))
		}
	}
}

func TestRandomRegular(t *testing.T) {
	src := rng.New(42)
	g := RandomRegular(50, 3, src)
	u := g.Undirected()
	if !u.IsConnected() {
		t.Fatal("random regular graph disconnected")
	}
	for v := 0; v < u.N; v++ {
		if u.Degree(v) != 3 {
			t.Errorf("node %d degree %d, want 3", v, u.Degree(v))
		}
	}
}

func TestRandomRegularOddPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("odd n*d did not panic")
		}
	}()
	RandomRegular(5, 3, rng.New(1))
}

func TestErdosRenyiAlwaysConnected(t *testing.T) {
	f := func(seed uint64) bool {
		src := rng.New(seed)
		g := ErdosRenyi(40, 0.02, src)
		return g.Undirected().IsConnected()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestLollipopAndBarbell(t *testing.T) {
	g := Lollipop(20, 8)
	u := g.Undirected()
	if !u.IsConnected() {
		t.Error("lollipop disconnected")
	}
	if u.NumEdges() != 8*7/2+12 {
		t.Errorf("lollipop edges = %d", u.NumEdges())
	}
	b := Barbell(5, 3).Undirected()
	if !b.IsConnected() || b.N != 13 {
		t.Error("barbell shape wrong")
	}
	// The path edges are bridges.
	bi := b.BiconnectedComponents()
	if len(bi.Bridges) != 4 {
		t.Errorf("barbell bridges = %d, want 4", len(bi.Bridges))
	}
}

func TestCaterpillar(t *testing.T) {
	g := Caterpillar(4, 2)
	u := g.Undirected()
	if u.N != 12 || !u.IsConnected() || u.NumEdges() != 11 {
		t.Error("caterpillar shape wrong")
	}
}

func TestDisjointCopies(t *testing.T) {
	g := DisjointCopies(3, func(int) *graphx.Digraph { return Ring(5) })
	u := g.Undirected()
	if u.N != 15 {
		t.Fatalf("N = %d, want 15", u.N)
	}
	_, k := u.ConnectedComponents()
	if k != 3 {
		t.Errorf("components = %d, want 3", k)
	}
}

func TestCutGadget(t *testing.T) {
	g := CutGadget(3, 4)
	u := g.Undirected()
	if u.N != 3*3+1 || !u.IsConnected() {
		t.Fatal("cut gadget shape wrong")
	}
	b := u.BiconnectedComponents()
	if b.NumComponents != 3 {
		t.Errorf("components = %d, want 3", b.NumComponents)
	}
	if len(b.CutVertices) != 2 {
		t.Errorf("cut vertices = %v, want 2 joints", b.CutVertices)
	}
}

func TestBipartite(t *testing.T) {
	g := Bipartite(3, 4)
	u := g.Undirected()
	if u.N != 7 || u.NumEdges() != 12 || !u.IsConnected() {
		t.Error("bipartite shape wrong")
	}
}

func TestGeneratorsWeaklyConnected(t *testing.T) {
	src := rng.New(9)
	gens := map[string]*graphx.Digraph{
		"line":    Line(33),
		"ring":    Ring(33),
		"star":    Star(33),
		"tree":    BinaryTree(33),
		"grid":    Grid(5, 7),
		"torus":   Torus(5, 7),
		"cube":    Hypercube(5),
		"regular": RandomRegular(34, 3, src),
		"er":      ErdosRenyi(33, 0.05, src),
		"lolli":   Lollipop(33, 10),
		"caterp":  Caterpillar(11, 2),
	}
	for name, g := range gens {
		if !g.Undirected().IsConnected() {
			t.Errorf("%s: not weakly connected", name)
		}
	}
}

// TestDigraphFromEdgesMatchesAddEdge pins graphx.DigraphFromEdges, the
// one-array ingest of an edge list, to the AddEdge loop it replaces: for
// every generator here, the generator's edges, listed in a shuffled
// order, build the same out-lists (order within each list included, and
// nil for a node without edges) either way — and keep doing so when
// edges are appended afterwards, which must reallocate a list rather
// than write into the next node's stretch of the shared array.
func TestDigraphFromEdgesMatchesAddEdge(t *testing.T) {
	src := rng.New(11)
	gens := map[string]*graphx.Digraph{
		"line":      Line(33),
		"ring":      Ring(33),
		"star":      Star(33),
		"tree":      BinaryTree(33),
		"grid":      Grid(5, 7),
		"torus":     Torus(5, 7),
		"cube":      Hypercube(5),
		"regular":   RandomRegular(34, 3, src),
		"er":        ErdosRenyi(33, 0.05, src),
		"lolli":     Lollipop(33, 10),
		"barbell":   Barbell(6, 4),
		"caterp":    Caterpillar(11, 2),
		"copies":    DisjointCopies(3, func(i int) *graphx.Digraph { return Ring(5 + i) }),
		"cut":       CutGadget(4, 5),
		"bipartite": Bipartite(3, 4),
		"isolated":  graphx.NewDigraph(6),
	}
	for name, g := range gens {
		var listed [][2]int
		for u, out := range g.Out {
			for _, v := range out {
				listed = append(listed, [2]int{u, v})
			}
		}
		edges := make([][2]int, len(listed))
		for i, j := range src.Perm(len(listed)) {
			edges[i] = listed[j]
		}
		want := graphx.NewDigraph(g.N)
		for _, e := range edges {
			want.AddEdge(e[0], e[1])
		}
		got := graphx.DigraphFromEdges(g.N, edges)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: DigraphFromEdges differs from the AddEdge loop", name)
			continue
		}
		// Append to every node, the last first, then the first one
		// again: each append must leave every other list as it was.
		for u := g.N - 1; u >= 0; u-- {
			got.AddEdge(u, (u+1)%g.N)
			want.AddEdge(u, (u+1)%g.N)
		}
		got.AddEdge(0, g.N-1)
		want.AddEdge(0, g.N-1)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: appending after DigraphFromEdges differs from the AddEdge loop", name)
		}
	}
}
