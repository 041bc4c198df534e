package graphx

import (
	"slices"
	"testing"
	"testing/quick"

	"overlay/internal/rng"
)

// randomMulti builds a random multigraph with parallel edges and
// self-loops on up to maxN nodes.
func randomMulti(src *rng.Source, maxN int) *Multi {
	n := 2 + src.Intn(maxN-1)
	m := NewMulti(n)
	edges := src.Intn(4 * n)
	for i := 0; i < edges; i++ {
		u, v := src.Intn(n), src.Intn(n)
		if u == v {
			m.AddSelfLoop(u)
		} else {
			m.AddCrossEdge(u, v)
		}
	}
	return m
}

// simpleOracle is the pre-CSR map-based dedup, kept as the reference
// implementation for Simple().
func simpleOracle(m *Multi) map[[2]int]bool {
	seen := make(map[[2]int]bool)
	for u := 0; u < m.N; u++ {
		for _, v32 := range m.SlotsOf(u) {
			v := int(v32)
			if v == u {
				continue
			}
			lo, hi := u, v
			if lo > hi {
				lo, hi = hi, lo
			}
			seen[[2]int{lo, hi}] = true
		}
	}
	return seen
}

// TestSimpleMatchesOracle checks the stamped-scan dedup against the
// map-based oracle on random multigraphs: same edge set, symmetric
// adjacency, no duplicates, no self-loops.
func TestSimpleMatchesOracle(t *testing.T) {
	f := func(seed uint64) bool {
		src := rng.New(seed)
		m := randomMulti(src, 40)
		s := m.Simple()
		want := simpleOracle(m)
		if s.NumEdges() != len(want) {
			t.Logf("edge count %d, oracle %d", s.NumEdges(), len(want))
			return false
		}
		for _, e := range s.Edges() {
			if !want[e] {
				t.Logf("edge %v not in oracle", e)
				return false
			}
		}
		// Adjacency must be symmetric and duplicate-free.
		for u := 0; u < s.N; u++ {
			seen := map[int32]bool{}
			for _, v := range s.Neighbors(u) {
				if int(v) == u || seen[v] {
					return false
				}
				seen[v] = true
				if !s.HasEdge(int(v), u) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestUndirectedMatchesOracle does the same for the Digraph dedup,
// which additionally folds in-edges through the transpose.
func TestUndirectedMatchesOracle(t *testing.T) {
	f := func(seed uint64) bool {
		src := rng.New(seed)
		n := 2 + src.Intn(30)
		g := NewDigraph(n)
		for i := 0; i < 3*n; i++ {
			g.AddEdge(src.Intn(n), src.Intn(n)) // self-loops and dups allowed
		}
		u := g.Undirected()
		want := map[[2]int]bool{}
		for a := 0; a < n; a++ {
			for _, b := range g.Out[a] {
				if a == b {
					continue
				}
				lo, hi := a, b
				if lo > hi {
					lo, hi = hi, lo
				}
				want[[2]int{lo, hi}] = true
			}
		}
		if u.NumEdges() != len(want) {
			return false
		}
		for _, e := range u.Edges() {
			if !want[e] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestGraphPendingFold exercises the AddEdge builder path: reads
// interleaved with writes must always observe every edge added so far.
func TestGraphPendingFold(t *testing.T) {
	g := NewGraph(5)
	g.AddEdge(0, 1)
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Fatal("edge invisible after fold")
	}
	g.AddEdge(1, 2) // mutate after a read: refolds on next read
	g.AddEdge(3, 4)
	if g.Degree(1) != 2 || g.NumEdges() != 3 {
		t.Fatalf("Degree(1)=%d NumEdges=%d", g.Degree(1), g.NumEdges())
	}
	// Per-node adjacency preserves insertion order across folds.
	nb := g.Neighbors(1)
	if len(nb) != 2 || nb[0] != 0 || nb[1] != 2 {
		t.Fatalf("Neighbors(1) = %v, want [0 2]", nb)
	}
	c := g.Clone()
	c.AddEdge(2, 3)
	if g.HasEdge(2, 3) || !c.HasEdge(2, 3) {
		t.Fatal("Clone shares pending storage")
	}
}

// TestSpectralGapWorkersBitIdentical pins the deterministic-reduction
// contract: the gap is a pure function of (graph, iters, seed) at
// every worker count.
func TestSpectralGapWorkersBitIdentical(t *testing.T) {
	src := rng.New(3)
	m := randomMulti(src, 200)
	want := m.SpectralGapWorkers(120, rng.New(11), 1)
	for _, w := range []int{2, 3, 4, 9, 16} {
		if got := m.SpectralGapWorkers(120, rng.New(11), w); got != want {
			t.Fatalf("workers=%d: gap %v != sequential %v", w, got, want)
		}
	}
}

// TestPadSelfLoops checks the bulk padding helper.
func TestPadSelfLoops(t *testing.T) {
	m := NewMultiRegular(4, 6)
	m.AddCrossEdge(0, 1)
	m.PadSelfLoops(6)
	if !m.IsRegular(6) {
		t.Fatal("not regular after padding")
	}
	if m.SelfLoops(0) != 5 || m.SelfLoops(2) != 6 {
		t.Fatalf("self-loops = %d, %d", m.SelfLoops(0), m.SelfLoops(2))
	}
	// Padding past the initial stride must grow storage.
	m2 := NewMulti(3)
	m2.PadSelfLoops(9)
	if !m2.IsRegular(9) {
		t.Fatal("grow-padding failed")
	}
}

// TestMultiFromRows checks the whole-rows constructor: the adopted
// array reads back as a regular graph equal to the one built by
// insertion, and a wrong shape or an out-of-range slot panics.
func TestMultiFromRows(t *testing.T) {
	want := NewMultiRegular(3, 4)
	want.AddCrossEdge(0, 1)
	want.AddCrossEdge(1, 2)
	want.AddCrossEdge(1, 0)
	want.PadSelfLoops(4)
	rows := []int32{1, 1, 0, 0, 0, 2, 0, 1, 1, 2, 2, 2}
	m := MultiFromRows(3, 4, rows)
	if !m.IsRegular(4) || !m.IsSymmetric() {
		t.Fatal("adopted rows are not a regular symmetric graph")
	}
	for u := 0; u < 3; u++ {
		if got, w := m.SlotsOf(u), want.SlotsOf(u); !slices.Equal(got, w) {
			t.Fatalf("node %d slots %v, want %v", u, got, w)
		}
	}
	for name, bad := range map[string]func(){
		"short":        func() { MultiFromRows(3, 4, rows[:11]) },
		"zero degree":  func() { MultiFromRows(3, 0, nil) },
		"out of range": func() { MultiFromRows(2, 2, []int32{0, 1, 2, 1}) },
		"negative":     func() { MultiFromRows(2, 2, []int32{0, 1, -1, 1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			bad()
		}()
	}
}

// TestMultiStrideGrowth checks that exceeding the initial slot
// capacity re-lays the flat array without losing slots.
func TestMultiStrideGrowth(t *testing.T) {
	m := NewMulti(3)
	for i := 0; i < 20; i++ {
		m.AddCrossEdge(0, 1)
		m.AddSelfLoop(2)
	}
	if m.Degree(0) != 20 || m.Degree(1) != 20 || m.SelfLoops(2) != 20 {
		t.Fatalf("degrees after growth: %d %d %d", m.Degree(0), m.Degree(1), m.SelfLoops(2))
	}
	if !m.IsSymmetric() {
		t.Fatal("asymmetric after growth")
	}
}

// TestBFSIntoScratchReuse checks that repeated BFS calls through one
// scratch produce the same distances as fresh calls.
func TestBFSIntoScratchReuse(t *testing.T) {
	g := cycleGraph(9)
	var s TraverseScratch
	for src := 0; src < g.N; src++ {
		got := g.BFSInto(src, &s)
		want := g.BFS(src)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("src %d: dist[%d] = %d, want %d", src, i, got[i], want[i])
			}
		}
	}
}
