package overlays

import (
	"reflect"
	"testing"
	"testing/quick"

	"overlay/internal/graphx"
	"overlay/internal/rng"
	"overlay/internal/sim"
)

// Ring, Chord, Hypercube and DeBruijn are the specification: each
// overlay built edge by edge as a graph, duplicates decided by a set.
// The edge lists the package writes by rank arithmetic must equal
// their Edges(), and the structural tests below run on them.

func Ring(nodeAt []int) *graphx.Graph {
	n := len(nodeAt)
	g := graphx.NewGraph(n)
	if n < 2 {
		return g
	}
	for r := 0; r < n; r++ {
		s := (r + 1) % n
		if r < s || n == 2 && r == 0 {
			g.AddEdge(nodeAt[r], nodeAt[s])
		}
	}
	if n > 2 {
		g.AddEdge(nodeAt[n-1], nodeAt[0])
	}
	return g
}

func Chord(nodeAt []int) *graphx.Graph {
	n := len(nodeAt)
	g := graphx.NewGraph(n)
	seen := make(map[[2]int]bool, 2*n)
	for r := 0; r < n; r++ {
		for step := 1; step < n; step <<= 1 {
			s := (r + step) % n
			u, v := nodeAt[r], nodeAt[s]
			if u > v {
				u, v = v, u
			}
			if u != v && !seen[[2]int{u, v}] {
				seen[[2]int{u, v}] = true
				g.AddEdge(u, v)
			}
		}
	}
	return g
}

func Hypercube(nodeAt []int) *graphx.Graph {
	n := len(nodeAt)
	g := graphx.NewGraph(n)
	for r := 0; r < n; r++ {
		for b := 1; b < n; b <<= 1 {
			s := r ^ b
			if s < n && r < s {
				g.AddEdge(nodeAt[r], nodeAt[s])
			}
		}
	}
	return g
}

func DeBruijn(nodeAt []int) *graphx.Graph {
	n := len(nodeAt)
	g := graphx.NewGraph(n)
	seen := make(map[[2]int]bool, 2*n)
	for r := 0; r < n; r++ {
		for _, s := range []int{(2 * r) % n, (2*r + 1) % n} {
			u, v := nodeAt[r], nodeAt[s]
			if u > v {
				u, v = v, u
			}
			if u != v && !seen[[2]int{u, v}] {
				seen[[2]int{u, v}] = true
				g.AddEdge(u, v)
			}
		}
	}
	return g
}

var views = []struct {
	name   string
	spec   func(nodeAt []int) *graphx.Graph
	direct func(nodeAt, members []int) [][2]int
}{
	{"ring", Ring, RingEdges},
	{"chord", Chord, ChordEdges},
	{"hypercube", Hypercube, HypercubeEdges},
	{"debruijn", DeBruijn, DeBruijnEdges},
}

// checkAgainstSpec compares the four direct edge lists against the
// specification graphs' Edges() on one rank assignment, bare and
// mapped through an ascending member list.
func checkAgainstSpec(t *testing.T, nodeAt []int) {
	t.Helper()
	n := len(nodeAt)
	members := make([]int, n)
	for i := range members {
		members[i] = 3*i + i%2 + 5
	}
	for _, v := range views {
		want := v.spec(nodeAt).Edges()
		got := v.direct(nodeAt, nil)
		if got == nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s n=%d: direct edge list differs from the graph-built one\n got %v\nwant %v", v.name, n, got, want)
		}
		for i, e := range want {
			want[i] = [2]int{members[e[0]], members[e[1]]}
		}
		if got := v.direct(nodeAt, members); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s n=%d: member-mapped edge list differs from the mapped graph-built one", v.name, n)
		}
	}
}

// TestDirectEdgesMatchSpec is the differential test of the rank
// arithmetic: every n up to 300 — which holds n = 0, 1, 2, 3, every
// 2^a and 2^a+2^b (the sizes at which Chord fingers coincide) — plus
// 4096 and 4100, on the identity and on random rank assignments.
func TestDirectEdgesMatchSpec(t *testing.T) {
	sizes := []int{4096, 4100}
	for n := 0; n <= 300; n++ {
		sizes = append(sizes, n)
	}
	for _, n := range sizes {
		checkAgainstSpec(t, identity(n))
		checkAgainstSpec(t, rng.New(uint64(n)+1).Perm(n))
		checkAgainstSpec(t, rng.New(uint64(n)*0x9e3779b97f4a7c15).Perm(n))
	}
}

// FuzzDerivedEdges runs the same comparison on fuzzer-chosen sizes and
// rank assignments; the seed corpus under testdata/fuzz replays in
// every plain go test run.
func FuzzDerivedEdges(f *testing.F) {
	f.Add(uint16(0), uint64(0))
	f.Add(uint16(1), uint64(1))
	f.Add(uint16(2), uint64(2))
	f.Add(uint16(24), uint64(3))
	f.Add(uint16(1024), uint64(4))
	f.Fuzz(func(t *testing.T, n uint16, seed uint64) {
		checkAgainstSpec(t, rng.New(seed).Perm(int(n)%5000))
	})
}

func identity(n int) []int {
	nodeAt := make([]int, n)
	for i := range nodeAt {
		nodeAt[i] = i
	}
	return nodeAt
}

func TestRing(t *testing.T) {
	g := Ring(identity(8))
	if !g.IsConnected() || g.NumEdges() != 8 || g.MaxDegree() != 2 {
		t.Errorf("ring: connected=%v edges=%d deg=%d", g.IsConnected(), g.NumEdges(), g.MaxDegree())
	}
	g2 := Ring(identity(2))
	if g2.NumEdges() != 1 {
		t.Errorf("2-ring edges = %d, want 1", g2.NumEdges())
	}
	if Ring(identity(1)).NumEdges() != 0 {
		t.Error("1-ring should be empty")
	}
}

func TestChordDiameterAndDegree(t *testing.T) {
	for _, n := range []int{2, 7, 16, 100, 257} {
		g := Chord(identity(n))
		if !g.IsConnected() {
			t.Fatalf("n=%d: chord disconnected", n)
		}
		lg := sim.LogBound(n)
		if d := g.Diameter(); d > lg {
			t.Errorf("n=%d: chord diameter %d > log n = %d", n, d, lg)
		}
		if deg := g.MaxDegree(); deg > 2*lg+2 {
			t.Errorf("n=%d: chord degree %d > 2 log n + 2", n, deg)
		}
	}
}

func TestHypercube(t *testing.T) {
	g := Hypercube(identity(16))
	if !g.IsConnected() || g.MaxDegree() != 4 || g.Diameter() != 4 {
		t.Errorf("16-cube: deg=%d diam=%d", g.MaxDegree(), g.Diameter())
	}
	// Incomplete hypercube stays connected.
	for _, n := range []int{3, 11, 25, 100} {
		if !Hypercube(identity(n)).IsConnected() {
			t.Errorf("incomplete hypercube n=%d disconnected", n)
		}
	}
}

func TestDeBruijn(t *testing.T) {
	for _, n := range []int{4, 10, 64, 127} {
		g := DeBruijn(identity(n))
		if !g.IsConnected() {
			t.Fatalf("de Bruijn n=%d disconnected", n)
		}
		if d := g.Diameter(); d > 2*sim.LogBound(n) {
			t.Errorf("de Bruijn n=%d diameter %d > 2 log n", n, d)
		}
		if deg := g.MaxDegree(); deg > 4 {
			t.Errorf("de Bruijn n=%d degree %d > 4", n, deg)
		}
	}
}

func TestOverlaysUsePermutation(t *testing.T) {
	// nodeAt permutes node labels; graphs must be isomorphic to the
	// identity versions (checked by degree sequence and connectivity).
	nodeAt := []int{3, 1, 4, 0, 2}
	g := Chord(nodeAt)
	h := Chord(identity(5))
	if g.NumEdges() != h.NumEdges() || !g.IsConnected() {
		t.Error("permuted chord differs structurally")
	}
}

func TestRouteChord(t *testing.T) {
	path := RouteChord(16, 3, 12)
	if path[0] != 3 || path[len(path)-1] != 12 {
		t.Fatalf("path endpoints wrong: %v", path)
	}
	if len(path) > sim.LogBound(16)+2 {
		t.Errorf("path %v longer than log n hops", path)
	}
	// Each hop must be a chord finger (power-of-two step).
	for i := 1; i < len(path); i++ {
		d := (path[i] - path[i-1] + 16) % 16
		if d&(d-1) != 0 || d == 0 {
			t.Errorf("hop %d->%d is not a finger", path[i-1], path[i])
		}
	}
}

func TestRouteChordProperty(t *testing.T) {
	f := func(seed uint64) bool {
		src := rng.New(seed)
		n := 3 + src.Intn(97)
		from := src.Intn(n)
		to := src.Intn(n)
		path := RouteChord(n, from, to)
		return path[0] == from && path[len(path)-1] == to && len(path) <= sim.LogBound(n)+2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestRouteChordPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("out-of-range route did not panic")
		}
	}()
	RouteChord(4, 0, 9)
}
