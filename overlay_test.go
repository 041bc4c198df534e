package overlay

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"overlay/internal/expander"
	"overlay/internal/graphx"
)

func lineInput(n int) *Graph {
	g := NewGraph(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1)
	}
	return g
}

func TestBuildTreeFastPath(t *testing.T) {
	g := lineInput(300)
	res, err := BuildTree(g, &Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	tree := res.Tree
	if len(tree.Parent) != 300 {
		t.Fatalf("tree size %d", len(tree.Parent))
	}
	// Well-formed: degree <= 3, depth logarithmic, all nodes present.
	if d := tree.Depth(); d != 8 {
		t.Errorf("depth = %d, want 8 for n=300", d)
	}
	seen := make([]bool, 300)
	for r, v := range tree.NodeAt {
		if seen[v] {
			t.Fatalf("node %d appears twice", v)
		}
		seen[v] = true
		if tree.Rank[v] != r {
			t.Fatalf("rank inverse broken at %d", r)
		}
	}
	if res.Stats.Rounds <= 0 || res.Stats.ExpanderDiameter <= 0 {
		t.Errorf("stats not populated: %+v", res.Stats)
	}
	if res.Stats.SpectralGap < 0.02 {
		t.Errorf("spectral gap %f too small", res.Stats.SpectralGap)
	}
}

func TestBuildTreeMessageLevel(t *testing.T) {
	g := lineInput(150)
	res, err := BuildTree(g, &Options{Seed: 2, MessageLevel: true, CapFactor: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.CapacityDrops != 0 {
		t.Errorf("capacity drops: %d", res.Stats.CapacityDrops)
	}
	if res.Stats.MaxMessagesPerRound == 0 || res.Stats.MaxMessagesTotal == 0 {
		t.Error("message metrics not populated")
	}
	if res.Stats.Rounds <= 0 {
		t.Error("rounds not measured")
	}
	// Well-formed tree invariants.
	tree := res.Tree
	for v, p := range tree.Parent {
		if v == tree.Root {
			if p != v {
				t.Errorf("root parent %d", p)
			}
			continue
		}
		if want := tree.NodeAt[(tree.Rank[v]-1)/2]; p != want {
			t.Errorf("node %d parent %d, want %d", v, p, want)
		}
	}
}

func TestBuildTreeDeterministic(t *testing.T) {
	g := lineInput(100)
	a, err := BuildTree(g, &Options{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildTree(g, &Options{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	for v := range a.Tree.Rank {
		if a.Tree.Rank[v] != b.Tree.Rank[v] {
			t.Fatal("same seed produced different trees")
		}
	}
}

func TestBuildTreeMessageLevelExecutionModeDeterminism(t *testing.T) {
	// The single-worker engine and the sharded parallel engine must build
	// the identical tree with identical measured statistics — the
	// public-API guardrail for the engine's delivery refactor.
	g := lineInput(150)
	seq, err := BuildTree(g, &Options{Seed: 9, MessageLevel: true, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := BuildTree(g, &Options{Seed: 9, MessageLevel: true, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq.Tree, par.Tree) {
		t.Error("sequential and parallel engines built different trees")
	}
	if seq.Stats != par.Stats {
		t.Errorf("stats diverged:\nseq: %+v\npar: %+v", seq.Stats, par.Stats)
	}
}

// TestFastBuildInterruptStopsAtEvolution: the fast path polls
// Options.Interrupt before the build, between evolutions and after the
// last, so a poll that fires on its k-th call stops a ring-4096 build
// before evolution k — polled no further, with an error that names the
// evolution — and a poll that never fires leaves the result
// bit-identical to a build without one.
func TestFastBuildInterruptStopsAtEvolution(t *testing.T) {
	g := lineInput(4096)
	g.AddEdge(4095, 0)
	ref, err := BuildTree(g, &Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	polls := 0
	got, err := BuildTree(g, &Options{Seed: 3, Interrupt: func() bool { polls++; return false }})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, ref) {
		t.Error("a never-firing Interrupt changed the build")
	}
	evolutions := expander.DefaultParams(4096).Evolutions
	if polls != evolutions+1 {
		t.Errorf("Interrupt polled %d times, want %d: once before the build, between the %d evolutions and after them", polls, evolutions+1, evolutions)
	}
	for _, k := range []int{1, 2, 7, evolutions, evolutions + 1} {
		polls = 0
		_, err := BuildTree(g, &Options{Seed: 3, Interrupt: func() bool { polls++; return polls == k }})
		want := fmt.Sprintf("(before evolution %d of %d)", k, evolutions)
		switch k {
		case 1:
			want = "(before the build started)"
		case evolutions + 1:
			want = "(after expander evolution)"
		}
		if !errors.Is(err, ErrInterrupted) || !strings.Contains(err.Error(), want) {
			t.Errorf("firing on poll %d: error %v, want ErrInterrupted %s", k, err, want)
		}
		if polls != k {
			t.Errorf("firing on poll %d: polled %d times", k, polls)
		}
	}
}

func TestBuildTreeRejectsDisconnected(t *testing.T) {
	g := NewGraph(4)
	g.AddEdge(0, 1)
	g.AddEdge(2, 3)
	if _, err := BuildTree(g, nil); !errors.Is(err, ErrNotConnected) {
		t.Errorf("err = %v, want ErrNotConnected", err)
	}
}

func TestBuildTreeRejectsBadEdges(t *testing.T) {
	g := NewGraph(2)
	g.AddEdge(0, 5)
	if _, err := BuildTree(g, nil); err == nil {
		t.Error("out-of-range edge accepted")
	}
}

func TestBuildTreeEmptyAndTiny(t *testing.T) {
	if res, err := BuildTree(NewGraph(0), nil); err != nil || res.Tree == nil {
		t.Errorf("empty graph: %v", err)
	}
	g := NewGraph(1)
	res, err := BuildTree(g, &Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Tree.Root != 0 {
		t.Error("single node should be root")
	}
	g2 := NewGraph(2)
	g2.AddEdge(0, 1)
	if _, err := BuildTree(g2, &Options{Seed: 4}); err != nil {
		t.Fatalf("two-node graph: %v", err)
	}
}

func TestDerivedOverlays(t *testing.T) {
	g := lineInput(64)
	res, err := BuildTree(g, &Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	check := func(name string, edges [][2]int, maxDeg, maxDiam int) {
		t.Helper()
		gg := graphx.NewGraph(64)
		for _, e := range edges {
			gg.AddEdge(e[0], e[1])
		}
		if !gg.IsConnected() {
			t.Errorf("%s disconnected", name)
		}
		if d := gg.MaxDegree(); d > maxDeg {
			t.Errorf("%s degree %d > %d", name, d, maxDeg)
		}
		if d := gg.Diameter(); d > maxDiam {
			t.Errorf("%s diameter %d > %d", name, d, maxDiam)
		}
	}
	check("ring", res.Ring(), 2, 32)
	check("chord", res.Chord(), 14, 6)
	check("hypercube", res.Hypercube(), 6, 6)
	check("debruijn", res.DeBruijn(), 4, 12)
	check("expander", res.ExpanderEdges(), 1000, 6)

	path, err := res.RouteLookupErr(5, 40)
	if err != nil {
		t.Fatal(err)
	}
	if path[0] != 5 || path[len(path)-1] != 40 {
		t.Errorf("route endpoints wrong: %v", path)
	}
	if len(path) > 8 {
		t.Errorf("route too long: %v", path)
	}
}

func TestBuildTreeCustomParams(t *testing.T) {
	g := lineInput(80)
	res, err := BuildTree(g, &Options{Seed: 6, Delta: 64, Lambda: 5, Ell: 16, Evolutions: 20})
	if err != nil {
		t.Fatal(err)
	}
	if res.Tree == nil || len(res.Tree.Rank) != 80 {
		t.Error("custom-parameter build failed")
	}
}
