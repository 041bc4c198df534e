package expander

import (
	"testing"

	"overlay/internal/benign"
	"overlay/internal/graphx"
	"overlay/internal/rng"
	"overlay/internal/sim"
	"overlay/internal/topology"
)

// prepared builds a benign graph for a topology with default params.
func prepared(t testing.TB, g *graphx.Digraph) (*graphx.Multi, benign.Params) {
	t.Helper()
	p := benign.Defaults(g.N, g.MaxDegree())
	m, err := benign.Prepare(g, p)
	if err != nil {
		t.Fatal(err)
	}
	return m, p
}

func TestEvolvePreservesBenignShape(t *testing.T) {
	g := topology.Ring(64)
	m, bp := prepared(t, g)
	p := Params{Delta: bp.Delta, Ell: 8, Evolutions: 1}
	src := rng.New(1)
	ev := Evolve(m, p, src)
	next := ev.Next
	if !next.IsRegular(bp.Delta) {
		t.Error("evolution broke ∆-regularity")
	}
	for u := 0; u < next.N; u++ {
		if next.SelfLoops(u) < bp.Delta/2 {
			t.Errorf("node %d has %d self-loops < ∆/2", u, next.SelfLoops(u))
		}
	}
	if !next.IsSymmetric() {
		t.Error("evolution broke edge symmetry")
	}
}

func TestEvolveAcceptanceCap(t *testing.T) {
	g := topology.Ring(32)
	m, bp := prepared(t, g)
	p := Params{Delta: bp.Delta, Ell: 4, Evolutions: 1}
	ev := Evolve(m, p, rng.New(3))
	// No node may end with more than ∆/2 cross edges (∆/8 own + 3∆/8
	// accepted), so self-loops are always at least ∆/2.
	for u := 0; u < ev.Next.N; u++ {
		cross := bp.Delta - ev.Next.SelfLoops(u)
		if cross > bp.Delta/2 {
			t.Errorf("node %d has %d cross edges > ∆/2 = %d", u, cross, bp.Delta/2)
		}
	}
}

func TestEvolveRecordsValidPaths(t *testing.T) {
	g := topology.Line(24)
	m, bp := prepared(t, g)
	p := Params{Delta: bp.Delta, Ell: 6, Evolutions: 1, RecordPaths: true}
	ev := Evolve(m, p, rng.New(5))
	if len(ev.Paths) != len(ev.Edges) {
		t.Fatalf("paths %d != edges %d", len(ev.Paths), len(ev.Edges))
	}
	// Multiset of slot adjacency for step validation.
	adj := make([]map[int]bool, m.N)
	for u := range adj {
		adj[u] = make(map[int]bool, m.Degree(u))
		for _, v := range m.SlotsOf(u) {
			adj[u][int(v)] = true
		}
	}
	for k, path := range ev.Paths {
		if len(path) != p.Ell+1 {
			t.Fatalf("path %d length %d, want %d", k, len(path), p.Ell+1)
		}
		if path[0] != ev.Edges[k][0] || path[len(path)-1] != ev.Edges[k][1] {
			t.Fatalf("path %d endpoints %d..%d do not match edge %v",
				k, path[0], path[len(path)-1], ev.Edges[k])
		}
		for i := 1; i < len(path); i++ {
			u, v := path[i-1], path[i]
			if u != v && !adj[u][v] {
				t.Fatalf("path %d step %d: (%d,%d) not an edge of G_i", k, i, u, v)
			}
		}
	}
}

func TestCreateExpanderReachesLowDiameter(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graphx.Digraph
	}{
		{"line", topology.Line(256)},
		{"ring", topology.Ring(256)},
		{"tree", topology.BinaryTree(255)},
		{"grid", topology.Grid(16, 16)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, bp := prepared(t, tc.g)
			p := DefaultParams(tc.g.N)
			p.Delta = bp.Delta
			res := CreateExpander(m, p, rng.New(7))
			s := res.Final.Simple()
			if !s.IsConnected() {
				t.Fatal("final graph disconnected")
			}
			bound := 3 * sim.LogBound(tc.g.N)
			if d := s.Diameter(); d > bound {
				t.Errorf("diameter %d exceeds 3·log₂ n = %d", d, bound)
			}
		})
	}
}

func TestCreateExpanderConductanceGrows(t *testing.T) {
	g := topology.Line(128)
	m, bp := prepared(t, g)
	p := DefaultParams(g.N)
	p.Delta = bp.Delta
	src := rng.New(11)
	before := m.SpectralGap(300, src.Split(1))
	res := CreateExpander(m, p, src)
	after := res.Final.SpectralGap(300, src.Split(2))
	if after < 10*before {
		t.Errorf("spectral gap grew only %g -> %g; expected >= 10x on a line", before, after)
	}
	if after < 0.05 {
		t.Errorf("final spectral gap %g too small for an expander", after)
	}
}

// TestCreateExpanderTokenLoadBounded checks Lemma 3.2 on the load the
// evolver measures under RecordPaths (without it the load is 0).
func TestCreateExpanderTokenLoadBounded(t *testing.T) {
	g := topology.Ring(128)
	m, bp := prepared(t, g)
	p := DefaultParams(g.N)
	p.Delta = bp.Delta
	p.RecordPaths = true
	res := CreateExpander(m, p, rng.New(13))
	// Lemma 3.2: load stays under 3∆/8 w.h.p. We allow twice the bound.
	bound := 3 * bp.Delta / 8
	for i, ev := range res.History {
		if ev.Stats.MaxTokenLoad <= 0 || ev.Stats.MaxTokenLoad > 2*bound {
			t.Errorf("evolution %d: max token load %d outside (0, 2·3∆/8 = %d]",
				i, ev.Stats.MaxTokenLoad, 2*bound)
		}
	}
}

func TestEvolveDeterministic(t *testing.T) {
	g := topology.Ring(48)
	m, bp := prepared(t, g)
	p := Params{Delta: bp.Delta, Ell: 4, Evolutions: 1}
	a := Evolve(m, p, rng.New(99))
	b := Evolve(m, p, rng.New(99))
	if len(a.Edges) != len(b.Edges) {
		t.Fatal("same seed produced different edge counts")
	}
	for i := range a.Edges {
		if a.Edges[i] != b.Edges[i] {
			t.Fatal("same seed produced different edges")
		}
	}
}

func TestEvolvePanicsOnIrregular(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Evolve accepted an irregular graph")
		}
	}()
	m := graphx.NewMulti(2)
	m.AddCrossEdge(0, 1)
	Evolve(m, Params{Delta: 16, Ell: 2, Evolutions: 1}, rng.New(1))
}

func TestMessageLevelMatchesModel(t *testing.T) {
	g := topology.Line(128)
	m, bp := prepared(t, g)
	p := DefaultParams(g.N)
	p.Delta = bp.Delta
	final, eng, protos := RunMessageLevel(m, p, sim.Config{Seed: 17}, 0) // uncapped: measure loads
	s := final.Simple()
	if !s.IsConnected() {
		t.Fatal("message-level final graph disconnected")
	}
	bound := 3 * sim.LogBound(g.N)
	if d := s.Diameter(); d > bound {
		t.Errorf("diameter %d exceeds %d", d, bound)
	}
	// Rounds: L evolutions of ℓ+2 rounds each (plus slack).
	wantRounds := p.Evolutions * (p.Ell + 2)
	if r := eng.Round(); r > wantRounds+4 {
		t.Errorf("rounds = %d, want <= %d", r, wantRounds+4)
	}
	// Token load and regularity across nodes.
	for i, proto := range protos {
		if got := len(proto.Slots()); got != p.Delta {
			t.Errorf("node %d final degree %d, want ∆ = %d", i, got, p.Delta)
		}
	}
	// NCC0 shape: per-round max send within O(log n) — allow a
	// generous constant; per-node total within O(log² n).
	lg := sim.LogBound(g.N)
	if max := eng.Metrics().MaxRoundSent(); max > 8*lg {
		t.Errorf("max per-round units %d exceeds 8·log n = %d", max, 8*lg)
	}
	// Total per node over the run is Θ(log² n): with L = 2·log n
	// evolutions of ℓ+2 rounds and ~∆/8 = log n tokens in flight per
	// node per round the constant is ≈ 2(ℓ+2); allow 8(ℓ+2).
	if tot := eng.Metrics().MaxPerNodeSent(); tot > int64(8*(p.Ell+2)*lg*lg) {
		t.Errorf("max per-node total %d exceeds %d·log² n = %d", tot, 8*(p.Ell+2), 8*(p.Ell+2)*lg*lg)
	}
}

func TestMessageLevelUnderCaps(t *testing.T) {
	// With the NCC0 cap at 8·log n the run must not drop anything.
	g := topology.Ring(128)
	m, bp := prepared(t, g)
	p := DefaultParams(g.N)
	p.Delta = bp.Delta
	final, eng, _ := RunMessageLevel(m, p, sim.Config{Seed: 23}, 8)
	if eng.Metrics().RecvDrops != 0 {
		t.Errorf("capacity drops occurred: %d", eng.Metrics().RecvDrops)
	}
	if eng.Metrics().SendCapViolations != 0 {
		t.Errorf("send cap violations: %d", eng.Metrics().SendCapViolations)
	}
	if !final.Simple().IsConnected() {
		t.Error("capped run disconnected")
	}
}

func TestDefaultParams(t *testing.T) {
	p := DefaultParams(1024)
	if p.Delta%8 != 0 || p.Delta < 16 {
		t.Errorf("Delta = %d", p.Delta)
	}
	if p.Evolutions < sim.LogBound(1024) {
		t.Errorf("Evolutions = %d too few", p.Evolutions)
	}
	if p.Ell < 2 {
		t.Errorf("Ell = %d", p.Ell)
	}
}
