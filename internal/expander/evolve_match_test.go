package expander

import (
	"fmt"
	"testing"

	"overlay/internal/benign"
	"overlay/internal/graphx"
	"overlay/internal/rng"
	"overlay/internal/topology"
)

// benignDelta prepares g as a benign graph of degree delta (0 = the
// default for its size), with Λ cut to the ∆/8 copies per edge a
// degree-2 input leaves room for.
func benignDelta(t *testing.T, g *graphx.Digraph, delta int) *graphx.Multi {
	t.Helper()
	bp := benign.Defaults(g.N, g.MaxDegree())
	if delta > 0 {
		bp.Delta, bp.Lambda = delta, min(bp.Lambda, delta/8)
	}
	m, err := benign.Prepare(g, bp)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// cloneMulti copies m through its public surface.
func cloneMulti(m *graphx.Multi) *graphx.Multi {
	c := graphx.NewMulti(m.N)
	for u := 0; u < m.N; u++ {
		for _, v := range m.SlotsOf(u) {
			if int(v) == u {
				c.AddSelfLoop(u)
			} else if int(v) > u {
				c.AddCrossEdge(u, int(v))
			}
		}
	}
	return c
}

// matchSpec runs Evolve and CreateExpander against the specification on
// m and requires identical output: Evolve's whole record; for
// CreateExpander the final rows and every evolution's Stats, its Edges
// and Paths exactly when RecordPaths, and an untouched g0. Lemma 3.2's
// load is measured exactly when RecordPaths and some token walks, so
// Stats equality is never a comparison of two zeros under RecordPaths.
func matchSpec(t *testing.T, m *graphx.Multi, p Params, seed uint64) {
	t.Helper()
	p1 := p
	p1.Workers = 1
	evolutionEqual(t, specEvolve(m, p1, rng.New(seed)), Evolve(m, p, rng.New(seed)))

	flat, _ := m.FlatSlots()
	before := append([]int32(nil), flat...)
	want := specCreateExpander(m, p1, rng.New(seed))
	got := CreateExpander(m, p, rng.New(seed))
	for i, v := range flat {
		if v != before[i] {
			t.Fatalf("CreateExpander modified g0 at flat slot %d", i)
		}
	}
	multiEqual(t, want.Final, got.Final)
	if len(got.History) != len(want.History) {
		t.Fatalf("history length %d, want %d", len(got.History), len(want.History))
	}
	for i, ev := range got.History {
		w := *want.History[i]
		walked := p.RecordPaths && p.Ell > 0 && m.N*(p.Delta/8) > 0
		if (w.Stats.MaxTokenLoad > 0) != walked {
			t.Fatalf("evolution %d: MaxTokenLoad %d with RecordPaths=%v", i, w.Stats.MaxTokenLoad, p.RecordPaths)
		}
		if ev.Next != nil {
			t.Fatalf("evolution %d retains its graph", i)
		}
		if !p.RecordPaths {
			if ev.Edges != nil || ev.Paths != nil {
				t.Fatalf("evolution %d retains edges or paths without RecordPaths", i)
			}
			w.Edges = nil
		}
		recordEqual(t, &w, ev)
	}
}

// TestEvolveMatchesSpec pins the evolver to the specification in
// evolve_spec_test.go, bit for bit, across sizes around the chunking
// edge cases (fewer nodes or tokens than workers), worker counts,
// degrees and walk lengths. At ∆ = 16 and ℓ = 16 the larger sizes
// overflow the acceptance cap at a few nodes; TestEvolveEdgeShapes
// overflows it at every endpoint.
func TestEvolveMatchesSpec(t *testing.T) {
	for _, top := range []struct {
		name string
		make func(int) *graphx.Digraph
	}{{"ring", topology.Ring}, {"line", topology.Line}} {
		for _, n := range []int{1, 2, 3, 17, 300, 5000} {
			if n == 5000 && testing.Short() {
				continue
			}
			for _, delta := range []int{16, 0} {
				m := benignDelta(t, top.make(n), delta)
				for _, ell := range []int{1, 16} {
					for _, rec := range []bool{false, true} {
						evolutions := 4
						if n == 5000 {
							evolutions = 2
						}
						for _, workers := range []int{1, 2, 3, 5, 16} {
							name := fmt.Sprintf("%s/n=%d/delta=%d/ell=%d/paths=%v/workers=%d", top.name, n, delta, ell, rec, workers)
							t.Run(name, func(t *testing.T) {
								p := Params{Delta: m.Degree(0), Ell: ell, Evolutions: evolutions, RecordPaths: rec, Workers: workers}
								matchSpec(t, m, p, uint64(n)*31+uint64(ell))
							})
						}
					}
				}
			}
		}
	}
}

// TestEvolveEdgeShapes feeds the evolver a regular graph whose slot
// storage is wider than ∆ (built by insertion, so its stride is the
// next power of two); the degenerate shapes — no evolutions, a zero
// walk length, a degree too small to mint a token; and a funnel whose
// every slot leads to one of three sinks, so the first evolution drops
// most tokens at the acceptance cap.
func TestEvolveEdgeShapes(t *testing.T) {
	m := cloneMulti(benignDelta(t, topology.Ring(40), 24))
	if _, stride := m.FlatSlots(); stride == 24 {
		t.Fatal("insertion-built graph is not over-strided; the case is not covered")
	}
	for _, p := range []Params{
		{Delta: 24, Ell: 8, Evolutions: 3, Workers: 3},
		{Delta: 24, Ell: 8, Evolutions: 0},
		{Delta: 24, Ell: 0, Evolutions: 2, RecordPaths: true},
	} {
		matchSpec(t, m, p, 5)
	}
	loops := graphx.NewMultiRegular(6, 4)
	loops.PadSelfLoops(4)
	matchSpec(t, loops, Params{Delta: 4, Ell: 3, Evolutions: 2, Workers: 2}, 5)

	rows := make([]int32, 50*16)
	for i := range rows {
		rows[i] = int32(i % 3)
	}
	funnel := graphx.MultiFromRows(50, 16, rows)
	for _, workers := range []int{1, 4} {
		p := Params{Delta: 16, Ell: 2, Evolutions: 3, RecordPaths: true, Workers: workers}
		if ev := Evolve(funnel, p, rng.New(9)); ev.Stats.DroppedTokens < 50 {
			t.Fatalf("the funnel dropped %d tokens; the overflow case is not covered", ev.Stats.DroppedTokens)
		}
		matchSpec(t, funnel, p, 9)
	}
}

// FuzzEvolveMatchesSpec is TestEvolveMatchesSpec on generated shapes:
// a ring or a line (seed bit 0) of 1 + n%600 nodes, ∆ = 16 or the
// default (bit 1), ℓ in 1..16 (bits 2–5), RecordPaths (bit 6),
// 1 + workers%17 workers. Its seed corpus is committed under
// testdata/fuzz/FuzzEvolveMatchesSpec and runs with the tier-1 tests.
func FuzzEvolveMatchesSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, n uint16, seed uint64, workers uint8) {
		g := topology.Ring(1 + int(n)%600)
		if seed&1 == 1 {
			g = topology.Line(g.N)
		}
		delta := 0
		if seed&2 != 0 {
			delta = 16
		}
		m := benignDelta(t, g, delta)
		p := Params{
			Delta: m.Degree(0), Ell: 1 + int(seed>>2)%16, Evolutions: 3,
			RecordPaths: seed&(1<<6) != 0, Workers: 1 + int(workers)%17,
		}
		matchSpec(t, m, p, seed)
	})
}
