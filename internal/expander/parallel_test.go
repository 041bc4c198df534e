package expander

import (
	"runtime"
	"testing"
	"time"

	"overlay/internal/graphx"
	"overlay/internal/rng"
	"overlay/internal/topology"
)

// multiEqual asserts two multigraphs are identical slot-for-slot.
func multiEqual(t *testing.T, a, b *graphx.Multi) {
	t.Helper()
	if a.N != b.N {
		t.Fatalf("node counts differ: %d vs %d", a.N, b.N)
	}
	for u := 0; u < a.N; u++ {
		as, bs := a.SlotsOf(u), b.SlotsOf(u)
		if len(as) != len(bs) {
			t.Fatalf("node %d degree %d vs %d", u, len(as), len(bs))
		}
		for k := range as {
			if as[k] != bs[k] {
				t.Fatalf("node %d slot %d: %d vs %d", u, k, as[k], bs[k])
			}
		}
	}
}

// evolutionEqual asserts two evolution records are bit-identical:
// edges in the same order, equal stats, equal paths, equal graphs.
func evolutionEqual(t *testing.T, a, b *Evolution) {
	t.Helper()
	recordEqual(t, a, b)
	multiEqual(t, a.Next, b.Next)
}

// recordEqual is evolutionEqual without the graphs.
func recordEqual(t *testing.T, a, b *Evolution) {
	t.Helper()
	if a.Stats != b.Stats {
		t.Fatalf("stats differ: %+v vs %+v", a.Stats, b.Stats)
	}
	if len(a.Edges) != len(b.Edges) {
		t.Fatalf("edge counts differ: %d vs %d", len(a.Edges), len(b.Edges))
	}
	for i := range a.Edges {
		if a.Edges[i] != b.Edges[i] {
			t.Fatalf("edge %d differs: %v vs %v", i, a.Edges[i], b.Edges[i])
		}
	}
	if len(a.Paths) != len(b.Paths) {
		t.Fatalf("path counts differ: %d vs %d", len(a.Paths), len(b.Paths))
	}
	for i := range a.Paths {
		if len(a.Paths[i]) != len(b.Paths[i]) {
			t.Fatalf("path %d lengths differ", i)
		}
		for k := range a.Paths[i] {
			if a.Paths[i][k] != b.Paths[i][k] {
				t.Fatalf("path %d step %d differs", i, k)
			}
		}
	}
}

// TestEvolveParallelMatchesSequential pins the determinism contract of
// the tentpole: Evolve is a pure function of (graph, params, seed) at
// every worker count, including the recorded paths and the Lemma 3.2
// stats.
func TestEvolveParallelMatchesSequential(t *testing.T) {
	for _, top := range []struct {
		name string
		g    *graphx.Digraph
	}{
		{"ring-96", topology.Ring(96)},
		{"line-97", topology.Line(97)},
		{"grid-10x10", topology.Grid(10, 10)},
	} {
		t.Run(top.name, func(t *testing.T) {
			m, bp := prepared(t, top.g)
			p := Params{Delta: bp.Delta, Ell: 8, Evolutions: 1, RecordPaths: true, Workers: 1}
			want := Evolve(m, p, rng.New(42))
			for _, w := range []int{2, 3, 4, 7, 16} {
				p.Workers = w
				got := Evolve(m, p, rng.New(42))
				evolutionEqual(t, want, got)
			}
		})
	}
}

// TestCreateExpanderParallelMatchesSequential runs the full evolution
// sequence at several worker counts and requires identical final
// graphs and per-evolution stats.
func TestCreateExpanderParallelMatchesSequential(t *testing.T) {
	g := topology.Ring(128)
	m, bp := prepared(t, g)
	p := DefaultParams(g.N)
	p.Delta = bp.Delta
	p.Workers = 1
	want := CreateExpander(m, p, rng.New(7))
	for _, w := range []int{2, 5, 8} {
		p.Workers = w
		got := CreateExpander(m, p, rng.New(7))
		multiEqual(t, want.Final, got.Final)
		if len(want.History) != len(got.History) {
			t.Fatalf("history lengths differ")
		}
		for i := range want.History {
			if want.History[i].Stats != got.History[i].Stats {
				t.Fatalf("evolution %d stats differ at workers=%d: %+v vs %+v",
					i, w, want.History[i].Stats, got.History[i].Stats)
			}
		}
	}
}

// TestTeamsEndWithTheirCall: the worker team behind Evolve,
// CreateExpander and SpectralGapWorkers lives for the one call, so the
// goroutine count is back at its baseline once each returns, at every
// worker count.
func TestTeamsEndWithTheirCall(t *testing.T) {
	g := topology.Ring(128)
	m, bp := prepared(t, g)
	p := DefaultParams(g.N)
	p.Delta, p.Evolutions = bp.Delta, 3
	base := runtime.NumGoroutine()
	for w := 2; w <= 16; w++ {
		p.Workers = w
		res := CreateExpander(m, p, rng.New(7))
		if got := settledGoroutines(base); got > base {
			t.Errorf("workers=%d: %d goroutines after CreateExpander, baseline %d", w, got, base)
		}
		Evolve(m, p, rng.New(7))
		if got := settledGoroutines(base); got > base {
			t.Errorf("workers=%d: %d goroutines after Evolve, baseline %d", w, got, base)
		}
		res.Final.SpectralGapWorkers(20, rng.New(3), w)
		if got := settledGoroutines(base); got > base {
			t.Errorf("workers=%d: %d goroutines after SpectralGapWorkers, baseline %d", w, got, base)
		}
	}
}

// settledGoroutines returns the goroutine count once it is at most base,
// or after a second of waiting: a worker that has returned from its loop
// may still be on its way out of the scheduler.
func settledGoroutines(base int) int {
	deadline := time.Now().Add(time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= base || time.Now().After(deadline) {
			return n
		}
		time.Sleep(time.Millisecond)
	}
}
