package overlay

import "testing"

// TestFastPathWorkersKnobDeterministic pins the public contract that
// Options.Workers never changes fast-path output:
// the graph-level token walks and spectral oracles are partitioned
// deterministically, so equal seeds give identical trees and stats at
// every worker count.
func TestFastPathWorkersKnobDeterministic(t *testing.T) {
	g := lineInput(700)
	base, err := BuildTree(g, &Options{Seed: 5, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{0, 2, 6} {
		r, err := BuildTree(g, &Options{Seed: 5, Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		if r.Tree.Root != base.Tree.Root || r.Stats.SpectralGap != base.Stats.SpectralGap ||
			r.Stats.Rounds != base.Stats.Rounds || r.Stats.ExpanderDiameter != base.Stats.ExpanderDiameter {
			t.Fatalf("workers=%d diverged: %+v vs %+v", w, r.Stats, base.Stats)
		}
		for v := range r.Tree.Parent {
			if r.Tree.Parent[v] != base.Tree.Parent[v] {
				t.Fatalf("workers=%d: parent[%d] differs", w, v)
			}
		}
	}
}
