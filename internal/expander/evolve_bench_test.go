package expander

import (
	"testing"

	"overlay/internal/rng"
	"overlay/internal/topology"
)

// BenchmarkEvolve_64k is one evolution at n = 64k. At this size
// Defaults gives ∆ = 128, so it walks n·∆/8 ≈ 1M tokens for ℓ = 16
// steps: the graph-level hot loop.
func BenchmarkEvolve_64k(b *testing.B) {
	m, bp := prepared(b, topology.Ring(1<<16))
	p := Params{Delta: bp.Delta, Ell: 16, Evolutions: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Evolve(m, p, rng.New(uint64(i)))
	}
}

// BenchmarkCreateExpander_16k is the evolution sequence of the
// build_fast workload (bench/): L = 28 evolutions at n = 16384,
// ∆ = 112. Its B/op is two graphs (2·n·∆·4 B = 14.7 MB) plus the
// evolver's scratch, however large L is; the root package's
// TestAllocFence holds the n = 4096 build to that shape.
func BenchmarkCreateExpander_16k(b *testing.B) {
	m, bp := prepared(b, topology.Ring(1<<14))
	p := DefaultParams(m.N)
	p.Delta = bp.Delta
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		CreateExpander(m, p, rng.New(uint64(i)))
	}
}
