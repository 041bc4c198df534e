// Package rng provides a deterministic, splittable pseudo-random number
// generator for simulations.
//
// Every node in a simulated network owns an independent stream derived
// from a single run seed, so protocol executions are reproducible
// bit-for-bit regardless of goroutine scheduling: the engine may execute
// node handlers concurrently and the randomness each node observes never
// changes. The core is splitmix64, whose output function is a strong
// 64-bit mixer; Split derives statistically independent child streams,
// which is the property per-node streams rely on.
package rng

import (
	"math"
	"math/bits"
)

// Source is a deterministic pseudo-random stream. It is not safe for
// concurrent use; derive one Source per goroutine via Split.
type Source struct {
	state uint64
}

// golden is the splitmix64 increment (2^64 / phi, odd); goldenInv is
// its inverse modulo 2^64.
const (
	golden    = 0x9e3779b97f4a7c15
	goldenInv = 0xf1de83e19937733d
)

// New returns a Source seeded from seed.
func New(seed uint64) *Source {
	return &Source{state: mix(seed + golden)}
}

// Split derives an independent child stream labelled by label. Two
// children of the same parent with different labels, and children of
// different parents, produce unrelated streams.
func (s *Source) Split(label uint64) *Source {
	return &Source{state: mix(s.state ^ mix(label+golden))}
}

// SplitVal is Split returning the child by value, for hot loops that
// derive millions of short-lived streams (one per walk token) without
// heap allocation. The stream is identical to Split(label).
func (s *Source) SplitVal(label uint64) Source {
	return Source{state: mix(s.state ^ mix(label+golden))}
}

// mix is the splitmix64 output function: a bijective 64-bit finalizer.
func mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// unmix inverts mix: each xor-shift is undone by repeating the shift
// until it leaves the word, each multiply by the constant's inverse
// modulo 2^64.
func unmix(z uint64) uint64 {
	z = (z ^ z>>31 ^ z>>62) * 0x319642b2d24d8ec3
	z = (z ^ z>>27 ^ z>>54) * 0x96de1b173f119089
	return z ^ z>>30 ^ z>>60
}

// Uint64 returns the next 64 uniform pseudo-random bits.
func (s *Source) Uint64() uint64 {
	s.state += golden
	return mix(s.state)
}

// DrawOf returns the number of Uint64 calls from s's current state that
// come before the one returning v. mix is a bijection and golden is
// odd, so the stream visits every 64-bit value exactly once in its 2^64
// draws and the answer always exists; a stream's first k outputs are
// exactly the values whose DrawOf is below k. s is not advanced.
func (s *Source) DrawOf(v uint64) uint64 {
	return (unmix(v)-s.state)*goldenInv - 1
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless unbiased bounded sampling. The
	// 128-bit product is bits.Mul64 called directly, not through a
	// helper: that keeps Intn under the inlining budget, and the token
	// walks draw once per step.
	bound := uint64(n)
	for {
		hi, lo := bits.Mul64(s.Uint64(), bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// Float64 returns a uniform float in [0, 1).
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// ExpFloat64 returns an exponentially distributed float with rate beta
// (mean 1/beta). It panics if beta <= 0.
func (s *Source) ExpFloat64(beta float64) float64 {
	if beta <= 0 {
		panic("rng: ExpFloat64 with non-positive rate")
	}
	// Inverse transform; 1-U avoids log(0).
	return -math.Log(1-s.Float64()) / beta
}

// Bool returns a uniform random boolean.
func (s *Source) Bool() bool { return s.Uint64()&1 == 1 }

// Perm returns a uniform random permutation of [0, n).
func (s *Source) Perm(n int) []int {
	p := make([]int, n)
	s.PermInto(p)
	return p
}

// PermInto fills p with a uniform random permutation of [0, len(p)),
// the allocation-free form of Perm for callers with a scratch buffer.
func (s *Source) PermInto(p []int) {
	for i := range p {
		p[i] = i
	}
	s.ShuffleInts(p)
}

// ShuffleInts permutes p uniformly at random in place.
func (s *Source) ShuffleInts(p []int) {
	for i := len(p) - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}

// SampleWithoutReplacement returns k distinct uniform indices from
// [0, n). If k >= n it returns all n indices in random order.
func (s *Source) SampleWithoutReplacement(n, k int) []int {
	if k >= n {
		return s.Perm(n)
	}
	// Partial Fisher-Yates over an index map keeps this O(k) in memory
	// touched for small k relative to n.
	chosen := make([]int, 0, k)
	remap := make(map[int]int, k*2)
	for i := 0; i < k; i++ {
		j := i + s.Intn(n-i)
		vj, ok := remap[j]
		if !ok {
			vj = j
		}
		vi, ok := remap[i]
		if !ok {
			vi = i
		}
		remap[j] = vi
		chosen = append(chosen, vj)
	}
	return chosen
}
