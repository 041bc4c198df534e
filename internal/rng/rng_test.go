package rng

import (
	"math"
	"math/bits"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("different seeds produced %d identical outputs", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	c1 := parent.Split(1)
	c2 := parent.Split(2)
	// Children with different labels must diverge immediately, and
	// splitting must not perturb the parent stream determinism.
	if c1.Uint64() == c2.Uint64() {
		t.Error("sibling streams produced identical first output")
	}
	p1 := New(7)
	p1.Split(1)
	p1.Split(2)
	p2 := New(7)
	if p1.Uint64() != p2.Uint64() {
		t.Error("Split mutated the parent stream")
	}
}

func TestIntnRange(t *testing.T) {
	s := New(3)
	for n := 1; n <= 17; n++ {
		for i := 0; i < 200; i++ {
			if v := s.Intn(n); v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	s := New(11)
	const n, trials = 10, 100000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		counts[s.Intn(n)]++
	}
	want := float64(trials) / n
	for v, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("value %d: count %d too far from %f", v, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(5)
	sum := 0.0
	const trials = 100000
	for i := 0; i < trials; i++ {
		v := s.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 = %f out of [0,1)", v)
		}
		sum += v
	}
	if mean := sum / trials; math.Abs(mean-0.5) > 0.01 {
		t.Errorf("Float64 mean = %f, want ~0.5", mean)
	}
}

func TestExpFloat64Mean(t *testing.T) {
	s := New(9)
	const beta, trials = 0.5, 200000
	sum := 0.0
	for i := 0; i < trials; i++ {
		v := s.ExpFloat64(beta)
		if v < 0 {
			t.Fatalf("ExpFloat64 negative: %f", v)
		}
		sum += v
	}
	if mean := sum / trials; math.Abs(mean-1/beta) > 0.05 {
		t.Errorf("ExpFloat64 mean = %f, want ~%f", mean, 1/beta)
	}
}

func TestExpFloat64Panics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("ExpFloat64(0) did not panic")
		}
	}()
	New(1).ExpFloat64(0)
}

func TestPermIsPermutation(t *testing.T) {
	f := func(seed uint64, rawN uint8) bool {
		n := int(rawN%50) + 1
		p := New(seed).Perm(n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSampleWithoutReplacement(t *testing.T) {
	f := func(seed uint64, rawN, rawK uint8) bool {
		n := int(rawN%40) + 1
		k := int(rawK % 45)
		got := New(seed).SampleWithoutReplacement(n, k)
		wantLen := k
		if k >= n {
			wantLen = n
		}
		if len(got) != wantLen {
			return false
		}
		seen := make(map[int]bool, len(got))
		for _, v := range got {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSampleWithoutReplacementUniform(t *testing.T) {
	// Each element should appear in a k-of-n sample with probability k/n.
	s := New(123)
	const n, k, trials = 10, 3, 60000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		for _, v := range s.SampleWithoutReplacement(n, k) {
			counts[v]++
		}
	}
	want := float64(trials) * k / n
	for v, c := range counts {
		if math.Abs(float64(c)-want) > 6*math.Sqrt(want) {
			t.Errorf("element %d sampled %d times, want ~%f", v, c, want)
		}
	}
}

func TestShuffleIntsPreservesMultiset(t *testing.T) {
	s := New(77)
	p := []int{1, 1, 2, 3, 5, 8}
	q := append([]int(nil), p...)
	s.ShuffleInts(q)
	counts := map[int]int{}
	for _, v := range p {
		counts[v]++
	}
	for _, v := range q {
		counts[v]--
	}
	for k, c := range counts {
		if c != 0 {
			t.Errorf("element %d count mismatch %d", k, c)
		}
	}
}

func TestBoolBalance(t *testing.T) {
	s := New(55)
	trues := 0
	const trials = 100000
	for i := 0; i < trials; i++ {
		if s.Bool() {
			trues++
		}
	}
	if math.Abs(float64(trues)-trials/2) > 4*math.Sqrt(trials/4) {
		t.Errorf("Bool trues = %d out of %d", trues, trials)
	}
}

// TestMul64 pins the 128-bit product Intn draws through — bits.Mul64,
// called directly so that Intn inlines — to (a, b) → (hi, lo) vectors
// recorded from the 32×32 schoolbook mul64 it replaced: every bounded
// draw in the repository goes through it, so a differing product would
// move every golden at once.
func TestMul64(t *testing.T) {
	for _, v := range [][4]uint64{
		{math.MaxUint64, 2, 1, math.MaxUint64 - 1},
		{0x0, 0x0, 0x0, 0x0},
		{0x0, 0x1, 0x0, 0x0},
		{0x0, 0xffffffff, 0x0, 0x0},
		{0x0, 0x100000000, 0x0, 0x0},
		{0x0, 0xffffffffffffffff, 0x0, 0x0},
		{0x1, 0x0, 0x0, 0x0},
		{0x1, 0x1, 0x0, 0x1},
		{0x1, 0xffffffff, 0x0, 0xffffffff},
		{0x1, 0x100000000, 0x0, 0x100000000},
		{0x1, 0xffffffffffffffff, 0x0, 0xffffffffffffffff},
		{0xffffffff, 0x0, 0x0, 0x0},
		{0xffffffff, 0x1, 0x0, 0xffffffff},
		{0xffffffff, 0xffffffff, 0x0, 0xfffffffe00000001},
		{0xffffffff, 0x100000000, 0x0, 0xffffffff00000000},
		{0xffffffff, 0xffffffffffffffff, 0xfffffffe, 0xffffffff00000001},
		{0x100000000, 0x0, 0x0, 0x0},
		{0x100000000, 0x1, 0x0, 0x100000000},
		{0x100000000, 0xffffffff, 0x0, 0xffffffff00000000},
		{0x100000000, 0x100000000, 0x1, 0x0},
		{0x100000000, 0xffffffffffffffff, 0xffffffff, 0xffffffff00000000},
		{0xffffffffffffffff, 0x0, 0x0, 0x0},
		{0xffffffffffffffff, 0x1, 0x0, 0xffffffffffffffff},
		{0xffffffffffffffff, 0xffffffff, 0xfffffffe, 0xffffffff00000001},
		{0xffffffffffffffff, 0x100000000, 0xffffffff, 0xffffffff00000000},
		{0xffffffffffffffff, 0xffffffffffffffff, 0xfffffffffffffffe, 0x1},
		{0x9e3779b97f4a7c15, 0x70, 0x45, 0x38454127b0964930},
		{0xbf58476d1ce4e5b9, 0x94d049bb133111eb, 0x6f3ab8211d8e5352, 0x42d4e4146cc929d3},
		{0xdeadbeefcafebabe, 0x3, 0x2, 0x9c093ccf60fc303a},
		{0x8000000000000000, 0x2, 0x1, 0x0},
		{0x123456789abcdef, 0xfedcba9876543210, 0x121fa00ad77d742, 0x2236d88fe5618cf0},
		{0xffffffff00000001, 0x1ffffffff, 0x1fffffffd, 0x2ffffffff},
		{0x7fffffffffffffff, 0x7fffffffffffffff, 0x3fffffffffffffff, 0x1},
	} {
		if hi, lo := bits.Mul64(v[0], v[1]); hi != v[2] || lo != v[3] {
			t.Errorf("bits.Mul64(%#x, %#x) = (%#x, %#x), recorded (%#x, %#x)", v[0], v[1], hi, lo, v[2], v[3])
		}
	}
}

// FuzzDrawOf pins the stream inverse: unmix undoes mix in both
// directions, and every one of a stream's first k+1 outputs inverts to
// its draw number — from the stream's start, and to zero from the state
// just before it was drawn.
func FuzzDrawOf(f *testing.F) {
	f.Add(uint64(0), uint64(0), uint32(0))
	f.Fuzz(func(t *testing.T, seed, label uint64, k uint32) {
		for _, v := range []uint64{seed, label, seed ^ label, uint64(k)} {
			if mix(unmix(v)) != v || unmix(mix(v)) != v {
				t.Fatalf("mix and unmix do not invert each other at %#x", v)
			}
		}
		start := New(seed).SplitVal(label)
		s := start
		for i := uint64(0); i <= uint64(k%(1<<16)); i++ { // bounded: an execution draws them all
			before := s
			v := s.Uint64()
			if got := start.DrawOf(v); got != i {
				t.Fatalf("seed %#x label %#x: draw %d inverts to %d", seed, label, i, got)
			}
			if got := before.DrawOf(v); got != 0 {
				t.Fatalf("seed %#x label %#x: the next draw inverts to %d", seed, label, got)
			}
		}
	})
}
