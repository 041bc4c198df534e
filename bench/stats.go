package main

import (
	"hash/fnv"
	"math"
	"sort"

	"overlay"
	"overlay/internal/rng"
)

// sorted returns an ascending copy of v.
func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// percentile is the nearest-rank percentile of v (p in (0,100]); 0 for
// an empty sample.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func median(v []float64) float64 { return percentile(v, 50) }

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range v {
		t += x
	}
	return t / float64(len(v))
}

// tailOK reports whether the p-th percentile of n samples has at least
// ten samples beyond it — the rule every tail in this benchmark obeys:
// a tail the sample cannot support is not reported at all.
func tailOK(n int, p float64) bool {
	return float64(n)*(1-p/100) >= 10-1e-9
}

// quartiles returns the three quartiles of v as Python's
// statistics.quantiles(v, n=4) gives them (exclusive method), which is
// what the acceptance rule is computed with. v is not empty.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := sorted(v)
	if len(s) == 1 {
		return s[0], s[0], s[0]
	}
	q := func(k int) float64 {
		pos := float64(k) * float64(len(s)+1) / 4
		j := min(max(int(pos), 1), len(s)-1)
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return q(1), q(2), q(3)
}

// iqrShare is the distance between the first and third quartile of v
// as a share of its median: the spread the acceptance rule uses.
func iqrShare(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	q1, q2, q3 := quartiles(v)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

// derive splits a per-purpose seed off the run seed, so every build,
// churn, fault and endpoint stream is a function of -seed alone.
func derive(seed uint64, label string, i int) uint64 {
	h := fnv.New64a()
	h.Write([]byte(label))
	return rng.New(seed).Split(h.Sum64()).Split(uint64(i)).Uint64()
}

// print64 folds simulated statistics into an FNV-64 fingerprint.
type print64 struct{ h uint64 }

func newPrint() print64 { return print64{h: 14695981039346656037} }

func (p *print64) u64(vs ...uint64) {
	for _, v := range vs {
		for i := 0; i < 8; i++ {
			p.h ^= v & 0xff
			p.h *= 1099511628211
			v >>= 8
		}
	}
}

func (p *print64) ints(vs ...int) {
	for _, v := range vs {
		p.u64(uint64(v))
	}
}

func (p *print64) str(s string) {
	for i := 0; i < len(s); i++ {
		p.h ^= uint64(s[i])
		p.h *= 1099511628211
	}
	p.u64(uint64(len(s)))
}

// tree folds a well-formed tree (root and parent column) in.
func (p *print64) tree(t *overlay.Tree) {
	p.ints(t.Root, len(t.Parent))
	p.ints(t.Parent...)
	p.ints(t.Rank...)
}
