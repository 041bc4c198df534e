package graphx

import (
	"math"
	"sync"

	"overlay/internal/par"
	"overlay/internal/rng"
)

// Conductance measurement.
//
// Exact conductance minimizes over exponentially many subsets, so it is
// only computed by enumeration on tiny graphs (ExactConductance). For
// real sizes we use the spectral bracket: with lazy random-walk matrix
// P and second eigenvalue λ₂, Cheeger's inequality gives
//
//	(1-λ₂)/2 ≤ Φ ≤ sqrt(2·(1-λ₂))
//
// and the sweep cut over the second eigenvector gives a concrete set
// witnessing a conductance value, so SweepConductance is a valid upper
// bound on Φ while SpectralGap/2 is a lower bound. Experiment E3 reports
// both sides; monotone growth of the bracket is the reproduced claim.
//
// The power iteration is parallel and deterministic: the mat-vec is
// range-partitioned in gather form (each output coordinate is computed
// wholly by one worker, summing its slot row sequentially) and every
// inner product is reduced over fixed-size blocks combined in index
// order, so the floating-point rounding schedule — and hence the
// result — is bit-identical at every worker count.

// eigenScratch holds the power iteration's per-restart work vectors —
// stationary distribution, inverse-degree weights, the iterate and its
// image, the pre-scaled gather vector, and the fixed-block reduction
// sums — pooled so repeated spectral measurements (E3 runs two per
// evolution; the E12 stats run one per build) reuse a single set
// instead of allocating six n-vectors each restart. Every slot is
// fully overwritten before it is read, so pooling cannot leak state
// between runs or perturb the deterministic rounding schedule.
type eigenScratch struct {
	pi, invTwoDeg, x, y, xs, sums []float64
}

var eigenPool sync.Pool

// getEigenScratch returns a scratch sized for n nodes.
func getEigenScratch(n int) *eigenScratch {
	sc, _ := eigenPool.Get().(*eigenScratch)
	if sc == nil {
		sc = &eigenScratch{}
	}
	if cap(sc.pi) < n {
		sc.pi = make([]float64, n)
		sc.invTwoDeg = make([]float64, n)
		sc.x = make([]float64, n)
		sc.y = make([]float64, n)
		sc.xs = make([]float64, n)
	}
	sc.pi = sc.pi[:n]
	sc.invTwoDeg = sc.invTwoDeg[:n]
	sc.x = sc.x[:n]
	sc.y = sc.y[:n]
	sc.xs = sc.xs[:n]
	if nb := par.Blocks(n); cap(sc.sums) < nb {
		sc.sums = make([]float64, nb)
	} else {
		sc.sums = sc.sums[:par.Blocks(n)]
	}
	return sc
}

func putEigenScratch(sc *eigenScratch) {
	if sc != nil {
		eigenPool.Put(sc)
	}
}

// SpectralGap estimates 1-λ₂ of the lazy walk matrix by power iteration
// with deflation against the stationary distribution (∝ degree). iters
// controls accuracy; 200 is ample for the sizes used in experiments.
// The rng source makes the start vector deterministic per caller. The
// iteration runs across GOMAXPROCS workers; use SpectralGapWorkers to
// pin the team size.
func (m *Multi) SpectralGap(iters int, src *rng.Source) float64 {
	return m.SpectralGapWorkers(iters, src, 0)
}

// SpectralGapWorkers is SpectralGap with an explicit worker count
// (<= 0 means GOMAXPROCS). The result is bit-identical across worker
// counts.
func (m *Multi) SpectralGapWorkers(iters int, src *rng.Source, workers int) float64 {
	lambda2, _, sc := m.secondEigen(iters, src, workers)
	putEigenScratch(sc)
	return 1 - lambda2
}

// secondEigen returns (λ₂ estimate, eigenvector estimate, scratch).
// The eigenvector aliases the returned scratch; the caller must be
// done with it before putEigenScratch.
//
// The walk update is written in gather form, relying on the cross-edge
// symmetry invariant (u appears in v's slots exactly as often as v in
// u's): y[v] = x[v]/2 + Σ_{w ∈ slots(v)} x[w]/(2·deg(w)). Each y[v]
// touches only v's contiguous slot row, so range partitioning races on
// nothing and the per-coordinate accumulation order is fixed; xs holds
// the pre-scaled vector x[w]/(2·deg(w)) so the gather's random-index
// reads touch a single array, and the walk is fused with the Rayleigh
// quotient <x, Px>_π (P is self-adjoint under π). One worker team
// serves the call, and all worker closures are built once per restart,
// before the iteration loop, reading the per-iteration scalars through a
// shared state struct — the loop body itself allocates nothing.
func (m *Multi) secondEigen(iters int, src *rng.Source, workers int) (float64, []float64, *eigenScratch) {
	n := m.N
	if n < 2 {
		return 0, make([]float64, n), nil
	}
	var team par.Team
	team.Open(workers)
	defer team.Close()
	sc := getEigenScratch(n)
	pi, invTwoDeg, xs, sums := sc.pi, sc.invTwoDeg, sc.xs, sc.sums
	flat, stride := m.FlatSlots()
	deg := m.deg

	// Per-iteration state the hoisted closures read and write: the
	// deflation projection, the normalization factor, the iterate pair
	// (swapped each step), and the blockwise partial accumulator.
	st := struct {
		dot, inv float64
		x, y     []float64
	}{x: sc.x, y: sc.y}
	blockAt := func(b int) (int, int) {
		lo := b * par.RedBlock
		hi := lo + par.RedBlock
		if hi > n {
			hi = n
		}
		return lo, hi
	}
	piBlocks := func(_, blo, bhi int) {
		for b := blo; b < bhi; b++ {
			lo, hi := blockAt(b)
			t := 0.0
			for u := lo; u < hi; u++ {
				d := float64(deg[u])
				if d == 0 {
					d = 1
				}
				pi[u] = d
				invTwoDeg[u] = 1 / (2 * d)
				t += d
			}
			sums[b] = t
		}
	}
	dotBlocks := func(_, blo, bhi int) {
		x := st.x
		for b := blo; b < bhi; b++ {
			lo, hi := blockAt(b)
			t := 0.0
			for u := lo; u < hi; u++ {
				t += pi[u] * x[u]
			}
			sums[b] = t
		}
	}
	// Fused: subtract the projection, accumulate the π-norm.
	deflateBlocks := func(_, blo, bhi int) {
		x, dot := st.x, st.dot
		for b := blo; b < bhi; b++ {
			lo, hi := blockAt(b)
			t := 0.0
			for u := lo; u < hi; u++ {
				xu := x[u] - dot
				x[u] = xu
				t += pi[u] * xu * xu
			}
			sums[b] = t
		}
	}
	// Fused: normalize x and pre-scale it for the gather.
	scaleRange := func(_, lo, hi int) {
		x, inv := st.x, st.inv
		for u := lo; u < hi; u++ {
			xu := x[u] * inv
			x[u] = xu
			xs[u] = xu * invTwoDeg[u]
		}
	}
	// Fused: apply the lazy walk matrix and accumulate <x, Px>_π.
	// Self-loop slots are part of A, so graphs that are already lazy
	// are slowed by at most another factor 2, which only rescales the
	// gap.
	walkBlocks := func(_, blo, bhi int) {
		x, y := st.x, st.y
		for b := blo; b < bhi; b++ {
			lo, hi := blockAt(b)
			t := 0.0
			for v := lo; v < hi; v++ {
				d := int(deg[v])
				yv := x[v]
				if d > 0 {
					sum := 0.0
					for _, w := range flat[v*stride : v*stride+d] {
						sum += xs[w]
					}
					yv = x[v]/2 + sum
				}
				y[v] = yv
				t += pi[v] * x[v] * yv
			}
			sums[b] = t
		}
	}

	// Stationary distribution of the reversible chain: π ∝ degree, and
	// the inverse-degree weights the gather-form mat-vec reads.
	total := team.Sum(sums, piBlocks)
	team.Run(n, func(_, lo, hi int) {
		for u := lo; u < hi; u++ {
			pi[u] /= total
		}
	})
	for u := range st.x {
		st.x[u] = src.Float64() - 0.5
	}
	lambda := 0.0
	for it := 0; it < iters; it++ {
		// Deflate the top eigenvector (all-ones in the π inner product).
		st.dot = team.Sum(sums, dotBlocks)
		norm := math.Sqrt(team.Sum(sums, deflateBlocks))
		if norm < 1e-300 {
			// x collapsed into the top eigenspace; the chain mixes in
			// one step as far as this start vector can tell.
			return 0, st.x, sc
		}
		st.inv = 1 / norm
		team.Run(n, scaleRange)
		lambda = team.Sum(sums, walkBlocks)
		st.x, st.y = st.y, st.x
	}
	if lambda < 0 {
		lambda = 0
	}
	if lambda > 1 {
		lambda = 1
	}
	return lambda, st.x, sc
}

// SweepConductance upper-bounds the conductance by sweeping prefixes of
// the second-eigenvector ordering, returning the best Φ(S) found over
// prefixes with |S| ≤ N/2. delta is the regular degree used in the
// paper's Definition 1.7 denominator; pass m's actual regular degree.
func (m *Multi) SweepConductance(delta, iters int, src *rng.Source) float64 {
	n := m.N
	if n < 2 {
		return 1
	}
	_, vec, sc := m.secondEigen(iters, src, 0)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	// Sort by eigenvector coordinate (insertion-free: simple sort).
	sortByKey(order, vec)
	putEigenScratch(sc) // vec (which aliases sc) is consumed by the sort

	inSet := make([]bool, n)
	cut := 0
	best := 1.0
	for i := 0; i < n/2; i++ {
		u := order[i]
		inSet[u] = true
		// Adding u flips the crossing status of its cross edges.
		for _, v := range m.SlotsOf(u) {
			if int(v) == u {
				continue
			}
			if inSet[v] {
				cut--
			} else {
				cut++
			}
		}
		phi := float64(cut) / float64(delta*(i+1))
		if phi < best {
			best = phi
		}
	}
	return best
}

// ExactConductance enumerates all subsets with |S| ≤ N/2 and returns
// min Φ(S) per Definition 1.7 with the given regular degree. It panics
// for N > 20 (2^N enumeration) and returns 1 for N < 2.
func (m *Multi) ExactConductance(delta int) float64 {
	n := m.N
	if n > 20 {
		panic("graphx: ExactConductance limited to N <= 20")
	}
	if n < 2 {
		return 1
	}
	edges := make([][2]int, 0)
	for u := 0; u < n; u++ {
		for _, v := range m.SlotsOf(u) {
			if int(v) > u {
				edges = append(edges, [2]int{u, int(v)})
			}
		}
	}
	best := 1.0
	// Fix node 0 outside S: conductance is symmetric in S vs V\S for
	// |S| = N/2, and otherwise the smaller side must avoid someone.
	for mask := uint32(1); mask < 1<<(n-1); mask++ {
		bits := popcount(mask)
		if 2*bits > n {
			continue
		}
		// edges holds one entry per parallel cross edge, so counting
		// crossing entries matches Definition 1.7's numerator.
		cut := 0
		for _, e := range edges {
			// Shift by one: bit i of mask is node i+1.
			inU := e[0] > 0 && mask&(1<<(e[0]-1)) != 0
			inV := e[1] > 0 && mask&(1<<(e[1]-1)) != 0
			if inU != inV {
				cut++
			}
		}
		phi := float64(cut) / float64(delta*bits)
		if phi < best {
			best = phi
		}
	}
	return best
}

func popcount(x uint32) int {
	c := 0
	for x != 0 {
		x &= x - 1
		c++
	}
	return c
}

// sortByKey sorts order ascending by key[order[i]] (simple heapsort to
// avoid pulling in sort for a hot path with float keys).
func sortByKey(order []int, key []float64) {
	n := len(order)
	for i := n/2 - 1; i >= 0; i-- {
		siftDown(order, key, i, n)
	}
	for end := n - 1; end > 0; end-- {
		order[0], order[end] = order[end], order[0]
		siftDown(order, key, 0, end)
	}
}

func siftDown(order []int, key []float64, start, end int) {
	root := start
	for {
		child := 2*root + 1
		if child >= end {
			return
		}
		if child+1 < end && key[order[child+1]] > key[order[child]] {
			child++
		}
		if key[order[root]] >= key[order[child]] {
			return
		}
		order[root], order[child] = order[child], order[root]
		root = child
	}
}
