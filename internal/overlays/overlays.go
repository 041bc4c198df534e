// Package overlays derives the "well-behaved" overlay topologies of
// Section 1.4's corollary from a well-formed tree.
//
// Once every node holds a unique rank in [0, n) (which the tree
// construction provides), any overlay whose neighborhoods are index
// arithmetic on ranks can be established in O(log n) further rounds:
// each node computes its neighbor ranks locally and discovers the
// owning identifiers by the same ranked-ring routing the tree
// construction used. This package is that rank arithmetic: the four
// overlays as edge lists written straight from the ranks, and greedy
// Chord routing. The tests keep graph-building versions of the four as
// the small specification the arithmetic is checked against.
package overlays

import (
	"fmt"
	"math/bits"
)

// view names one of the four rank-arithmetic overlays.
type view uint8

const (
	ring view = iota
	chord
	hypercube
	deBruijn
)

// RingEdges returns the rank ring: rank r ↔ rank r+1 (mod n). Degree 2,
// diameter ⌊n/2⌋ — the building block for the other overlays.
//
// Like the other three it returns the overlay's undirected edges over
// the tree nodeAt ranks (nodeAt[r] is the tree node holding rank r):
// each edge once as (u < v), ordered by u and then by the rank loop
// that generates them, every endpoint v mapped to members[v] — or left
// a tree node index when members is nil. members must ascend.
func RingEdges(nodeAt, members []int) [][2]int { return edges(ring, nodeAt, members) }

// ChordEdges returns the finger ring: rank r connects to ranks r+2^k
// mod n for all 2^k < n. Degree O(log n), diameter O(log n); subsumes
// butterfly-style routing on arbitrary n.
func ChordEdges(nodeAt, members []int) [][2]int { return edges(chord, nodeAt, members) }

// HypercubeEdges returns the (possibly incomplete) hypercube: rank r
// connects to r XOR 2^b whenever the partner rank exists. For n a
// power of two this is the exact hypercube of degree and diameter
// log₂ n; for other n the missing corners are simply absent, and
// connectivity is retained because bit 0 edges chain neighbors.
func HypercubeEdges(nodeAt, members []int) [][2]int { return edges(hypercube, nodeAt, members) }

// DeBruijnEdges returns the binary De Bruijn overlay on arbitrary n:
// rank r connects to ranks 2r mod n and 2r+1 mod n. Constant degree
// (≤ 4 counting in-edges) and O(log n) diameter.
func DeBruijnEdges(nodeAt, members []int) [][2]int { return edges(deBruijn, nodeAt, members) }

// edges writes a view's edge list in two sweeps of the same rank loop
// around a prefix sum: the first counts the edges each smaller endpoint
// owns, the second drops every edge into its owner's run — a stable
// counting sort by u, which is the order a graph built edge by edge
// lists them in. The only allocations are the output and the n+1
// offsets. An edge both of whose ranks generate it is kept at the
// smaller rank, which the loop reaches first, and recognised at the
// larger one in closed form:
//
//   - Chord: finger (r, step) that wraps to s < r repeats finger
//     (s, n−step), which exists iff n−step is a power of two;
//   - De Bruijn: r → s with s < r repeats s → r iff 2s or 2s+1 ≡ r.
//
//overlay:hotpath
func edges(kind view, nodeAt, members []int) [][2]int {
	n := len(nodeAt)
	off := make([]int32, n+1) //lint:alloc the per-call offsets the counting sort needs
	var out [][2]int
	for pass := 0; pass < 2; pass++ {
		for r := 0; r < n; r++ {
			switch kind {
			case ring:
				if s := r + 1; s < n {
					put(off, out, nodeAt[r], nodeAt[s])
				} else if n > 2 {
					put(off, out, nodeAt[r], nodeAt[0])
				}
			case chord:
				for step := 1; step < n; step <<= 1 {
					s := r + step
					if s >= n {
						s -= n
						if back := n - step; back&(back-1) == 0 {
							continue
						}
					}
					put(off, out, nodeAt[r], nodeAt[s])
				}
			case hypercube:
				// The spec: for b = 1, 2, 4, … < n, keep s = r^b when
				// r < s < n. Those s set one zero bit of r, so walk r's
				// zero bits, lowest first, and stop at the first s ≥ n.
				// The spec's loop mispredicts its r < s test on every
				// other bit: 0.60 ms against 0.20 ms a first read at
				// k=4096, a quarter of the churn_derived operation.
				for z := ^r & (1<<bits.Len(uint(n-1)) - 1); z != 0; z &= z - 1 {
					s := r | z&-z
					if s >= n {
						break
					}
					put(off, out, nodeAt[r], nodeAt[s])
				}
			case deBruijn:
				for i := 0; i < 2; i++ {
					s := (2*r + i) % n
					if s > r || s < r && 2*s%n != r && (2*s+1)%n != r {
						put(off, out, nodeAt[r], nodeAt[s])
					}
				}
			}
		}
		if pass == 0 {
			for u := 0; u < n; u++ {
				off[u+1] += off[u]
			}
			out = make([][2]int, off[n]) //lint:alloc the returned edge list, sized exactly
		}
	}
	if members != nil {
		for i, e := range out {
			out[i] = [2]int{members[e[0]], members[e[1]]}
		}
	}
	return out
}

// put places the edge {u, v}: counted against its smaller endpoint
// while out is nil, written into that endpoint's run afterwards. off[u]
// is the run's write cursor, so a finished fill leaves it at the start
// of the next run.
func put(off []int32, out [][2]int, u, v int) {
	u, v = min(u, v), max(u, v)
	if out == nil {
		off[u+1]++
		return
	}
	out[off[u]] = [2]int{u, v}
	off[u]++
}

// RouteChord computes the greedy finger-routing path between two ranks
// on the Chord overlay, returning the rank sequence. It demonstrates
// the O(log n) routing the corollary promises and is exercised by the
// p2p example. Panics on out-of-range ranks.
func RouteChord(n, from, to int) []int {
	if from < 0 || from >= n || to < 0 || to >= n {
		panic(fmt.Sprintf("overlays: route %d->%d out of range n=%d", from, to, n))
	}
	path := []int{from}
	cur := from
	for cur != to {
		d := (to - cur + n) % n
		step := 1
		for step*2 <= d {
			step *= 2
		}
		cur = (cur + step) % n
		path = append(path, cur)
	}
	return path
}
