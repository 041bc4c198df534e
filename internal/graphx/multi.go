package graphx

import "fmt"

// Multi is an undirected multigraph with self-loops, stored as a flat
// strided slot array: node u's slots occupy flat[u*stride] through
// flat[u*stride+deg[u]-1], with a self-loop represented by u's own
// index occupying one slot.
//
// This is the representation the paper's benign graphs (Definition 2.1)
// live in: each node owns exactly ∆ slots, at least ∆/2 of which are
// self-loops, and a random-walk step picks a slot uniformly. Cross
// edges appear in both endpoints' slot lists. Because every hot
// consumer (token walks, mat-vecs, cut counting) handles ∆-regular
// graphs, the fixed stride turns "slots of u" into pure index
// arithmetic on one contiguous []int32 — no per-node slice headers, no
// pointer chasing, and a ∆-regular graph is exactly dense.
type Multi struct {
	// N is the number of nodes.
	N int

	stride int     // per-node slot capacity
	deg    []int32 // per-node slot count
	flat   []int32 // strided slot storage
}

// NewMulti returns an empty multigraph on n nodes. The per-node slot
// capacity grows on demand; callers that know the final regular degree
// should prefer NewMultiRegular, which allocates exactly once.
func NewMulti(n int) *Multi {
	return NewMultiRegular(n, 4)
}

// NewMultiRegular returns an empty multigraph on n nodes with slot
// capacity delta per node, the right constructor for graphs that will
// be padded to ∆-regularity.
func NewMultiRegular(n, delta int) *Multi {
	if delta < 1 {
		delta = 1
	}
	return &Multi{
		N:      n,
		stride: delta,
		deg:    make([]int32, n),
		flat:   make([]int32, n*delta),
	}
}

// MultiFromRows adopts rows as the slot storage of a delta-regular
// multigraph on n nodes: node u's slots are rows[u*delta:(u+1)*delta].
// It is the constructor for producers that compute whole rows (the
// evolver's pull-built G_{i+1}) instead of inserting edge by edge. The
// slice is not copied and must not be written afterwards. Shape and
// slot range are validated (a violation is a producer bug and panics);
// cross-edge symmetry is the producer's contract, as with AddCrossEdge
// it is the caller's.
func MultiFromRows(n, delta int, rows []int32) *Multi {
	if delta < 1 || len(rows) != n*delta {
		panic(fmt.Sprintf("graphx: MultiFromRows: %d slots for %d nodes of degree %d", len(rows), n, delta))
	}
	for i, v := range rows {
		if uint32(v) >= uint32(n) {
			panic(fmt.Sprintf("graphx: MultiFromRows: slot %d of node %d holds %d, out of range [0,%d)", i%delta, i/delta, v, n))
		}
	}
	deg := make([]int32, n)
	for u := range deg {
		deg[u] = int32(delta)
	}
	return &Multi{N: n, stride: delta, deg: deg, flat: rows}
}

// grow doubles the per-node slot capacity, re-laying the flat array.
// Amortized over insertions this keeps AddCrossEdge O(1).
func (m *Multi) grow() {
	ns := m.stride * 2
	nf := make([]int32, m.N*ns)
	for u := 0; u < m.N; u++ {
		copy(nf[u*ns:], m.flat[u*m.stride:u*m.stride+int(m.deg[u])])
	}
	m.stride, m.flat = ns, nf
}

// push appends one slot at u.
func (m *Multi) push(u int, v int32) {
	if int(m.deg[u]) == m.stride {
		m.grow()
	}
	m.flat[u*m.stride+int(m.deg[u])] = v
	m.deg[u]++
}

// AddCrossEdge inserts an undirected edge {u,v}, u != v, occupying one
// slot at each endpoint.
func (m *Multi) AddCrossEdge(u, v int) {
	if u == v {
		panic("graphx: AddCrossEdge with u == v; use AddSelfLoop")
	}
	m.checkRange(u)
	m.checkRange(v)
	m.push(u, int32(v))
	m.push(v, int32(u))
}

// AddSelfLoop inserts a self-loop at u, occupying one slot.
func (m *Multi) AddSelfLoop(u int) {
	m.checkRange(u)
	m.push(u, int32(u))
}

func (m *Multi) checkRange(u int) {
	if u < 0 || u >= m.N {
		panic(fmt.Sprintf("graphx: node %d out of range [0,%d)", u, m.N))
	}
}

// Degree returns the slot count of u (self-loops count once).
func (m *Multi) Degree(u int) int { return int(m.deg[u]) }

// SlotsOf returns u's slot list as a view into the flat storage. The
// slice is valid until the next mutation and must not be modified.
func (m *Multi) SlotsOf(u int) []int32 {
	return m.flat[u*m.stride : u*m.stride+int(m.deg[u])]
}

// FlatSlots exposes the raw strided storage for read-only hot loops:
// node u's slots are flat[u*stride : u*stride+Degree(u)]. Callers must
// not modify the slice.
func (m *Multi) FlatSlots() (flat []int32, stride int) { return m.flat, m.stride }

// PadSelfLoops appends self-loops at every node with fewer than delta
// slots until it has exactly delta, the bulk form of the benign
// padding step. Nodes already at or above delta are left untouched.
func (m *Multi) PadSelfLoops(delta int) {
	for m.stride < delta {
		m.grow()
	}
	for u := 0; u < m.N; u++ {
		row := m.flat[u*m.stride:]
		for d := int(m.deg[u]); d < delta; d++ {
			row[d] = int32(u)
		}
		if int(m.deg[u]) < delta {
			m.deg[u] = int32(delta)
		}
	}
}

// IsRegular reports whether every node has exactly delta slots.
func (m *Multi) IsRegular(delta int) bool {
	for _, d := range m.deg {
		if int(d) != delta {
			return false
		}
	}
	return true
}

// SelfLoops returns the number of self-loop slots at u.
func (m *Multi) SelfLoops(u int) int {
	c := 0
	for _, v := range m.SlotsOf(u) {
		if int(v) == u {
			c++
		}
	}
	return c
}

// IsSymmetric verifies the cross-edge invariant: for u != v, v appears
// in u's slots exactly as often as u appears in v's.
func (m *Multi) IsSymmetric() bool {
	counts := make(map[[2]int]int)
	for u := 0; u < m.N; u++ {
		for _, v := range m.SlotsOf(u) {
			if int(v) == u {
				continue
			}
			counts[[2]int{u, int(v)}]++
		}
	}
	//lint:ordered boolean symmetry verdict; the same answer falls out in any witness order
	for key, c := range counts {
		if counts[[2]int{key[1], key[0]}] != c {
			return false
		}
	}
	return true
}

// Simple collapses the multigraph to its simple undirected version
// (self-loops and multiplicities dropped), the graph whose diameter and
// connectivity the theorems speak about.
//
// Deduplication is two stamped scans over the flat slot array (count,
// then fill) writing straight into CSR adjacency — no hash map, no
// per-edge allocations. Each node's neighbor row comes out in its own
// first-seen slot order; note this differs from the map-based
// version, whose rows interleaved discoveries made by lower-indexed
// nodes, so traversal orders over Simple() output changed with the
// CSR rewrite.
func (m *Multi) Simple() *Graph {
	n := m.N
	st := newStamper(n)
	off := make([]int32, n+1)
	for u := 0; u < n; u++ {
		e := st.next()
		k := int32(0)
		for _, v := range m.SlotsOf(u) {
			if int(v) != u && st.stamp[v] != e {
				st.stamp[v] = e
				k++
			}
		}
		off[u+1] = off[u] + k
	}
	adj := make([]int32, off[n])
	for u := 0; u < n; u++ {
		e := st.next()
		w := off[u]
		for _, v := range m.SlotsOf(u) {
			if int(v) != u && st.stamp[v] != e {
				st.stamp[v] = e
				adj[w] = v
				w++
			}
		}
	}
	return newGraphCSR(n, off, adj)
}

// CutSize returns the number of cross edges with exactly one endpoint
// in the set marked true. Self-loops never cross.
func (m *Multi) CutSize(inSet []bool) int {
	cut := 0
	for u := 0; u < m.N; u++ {
		if !inSet[u] {
			continue
		}
		for _, v := range m.SlotsOf(u) {
			if int(v) != u && !inSet[v] {
				cut++
			}
		}
	}
	return cut
}

// Conductance returns Φ(S) for a ∆-regular multigraph per Definition
// 1.7: cut(S) / (∆·|S|), computed with the set's own size (the caller
// chooses S with |S| ≤ N/2). delta is the regular degree.
func (m *Multi) Conductance(inSet []bool, delta int) float64 {
	size := 0
	for _, in := range inSet {
		if in {
			size++
		}
	}
	if size == 0 {
		return 1
	}
	return float64(m.CutSize(inSet)) / float64(delta*size)
}

// MinCut computes the global minimum cut weight of the multigraph's
// cross edges via Stoer-Wagner. Self-loops are ignored. Returns 0 for
// disconnected graphs and -1 when N < 2.
func (m *Multi) MinCut() int {
	if m.N < 2 {
		return -1
	}
	// Dense weight matrix of cross-edge multiplicities.
	w := make([][]int64, m.N)
	for i := range w {
		w[i] = make([]int64, m.N)
	}
	// Each cross edge of multiplicity k appears k times in u's slots
	// (filling w[u][v]) and k times in v's (filling w[v][u]), so the
	// matrix comes out symmetric with the right multiplicities.
	for u := 0; u < m.N; u++ {
		for _, v := range m.SlotsOf(u) {
			if int(v) != u {
				w[u][v]++
			}
		}
	}
	return int(stoerWagner(w))
}

// stoerWagner runs the Stoer-Wagner minimum-cut algorithm on a
// symmetric weight matrix, contracting in place. O(V^3).
func stoerWagner(w [][]int64) int64 {
	n := len(w)
	active := make([]int, n)
	for i := range active {
		active[i] = i
	}
	const inf = int64(1) << 62
	best := inf
	for len(active) > 1 {
		// Maximum-adjacency ordering over the active vertices.
		a := make([]int64, n) // connectivity to the growing set A
		order := make([]int, 0, len(active))
		inA := make([]bool, n)
		for len(order) < len(active) {
			sel, selW := -1, int64(-1)
			for _, v := range active {
				if !inA[v] && a[v] > selW {
					sel, selW = v, a[v]
				}
			}
			inA[sel] = true
			order = append(order, sel)
			for _, v := range active {
				if !inA[v] {
					a[v] += w[sel][v]
				}
			}
		}
		t := order[len(order)-1]
		cutOfPhase := a[t]
		if cutOfPhase < best {
			best = cutOfPhase
		}
		// Merge t into s (the second-to-last vertex of the ordering).
		s := order[len(order)-2]
		for _, v := range active {
			if v != s && v != t {
				w[s][v] += w[t][v]
				w[v][s] = w[s][v]
			}
		}
		// Remove t from the active list.
		for i, v := range active {
			if v == t {
				active = append(active[:i], active[i+1:]...)
				break
			}
		}
	}
	if best == inf {
		return 0
	}
	return best
}
