// Package graphx is a static graph toolkit used by the simulator for
// input topologies and by tests and benchmarks as a verification oracle.
//
// The overlay model of the paper represents the network as a directed
// knowledge graph: an edge (u,v) exists when u knows v's identifier.
// Digraph captures that view. The protocols themselves operate on the
// undirected version, so most algorithms here (BFS, components,
// conductance, biconnectivity, min cut) work on the undirected view
// obtained via Undirected.
//
// All algorithms are exact; they are the ground truth the distributed
// implementations are checked against. The hot oracle types (Multi,
// Graph) store adjacency as flat []int32 CSR arrays rather than
// [][]int so that the pipeline's large-n calls (Simple, Undirected,
// BFS sweeps, spectral iteration) run on contiguous memory.
package graphx

import "fmt"

// stamper provides epoch-stamped membership marking for the dedup
// scans of Simple and Undirected: stamp[v] == current epoch means v
// was already seen in this scan, and advancing the epoch resets the
// whole set in O(1). uint16 keeps the array small; on wraparound the
// array is cleared and the epoch restarts at 1 (0 is never a valid
// epoch, so a fresh array reads as "unseen").
type stamper struct {
	stamp []uint16
	epoch uint16
}

func newStamper(n int) *stamper { return &stamper{stamp: make([]uint16, n)} }

// next starts a new scan and returns its epoch.
func (s *stamper) next() uint16 {
	s.epoch++
	if s.epoch == 0 {
		clear(s.stamp)
		s.epoch = 1
	}
	return s.epoch
}

// Digraph is a directed multigraph over nodes 0..N-1.
type Digraph struct {
	// N is the number of nodes.
	N int
	// Out[u] lists the targets of u's outgoing edges (u "knows" each).
	// Parallel edges and self-loops are permitted.
	Out [][]int
}

// NewDigraph returns an empty directed graph on n nodes.
func NewDigraph(n int) *Digraph {
	return &Digraph{N: n, Out: make([][]int, n)}
}

// DigraphFromEdges returns the directed graph on n nodes with the given
// (from, to) edges: the graph a NewDigraph(n) and one AddEdge per edge,
// in order, build, with each node's out-list in the order its edges
// appear. The lists are counted first and then filled into one backing
// array, each capped at its own length, so a later AddEdge reallocates
// a list instead of overwriting its neighbour's; a node with no edge
// keeps a nil list. Out-of-range endpoints panic, as in AddEdge.
func DigraphFromEdges(n int, edges [][2]int) *Digraph {
	// at[u+1] counts u's edges; the prefix sums make at[u] the start of
	// u's stretch, and the fill advances it to the stretch's end.
	at := make([]int, n+1)
	for _, e := range edges {
		if e[0] < 0 || e[0] >= n || e[1] < 0 || e[1] >= n {
			panic(fmt.Sprintf("graphx: edge (%d,%d) out of range [0,%d)", e[0], e[1], n))
		}
		at[e[0]+1]++
	}
	for u := 1; u <= n; u++ {
		at[u] += at[u-1]
	}
	flat := make([]int, len(edges))
	for _, e := range edges {
		flat[at[e[0]]] = e[1]
		at[e[0]]++
	}
	g := NewDigraph(n)
	lo := 0
	for u := range g.Out {
		if hi := at[u]; hi > lo {
			g.Out[u] = flat[lo:hi:hi]
			lo = hi
		}
	}
	return g
}

// AddEdge inserts the directed edge (u, v). It panics on out-of-range
// endpoints: topology generators are the only writers and a bad index is
// a programming error.
func (g *Digraph) AddEdge(u, v int) {
	if u < 0 || u >= g.N || v < 0 || v >= g.N {
		panic(fmt.Sprintf("graphx: edge (%d,%d) out of range [0,%d)", u, v, g.N))
	}
	g.Out[u] = append(g.Out[u], v)
}

// NumEdges returns the number of directed edges.
func (g *Digraph) NumEdges() int {
	total := 0
	for _, out := range g.Out {
		total += len(out)
	}
	return total
}

// OutDegree returns the outdegree of u.
func (g *Digraph) OutDegree(u int) int { return len(g.Out[u]) }

// MaxDegree returns the maximum total degree (in + out) over all nodes,
// the quantity the paper calls the graph's degree d.
func (g *Digraph) MaxDegree() int {
	deg := make([]int, g.N)
	for u, out := range g.Out {
		deg[u] += len(out)
		for _, v := range out {
			if v != u {
				deg[v]++
			}
		}
	}
	m := 0
	for _, d := range deg {
		if d > m {
			m = d
		}
	}
	return m
}

// Undirected returns the simple undirected version of g: direction is
// dropped, and parallel edges and self-loops are removed. This is the
// graph the paper's problem statements refer to.
//
// The dedup is two stamped scans over the out-lists and a counting-sort
// transpose (for in-edges) writing straight into CSR adjacency; no hash
// map is involved.
func (g *Digraph) Undirected() *Graph {
	n := g.N
	// Transpose: rev holds the in-neighbors of every node, CSR-style.
	revOff := make([]int32, n+1)
	for _, out := range g.Out {
		for _, v := range out {
			revOff[v+1]++
		}
	}
	for v := 0; v < n; v++ {
		revOff[v+1] += revOff[v]
	}
	rev := make([]int32, revOff[n])
	fill := make([]int32, n)
	for u, out := range g.Out {
		for _, v := range out {
			rev[revOff[v]+fill[v]] = int32(u)
			fill[v]++
		}
	}

	st := newStamper(n)
	// scan visits u's combined out+in neighborhood, invoking emit once
	// per distinct neighbor (first-seen order, self-loops skipped).
	scan := func(u int, emit func(v int32)) {
		e := st.next()
		for _, v := range g.Out[u] {
			if v != u && st.stamp[v] != e {
				st.stamp[v] = e
				emit(int32(v))
			}
		}
		for _, v := range rev[revOff[u]:revOff[u+1]] {
			if int(v) != u && st.stamp[v] != e {
				st.stamp[v] = e
				emit(v)
			}
		}
	}

	off := make([]int32, n+1)
	for u := 0; u < n; u++ {
		k := int32(0)
		scan(u, func(int32) { k++ })
		off[u+1] = off[u] + k
	}
	adj := make([]int32, off[n])
	for u := 0; u < n; u++ {
		w := off[u]
		scan(u, func(v int32) {
			adj[w] = v
			w++
		})
	}
	return newGraphCSR(n, off, adj)
}

// Clone returns a deep copy of g.
func (g *Digraph) Clone() *Digraph {
	c := NewDigraph(g.N)
	for u, out := range g.Out {
		c.Out[u] = append([]int(nil), out...)
	}
	return c
}

// Graph is a simple undirected graph over nodes 0..N-1 stored in CSR
// form: one flat []int32 adjacency array (each edge appears in both
// endpoints' ranges) indexed by an offset table.
//
// Graphs are built either directly in CSR form (Simple, Undirected) or
// incrementally via AddEdge, which appends to a pending edge list that
// is folded into the CSR arrays on the first subsequent read. Folding
// preserves per-node insertion order, so traversal orders match the
// historical [][]int representation exactly. A Graph is safe for
// concurrent reads only once folded (any read folds it); interleaving
// AddEdge with reads from multiple goroutines is not.
type Graph struct {
	// N is the number of nodes.
	N int

	off     []int32    // CSR offsets, len N+1 (nil until first fold)
	adj     []int32    // CSR adjacency, both directions of every edge
	pending [][2]int32 // edges added since the last fold
}

// NewGraph returns an empty undirected graph on n nodes.
func NewGraph(n int) *Graph {
	return &Graph{N: n}
}

// newGraphCSR wraps prebuilt CSR arrays. off must have length n+1 and
// adj length off[n], with both directions of every edge present.
func newGraphCSR(n int, off, adj []int32) *Graph {
	return &Graph{N: n, off: off, adj: adj}
}

// AddEdge inserts the undirected edge {u, v}. Self-loops are rejected
// with a panic; simple graphs are an invariant of this type. Duplicate
// insertion is the caller's responsibility, as before.
func (g *Graph) AddEdge(u, v int) {
	if u < 0 || u >= g.N || v < 0 || v >= g.N {
		panic(fmt.Sprintf("graphx: edge {%d,%d} out of range [0,%d)", u, v, g.N))
	}
	if u == v {
		panic(fmt.Sprintf("graphx: self-loop {%d,%d} on simple graph", u, v))
	}
	g.pending = append(g.pending, [2]int32{int32(u), int32(v)})
}

// ensure folds pending edges into the CSR arrays.
func (g *Graph) ensure() {
	if g.off != nil && len(g.pending) == 0 {
		return
	}
	n := g.N
	off := make([]int32, n+1)
	if g.off != nil {
		for u := 0; u < n; u++ {
			off[u+1] = g.off[u+1] - g.off[u]
		}
	}
	for _, e := range g.pending {
		off[e[0]+1]++
		off[e[1]+1]++
	}
	for u := 0; u < n; u++ {
		off[u+1] += off[u]
	}
	adj := make([]int32, off[n])
	fill := make([]int32, n)
	if g.off != nil {
		for u := 0; u < n; u++ {
			k := copy(adj[off[u]:], g.adj[g.off[u]:g.off[u+1]])
			fill[u] = int32(k)
		}
	}
	for _, e := range g.pending {
		u, v := e[0], e[1]
		adj[off[u]+fill[u]] = v
		fill[u]++
		adj[off[v]+fill[v]] = u
		fill[v]++
	}
	g.off, g.adj, g.pending = off, adj, nil
}

// Neighbors returns u's adjacency as a view into the CSR storage,
// valid until the next AddEdge. Callers must not modify it.
func (g *Graph) Neighbors(u int) []int32 {
	g.ensure()
	return g.adj[g.off[u]:g.off[u+1]]
}

// HasEdge reports whether {u, v} is an edge. O(deg(u)).
func (g *Graph) HasEdge(u, v int) bool {
	for _, w := range g.Neighbors(u) {
		if int(w) == v {
			return true
		}
	}
	return false
}

// NumEdges returns the number of undirected edges.
func (g *Graph) NumEdges() int {
	return len(g.adj)/2 + len(g.pending)
}

// Degree returns the degree of u.
func (g *Graph) Degree(u int) int {
	g.ensure()
	return int(g.off[u+1] - g.off[u])
}

// MaxDegree returns the maximum degree.
func (g *Graph) MaxDegree() int {
	g.ensure()
	m := int32(0)
	for u := 0; u < g.N; u++ {
		if d := g.off[u+1] - g.off[u]; d > m {
			m = d
		}
	}
	return int(m)
}

// Edges returns every edge once as an ordered pair (u < v), in
// (u ascending, adjacency order) — the ordering BiconnectedComponents
// labels refer to.
func (g *Graph) Edges() [][2]int {
	g.ensure()
	out := make([][2]int, 0, g.NumEdges())
	for u := 0; u < g.N; u++ {
		for _, v := range g.Neighbors(u) {
			if u < int(v) {
				out = append(out, [2]int{u, int(v)})
			}
		}
	}
	return out
}

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	c := &Graph{N: g.N}
	if g.off != nil {
		c.off = append([]int32(nil), g.off...)
		c.adj = append([]int32(nil), g.adj...)
	}
	if len(g.pending) > 0 {
		c.pending = append([][2]int32(nil), g.pending...)
	}
	return c
}
