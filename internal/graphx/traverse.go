package graphx

// TraverseScratch holds the reusable buffers of a BFS call. Repeated
// oracle calls (diameter sweeps, per-node eccentricities) pass the same
// scratch to stop reallocating O(N) memory per call; the zero value is
// ready to use.
type TraverseScratch struct {
	Dist  []int
	queue []int
}

// BFS returns the hop distance from src to every node in the undirected
// graph g; unreachable nodes get -1.
func (g *Graph) BFS(src int) []int {
	return g.BFSInto(src, &TraverseScratch{})
}

// BFSInto is BFS writing into s.Dist (grown as needed) and reusing
// s.queue as the frontier. The returned slice aliases s.Dist.
func (g *Graph) BFSInto(src int, s *TraverseScratch) []int {
	g.ensure()
	s.Dist = intScratch(s.Dist, g.N)
	dist := s.Dist
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	if cap(s.queue) < g.N {
		s.queue = make([]int, 0, g.N)
	}
	queue := append(s.queue[:0], src)
	// Head index instead of queue = queue[1:]: the backing array is
	// written once and never re-sliced, so the queue is a plain append
	// buffer scanned left to right.
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		du := dist[u] + 1
		for _, v := range g.adj[g.off[u]:g.off[u+1]] {
			if dist[v] < 0 {
				dist[v] = du
				queue = append(queue, int(v))
			}
		}
	}
	s.queue = queue
	return dist
}

// BFSTree returns parent pointers of a BFS tree rooted at src
// (parent[src] = src; unreachable nodes get -1).
func (g *Graph) BFSTree(src int) []int {
	g.ensure()
	parent := make([]int, g.N)
	for i := range parent {
		parent[i] = -1
	}
	parent[src] = src
	queue := make([]int, 0, g.N)
	queue = append(queue, src)
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, v := range g.adj[g.off[u]:g.off[u+1]] {
			if parent[v] < 0 {
				parent[v] = u
				queue = append(queue, int(v))
			}
		}
	}
	return parent
}

// ConnectedComponents labels every node with a component index in
// [0, k) and returns the labels along with k.
func (g *Graph) ConnectedComponents() (labels []int, k int) {
	g.ensure()
	labels = make([]int, g.N)
	for i := range labels {
		labels[i] = -1
	}
	queue := make([]int, 0, g.N)
	for src := 0; src < g.N; src++ {
		if labels[src] >= 0 {
			continue
		}
		labels[src] = k
		queue = append(queue[:0], src)
		for head := 0; head < len(queue); head++ {
			u := queue[head]
			for _, v := range g.adj[g.off[u]:g.off[u+1]] {
				if labels[v] < 0 {
					labels[v] = k
					queue = append(queue, int(v))
				}
			}
		}
		k++
	}
	return labels, k
}

// IsConnected reports whether g is connected. The empty graph counts as
// connected.
func (g *Graph) IsConnected() bool {
	if g.N == 0 {
		return true
	}
	_, k := g.ConnectedComponents()
	return k == 1
}

// eccOf folds a distance vector into an eccentricity (-1 if any node
// is unreachable).
func eccOf(dist []int) int {
	ecc := 0
	for _, d := range dist {
		if d < 0 {
			return -1
		}
		if d > ecc {
			ecc = d
		}
	}
	return ecc
}

// Diameter returns the exact diameter by running BFS from every node.
// Returns -1 for disconnected graphs. O(N·E): use DiameterEstimate for
// large graphs.
func (g *Graph) Diameter() int {
	diam := 0
	var s TraverseScratch
	for u := 0; u < g.N; u++ {
		e := eccOf(g.BFSInto(u, &s))
		if e < 0 {
			return -1
		}
		if e > diam {
			diam = e
		}
	}
	return diam
}

// DiameterEstimate lower-bounds the diameter with a double BFS sweep
// (exact on trees, never more than a factor 2 low in general). Returns
// -1 for disconnected graphs.
func (g *Graph) DiameterEstimate() int {
	if g.N == 0 {
		return 0
	}
	var s TraverseScratch
	d0 := g.BFSInto(0, &s)
	far, fd := 0, 0
	for v, d := range d0 {
		if d < 0 {
			return -1
		}
		if d > fd {
			far, fd = v, d
		}
	}
	est := 0
	for _, d := range g.BFSInto(far, &s) {
		if d > est {
			est = d
		}
	}
	return est
}

// DiameterUpperBound returns an upper bound on the diameter, cheaply:
// exact (O(N·E)) at small n, and twice the double-sweep estimate above
// that — every vertex eccentricity is at least half the diameter, so
// 2·DiameterEstimate ≥ diameter while staying O(E). Callers sizing
// flood budgets at 100k-node scale use this to stay out of the
// all-pairs-BFS regime. Returns -1 for disconnected graphs.
func (g *Graph) DiameterUpperBound() int {
	if g.N <= 2048 {
		return g.Diameter()
	}
	est := g.DiameterEstimate()
	if est < 0 {
		return -1
	}
	return 2 * est
}

// IsSpanningTree reports whether the edge set tree (pairs of endpoints)
// forms a spanning tree of g: exactly N-1 edges, all of which are edges
// of g, connecting all nodes.
func (g *Graph) IsSpanningTree(tree [][2]int) bool {
	if g.N == 0 {
		return len(tree) == 0
	}
	if len(tree) != g.N-1 {
		return false
	}
	t := NewGraph(g.N)
	for _, e := range tree {
		u, v := e[0], e[1]
		if u < 0 || u >= g.N || v < 0 || v >= g.N || u == v {
			return false
		}
		if !g.HasEdge(u, v) {
			return false
		}
		t.AddEdge(u, v)
	}
	return t.IsConnected()
}

// intScratch returns buf resized to n, reallocating only when the
// capacity is insufficient.
func intScratch(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	return buf[:n]
}
