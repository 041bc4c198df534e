// Package wft constructs well-formed trees: rooted trees of constant
// degree and O(log n) diameter containing every node (Section 1.2).
//
// The pipeline follows Section 2.1's final step. Starting from the
// constant-conductance graph produced by CreateExpander:
//
//  1. the node with the lowest identifier is elected by flooding and a
//     BFS tree rooted at it is built (O(log n) rounds, since the
//     expander has O(log n) diameter);
//  2. nodes are ranked in DFS pre-order of the BFS tree (subtree sizes
//     up, rank intervals down — the Euler-tour/child-sibling step of
//     [27] reduces to this interval computation);
//  3. the well-formed tree is the binary heap over ranks: rank r's
//     children are ranks 2r+1 and 2r+2, giving degree ≤ 3 and depth
//     ⌈log₂(n+1)⌉; the heap edges are discovered by routing over the
//     ranked ring with pointer-jumping shortcuts.
//
// Tree is the in-memory result; Protocol (protocol.go) is the
// message-level implementation whose output is bit-identical to
// FromGraph given the same tie-breaking, which tests exploit.
//
// Maintenance lives here too: Repair is a churn epoch's rank repair,
// repair.go runs it as a wire protocol, and RepairSpec.Schedule is the
// one statement of that repair's phase budgets — the engine's timing
// and the session's charged bill are both read from it.
package wft

import (
	"cmp"
	"fmt"
	"slices"

	"overlay/internal/graphx"
)

// Tree is a well-formed tree over nodes 0..N-1.
type Tree struct {
	// Root is the root node (rank 0).
	Root int
	// Rank[v] is v's position in the heap order, unique in [0, N).
	Rank []int
	// NodeAt[r] is the node with rank r (inverse of Rank).
	NodeAt []int
	// Parent[v] is v's parent in the heap tree (Parent[Root] = Root).
	Parent []int
}

// N returns the number of nodes.
func (t *Tree) N() int { return len(t.Rank) }

// Children returns v's children in the heap tree (0, 1, or 2 nodes).
func (t *Tree) Children(v int) []int {
	r := t.Rank[v]
	var out []int
	if c := 2*r + 1; c < t.N() {
		out = append(out, t.NodeAt[c])
	}
	if c := 2*r + 2; c < t.N() {
		out = append(out, t.NodeAt[c])
	}
	return out
}

// Depth returns the height of the heap tree: ⌈log₂(N+1)⌉ - 1 levels of
// edges, the well-formed O(log n) diameter guarantee.
func (t *Tree) Depth() int { return heapDepth(t.N()) }

// heapDepth is the number of edge levels in a binary heap of n nodes.
func heapDepth(n int) int {
	d := 0
	for (1 << (d + 1)) <= n {
		d++
	}
	return d
}

// Validate checks the well-formed-tree invariants: ranks are a
// permutation, parent/child relations match the heap rule, and the
// degree bound 3 holds by construction.
func (t *Tree) Validate() error {
	n := t.N()
	if n == 0 {
		return nil
	}
	seen := make([]bool, n)
	for v, r := range t.Rank {
		if r < 0 || r >= n {
			return fmt.Errorf("wft: rank %d of node %d out of range", r, v)
		}
		if seen[r] {
			return fmt.Errorf("wft: duplicate rank %d", r)
		}
		seen[r] = true
		if t.NodeAt[r] != v {
			return fmt.Errorf("wft: NodeAt[%d] = %d, want %d", r, t.NodeAt[r], v)
		}
	}
	if t.Rank[t.Root] != 0 {
		return fmt.Errorf("wft: root %d has rank %d", t.Root, t.Rank[t.Root])
	}
	for v, p := range t.Parent {
		if v == t.Root {
			if p != v {
				return fmt.Errorf("wft: root parent %d != root %d", p, v)
			}
			continue
		}
		if want := t.NodeAt[(t.Rank[v]-1)/2]; p != want {
			return fmt.Errorf("wft: node %d parent %d, want %d", v, p, want)
		}
	}
	return nil
}

// HeapTree builds the well-formed tree a rank assignment induces: rank
// must be a permutation of [0, len(rank)), which the tree keeps (it does
// not copy the slice); the parent of rank r > 0 is the node at rank
// (r-1)/2 and the node at rank 0 is the root.
func HeapTree(rank []int) *Tree {
	t := &Tree{Rank: rank, NodeAt: make([]int, len(rank)), Parent: make([]int, len(rank))}
	for v, r := range rank {
		t.NodeAt[r] = v
	}
	for v, r := range rank {
		if r == 0 {
			t.Root = v
			t.Parent[v] = v
			continue
		}
		t.Parent[v] = t.NodeAt[(r-1)/2]
	}
	return t
}

// Repair performs the survivor-local rank reassignment of a churn
// epoch: dead[v] marks nodes that crash-stopped (nil means none), and
// joiners counts fresh nodes appended after the survivors. Survivors
// keep their relative rank order — each rank is compacted down by the
// number of dead ranks below it, which distributedly is one
// subtree-count sweep up the tree and one prefix sweep down — and the
// joiners take the tail ranks in the order given. The result is a
// well-formed tree over s+joiners nodes whose index space lists the
// survivors first (ascending old index) and the joiners after them;
// no edge of the old tree survives except by rank arithmetic, exactly
// as in the one-shot construction.
func Repair(t *Tree, dead []bool, joiners int) (*Tree, error) {
	n := t.N()
	if dead != nil && len(dead) != n {
		return nil, fmt.Errorf("wft: dead mask has %d entries for %d nodes", len(dead), n)
	}
	if joiners < 0 {
		return nil, fmt.Errorf("wft: negative joiner count %d", joiners)
	}
	// deadBelow[r] counts dead ranks strictly below r: the survivor at
	// old rank r compacts to rank r - deadBelow[r].
	deadBelow := make([]int, n+1)
	for r := 0; r < n; r++ {
		d := 0
		if dead != nil && dead[t.NodeAt[r]] {
			d = 1
		}
		deadBelow[r+1] = deadBelow[r] + d
	}
	s := n - deadBelow[n]
	k := s + joiners
	if k == 0 {
		return nil, fmt.Errorf("wft: repair leaves no nodes")
	}
	rank := make([]int, k)
	li := 0
	for v := 0; v < n; v++ {
		if dead != nil && dead[v] {
			continue
		}
		rank[li] = t.Rank[v] - deadBelow[t.Rank[v]]
		li++
	}
	for j := 0; j < joiners; j++ {
		rank[s+j] = s + j
	}
	out := HeapTree(rank)
	if err := out.Validate(); err != nil {
		return nil, err
	}
	return out, nil
}

// FromGraph builds a well-formed tree in memory from a connected
// undirected graph. id[v] supplies the identifier ordering used for
// root election and child ordering; pass nil to use node indices. The
// tie-breaking matches Protocol exactly: the root is the minimum-ID
// node, the BFS parent of v is its minimum-ID neighbor at distance
// d(v)-1 from the root, and children are visited in ascending ID order.
func FromGraph(g *graphx.Graph, id []uint64) (*Tree, error) {
	n := g.N
	if n == 0 {
		return &Tree{}, nil
	}
	if !g.IsConnected() {
		return nil, fmt.Errorf("wft: graph is not connected")
	}
	idSorted := id == nil // children filled in ascending v are then in id order
	if id == nil {
		id = make([]uint64, n)
		for i := range id {
			id[i] = uint64(i)
		}
	}
	root := 0
	for v := 1; v < n; v++ {
		if id[v] < id[root] {
			root = v
		}
	}
	dist := g.BFS(root)
	// BFS parent: minimum-ID neighbor one level up. The child lists are
	// one CSR array, v's children kids[first[v]:first[v+1]], built by a
	// count, a prefix sum and a fill, with the counts kept one slot to
	// the right: until the fill, first[v+1] is where v's segment starts,
	// and the fill advances it to where the segment ends.
	parent := make([]int, n)
	first := make([]int32, n+2)
	for v := 0; v < n; v++ {
		parent[v] = -1
		if v == root {
			parent[v] = root
			continue
		}
		for _, u32 := range g.Neighbors(v) {
			u := int(u32)
			if dist[u] == dist[v]-1 && (parent[v] < 0 || id[u] < id[parent[v]]) {
				parent[v] = u
			}
		}
		first[parent[v]+2]++
	}
	for v := 0; v < n; v++ {
		first[v+2] += first[v+1]
	}
	kids := make([]int32, n-1)
	for v := 0; v < n; v++ {
		if v != root {
			kids[first[parent[v]+1]] = int32(v)
			first[parent[v]+1]++
		}
	}
	if !idSorted {
		for v := 0; v < n; v++ {
			slices.SortFunc(kids[first[v]:first[v+1]], func(a, b int32) int { return cmp.Compare(id[a], id[b]) })
		}
	}

	// DFS pre-order ranks (iterative to tolerate deep BFS trees).
	rank := make([]int, n)
	next := 0
	stack := []int32{int32(root)}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		rank[v] = next
		next++
		// Push children in reverse so the lowest ID pops first.
		c := kids[first[v]:first[v+1]]
		for i := len(c) - 1; i >= 0; i-- {
			stack = append(stack, c[i])
		}
	}
	return HeapTree(rank), nil
}
