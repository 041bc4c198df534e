package overlay

import (
	"errors"
	"fmt"

	"overlay/internal/overlays"
)

// Derived overlays (Section 1.4 corollary): once the well-formed tree
// has assigned every node a unique rank, any overlay whose neighbor
// sets are rank arithmetic can be established in O(log n) additional
// rounds. These methods return the derived overlay's undirected edges
// as (u, v) pairs of tree node indices — input node indices for
// fault-free builds, survivor-local indices when Survivors is non-nil
// (map through Survivors[v] to recover input nodes). On an Aborted
// result there is no tree and every method returns nil.

// Ring returns the rank ring: rank r ↔ r+1 (mod n). Degree 2.
func (r *BuildResult) Ring() [][2]int {
	if r.Tree == nil {
		return nil
	}
	return overlays.RingEdges(r.Tree.NodeAt, nil)
}

// Chord returns the finger ring (rank r to ranks r+2^k mod n): degree
// and diameter O(log n), the routing substrate used by RouteLookup.
func (r *BuildResult) Chord() [][2]int {
	if r.Tree == nil {
		return nil
	}
	return overlays.ChordEdges(r.Tree.NodeAt, nil)
}

// Hypercube returns the (possibly incomplete) hypercube over ranks.
func (r *BuildResult) Hypercube() [][2]int {
	if r.Tree == nil {
		return nil
	}
	return overlays.HypercubeEdges(r.Tree.NodeAt, nil)
}

// DeBruijn returns the binary De Bruijn overlay over ranks: constant
// degree, O(log n) diameter.
func (r *BuildResult) DeBruijn() [][2]int {
	if r.Tree == nil {
		return nil
	}
	return overlays.DeBruijnEdges(r.Tree.NodeAt, nil)
}

// ErrAborted reports a routing request against an aborted build: there
// is no tree, so there is nothing to route over. The wrapping error
// carries the build's AbortReason.
var ErrAborted = errors.New("overlay: build aborted, no tree to route over")

// RouteLookupErr returns the greedy Chord routing path between two
// tree nodes (survivor-local indices when Survivors is non-nil) as a
// node-index sequence of length O(log n) in the same index space.
// Failures are reasoned, mirroring Session.RouteLookup: an aborted (or
// tree-less) result yields an error wrapping ErrAborted with the abort
// reason, and an out-of-range endpoint yields a *NotMemberError naming
// it — errors.Is/errors.As work on both.
func (r *BuildResult) RouteLookupErr(from, to int) ([]int, error) {
	if r.Tree == nil {
		if r.Aborted && r.AbortReason != "" {
			return nil, fmt.Errorf("%w (%s)", ErrAborted, r.AbortReason)
		}
		return nil, ErrAborted
	}
	n := len(r.Tree.Rank)
	if from < 0 || from >= n {
		return nil, &NotMemberError{Node: from}
	}
	if to < 0 || to >= n {
		return nil, &NotMemberError{Node: to}
	}
	ranks := overlays.RouteChord(n, r.Tree.Rank[from], r.Tree.Rank[to])
	path := make([]int, len(ranks))
	for i, rk := range ranks {
		path[i] = r.Tree.NodeAt[rk]
	}
	return path, nil
}

// ExpanderEdges returns the evolved low-diameter graph's edges, for
// callers that want the expander itself rather than the tree.
func (r *BuildResult) ExpanderEdges() [][2]int {
	if r.expander == nil {
		return nil
	}
	return r.expander.Edges()
}
