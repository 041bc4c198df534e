package overlay

import (
	"overlay/internal/hybrid"
)

// Hybrid-model applications (Section 4 of the paper): the input graph
// is the local CONGEST network and nodes may use a polylogarithmic
// global-message budget per round. Unlike BuildTree, these accept
// unbounded input degrees and (for ConnectedComponents and MIS)
// disconnected inputs.

// billOf renders a hybrid ledger through the unified Bill schema
// (bill.go): the total round count, the peak per-node per-round
// global-message load γ, and the itemized per-phase breakdown
// (rendered text; phases the paper cites as black-box primitives are
// marked "charged", simulated phases "measured" — see README, "API
// migration notes").
func billOf(l *hybrid.Ledger) Bill {
	return Bill{
		Path:           "hybrid",
		Rounds:         l.Rounds(),
		GlobalCapacity: l.MaxGlobalPerRound(),
		Itemized:       l.String(),
	}
}

// ComponentTree is a well-formed tree over one connected component.
type ComponentTree struct {
	// Nodes lists the component's members; tree fields use positions
	// in this slice as local indices.
	Nodes []int
	// Tree is the component's well-formed tree (local indices).
	Tree *Tree
}

// ComponentsResult is the outcome of ConnectedComponents.
type ComponentsResult struct {
	// Labels[v] identifies v's component in [0, NumComponents).
	Labels []int
	// NumComponents counts the components.
	NumComponents int
	// Trees holds one well-formed tree per component.
	Trees []ComponentTree
	// Bill is the round/capacity accounting (Theorem 1.2 predicts
	// O(log m + log log n) rounds at γ = O(log³ n)).
	Bill Bill
}

// ConnectedComponents finds the connected components of (the
// undirected version of) g and builds a well-formed tree on each
// (Theorem 1.2). mBound is the known component-size bound m; pass 0
// when unknown (defaults to n).
func ConnectedComponents(g *Graph, mBound int, opt *Options) (*ComponentsResult, error) {
	if opt == nil {
		opt = &Options{}
	}
	dg, err := g.digraph()
	if err != nil {
		return nil, err
	}
	res, err := hybrid.ConnectedComponents(dg, hybrid.CCParams{Seed: opt.Seed, MBound: mBound})
	if err != nil {
		return nil, err
	}
	out := &ComponentsResult{
		Labels:        res.Labels,
		NumComponents: res.NumComponents,
		Bill:          billOf(res.Ledger),
	}
	out.Trees = make([]ComponentTree, len(res.Trees))
	for i, ct := range res.Trees {
		out.Trees[i] = ComponentTree{
			Nodes: ct.Nodes,
			Tree:  ct.Tree,
		}
	}
	return out, nil
}

// SpanningTreeResult is the outcome of SpanningTree.
type SpanningTreeResult struct {
	// Edges are the tree's undirected edges (u < v), all edges of g.
	Edges [][2]int
	// Root is the node the tree hangs from.
	Root int
	// Bill is the accounting (Theorem 1.3: O(log n) rounds at
	// γ = O(log⁵ n)).
	Bill Bill
}

// SpanningTree computes a spanning tree of the weakly connected graph
// g using the walk-unwinding construction (Theorem 1.3).
func SpanningTree(g *Graph, opt *Options) (*SpanningTreeResult, error) {
	if opt == nil {
		opt = &Options{}
	}
	dg, err := g.digraph()
	if err != nil {
		return nil, err
	}
	res, err := hybrid.SpanningTree(dg, opt.Seed)
	if err != nil {
		return nil, err
	}
	return &SpanningTreeResult{Edges: res.Edges, Root: res.Root, Bill: billOf(res.Ledger)}, nil
}

// BiconnectivityResult is the outcome of Biconnectivity.
type BiconnectivityResult struct {
	// EdgeComponent labels each undirected edge of g (in the canonical
	// sorted-pair order of UndirectedEdges) with its biconnected
	// component.
	EdgeComponent []int
	// UndirectedEdges lists the undirected edges in label order.
	UndirectedEdges [][2]int
	// NumComponents counts the biconnected components.
	NumComponents int
	// CutVertices lists articulation points ascending.
	CutVertices []int
	// Bridges lists bridge edges (u < v), sorted.
	Bridges [][2]int
	// IsBiconnected reports whether g is biconnected.
	IsBiconnected bool
	// Bill is the accounting (Theorem 1.4: O(log n) rounds at
	// γ = O(log⁵ n)).
	Bill Bill
}

// Biconnectivity computes the biconnected components, cut vertices,
// and bridges of the weakly connected graph g (Theorem 1.4).
func Biconnectivity(g *Graph, opt *Options) (*BiconnectivityResult, error) {
	if opt == nil {
		opt = &Options{}
	}
	dg, err := g.digraph()
	if err != nil {
		return nil, err
	}
	res, err := hybrid.Biconnectivity(dg, opt.Seed)
	if err != nil {
		return nil, err
	}
	return &BiconnectivityResult{
		EdgeComponent:   res.EdgeComponent,
		UndirectedEdges: dg.Undirected().Edges(),
		NumComponents:   res.NumComponents,
		CutVertices:     res.CutVertices,
		Bridges:         res.Bridges,
		IsBiconnected:   res.IsBiconnected,
		Bill:            billOf(res.Ledger),
	}, nil
}

// MISResult is the outcome of MIS.
type MISResult struct {
	// InMIS[v] reports node v's membership.
	InMIS []bool
	// ShatterRounds is the measured Ghaffari-stage length (Θ(log d)).
	ShatterRounds int
	// MaxComponent is the largest undecided component after
	// shattering.
	MaxComponent int
	// Bill is the accounting (Theorem 1.5: O(log d + log log n)
	// rounds at γ = O(log³ n)).
	Bill Bill
}

// MIS computes a maximal independent set of (the undirected version
// of) g via shattering + parallel Métivier executions (Theorem 1.5).
func MIS(g *Graph, opt *Options) (*MISResult, error) {
	if opt == nil {
		opt = &Options{}
	}
	dg, err := g.digraph()
	if err != nil {
		return nil, err
	}
	res, err := hybrid.MIS(dg, opt.Seed)
	if err != nil {
		return nil, err
	}
	return &MISResult{
		InMIS:         res.InMIS,
		ShatterRounds: res.ShatterRounds,
		MaxComponent:  res.MaxComponent,
		Bill:          billOf(res.Ledger),
	}, nil
}
