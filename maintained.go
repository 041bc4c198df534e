package overlay

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"

	"overlay/internal/hybrid"
	"overlay/internal/rng"
	"overlay/internal/sim"
)

// Maintained hybrid workloads: the Section 4 algorithms (connected
// components, spanning forests, MIS) kept alive across a Session's
// churn epochs instead of recomputed from scratch on every read.
//
// Each Maintained* object owns a workload graph over the session's
// current membership — seeded from the session's Ring view at open,
// then evolved by the churn itself: leavers vanish with their incident
// edges (survivor-local repair), joiners attach to a deterministic set
// of bootstrap contacts. Sync advances the workload to the session's
// committed epoch and recomputes the result:
//
//   - patch epochs recompute incrementally — only the affected region
//     (the old components touched by a leaver or a joiner's contact,
//     plus the joiners themselves; for MIS, the worklist the status
//     flips actually reach) is re-run, billed 2⌈log₂ a⌉+2 rounds and
//     one message per affected node plus the adjacency entries
//     scanned;
//   - rebuild epochs (and a session restored past the workload's
//     snapshot) recompute from scratch, billed the Section 4
//     machinery's cited costs via the internal/hybrid charge ledgers.
//
// The incremental bill is strictly cheaper than the from-scratch bill
// in both rounds and messages whenever the epoch churned at all — by
// arithmetic, not luck (see internal/hybrid/charges.go) — and the
// scenario harness pins it. Results are canonical pure functions of
// the workload graph (labels are component minima, forests are
// smallest-root BFS trees over ascending adjacency, the MIS is the
// lexicographic greedy fixpoint), so the incremental path lands on
// exactly the state a from-scratch oracle computes.
//
// Concurrency: a Maintained* object is single-writer, multi-reader,
// like the Session itself — Sync is the mutation, every accessor may
// run concurrently with other accessors and one in-flight Sync. Sync
// must not overlap an ApplyEpoch on the underlying session; drive
// both from the same serialized mutation queue (as overlayd's
// supervisor does) or the same goroutine.
//
// A session Restore resurrects membership the workload graph has
// already repaired away; Sync re-attaches the resurrected ids as
// joiners (or resyncs from scratch when the restore rolled past the
// workload's snapshot). The workload graph is maintained state, not a
// checkpointed one.

// WorkloadBill is one Sync's cost accounting on a maintained
// workload.
type WorkloadBill struct {
	// Epoch is the session epoch count the sync brought the workload
	// to (Session.Epoch at sync time).
	Epoch int
	// Incremental reports the path taken: true = affected-region
	// recompute (patch epochs), false = from-scratch (open, rebuild
	// epochs, restores past the snapshot).
	Incremental bool
	// Affected counts the nodes the recompute touched (the full
	// population for a from-scratch sync).
	Affected int
	// Bill is the unified cost accounting: Path "workload/scratch" or
	// "workload/incremental".
	Bill
}

// MaintainedOptions tune the Open* constructors. The zero value
// requests defaults.
type MaintainedOptions struct {
	// Contacts is the number of deterministic bootstrap contacts each
	// joiner attaches to (default 2).
	Contacts int
	// Seed drives the contact draws; independent of the session seed.
	Seed uint64
}

// maintainedCore is the shared membership/graph sync every maintained
// workload embeds: the snapshot of the session it is synced to, the
// workload graph, and the per-sync bills.
//
// All per-member state — here and in the workloads — is indexed by
// member position (members[p] is the p-th smallest identifier) and
// refers to other members by position. Positions order like
// identifiers, so "ascending", "smallest" and every scan order mean
// what they mean on identifiers; advance renumbers everything once per
// sync, and identifiers appear only at the accessors.
type maintainedCore struct {
	sess     *Session
	contacts int
	seed     uint64

	// members is the member list of the checkpoint the workload is synced
	// to, shared with it: read-only. adj[p] lists p's neighbors,
	// ascending.
	mu      sync.RWMutex
	epoch   int
	members []int
	adj     [][]int32
	edges   int
	bills   []WorkloadBill

	// What the last advance left for the workload's recompute: where each
	// position came from (-1 for a joiner), where each previous position
	// went (-1 for a leaver), and the ascending dirty seeds — survivors
	// whose neighborhoods changed, joiner contacts, and the joiners.
	oldOf, newOf, dirty []int32

	// Buffers a sync reuses: the previous adjacency table, an all-false
	// mask over positions (every user clears what it set) and one over
	// previous positions, and a position queue.
	spareAdj    [][]int32
	mark, touch []bool
	queue       []int32
}

// openCore snapshots the session and seeds the workload graph with
// the session's current Ring view.
func openCore(sess *Session, opt *MaintainedOptions) (*maintainedCore, error) {
	if sess == nil {
		return nil, errors.New("overlay: a maintained workload needs a session")
	}
	o := MaintainedOptions{}
	if opt != nil {
		o = *opt
	}
	if o.Contacts < 0 {
		return nil, fmt.Errorf("overlay: MaintainedOptions.Contacts %d is negative", o.Contacts)
	}
	if o.Contacts == 0 {
		o.Contacts = 2
	}
	cp := sess.Checkpoint()
	c := &maintainedCore{
		sess:     sess,
		contacts: o.Contacts,
		seed:     o.Seed,
		members:  cp.members,
		epoch:    cp.Epoch(),
		adj:      make([][]int32, len(cp.members)),
	}
	for _, e := range cp.Ring() {
		u, _ := indexIn(cp.members, e[0])
		v, _ := indexIn(cp.members, e[1])
		c.addEdge(int32(u), int32(v))
	}
	return c, nil
}

// fit returns s with length n, reusing its storage when that is large
// enough. A reallocated slice is zeroed and gets some headroom, since
// the membership drifts by a few members per epoch.
func fit[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n, n+n/8)
	}
	return s[:n]
}

// insertSorted inserts x into the ascending slice if absent.
func insertSorted(s []int32, x int32) ([]int32, bool) {
	i, found := slices.BinarySearch(s, x)
	if found {
		return s, false
	}
	return slices.Insert(s, i, x), true
}

// addEdge inserts the undirected edge (u, v) if absent.
func (c *maintainedCore) addEdge(u, v int32) {
	if u == v {
		return
	}
	var ok bool
	if c.adj[u], ok = insertSorted(c.adj[u], v); !ok {
		return
	}
	c.adj[v], _ = insertSorted(c.adj[v], u)
	c.edges++
}

// advance diffs the session's committed state against the workload
// snapshot, applies the membership delta to the workload graph and
// renumbers it to the new positions, leaving oldOf, newOf and dirty for
// the workload. It reports whether the covered epochs force a
// from-scratch recompute (a rebuild epoch, or a session restored past
// the snapshot). The caller holds mu exclusively.
func (c *maintainedCore) advance() (scratch bool) {
	cp := c.sess.Checkpoint()
	// Restored past the snapshot: the per-epoch rebuild record for the
	// interval is gone, so resync wholesale. Otherwise the epochs since
	// the snapshot are the newest bills.
	scratch = cp.Epoch() < c.epoch
	for i := len(cp.bills) - 1; i >= 0 && cp.bills[i].Epoch >= c.epoch; i-- {
		scratch = scratch || cp.bills[i].Rebuilt
	}

	// Both member lists ascend, so one merge numbers the survivors. After
	// plain churn it is a compaction and an append (joiners take fresh
	// identifiers); after a Restore the resurrected identifiers land in
	// between, as joiners.
	old, now := c.members, cp.members
	c.newOf, c.oldOf = fit(c.newOf, len(old)), fit(c.oldOf, len(now))
	for i, j := 0, 0; i < len(old) || j < len(now); {
		switch {
		case j >= len(now) || (i < len(old) && old[i] < now[j]):
			c.newOf[i] = -1
			i++
		case i >= len(old) || now[j] < old[i]:
			c.oldOf[j] = -1
			j++
		default:
			c.newOf[i], c.oldOf[j] = int32(j), int32(i)
			i, j = i+1, j+1
		}
	}

	// Survivor-local repair: leavers vanish with their incident edges.
	adj := fit(c.spareAdj, len(now))
	c.mark, c.touch = fit(c.mark, len(now)), fit(c.touch, len(old))
	survivors := fit(c.queue, len(now))[:0]
	entries := 0
	for p, op := range c.oldOf {
		if op < 0 {
			adj[p] = nil
			continue
		}
		survivors = append(survivors, int32(p))
		row := c.adj[op]
		kept := row[:0]
		for _, q := range row {
			if nq := c.newOf[q]; nq >= 0 {
				kept = append(kept, nq)
			}
		}
		c.mark[p] = len(kept) < len(row)
		entries += len(kept)
		adj[p] = kept
	}
	c.adj, c.spareAdj = adj, c.adj
	c.edges = entries / 2
	// Joiner attachment: deterministic bootstrap contacts among the
	// survivors (the membership after removals, before additions).
	prev := int32(-1)
	for p, op := range c.oldOf {
		if op >= 0 {
			continue
		}
		c.mark[p] = true
		if len(survivors) == 0 {
			// Degenerate: the whole prior population vanished; chain the
			// joiners so the workload graph stays non-trivial.
			if prev >= 0 {
				c.addEdge(prev, int32(p))
			}
			prev = int32(p)
			continue
		}
		src := rng.New(c.seed).Split(0xdb + uint64(now[p]))
		for t := 0; t < c.contacts; t++ {
			contact := survivors[src.Intn(len(survivors))]
			c.addEdge(int32(p), contact)
			c.mark[contact] = true
		}
	}
	c.queue = survivors

	c.members = now
	c.epoch = cp.Epoch()
	c.dirty = c.dirty[:0]
	for p, d := range c.mark {
		if d {
			c.dirty = append(c.dirty, int32(p))
			c.mark[p] = false
		}
	}
	return scratch
}

// scratchBill seals a from-scratch recompute's accounting from the
// machinery's charge ledger: the cited round bound, one announcement
// and one collection message per node, and a two-way scan of every
// edge.
func (c *maintainedCore) scratchBill(ledger *hybrid.Ledger) WorkloadBill {
	b := WorkloadBill{Epoch: c.epoch, Affected: len(c.members)}
	b.Path = "workload/scratch"
	b.Rounds = ledger.Rounds()
	b.Messages = int64(2*len(c.members) + 2*c.edges)
	b.GlobalCapacity = ledger.MaxGlobalPerRound()
	b.Itemized = ledger.String()
	return b
}

// incrementalBill seals a patch recompute's accounting: an affected
// region of a nodes re-runs the machinery locally — 2⌈log₂ a⌉+2
// rounds, one announcement per affected node plus the adjacency
// entries the repair scanned. Strictly cheaper than scratchBill in
// both rounds and messages for any non-empty population (the charge
// ledgers cost at least 3⌈log₂ k⌉+4 rounds and 2k+2m messages; the
// region satisfies a ≤ k, scanned ≤ 2m).
func (c *maintainedCore) incrementalBill(affected, scanned int) WorkloadBill {
	b := WorkloadBill{Epoch: c.epoch, Incremental: true, Affected: affected}
	b.Path = "workload/incremental"
	a := affected
	if a < 1 {
		a = 1
	}
	b.Rounds = 2*sim.LogBound(a) + 2
	b.Messages = int64(affected + scanned)
	b.Itemized = fmt.Sprintf("%-28s %5d rounds  %9d msgs (charged, %d nodes affected)\n",
		"incremental recompute", b.Rounds, b.Messages, affected)
	return b
}

// seal appends the bill to the workload's ledger and returns it.
func (c *maintainedCore) seal(b WorkloadBill) WorkloadBill {
	c.bills = append(c.bills, b)
	return b
}

// Epoch returns the session epoch count the workload is synced to.
func (c *maintainedCore) Epoch() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.epoch
}

// Members returns the workload's member snapshot, ascending. The
// slice is a copy.
func (c *maintainedCore) Members() []int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return append([]int(nil), c.members...)
}

// GraphEdges returns the workload graph's undirected edges as sorted
// (u < v) global-identifier pairs.
func (c *maintainedCore) GraphEdges() [][2]int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([][2]int, 0, c.edges)
	for p, row := range c.adj {
		for _, q := range row {
			if int32(p) < q {
				out = append(out, [2]int{c.members[p], c.members[q]})
			}
		}
	}
	return out
}

// Bills returns the per-sync accounting, one entry per Sync (the open
// scratch included). The slice is a copy.
func (c *maintainedCore) Bills() []WorkloadBill {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return append([]WorkloadBill(nil), c.bills...)
}

// LastBill returns the newest sync's accounting: Bills' last entry
// without the copy of the history before it.
func (c *maintainedCore) LastBill() WorkloadBill {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.bills[len(c.bills)-1]
}

// everyone returns the full population as an affected mask.
func (c *maintainedCore) everyone() []bool {
	c.mark = fit(c.mark, len(c.members))
	for p := range c.mark {
		c.mark[p] = true
	}
	return c.mark
}

// affectedRegion expands the dirty seeds into the edge-closed affected
// region, as a mask over positions: every member whose old component
// was touched, plus the joiners. oldLabels is the labeling before the
// advance, in the positions before it. Old components are edge-closed
// and new edges only touch joiners and contacts, so the region contains
// every vertex whose label or tree attachment can change.
func (c *maintainedCore) affectedRegion(oldLabels []int32) []bool {
	aff := c.mark
	for _, d := range c.dirty {
		if op := c.oldOf[d]; op >= 0 {
			c.touch[oldLabels[op]] = true
		} else {
			aff[d] = true
		}
	}
	for p, op := range c.oldOf {
		if op >= 0 && c.touch[oldLabels[op]] {
			aff[p] = true
		}
	}
	for _, d := range c.dirty {
		if op := c.oldOf[d]; op >= 0 {
			c.touch[oldLabels[op]] = false
		}
	}
	return aff
}

// carry renumbers a per-member array of positions (labels, parents)
// across the last advance into the buffer next: members outside the
// affected region keep their entry, which points inside their
// untouched component and so at a survivor; the region's entries are
// left for the recompute to write.
func (c *maintainedCore) carry(from, next []int32, aff []bool) []int32 {
	next = fit(next, len(aff))
	for p, op := range c.oldOf {
		if !aff[p] {
			next[p] = c.newOf[from[op]]
		}
	}
	return next
}

// recomputeRegion canonically recomputes the affected region: one BFS
// per component, rooted at the component's smallest member, expanding
// ascending adjacency — so labels (the component minimum) and, when
// parent is non-nil, the canonical BFS forest come out as the pure
// function of the component subgraph a from-scratch oracle computes.
// Vertices outside the region keep their entries. The mask doubles as
// the BFS's unvisited set (the region is edge-closed) and comes back
// all false. Returns nodes touched and adjacency entries scanned.
//
//overlay:hotpath
func recomputeRegion(c *maintainedCore, labels, parent []int32, affected []bool) (nodes, scanned int) {
	queue := fit(c.queue, len(affected))
	for p := range affected {
		if !affected[p] {
			continue
		}
		// Positions ascend, so the first unvisited vertex of a component is
		// its minimum: the canonical root.
		root := int32(p)
		affected[root] = false
		labels[root] = root
		if parent != nil {
			parent[root] = root
		}
		queue[0] = root
		tail := 1
		for h := 0; h < tail; h++ {
			v := queue[h]
			scanned += len(c.adj[v])
			for _, nb := range c.adj[v] {
				if !affected[nb] {
					continue
				}
				affected[nb] = false
				labels[nb] = root
				if parent != nil {
					parent[nb] = v
				}
				queue[tail] = nb
				tail++
			}
		}
		nodes += tail
	}
	c.queue = queue
	return nodes, scanned
}

// MaintainedComponents keeps connected-component labels alive across
// a session's churn epochs (Theorem 1.2 as a continuous workload).
type MaintainedComponents struct {
	*maintainedCore
	// labels[p] is the smallest member of p's component; spareLabels is
	// the array the next sync writes.
	labels, spareLabels []int32
}

// OpenMaintainedComponents opens the components workload over a
// session and runs the initial from-scratch sync.
func OpenMaintainedComponents(sess *Session, opt *MaintainedOptions) (*MaintainedComponents, error) {
	core, err := openCore(sess, opt)
	if err != nil {
		return nil, err
	}
	m := &MaintainedComponents{maintainedCore: core}
	m.scratch()
	return m, nil
}

// scratch relabels the whole population and seals the scratch bill.
func (m *MaintainedComponents) scratch() WorkloadBill {
	m.labels = fit(m.labels, len(m.members))
	recomputeRegion(m.maintainedCore, m.labels, nil, m.everyone())
	return m.seal(m.scratchBill(hybrid.ChargeComponents(len(m.members), m.edges)))
}

// Sync advances the workload to the session's committed epoch and
// recomputes the labels, returning the sync's bill.
func (m *MaintainedComponents) Sync() WorkloadBill {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.advance() {
		return m.scratch()
	}
	aff := m.affectedRegion(m.labels)
	m.labels, m.spareLabels = m.carry(m.labels, m.spareLabels, aff), m.labels
	nodes, scanned := recomputeRegion(m.maintainedCore, m.labels, nil, aff)
	return m.seal(m.incrementalBill(nodes, scanned))
}

// Labels returns the current component labeling: global identifier →
// the smallest identifier in its component. The map is a copy.
func (m *MaintainedComponents) Labels() map[int]int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make(map[int]int, len(m.labels))
	for p, l := range m.labels {
		out[m.members[p]] = m.members[l]
	}
	return out
}

// NumComponents counts the current components.
func (m *MaintainedComponents) NumComponents() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	n := 0
	for p, l := range m.labels {
		if int32(p) == l {
			n++
		}
	}
	return n
}

// ScratchBill prices what a from-scratch recompute would cost right
// now, without running one — the baseline of the
// incremental-strictly-cheaper guarantee.
func (m *MaintainedComponents) ScratchBill() WorkloadBill {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.scratchBill(hybrid.ChargeComponents(len(m.members), m.edges))
}

// MaintainedSpanningTree keeps a canonical spanning forest (one BFS
// tree per component, rooted at the component minimum) alive across a
// session's churn epochs (Theorem 1.3 as a continuous workload).
type MaintainedSpanningTree struct {
	*maintainedCore
	// labels[p] is the root of p's tree and parent[p] its BFS parent (p
	// itself at a root); the spares are the arrays the next sync writes.
	labels, parent           []int32
	spareLabels, spareParent []int32
}

// OpenMaintainedSpanningTree opens the spanning-forest workload over
// a session and runs the initial from-scratch sync.
func OpenMaintainedSpanningTree(sess *Session, opt *MaintainedOptions) (*MaintainedSpanningTree, error) {
	core, err := openCore(sess, opt)
	if err != nil {
		return nil, err
	}
	m := &MaintainedSpanningTree{maintainedCore: core}
	m.scratch()
	return m, nil
}

// scratch regrows the whole forest and seals the scratch bill.
func (m *MaintainedSpanningTree) scratch() WorkloadBill {
	m.labels, m.parent = fit(m.labels, len(m.members)), fit(m.parent, len(m.members))
	recomputeRegion(m.maintainedCore, m.labels, m.parent, m.everyone())
	return m.seal(m.scratchBill(hybrid.ChargeSpanningTree(len(m.members), m.edges)))
}

// Sync advances the workload to the session's committed epoch and
// recomputes the forest, returning the sync's bill.
func (m *MaintainedSpanningTree) Sync() WorkloadBill {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.advance() {
		return m.scratch()
	}
	aff := m.affectedRegion(m.labels)
	m.labels, m.spareLabels = m.carry(m.labels, m.spareLabels, aff), m.labels
	m.parent, m.spareParent = m.carry(m.parent, m.spareParent, aff), m.parent
	nodes, scanned := recomputeRegion(m.maintainedCore, m.labels, m.parent, aff)
	return m.seal(m.incrementalBill(nodes, scanned))
}

// Forest returns the forest's undirected edges as sorted (u < v)
// pairs, one per non-root vertex.
func (m *MaintainedSpanningTree) Forest() [][2]int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([][2]int, 0, len(m.parent))
	for v, p := range m.parent {
		switch {
		case int(p) < v:
			out = append(out, [2]int{m.members[p], m.members[v]})
		case int(p) > v:
			out = append(out, [2]int{m.members[v], m.members[p]})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// Roots returns the forest's roots (one per component), ascending.
func (m *MaintainedSpanningTree) Roots() []int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	var out []int
	for v, p := range m.parent {
		if int(p) == v {
			out = append(out, m.members[v])
		}
	}
	return out
}

// ScratchBill prices what a from-scratch recompute would cost right
// now, without running one.
func (m *MaintainedSpanningTree) ScratchBill() WorkloadBill {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.scratchBill(hybrid.ChargeSpanningTree(len(m.members), m.edges))
}

// MaintainedMIS keeps the lexicographic maximal independent set — the
// unique greedy fixpoint: v is in the set iff no smaller neighbor is —
// alive across a session's churn epochs (Theorem 1.5 as a continuous
// workload). The lex fixpoint is what makes incremental maintenance
// canonical: a status flip can only propagate to larger identifiers,
// so an ascending worklist converges on exactly the from-scratch
// answer while touching only the vertices the churn actually reached.
type MaintainedMIS struct {
	*maintainedCore
	// in[p] reports whether p is in the set; spareIn is the array the
	// next sync writes.
	in, spareIn []bool
}

// OpenMaintainedMIS opens the MIS workload over a session and runs
// the initial from-scratch sync.
func OpenMaintainedMIS(sess *Session, opt *MaintainedOptions) (*MaintainedMIS, error) {
	core, err := openCore(sess, opt)
	if err != nil {
		return nil, err
	}
	m := &MaintainedMIS{maintainedCore: core}
	m.scratch()
	return m, nil
}

// status computes v's membership from its smaller neighbors'.
func (m *MaintainedMIS) status(v int32) bool {
	for _, nb := range m.adj[v] {
		if nb >= v {
			break
		}
		if m.in[nb] {
			return false
		}
	}
	return true
}

// scratch rebuilds the lex-MIS by the ascending greedy scan and seals
// the scratch bill.
func (m *MaintainedMIS) scratch() WorkloadBill {
	m.in = fit(m.in, len(m.members))
	for v := range m.in {
		m.in[v] = m.status(int32(v))
	}
	return m.seal(m.scratchBill(hybrid.ChargeMIS(len(m.members), m.edges)))
}

// Sync advances the workload to the session's committed epoch and
// repairs the set, returning the sync's bill.
func (m *MaintainedMIS) Sync() WorkloadBill {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.advance() {
		return m.scratch()
	}
	next := fit(m.spareIn, len(m.members))
	for p, op := range m.oldOf {
		next[p] = op >= 0 && m.in[op]
	}
	m.in, m.spareIn = next, m.in
	// Ascending worklist: recompute each dirty vertex's status from its
	// smaller neighbors; a flip pushes the larger neighbors. Pops are
	// nondecreasing (pushes are always strictly larger than the popped
	// vertex), so when v pops every smaller vertex already holds its
	// final status and v never returns to the list — the pass lands on
	// the lex fixpoint.
	h := intHeap{data: m.queue[:0], queued: m.mark}
	for _, d := range m.dirty {
		h.push(d)
	}
	affected, scanned := 0, 0
	for len(h.data) > 0 {
		v := h.pop()
		affected++
		scanned += len(m.adj[v])
		st := m.status(v)
		// A joiner has no status to keep: it always announces itself.
		if m.oldOf[v] >= 0 && m.in[v] == st {
			continue
		}
		m.in[v] = st
		for _, nb := range m.adj[v] {
			if nb > v {
				h.push(nb)
			}
		}
	}
	m.queue = h.data
	return m.seal(m.incrementalBill(affected, scanned))
}

// Set returns the current independent set, ascending. The slice is a
// copy.
func (m *MaintainedMIS) Set() []int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	var out []int
	for v, in := range m.in {
		if in {
			out = append(out, m.members[v])
		}
	}
	return out
}

// InSet reports whether a current member is in the set.
func (m *MaintainedMIS) InSet(id int) bool {
	m.mu.RLock()
	defer m.mu.RUnlock()
	v, ok := indexIn(m.members, id)
	return ok && m.in[v]
}

// ScratchBill prices what a from-scratch recompute would cost right
// now, without running one.
func (m *MaintainedMIS) ScratchBill() WorkloadBill {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.scratchBill(hybrid.ChargeMIS(len(m.members), m.edges))
}

// intHeap is a deduplicating binary min-heap over positions (the MIS
// worklist). queued is an all-false mask over them, and is again once
// the heap drains.
type intHeap struct {
	data   []int32
	queued []bool
}

func (h *intHeap) push(v int32) {
	if h.queued[v] {
		return
	}
	h.queued[v] = true
	h.data = append(h.data, v)
	i := len(h.data) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h.data[p] <= h.data[i] {
			break
		}
		h.data[p], h.data[i] = h.data[i], h.data[p]
		i = p
	}
}

func (h *intHeap) pop() int32 {
	v := h.data[0]
	last := len(h.data) - 1
	h.data[0] = h.data[last]
	h.data = h.data[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(h.data) && h.data[l] < h.data[small] {
			small = l
		}
		if r < len(h.data) && h.data[r] < h.data[small] {
			small = r
		}
		if small == i {
			break
		}
		h.data[i], h.data[small] = h.data[small], h.data[i]
		i = small
	}
	h.queued[v] = false
	return v
}
