package overlay

import (
	"errors"
	"fmt"
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
// workload graph (sorted adjacency over global identifiers), and the
// per-sync bills.
type maintainedCore struct {
	sess     *Session
	contacts int
	seed     uint64

	// members is the member list of the checkpoint the workload is synced
	// to, shared with it: read-only.
	mu      sync.RWMutex
	epoch   int
	members []int
	adj     map[int][]int
	edges   int
	bills   []WorkloadBill
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
		adj:      map[int][]int{},
	}
	for _, id := range c.members {
		c.adj[id] = nil
	}
	for _, e := range cp.Ring() {
		c.addEdge(e[0], e[1])
	}
	return c, nil
}

// insertSorted inserts x into the ascending slice if absent.
func insertSorted(s []int, x int) ([]int, bool) {
	i := sort.SearchInts(s, x)
	if i < len(s) && s[i] == x {
		return s, false
	}
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = x
	return s, true
}

// removeSorted removes x from the ascending slice if present.
func removeSorted(s []int, x int) ([]int, bool) {
	i := sort.SearchInts(s, x)
	if i >= len(s) || s[i] != x {
		return s, false
	}
	return append(s[:i], s[i+1:]...), true
}

// addEdge inserts the undirected edge (u, v) if absent.
func (c *maintainedCore) addEdge(u, v int) {
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
// snapshot and applies the membership delta to the workload graph. It
// returns the removed identifiers, the sorted dirty seeds (survivors
// whose neighborhoods changed, joiner contacts, and the joiners
// themselves), and whether the covered epochs force a from-scratch
// recompute (a rebuild epoch, or a session restored past the snapshot).
// The caller holds mu exclusively.
func (c *maintainedCore) advance() (removed, dirty []int, scratch bool) {
	cp := c.sess.Checkpoint()
	nowEpoch, nowMembers := cp.Epoch(), cp.members
	// Restored past the snapshot: the per-epoch rebuild record for the
	// interval is gone, so resync wholesale. Otherwise the epochs since
	// the snapshot are the newest bills.
	scratch = nowEpoch < c.epoch
	for i := len(cp.bills) - 1; i >= 0 && cp.bills[i].Epoch >= c.epoch; i-- {
		scratch = scratch || cp.bills[i].Rebuilt
	}

	var added []int
	i, j := 0, 0
	for i < len(c.members) || j < len(nowMembers) {
		switch {
		case j >= len(nowMembers) || (i < len(c.members) && c.members[i] < nowMembers[j]):
			removed = append(removed, c.members[i])
			i++
		case i >= len(c.members) || nowMembers[j] < c.members[i]:
			added = append(added, nowMembers[j])
			j++
		default:
			i, j = i+1, j+1
		}
	}

	dirtySet := map[int]bool{}
	removedSet := make(map[int]bool, len(removed))
	for _, id := range removed {
		removedSet[id] = true
	}
	// Survivor-local repair: leavers vanish with their incident edges.
	for _, id := range removed {
		for _, nb := range c.adj[id] {
			if removedSet[nb] {
				if id < nb {
					c.edges--
				}
				continue
			}
			c.adj[nb], _ = removeSorted(c.adj[nb], id)
			c.edges--
			dirtySet[nb] = true
		}
		delete(c.adj, id)
	}
	// Joiner attachment: deterministic bootstrap contacts among the
	// survivors (the membership after removals, before additions).
	addedSet := make(map[int]bool, len(added))
	for _, id := range added {
		addedSet[id] = true
	}
	survivors := make([]int, 0, len(nowMembers)-len(added))
	for _, id := range nowMembers {
		if !addedSet[id] {
			survivors = append(survivors, id)
		}
	}
	for ji, id := range added {
		if _, ok := c.adj[id]; !ok {
			c.adj[id] = nil
		}
		dirtySet[id] = true
		if len(survivors) == 0 {
			// Degenerate: the whole prior population vanished; chain the
			// joiners so the workload graph stays non-trivial.
			if ji > 0 {
				c.addEdge(added[ji-1], id)
			}
			continue
		}
		src := rng.New(c.seed).Split(0xdb + uint64(id))
		for t := 0; t < c.contacts; t++ {
			contact := survivors[src.Intn(len(survivors))]
			c.addEdge(id, contact)
			dirtySet[contact] = true
		}
	}

	c.members = nowMembers
	c.epoch = nowEpoch
	dirty = make([]int, 0, len(dirtySet))
	//lint:ordered dirty ids are collected then sorted before return
	for id := range dirtySet {
		dirty = append(dirty, id)
	}
	sort.Ints(dirty)
	return removed, dirty, scratch
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
	for _, u := range c.members {
		for _, v := range c.adj[u] {
			if u < v {
				out = append(out, [2]int{u, v})
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

// allMembers returns the full population as an affected set.
func (c *maintainedCore) allMembers() map[int]bool {
	aff := make(map[int]bool, len(c.members))
	for _, id := range c.members {
		aff[id] = true
	}
	return aff
}

// affectedRegion expands the dirty seeds into the edge-closed affected
// region: every current member whose old component was touched, plus
// the joiners (dirty vertices with no old label). Old components are
// edge-closed and new edges only touch joiners and contacts, so the
// region contains every vertex whose label or tree attachment can
// change.
func (c *maintainedCore) affectedRegion(oldLabels map[int]int, dirty []int) map[int]bool {
	touched := map[int]bool{}
	aff := map[int]bool{}
	for _, d := range dirty {
		if l, ok := oldLabels[d]; ok {
			touched[l] = true
		} else {
			aff[d] = true
		}
	}
	for _, id := range c.members {
		if l, ok := oldLabels[id]; ok && touched[l] {
			aff[id] = true
		}
	}
	return aff
}

// recomputeRegion canonically recomputes the affected region: one BFS
// per component, rooted at the component's smallest member, expanding
// ascending adjacency — so labels (the component minimum) and, when
// parent is non-nil, the canonical BFS forest come out as the pure
// function of the component subgraph a from-scratch oracle computes.
// Stale labels/parents inside the region are dropped first; vertices
// outside keep theirs. Returns nodes touched and adjacency entries
// scanned.
func recomputeRegion(c *maintainedCore, labels map[int]int, parent map[int]int, affected map[int]bool) (nodes, scanned int) {
	ids := make([]int, 0, len(affected))
	//lint:ordered affected ids are collected then sorted before the recompute walks them
	for id := range affected {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		delete(labels, id)
		if parent != nil {
			delete(parent, id)
		}
	}
	seen := make(map[int]bool, len(ids))
	for _, root := range ids {
		if seen[root] {
			continue
		}
		// The region is edge-closed and ids ascend, so the first unseen
		// vertex of a component is its minimum: the canonical root.
		seen[root] = true
		labels[root] = root
		if parent != nil {
			parent[root] = root
		}
		comp := []int{root}
		for h := 0; h < len(comp); h++ {
			v := comp[h]
			scanned += len(c.adj[v])
			for _, nb := range c.adj[v] {
				if seen[nb] {
					continue
				}
				seen[nb] = true
				labels[nb] = root
				if parent != nil {
					parent[nb] = v
				}
				comp = append(comp, nb)
			}
		}
		nodes += len(comp)
	}
	return nodes, scanned
}

// MaintainedComponents keeps connected-component labels alive across
// a session's churn epochs (Theorem 1.2 as a continuous workload).
type MaintainedComponents struct {
	*maintainedCore
	labels map[int]int
}

// OpenMaintainedComponents opens the components workload over a
// session and runs the initial from-scratch sync.
func OpenMaintainedComponents(sess *Session, opt *MaintainedOptions) (*MaintainedComponents, error) {
	core, err := openCore(sess, opt)
	if err != nil {
		return nil, err
	}
	m := &MaintainedComponents{maintainedCore: core, labels: map[int]int{}}
	recomputeRegion(core, m.labels, nil, core.allMembers())
	core.seal(core.scratchBill(hybrid.ChargeComponents(len(core.members), core.edges)))
	return m, nil
}

// Sync advances the workload to the session's committed epoch and
// recomputes the labels, returning the sync's bill.
func (m *MaintainedComponents) Sync() WorkloadBill {
	m.mu.Lock()
	defer m.mu.Unlock()
	removed, dirty, scratch := m.advance()
	if scratch {
		m.labels = map[int]int{}
		recomputeRegion(m.maintainedCore, m.labels, nil, m.allMembers())
		return m.seal(m.scratchBill(hybrid.ChargeComponents(len(m.members), m.edges)))
	}
	aff := m.affectedRegion(m.labels, dirty)
	for _, id := range removed {
		delete(m.labels, id)
	}
	nodes, scanned := recomputeRegion(m.maintainedCore, m.labels, nil, aff)
	return m.seal(m.incrementalBill(nodes, scanned))
}

// Labels returns the current component labeling: global identifier →
// the smallest identifier in its component. The map is a copy.
func (m *MaintainedComponents) Labels() map[int]int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make(map[int]int, len(m.labels))
	//lint:ordered map-to-map copy; the result has no order
	for id, l := range m.labels {
		out[id] = l
	}
	return out
}

// NumComponents counts the current components.
func (m *MaintainedComponents) NumComponents() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	n := 0
	//lint:ordered commutative count of label fixpoints
	for id, l := range m.labels {
		if id == l {
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
	labels map[int]int
	parent map[int]int
}

// OpenMaintainedSpanningTree opens the spanning-forest workload over
// a session and runs the initial from-scratch sync.
func OpenMaintainedSpanningTree(sess *Session, opt *MaintainedOptions) (*MaintainedSpanningTree, error) {
	core, err := openCore(sess, opt)
	if err != nil {
		return nil, err
	}
	m := &MaintainedSpanningTree{maintainedCore: core, labels: map[int]int{}, parent: map[int]int{}}
	recomputeRegion(core, m.labels, m.parent, core.allMembers())
	core.seal(core.scratchBill(hybrid.ChargeSpanningTree(len(core.members), core.edges)))
	return m, nil
}

// Sync advances the workload to the session's committed epoch and
// recomputes the forest, returning the sync's bill.
func (m *MaintainedSpanningTree) Sync() WorkloadBill {
	m.mu.Lock()
	defer m.mu.Unlock()
	removed, dirty, scratch := m.advance()
	if scratch {
		m.labels, m.parent = map[int]int{}, map[int]int{}
		recomputeRegion(m.maintainedCore, m.labels, m.parent, m.allMembers())
		return m.seal(m.scratchBill(hybrid.ChargeSpanningTree(len(m.members), m.edges)))
	}
	aff := m.affectedRegion(m.labels, dirty)
	for _, id := range removed {
		delete(m.labels, id)
		delete(m.parent, id)
	}
	nodes, scanned := recomputeRegion(m.maintainedCore, m.labels, m.parent, aff)
	return m.seal(m.incrementalBill(nodes, scanned))
}

// Forest returns the forest's undirected edges as sorted (u < v)
// pairs, one per non-root vertex.
func (m *MaintainedSpanningTree) Forest() [][2]int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([][2]int, 0, len(m.parent))
	for _, v := range m.members {
		p := m.parent[v]
		if p == v {
			continue
		}
		if p < v {
			out = append(out, [2]int{p, v})
		} else {
			out = append(out, [2]int{v, p})
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
	for _, v := range m.members {
		if m.parent[v] == v {
			out = append(out, v)
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
	in map[int]bool
}

// OpenMaintainedMIS opens the MIS workload over a session and runs
// the initial from-scratch sync.
func OpenMaintainedMIS(sess *Session, opt *MaintainedOptions) (*MaintainedMIS, error) {
	core, err := openCore(sess, opt)
	if err != nil {
		return nil, err
	}
	m := &MaintainedMIS{maintainedCore: core, in: map[int]bool{}}
	m.recomputeScratch()
	core.seal(core.scratchBill(hybrid.ChargeMIS(len(core.members), core.edges)))
	return m, nil
}

// recomputeScratch rebuilds the lex-MIS by the ascending greedy scan.
func (m *MaintainedMIS) recomputeScratch() {
	m.in = make(map[int]bool, len(m.members))
	for _, v := range m.members {
		st := true
		for _, nb := range m.adj[v] {
			if nb >= v {
				break
			}
			if m.in[nb] {
				st = false
				break
			}
		}
		m.in[v] = st
	}
}

// Sync advances the workload to the session's committed epoch and
// repairs the set, returning the sync's bill.
func (m *MaintainedMIS) Sync() WorkloadBill {
	m.mu.Lock()
	defer m.mu.Unlock()
	removed, dirty, scratch := m.advance()
	if scratch {
		m.recomputeScratch()
		return m.seal(m.scratchBill(hybrid.ChargeMIS(len(m.members), m.edges)))
	}
	for _, id := range removed {
		delete(m.in, id)
	}
	// Ascending worklist: recompute each dirty vertex's status from its
	// smaller neighbors; a flip pushes the larger neighbors. Pops are
	// nondecreasing (pushes are always strictly larger than the popped
	// vertex), so when v pops every smaller vertex already holds its
	// final status — the pass lands on the lex fixpoint.
	h := newIntHeap(dirty)
	processed := map[int]bool{}
	for h.len() > 0 {
		v := h.pop()
		processed[v] = true
		st := true
		for _, nb := range m.adj[v] {
			if nb >= v {
				break
			}
			if m.in[nb] {
				st = false
				break
			}
		}
		old, had := m.in[v]
		m.in[v] = st
		if had && old == st {
			continue
		}
		for _, nb := range m.adj[v] {
			if nb > v {
				h.push(nb)
			}
		}
	}
	affected, scanned := len(processed), 0
	//lint:ordered commutative sum of adjacency sizes
	for v := range processed {
		scanned += len(m.adj[v])
	}
	return m.seal(m.incrementalBill(affected, scanned))
}

// Set returns the current independent set, ascending. The slice is a
// copy.
func (m *MaintainedMIS) Set() []int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	var out []int
	for _, v := range m.members {
		if m.in[v] {
			out = append(out, v)
		}
	}
	return out
}

// InSet reports whether a current member is in the set.
func (m *MaintainedMIS) InSet(id int) bool {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.in[id]
}

// ScratchBill prices what a from-scratch recompute would cost right
// now, without running one.
func (m *MaintainedMIS) ScratchBill() WorkloadBill {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.scratchBill(hybrid.ChargeMIS(len(m.members), m.edges))
}

// intHeap is a deduplicating binary min-heap over ints (the MIS
// worklist).
type intHeap struct {
	data   []int
	queued map[int]bool
}

func newIntHeap(init []int) *intHeap {
	h := &intHeap{queued: map[int]bool{}}
	for _, v := range init {
		h.push(v)
	}
	return h
}

func (h *intHeap) len() int { return len(h.data) }

func (h *intHeap) push(v int) {
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

func (h *intHeap) pop() int {
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
	delete(h.queued, v)
	return v
}
