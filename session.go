package overlay

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"overlay/internal/graphx"
	"overlay/internal/overlays"
	"overlay/internal/sim"
)

// Live overlay maintenance. BuildTree is one-shot: it assumes the
// membership frozen for the O(log n) rounds of the construction. Real
// peer-to-peer memberships churn, and the paper's time bound is what
// makes that tractable — a full rebuild is only O(log n) rounds, so it
// can serve as the *recovery primitive* of a long-lived overlay rather
// than its steady state. A Session is that long-lived object: it wraps
// a completed build and advances through churn epochs, each of which
// must end in a well-formed tree over the then-current membership
// (the fair-termination framing: every epoch converges, not just the
// initial construction).
//
// Per epoch the session picks the cheap path when it can: leavers are
// treated as crash-stops and survivors compact their ranks in two
// O(log n) sweeps over the tree; joiners attach by routing over the
// Chord fingers the ranks induce (O(log n) hops each, all in
// parallel); a final broadcast commits the new membership count. Those
// repairs are charged analytically, like the fast build path. When the
// churned fraction of an epoch exceeds SessionOptions.RebuildFraction,
// patching is abandoned and the epoch runs a full BuildTree over the
// survivors' own Chord overlay (plus one bootstrap edge per joiner) —
// the O(log n) rebuild as recovery. Either way the epoch's cost lands
// in an EpochBill and the session keeps serving RouteLookup between
// epochs.

// SessionOptions tune Open and the epochs that follow.
type SessionOptions struct {
	// RebuildFraction is the patch-vs-rebuild threshold: an epoch whose
	// (joins+leaves)/members exceeds it abandons incremental repair and
	// re-runs BuildTree over the survivor substrate. 0 means the
	// default 0.25; patching is attempted whenever the fraction is at
	// or below the threshold.
	RebuildFraction float64
	// Build carries the BuildTree options for epoch rebuilds. Seed
	// seeds the session clock's per-epoch streams (each rebuild derives
	// its own seed from it). Faults, if set, is interpreted on the
	// session clock and in global node identifiers, and is shifted into
	// each rebuild's local clock and index space; it requires
	// MessageLevel, as in BuildTree.
	Build Options
	// Accounting selects how patch epochs are billed: Charged (the
	// default) estimates analytically; Measured runs each patch as a
	// real wire protocol on the engine, so the fault plan applies to
	// the repair traffic itself and the bill reports measured rounds
	// and messages. A measured patch the adversary defeats falls back
	// to a full rebuild, with both costs on the epoch's bill.
	Accounting Accounting
	// PatchRetries and RebuildRetries size the epoch recovery ladder.
	// A defeated measured patch is retried up to PatchRetries times,
	// each retry running with a re-derived fate/seed stream, a fault
	// plan shifted past the rounds the failed attempts consumed, and a
	// growing round-budget slack (deterministic backoff); the ladder
	// then falls to the recovery rebuild, itself retried up to
	// RebuildRetries times the same way. Zero (the default) keeps the
	// pre-ladder semantics: one patch attempt, one fallback rebuild.
	// When every rung fails, ApplyEpoch rolls the session back to its
	// pre-epoch checkpoint and returns the aborted bill alongside a
	// reasoned error — the session keeps serving lookups from the last
	// committed state.
	PatchRetries   int
	RebuildRetries int
}

// DefaultRebuildFraction is the patch-vs-rebuild threshold used when
// SessionOptions.RebuildFraction is zero.
const DefaultRebuildFraction = 0.25

// EpochBill is one epoch's cost accounting, the Bill of the
// maintenance plane: what the repair cost and which path it took.
type EpochBill struct {
	// Epoch is the epoch index (0-based).
	Epoch int
	// Joined and Left count the membership delta this epoch; Left
	// includes any additional crash-stop casualties a faulted rebuild
	// inflicted beyond the scheduled leavers.
	Joined, Left int
	// Members is the population after the epoch.
	Members int
	// ChurnedFraction is (joins+leaves)/members-before, the quantity
	// compared against the rebuild threshold.
	ChurnedFraction float64
	// Rebuilt reports the path taken: false = incremental patch,
	// true = full BuildTree over the survivor substrate (including the
	// fallback after a defeated measured patch).
	Rebuilt bool
	// Bill is the epoch's unified cost accounting: charged estimates
	// for Charged-mode patches, engine measurements for Measured-mode
	// patches and message-level rebuilds. Bill.Path names the path
	// taken in detail; an epoch that climbed the recovery ladder joins
	// the attempts with "+" and compresses repeats as "×N", e.g.
	// "patch/measured×2+rebuild/measured".
	Bill
	// Clock is the session's global round count after the epoch.
	Clock int
	// Attempts counts the recovery-ladder rungs the epoch ran — always
	// at least 1, and exactly 1 for an epoch whose first attempt
	// committed. AttemptBills itemizes each rung's own cost, in ladder
	// order; the embedded Bill is their fold.
	Attempts     int
	AttemptBills []Bill
	// Aborted reports that every ladder rung failed: the session was
	// rolled back to its pre-epoch checkpoint and AbortReason joins
	// the per-rung defeat reasons. ApplyEpoch returns the aborted bill
	// alongside its error; aborted bills are never appended to Bills.
	Aborted     bool
	AbortReason string
	// DerivedRounds charges the Section 1.4 derived-overlay
	// re-establishment for the committed epoch: after any repair every
	// rank changed hands, so the Ring/Chord/Hypercube/DeBruijn views
	// must be re-announced — ⌈log₂ k⌉+1 rounds of rank-arithmetic
	// neighbor discovery over the fresh tree. The charge is itemized on
	// the bill but deliberately kept out of Bill.Rounds and the session
	// clock: the repair protocol's attempt bills must keep summing to
	// Bill.Rounds (the ladder-accounting invariant), and the derived
	// views are established lazily — a session nobody reads views from
	// never actually runs the re-establishment.
	DerivedRounds int
}

// Session is a live overlay under maintenance. All exported methods
// speak global node identifiers — the input-graph indices of the
// original build for founding members, and whatever integers later
// epochs admitted for joiners.
//
// Concurrency contract: a Session is single-writer, multi-reader. The
// read-side methods (RouteLookup, Members, Tree, Chord, Bills, Epoch,
// ClockRound, NextID, Checkpoint) may be called from any number of
// goroutines concurrently with each other and with one in-flight
// mutation (ApplyEpoch, ApplyEpochCtx, Restore, SetFaults); mutations
// themselves must not overlap, and the Session serializes them with
// an internal write lock so misuse degrades to queueing, never to a
// data race. Readers observe either the pre-epoch or the committed
// post-epoch state, never a partial repair.
type Session struct {
	// mu is the single-writer/multi-reader guard: mutating methods
	// hold it exclusively for their full duration (an epoch repair is
	// atomic from a reader's point of view), readers share it.
	mu sync.RWMutex
	// interrupt, when non-nil, is the installed deadline poll of the
	// in-flight ApplyEpochCtx call; engine runs and rebuilds check it
	// between rounds. Only touched while mu is held exclusively.
	interrupt func() bool

	rebuildFrac    float64
	build          Options
	faults         *FaultPlan
	accounting     Accounting
	patchRetries   int
	rebuildRetries int

	// expander retains the original build's evolved graph (input-index
	// space): rebuild epochs widen their substrate with its surviving
	// edges, so recovery does not depend on the finger ring alone.
	expander *graphx.Graph

	// members lists the current population as strictly ascending global
	// identifiers; tree is the current well-formed tree in member-local
	// index space (tree node v is global node members[v]).
	members []int
	tree    *Tree

	clock  *sim.Clock
	nextID int
	bills  []EpochBill

	// derived is the per-epoch derived-overlay cache: view name →
	// global-identifier edge list, computed once per committed epoch
	// and invalidated whenever the tree changes (epoch commit, abort
	// rollback, Restore). derivedMu guards the map so concurrent
	// readers (who hold mu only shared) can fill it; invalidation
	// happens under mu held exclusively, which excludes every reader.
	derivedMu sync.Mutex
	derived   map[string][][2]int

	// departLog records every identifier that was once part of this
	// session's world and is gone, with the epoch it left or crashed in
	// (-1 for founders who died during the initial build), in the order
	// the departures were noted. It is only ever appended to, which is
	// what lets a checkpoint keep a prefix of it instead of a copy.
	// departed is the id → epoch index over it (an identifier that left
	// twice keeps the later epoch); RouteLookup uses it to distinguish a
	// departed endpoint from one that never existed.
	departLog []departure
	departed  map[int]int
}

// departure is one entry of the session's departure log.
type departure struct{ id, epoch int }

// Open starts a maintenance session over a completed build. The
// session copies the tree, so the BuildResult stays untouched; the
// founding membership is the build's survivor set (everyone, for a
// fault-free build).
func Open(res *BuildResult, opt *SessionOptions) (*Session, error) {
	if opt == nil {
		opt = &SessionOptions{}
	}
	if res == nil || res.Aborted || res.Tree == nil {
		return nil, errors.New("overlay: Open needs a completed (non-aborted) build with a tree")
	}
	n := len(res.Tree.Rank)
	if n == 0 {
		return nil, errors.New("overlay: cannot open a session over an empty build")
	}
	if opt.RebuildFraction < 0 || opt.RebuildFraction > 1 {
		return nil, fmt.Errorf("overlay: SessionOptions.RebuildFraction %v outside [0,1]", opt.RebuildFraction)
	}
	if opt.Build.Faults != nil && !opt.Build.MessageLevel {
		return nil, errors.New("overlay: SessionOptions.Build.Faults requires MessageLevel (the fast path simulates no messages to fault)")
	}
	if opt.Accounting < Charged || opt.Accounting > Measured {
		return nil, fmt.Errorf("overlay: SessionOptions.Accounting %d is not Charged or Measured", opt.Accounting)
	}
	if opt.PatchRetries < 0 || opt.RebuildRetries < 0 {
		return nil, fmt.Errorf("overlay: negative retry counts (PatchRetries %d, RebuildRetries %d)", opt.PatchRetries, opt.RebuildRetries)
	}
	frac := opt.RebuildFraction
	if frac == 0 {
		frac = DefaultRebuildFraction
	}
	members := make([]int, n)
	if res.Survivors != nil {
		copy(members, res.Survivors)
	} else {
		for i := range members {
			members[i] = i
		}
	}
	// nextID must clear every identifier the build's input space ever
	// used, not just the surviving maximum: after a faulted build the
	// dead founding members' identifiers are spent too (a fault plan
	// naming them must never match an innocent joiner). The retained
	// expander spans the full input index space.
	nextID := members[n-1] + 1
	if res.expander != nil && res.expander.N > nextID {
		nextID = res.expander.N
	}
	// Correlated failure domains are assigned over the build's input
	// id space; flattening the plan here means every later shift into
	// epoch-local clocks and index spaces sees only plain crashes and
	// partitions.
	s := &Session{
		rebuildFrac:    frac,
		build:          opt.Build,
		faults:         opt.Build.Faults.expandDomains(nextID),
		accounting:     opt.Accounting,
		patchRetries:   opt.PatchRetries,
		rebuildRetries: opt.RebuildRetries,
		expander:       res.expander,
		members:        members,
		tree:           copyTree(res.Tree),
		clock:          sim.NewClock(opt.Build.Seed),
		nextID:         nextID,
		departed:       map[int]int{},
	}
	// Founders the faulted build killed are departed from the start.
	for id := 0; id < nextID; id++ {
		if _, ok := s.memberIndex(id); !ok {
			s.depart(id, -1)
		}
	}
	s.clock.Advance(res.Stats.Rounds)
	return s, nil
}

// Members returns the current population, ascending. The slice is a
// copy.
func (s *Session) Members() []int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]int, len(s.members))
	copy(out, s.members)
	return out
}

// Tree returns the current well-formed tree in member-local index
// space: tree node v is global node Members()[v]. Callers must not
// mutate it. Epochs replace the tree wholesale (they never mutate one
// in place), so a returned tree stays internally consistent even if
// an epoch commits after the call — it is simply the snapshot it was.
func (s *Session) Tree() *Tree {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.tree
}

// Epoch returns the number of epochs applied so far.
func (s *Session) Epoch() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.clock.Epoch()
}

// ClockRound returns the session's global round count: the initial
// build plus every epoch repair so far.
func (s *Session) ClockRound() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.clock.Round()
}

// NextID returns the smallest global identifier never yet used by this
// session — the conventional identifier source for joiners (past
// identifiers are never reused, so a rejoining peer is a new node).
func (s *Session) NextID() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.nextID
}

// Bills returns the per-epoch accounting, one entry per applied
// epoch. The slice is a copy.
func (s *Session) Bills() []EpochBill {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return append([]EpochBill(nil), s.bills...)
}

// Chord returns the current finger-ring edges as global identifier
// pairs — the routing substrate RouteLookup greedily descends and the
// knowledge graph an epoch rebuild starts from. Like the other derived
// views it is served from the per-epoch cache: the first read after an
// epoch computes the O(k log k) edge list, every further read until
// the next epoch returns the same slice. Callers must not mutate it.
func (s *Session) Chord() [][2]int {
	return s.derivedView("chord", overlays.Chord)
}

// Ring returns the rank ring (rank r ↔ r+1 mod k) as global
// identifier pairs, from the per-epoch derived-view cache. Callers
// must not mutate the returned slice.
func (s *Session) Ring() [][2]int {
	return s.derivedView("ring", overlays.Ring)
}

// Hypercube returns the (possibly incomplete) hypercube over ranks as
// global identifier pairs, from the per-epoch derived-view cache.
// Callers must not mutate the returned slice.
func (s *Session) Hypercube() [][2]int {
	return s.derivedView("hypercube", overlays.Hypercube)
}

// DeBruijn returns the binary De Bruijn overlay over ranks as global
// identifier pairs, from the per-epoch derived-view cache. Callers
// must not mutate the returned slice.
func (s *Session) DeBruijn() [][2]int {
	return s.derivedView("debruijn", overlays.DeBruijn)
}

// derivedView serves one Section 1.4 derived overlay from the
// per-epoch cache: on a miss the view is computed from the current
// tree's rank arithmetic and mapped into global identifiers, then kept
// until the next tree change invalidates the cache. Readers share mu,
// so cache fills interleave with lookups; derivedMu serializes
// concurrent fills of the same epoch's map. The returned slice is
// shared by every caller until the next epoch — treat it as read-only,
// exactly like Tree().
func (s *Session) derivedView(name string, gen func([]int) *graphx.Graph) [][2]int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.derivedMu.Lock()
	defer s.derivedMu.Unlock()
	if edges, ok := s.derived[name]; ok {
		return edges
	}
	local := gen(s.tree.NodeAt).Edges()
	out := make([][2]int, len(local))
	for i, e := range local {
		out[i] = [2]int{s.members[e[0]], s.members[e[1]]}
	}
	if s.derived == nil {
		s.derived = make(map[string][][2]int, 4)
	}
	s.derived[name] = out
	return out
}

// invalidateDerivedLocked drops the derived-view cache; the caller
// holds mu exclusively (which excludes every derivedView reader, so
// touching the map without derivedMu is safe).
func (s *Session) invalidateDerivedLocked() {
	s.derived = nil
}

// ErrDeparted reports a lookup endpoint that was once part of the
// session's world but left or crashed; the wrapping error says when.
var ErrDeparted = errors.New("overlay: lookup endpoint departed the session")

// ErrNotMember reports a lookup endpoint this session has never seen:
// neither a current member nor a recorded departure.
var ErrNotMember = errors.New("overlay: lookup endpoint was never a member of this session")

// DepartedError is the structured form of an ErrDeparted lookup
// failure: which node, and the epoch it left or crashed in (-1 for a
// founder the initial build killed). errors.Is(err, ErrDeparted)
// matches it; errors.As extracts the fields, so API layers can report
// {code, reason, epoch} without parsing message strings.
type DepartedError struct {
	Node  int
	Epoch int
}

func (e *DepartedError) Error() string {
	if e.Epoch < 0 {
		return fmt.Sprintf("%v: node %d crashed during the initial build", ErrDeparted, e.Node)
	}
	return fmt.Sprintf("%v: node %d left or crashed in epoch %d", ErrDeparted, e.Node, e.Epoch)
}

// Unwrap ties the structured error to the ErrDeparted sentinel.
func (e *DepartedError) Unwrap() error { return ErrDeparted }

// NotMemberError is the structured form of an ErrNotMember lookup
// failure. errors.Is(err, ErrNotMember) matches it.
type NotMemberError struct {
	Node int
}

func (e *NotMemberError) Error() string {
	return fmt.Sprintf("%v: node %d", ErrNotMember, e.Node)
}

// Unwrap ties the structured error to the ErrNotMember sentinel.
func (e *NotMemberError) Unwrap() error { return ErrNotMember }

// RouteLookup returns the greedy Chord routing path between two
// current members as a global-identifier sequence of length O(log n).
// A non-member endpoint yields a reasoned error: a *DepartedError
// (naming the epoch the node left or crashed in, or the initial
// build) when the identifier was once part of the session, and a
// *NotMemberError when it never was.
func (s *Session) RouteLookup(from, to int) ([]int, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	fi, ok1 := s.memberIndex(from)
	ti, ok2 := s.memberIndex(to)
	if !ok1 {
		return nil, s.lookupErr(from)
	}
	if !ok2 {
		return nil, s.lookupErr(to)
	}
	ranks := overlays.RouteChord(len(s.members), s.tree.Rank[fi], s.tree.Rank[ti])
	path := make([]int, len(ranks))
	for i, r := range ranks {
		path[i] = s.members[s.tree.NodeAt[r]]
	}
	return path, nil
}

// lookupErr explains why a non-member identifier cannot be routed to.
func (s *Session) lookupErr(id int) error {
	if e, ok := s.departed[id]; ok {
		return &DepartedError{Node: id, Epoch: e}
	}
	return &NotMemberError{Node: id}
}

// memberIndex locates a global identifier in the member list.
func (s *Session) memberIndex(id int) (int, bool) { return indexIn(s.members, id) }

// indexIn locates id in an ascending identifier list.
func indexIn(ids []int, id int) (int, bool) {
	k := sort.SearchInts(ids, id)
	return k, k < len(ids) && ids[k] == id
}

// Checkpoint is a restorable snapshot of a session's committed state:
// membership, the well-formed tree (topology, ranks, and thereby the
// Chord fingers), the per-epoch bills, the departure record, and the
// session clock. Taking one costs the same however long the session
// has run: epochs replace the member list and the tree wholesale and
// never write into the old ones, and bills and departures are only ever
// appended, so a checkpoint shares the immutable values and keeps
// prefixes of the two histories instead of copying them. A checkpoint
// is reusable, and any number of them can be restored in any order:
// Restore never writes through what a checkpoint shares.
type Checkpoint struct {
	owner   *Session
	members []int
	tree    *Tree
	clock   sim.Clock
	nextID  int
	// bills and departLog are the histories as of the checkpoint, capped
	// at their length: an append to a restored history reallocates
	// rather than overwrite entries a later checkpoint still reads.
	bills     []EpochBill
	departLog []departure
}

// Checkpoint snapshots the session's current committed state.
// ApplyEpoch takes one internally before every epoch and restores it
// when the whole recovery ladder fails; callers can take their own to
// re-apply an epoch later or to bracket experiments.
func (s *Session) Checkpoint() *Checkpoint {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.checkpointLocked()
}

// checkpointLocked is Checkpoint with the lock already held (shared
// or exclusive).
func (s *Session) checkpointLocked() *Checkpoint {
	nb, nd := len(s.bills), len(s.departLog)
	return &Checkpoint{
		owner:     s,
		members:   s.members,
		tree:      s.tree,
		clock:     s.clock.Snapshot(),
		nextID:    s.nextID,
		bills:     s.bills[:nb:nb],
		departLog: s.departLog[:nd:nd],
	}
}

// Restore rolls the session back to a checkpoint previously taken
// from it. Restoring a foreign (or nil) checkpoint is an error and
// leaves the session untouched. After a restore the session serves
// lookups, bills, and epochs exactly as it did when the checkpoint
// was taken — bit for bit.
func (s *Session) Restore(cp *Checkpoint) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.restoreLocked(cp)
}

// restoreLocked is Restore with the write lock already held.
func (s *Session) restoreLocked(cp *Checkpoint) error {
	if cp == nil || cp.owner != s {
		return errors.New("overlay: Restore needs a checkpoint taken from this session")
	}
	s.members = cp.members
	s.tree = cp.tree
	s.clock.Restore(cp.clock)
	s.nextID = cp.nextID
	// A history's backing array is written once per position, so two
	// views of equal length over the same array hold the same entries:
	// the rollback of a failed epoch, which billed nothing and noted no
	// departure, leaves both histories — spare capacity included — and
	// the departure index as they are.
	if !sameHistory(s.bills, cp.bills) {
		s.bills = cp.bills
	}
	if !sameHistory(s.departLog, cp.departLog) {
		s.departLog = cp.departLog
		s.departed = make(map[int]int, len(cp.departLog))
		for _, d := range cp.departLog {
			s.departed[d.id] = d.epoch
		}
	}
	s.invalidateDerivedLocked()
	return nil
}

// sameHistory reports whether two views of an append-only history are
// the same prefix of the same backing array.
func sameHistory[T any](a, b []T) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// SetFaults installs (or, with nil, removes) a session fault plan for
// the epochs that follow, replacing whatever plan Open installed. The
// plan is interpreted exactly like SessionOptions.Build.Faults: on the
// session clock and in global node identifiers, shifted into each
// epoch's local clock and index space; correlated failure domains are
// carved over the identifier space the session has used so far. It
// requires a MessageLevel build configuration, as at Open — the
// analytic paths simulate no messages to fault. This is the
// fault-injection entry point of a live service: an operator (or a
// chaos driver) arms the adversary mid-session without reopening it.
func (s *Session) SetFaults(p *FaultPlan) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if p != nil && !s.build.MessageLevel {
		return errors.New("overlay: SetFaults requires a MessageLevel build configuration (the fast path simulates no messages to fault)")
	}
	s.faults = p.expandDomains(s.nextID)
	return nil
}

// depart appends one departure to the log and indexes it.
func (s *Session) depart(id, epoch int) {
	s.departLog = append(s.departLog, departure{id, epoch})
	s.departed[id] = epoch
}

// noteDepartures records everyone who was in the epoch's world — a
// pre-epoch member or a scheduled joiner — and is absent from the
// committed membership: scheduled leavers, rebuild casualties, and
// joiners a faulted rebuild killed before they arrived. Both lists and
// the membership are ascending, so each is one merge against it.
func (s *Session) noteDepartures(epoch int, prevMembers, joins []int) {
	for _, world := range [2][]int{prevMembers, joins} {
		m := 0
		for _, id := range world {
			for m < len(s.members) && s.members[m] < id {
				m++
			}
			if m == len(s.members) || s.members[m] != id {
				s.depart(id, epoch)
			}
		}
	}
}

// copyTree deep-copies a tree.
func copyTree(t *Tree) *Tree {
	return &Tree{
		Root:   t.Root,
		Parent: append([]int(nil), t.Parent...),
		Rank:   append([]int(nil), t.Rank...),
		NodeAt: append([]int(nil), t.NodeAt...),
	}
}
