package overlay

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

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
	// When every rung fails, ApplyEpoch publishes nothing and returns
	// the aborted bill alongside a reasoned error — the session keeps
	// serving lookups from the last committed state.
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
	// Aborted reports that every ladder rung failed: the session stays
	// at its pre-epoch state and AbortReason joins the per-rung defeat
	// reasons. ApplyEpoch returns the aborted bill
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
// Concurrency contract: a Session is single-writer, multi-reader, and
// its readers never block on a writer. The committed state is one
// immutable *Checkpoint behind an atomic pointer: every read-side method
// is s.Checkpoint().X(), a pointer load, callable from any number of
// goroutines concurrently with each other and with one in-flight
// mutation (ApplyEpoch, ApplyEpochCtx, Restore, SetFaults) — even from
// inside one. A mutation computes its successor state on the side and
// publishes it with a single store, so readers observe either the
// pre-epoch or the committed post-epoch state, never a partial repair,
// and an epoch that errors, aborts or panics has published nothing.
// Mutations themselves must not overlap; mu serializes them so misuse
// degrades to queueing, never to a data race.
type Session struct {
	// mu is the writer lock: mutating methods hold it for their full
	// duration. Readers never touch it.
	mu sync.Mutex
	// state is the committed state. Open, Restore and an epoch's commit
	// are the only stores.
	state atomic.Pointer[Checkpoint]

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

	// departed is the id → epoch index over the committed state's
	// departure log (an identifier that left twice keeps the later
	// epoch): the one piece of state too large to copy per epoch.
	// departedMu makes an index update and the store of the state it
	// describes one step, so whoever holds it sees the index of exactly
	// state.Load(). It is held for a commit's inserts, a Restore's swap
	// and a lookup's not-a-member error path, never across a rung.
	departedMu sync.Mutex
	departed   map[int]int
}

// departure is one entry of a session's departure log.
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
	if !inUnit(opt.RebuildFraction) {
		return nil, fmt.Errorf("overlay: SessionOptions.RebuildFraction %v outside [0,1]", opt.RebuildFraction)
	}
	if opt.Build.Faults != nil {
		if !opt.Build.MessageLevel {
			return nil, errors.New("overlay: SessionOptions.Build.Faults requires MessageLevel (the fast path simulates no messages to fault)")
		}
		if err := opt.Build.Faults.validateRates(); err != nil {
			return nil, err
		}
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
		departed:       map[int]int{},
	}
	clock := sim.NewClock(opt.Build.Seed)
	clock.Advance(res.Stats.Rounds)
	founding := &Checkpoint{owner: s, members: members, tree: copyTree(res.Tree), clock: *clock, nextID: nextID}
	// Founders the faulted build killed are departed from the start.
	for id := 0; id < nextID; id++ {
		if _, ok := indexIn(members, id); !ok {
			founding.departLog = append(founding.departLog, departure{id, -1})
			s.departed[id] = -1
		}
	}
	s.state.Store(founding)
	return s, nil
}

// Checkpoint returns the session's committed state: a consistent read
// view and the token Restore takes. It is a pointer load — two calls
// with no commit between them return the same *Checkpoint.
func (s *Session) Checkpoint() *Checkpoint { return s.state.Load() }

// Members returns the current population, ascending. The slice is a
// copy.
func (s *Session) Members() []int { return s.Checkpoint().Members() }

// Tree returns the current well-formed tree; see Checkpoint.Tree.
func (s *Session) Tree() *Tree { return s.Checkpoint().Tree() }

// Epoch returns the number of epochs applied so far.
func (s *Session) Epoch() int { return s.Checkpoint().Epoch() }

// ClockRound returns the session's global round count: the initial
// build plus every epoch repair so far.
func (s *Session) ClockRound() int { return s.Checkpoint().ClockRound() }

// NextID returns the smallest global identifier never yet used by this
// session — the conventional identifier source for joiners (past
// identifiers are never reused, so a rejoining peer is a new node).
func (s *Session) NextID() int { return s.Checkpoint().NextID() }

// Bills returns the per-epoch accounting, one entry per applied
// epoch. The slice is a copy.
func (s *Session) Bills() []EpochBill { return s.Checkpoint().Bills() }

// Ring, Chord, Hypercube and DeBruijn return the committed state's
// Section 1.4 derived views; see the Checkpoint methods.
func (s *Session) Ring() [][2]int      { return s.Checkpoint().Ring() }
func (s *Session) Chord() [][2]int     { return s.Checkpoint().Chord() }
func (s *Session) Hypercube() [][2]int { return s.Checkpoint().Hypercube() }
func (s *Session) DeBruijn() [][2]int  { return s.Checkpoint().DeBruijn() }

// RouteLookup routes between two current members; see
// Checkpoint.RouteLookup.
func (s *Session) RouteLookup(from, to int) ([]int, error) {
	return s.Checkpoint().RouteLookup(from, to)
}

// Checkpoint is one committed state of a session: membership, the
// well-formed tree (topology, ranks, and thereby the Chord fingers),
// the per-epoch bills, the departure record, and the session clock. It
// is immutable, which makes it two things at once: a consistent read
// view — everything read from one Checkpoint belongs to one epoch,
// however many epochs commit meanwhile — and the restore token.
// Taking one is a pointer load however long the session has run:
// epochs build the member list and the tree afresh and only ever
// append to the two histories, so successive states share what did not
// change. Slices and trees a Checkpoint hands out uncopied (Tree, the
// derived views) are shared by every reader of that state — treat them
// as read-only. A checkpoint is reusable, and any number of them can
// be restored in any order.
type Checkpoint struct {
	owner *Session
	// members lists the population as strictly ascending global
	// identifiers; tree is the well-formed tree in member-local index
	// space (tree node v is global node members[v]).
	members []int
	tree    *Tree
	clock   sim.Clock
	nextID  int
	// bills and departLog are the histories up to this state: every
	// applied epoch's bill, and every identifier that was once part of
	// the session's world and is gone, with the epoch it left or crashed
	// in (-1 for founders who died during the initial build). A commit
	// appends through the committed tip's spare capacity, beyond what the
	// tip itself reads.
	bills     []EpochBill
	departLog []departure
	// The derived views, each computed by the first reader that asks:
	// they belong to this state, so there is nothing to invalidate.
	ring, chord, hypercube, debruijn derivedView
}

// derivedView is one lazily computed derived overlay of a Checkpoint.
type derivedView struct {
	once  sync.Once
	edges [][2]int
}

// Members returns the population, ascending. The slice is a copy.
func (c *Checkpoint) Members() []int { return append([]int(nil), c.members...) }

// Tree returns the well-formed tree in member-local index space: tree
// node v is global node Members()[v]. Callers must not mutate it.
func (c *Checkpoint) Tree() *Tree { return c.tree }

// Epoch returns the number of epochs applied up to this state.
func (c *Checkpoint) Epoch() int { return c.clock.Epoch() }

// ClockRound returns the global round count: the initial build plus
// every epoch repair up to this state.
func (c *Checkpoint) ClockRound() int { return c.clock.Round() }

// NextID returns the smallest global identifier never yet used.
func (c *Checkpoint) NextID() int { return c.nextID }

// Bills returns the per-epoch accounting, one entry per applied
// epoch. The slice is a copy.
func (c *Checkpoint) Bills() []EpochBill { return append([]EpochBill(nil), c.bills...) }

// Chord returns the finger-ring edges as global identifier pairs — the
// routing substrate RouteLookup greedily descends and the knowledge
// graph an epoch rebuild starts from. Like the other derived views it
// is computed once per state: the first read writes the k·⌈log₂ k⌉ or
// so edges straight from the ranks, every further read returns the same
// slice. Callers must not mutate it.
func (c *Checkpoint) Chord() [][2]int { return c.view(&c.chord, overlays.ChordEdges) }

// Ring returns the rank ring (rank r ↔ r+1 mod k) as global identifier
// pairs. Callers must not mutate the returned slice.
func (c *Checkpoint) Ring() [][2]int { return c.view(&c.ring, overlays.RingEdges) }

// Hypercube returns the (possibly incomplete) hypercube over ranks as
// global identifier pairs. Callers must not mutate the returned slice.
func (c *Checkpoint) Hypercube() [][2]int { return c.view(&c.hypercube, overlays.HypercubeEdges) }

// DeBruijn returns the binary De Bruijn overlay over ranks as global
// identifier pairs. Callers must not mutate the returned slice.
func (c *Checkpoint) DeBruijn() [][2]int { return c.view(&c.debruijn, overlays.DeBruijnEdges) }

// view serves one Section 1.4 derived overlay: the first call writes
// it from the tree's rank arithmetic in global identifiers, concurrent
// first calls wait for that one computation.
func (c *Checkpoint) view(v *derivedView, gen func(nodeAt, members []int) [][2]int) [][2]int {
	v.once.Do(func() { v.edges = gen(c.tree.NodeAt, c.members) })
	return v.edges
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
// members of this state as a global-identifier sequence of length
// O(log n). A non-member endpoint yields a reasoned error: a
// *DepartedError (naming the epoch the node left or crashed in, or the
// initial build) when the identifier was once part of the session, and
// a *NotMemberError when it never was.
func (c *Checkpoint) RouteLookup(from, to int) ([]int, error) {
	fi, ok1 := indexIn(c.members, from)
	ti, ok2 := indexIn(c.members, to)
	if !ok1 {
		return nil, c.lookupErr(from)
	}
	if !ok2 {
		return nil, c.lookupErr(to)
	}
	ranks := overlays.RouteChord(len(c.members), c.tree.Rank[fi], c.tree.Rank[ti])
	path := make([]int, len(ranks))
	for i, r := range ranks {
		path[i] = c.members[c.tree.NodeAt[r]]
	}
	return path, nil
}

// lookupErr explains why a non-member identifier cannot be routed to,
// as of this state: from the session's departed index while this is
// still the committed state, from its own departure log (newest entry
// first) once a later commit or a Restore has moved the index on.
func (c *Checkpoint) lookupErr(id int) error {
	s := c.owner
	s.departedMu.Lock()
	current := s.state.Load() == c
	epoch, gone := s.departed[id]
	s.departedMu.Unlock()
	if !current {
		gone = false
		for i := len(c.departLog) - 1; i >= 0 && !gone; i-- {
			if d := c.departLog[i]; d.id == id {
				epoch, gone = d.epoch, true
			}
		}
	}
	if gone {
		return &DepartedError{Node: id, Epoch: epoch}
	}
	return &NotMemberError{Node: id}
}

// indexIn locates id in an ascending identifier list.
func indexIn(ids []int, id int) (int, bool) {
	k := sort.SearchInts(ids, id)
	return k, k < len(ids) && ids[k] == id
}

// Restore rolls the session back to a checkpoint previously taken
// from it. Restoring a foreign (or nil) checkpoint is an error and
// leaves the session untouched. After a restore the session serves
// lookups, bills, and epochs exactly as it did when the checkpoint
// was taken — bit for bit.
func (s *Session) Restore(cp *Checkpoint) error {
	if cp == nil || cp.owner != s {
		return errors.New("overlay: Restore needs a checkpoint taken from this session")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// cp may be an interior state whose histories later commits appended
	// through: the restored tip is a copy with both capped at their
	// length, so the next commit's append reallocates instead of
	// overwriting entries those later checkpoints still read.
	nb, nd := len(cp.bills), len(cp.departLog)
	tip := &Checkpoint{
		owner: s, members: cp.members, tree: cp.tree, clock: cp.clock, nextID: cp.nextID,
		bills: cp.bills[:nb:nb], departLog: cp.departLog[:nd:nd],
	}
	departed := make(map[int]int, nd)
	for _, d := range cp.departLog {
		departed[d.id] = d.epoch
	}
	s.departedMu.Lock()
	s.departed = departed
	s.state.Store(tip)
	s.departedMu.Unlock()
	return nil
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
// A plan with a probability or fraction outside [0,1] (NaN among them)
// or a DelayMax above 2^31-1 rounds is refused, as at Open.
func (s *Session) SetFaults(p *FaultPlan) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if p != nil {
		if !s.build.MessageLevel {
			return errors.New("overlay: SetFaults requires a MessageLevel build configuration (the fast path simulates no messages to fault)")
		}
		if err := p.validateRates(); err != nil {
			return err
		}
	}
	s.faults = p.expandDomains(s.Checkpoint().nextID)
	return nil
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
