package main

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"overlay"
	"overlay/internal/rng"
	"overlay/internal/scenario"
	"overlay/internal/sim"
	"overlay/internal/wft"
)

// maintained is what churn_derived drives uniformly.
type maintained interface {
	Sync() overlay.WorkloadBill
	ScratchBill() overlay.WorkloadBill
}

var maintainedNames = []string{"maintained.cc_sync", "maintained.st_sync", "maintained.mis_sync"}

var viewNames = []string{"ring", "chord", "hypercube", "debruijn"}

func readView(sess *overlay.Session, v int) [][2]int {
	switch v {
	case 0:
		return sess.Ring()
	case 1:
		return sess.Chord()
	case 2:
		return sess.Hypercube()
	}
	return sess.DeBruijn()
}

// churnState is one set-up of a churn workload.
type churnState struct {
	sess  *overlay.Session
	plan  *overlay.ChurnPlan
	work  []maintained
	clk   *sim.Clock // mirrors the session clock's per-epoch seeds
	epoch int        // next churn-plan epoch index (warm-up included)
}

// runChurn drives churn_measured and churn_derived: a session over a
// set-up build, 2% joins + 2% leaves per epoch.
func runChurn(r *run) {
	derived := r.cfg.Workload == "churn_derived"
	var st *churnState
	for rep := 0; rep < r.sz.setupReps; rep++ {
		t0 := time.Now()
		var err error
		if st, err = r.churnSetup(derived); err != nil {
			r.violate("set-up: %v", err)
			return
		}
		r.since("setup", t0)
	}

	// A traced run traces every other epoch, and which of a pair of
	// epochs is the traced one alternates: the plain epochs are the base
	// of trace.overhead_share, read pair by pair.
	start := time.Now()
	var pair [2]time.Duration // plain, traced
	for op := 0; op < r.sz.minOps || time.Since(start) < r.budget(); op++ {
		traced := r.cfg.Trace && (op%4 == 0 || op%4 == 3)
		d := r.churnOp(st, op, derived, traced)
		if traced {
			pair[1] = d
		} else {
			pair[0] = d
		}
		if op%2 == 1 {
			if pair[0] > 0 && pair[1] > 0 {
				r.add("ovh.ratio", pair[1].Seconds()/pair[0].Seconds())
			}
			pair = [2]time.Duration{}
		}
	}
	if r.cfg.Trace && !derived {
		r.shadowWorkers1(st)
	}
}

func (r *run) churnSetup(derived bool) (*churnState, error) {
	n := r.sz.n
	res, err := overlay.BuildTree(lineGraph(n), &overlay.Options{Seed: derive(r.cfg.Seed, "setup", 0)})
	if err != nil {
		return nil, err
	}
	for _, v := range scenario.TreeShapeViolations(n, res.Tree) {
		r.violate("set-up build: %s", v)
	}
	sessSeed := derive(r.cfg.Seed, "session", 0)
	st := &churnState{
		clk:  sim.NewClock(sessSeed),
		plan: &overlay.ChurnPlan{Seed: derive(r.cfg.Seed, "churn", 0), Epochs: 1 << 30, JoinFrac: 0.02, LeaveFrac: 0.02},
	}
	acct := overlay.Measured
	if derived {
		acct = overlay.Charged
	}
	t0 := time.Now()
	st.sess, err = overlay.Open(res, &overlay.SessionOptions{
		Accounting: acct,
		Build:      overlay.Options{Seed: sessSeed, MessageLevel: true},
	})
	if err != nil {
		return nil, err
	}
	r.since("session.open", t0)
	if derived {
		wopt := &overlay.MaintainedOptions{Seed: derive(r.cfg.Seed, "contacts", 0)}
		comp, err := overlay.OpenMaintainedComponents(st.sess, wopt)
		if err != nil {
			return nil, err
		}
		tree, err := overlay.OpenMaintainedSpanningTree(st.sess, wopt)
		if err != nil {
			return nil, err
		}
		mis, err := overlay.OpenMaintainedMIS(st.sess, wopt)
		if err != nil {
			return nil, err
		}
		st.work = []maintained{comp, tree, mis}
	}
	for w := 0; w < r.sz.warm; w++ {
		joins, leaves := st.plan.Epoch(st.epoch, st.sess.Members(), st.sess.NextID())
		st.epoch++
		st.clk.NextEpoch()
		if _, err := st.sess.ApplyEpoch(joins, leaves); err != nil {
			return nil, fmt.Errorf("warm-up epoch %d: %w", w, err)
		}
		for _, m := range st.work {
			m.Sync()
		}
	}
	return st, nil
}

// churnOp is one epoch: generate the churn, (traced, measured: shadow-
// replay the repair,) apply it, read what the workload reads, check.
// It returns how long the timed operation took (0 when it failed).
func (r *run) churnOp(st *churnState, op int, derived, traced bool) time.Duration {
	sess := st.sess
	r.attempted++
	tr := r.tr
	phase := "op"
	if traced {
		phase = "op.traced"
	} else {
		tr = nil
	}
	trace := int32(op + 1)
	root := tr.begin(trace, 0, "epoch")
	defer tr.end(root)

	var joins, leaves []int
	t0 := time.Now()
	tr.do(trace, root, "churn.gen", func() {
		joins, leaves = st.plan.Epoch(st.epoch, sess.Members(), sess.NextID())
	})
	r.since("churn.gen", t0)
	st.epoch++
	_, epochSeed := st.clk.NextEpoch()

	var shadow *shadowOut
	if traced && !derived {
		shadow = r.shadowEpoch(st.sess, joins, leaves, epochSeed, 0, trace, root)
	}

	var bill *overlay.EpochBill
	var err error
	var syncs []overlay.WorkloadBill
	edges := 0
	var applied time.Duration
	took := r.timedOp(phase, func() {
		opSpan := root
		if derived {
			// On churn_derived the operation is wider than ApplyEpoch.
			opSpan = tr.begin(trace, root, "epoch.op")
			defer tr.end(opSpan)
		}
		t0 := time.Now()
		tr.do(trace, opSpan, "session.apply", func() { bill, err = sess.ApplyEpoch(joins, leaves) })
		applied = time.Since(t0)
		if err != nil || !derived {
			return
		}
		for i, m := range st.work {
			tr.do(trace, opSpan, maintainedNames[i], func() { syncs = append(syncs, m.Sync()) })
		}
		for v, name := range viewNames {
			tr.do(trace, opSpan, "derived.first_read_"+name, func() { edges += len(readView(sess, v)) })
		}
	})
	if err != nil {
		r.violate("epoch %d: %v", op, err)
		return 0
	}
	r.add("session.apply", applied.Seconds())
	r.add("epoch.msgs_per_s", float64(bill.Messages)/applied.Seconds())

	// Everything below is outside the timed operation.
	if derived {
		r.add("derived.edges", float64(edges))
		t0 := time.Now()
		reads := 0
		for i := 1; i < r.sz.sweeps; i++ {
			for v := range viewNames {
				edges += len(readView(sess, v))
				reads++
			}
		}
		if reads > 0 {
			r.add("derived.cached_read", time.Since(t0).Seconds()/float64(reads))
		}
		if edges == 0 {
			r.violate("epoch %d served empty derived views", op)
		}
		if bill.Path != "patch/charged" {
			r.violate("epoch %d took path %q on churn_derived, want patch/charged (no engine)", op, bill.Path)
		}
		affected := 0
		for i, b := range syncs {
			affected += b.Affected
			r.inc("maintained.syncs", 1)
			if b.Incremental {
				r.inc("maintained.incremental", 1)
			}
			if !bill.Rebuilt && bill.Joined+bill.Left > 0 {
				sb := st.work[i].ScratchBill()
				if !b.Incremental || b.Rounds >= sb.Rounds || b.Messages >= sb.Messages {
					r.violate("epoch %d: %s (%d rounds, %d msgs, incremental=%v) is not strictly cheaper than from scratch (%d rounds, %d msgs)",
						op, maintainedNames[i], b.Rounds, b.Messages, b.Incremental, sb.Rounds, sb.Messages)
				}
			}
		}
		r.add("maintained.affected", float64(affected))
	}
	if st.epoch%25 == 0 {
		t0 := time.Now()
		sess.Checkpoint()
		r.since("session.checkpoint", t0)
	}
	if r.cfg.Trace || op%r.sz.checkEvery == 0 {
		for _, v := range scenario.CheckEpoch(sess, bill, nil) {
			r.violate("epoch %d: %s", op, v)
		}
		if derived {
			for _, v := range scenario.CheckDerived(sess, bill) {
				r.violate("epoch %d: %s", op, v)
			}
		}
	}
	r.inc("session.epochs", 1)
	r.inc("session.attempts", float64(bill.Attempts))
	r.inc("session.patch_retries", float64(patchRetries(bill.AttemptBills)))
	if bill.Rebuilt {
		r.inc("session.rebuilds", 1)
	}

	tree := sess.Tree()
	if shadow != nil {
		if shadow.rounds != bill.Rounds || shadow.msgs != bill.Messages {
			r.violate("epoch %d: shadow replay billed %d rounds / %d msgs, the session %d / %d", op, shadow.rounds, shadow.msgs, bill.Rounds, bill.Messages)
		}
		if !sameTree(shadow.tree, tree) {
			r.violate("epoch %d: shadow replay and session disagree on the repaired tree", op)
		}
		r.add("session.self", applied.Seconds()-shadow.wft.Seconds())
		r.add("session.residual_share", (applied-shadow.total).Seconds()/applied.Seconds())
	}

	p := newPrint()
	p.ints(bill.Epoch, bill.Rounds, bill.MaxMessagesPerRound, bill.Attempts, bill.Members)
	p.u64(uint64(bill.Messages), uint64(bill.MaxMessagesTotal), uint64(bill.FaultDrops), uint64(bill.FaultDelays), uint64(bill.CapacityDrops))
	p.str(bill.Path)
	p.tree(tree)
	r.fold(op, p.h, map[string]int64{"rounds": int64(bill.Rounds), "msgs": bill.Messages, "attempts": int64(bill.Attempts),
		"fault_drops": bill.FaultDrops, "fault_delays": bill.FaultDelays, "capacity_drops": bill.CapacityDrops})

	r.sessionLookups(sess, tr, trace, root, derive(r.cfg.Seed, "lookups", op))
	return took
}

// patchRetries counts the patch rungs an epoch ran beyond its first.
func patchRetries(attempts []overlay.Bill) int {
	n := 0
	for _, a := range attempts {
		if strings.HasPrefix(a.Path, "patch/measured") {
			n++
		}
	}
	return max(n-1, 0)
}

// sessionLookups times a batch of direct RouteLookup calls between
// current members and checks every path.
func (r *run) sessionLookups(sess *overlay.Session, tr *tracer, trace, root int32, seed uint64) {
	members := sess.Members()
	k := len(members)
	if k < 2 {
		return
	}
	src := rng.New(seed)
	pairs := make([][2]int, r.sz.lookups)
	for i := range pairs {
		pairs[i] = [2]int{members[src.Intn(k)], members[src.Intn(k)]}
	}
	paths := make([][]int, len(pairs))
	errs := make([]error, len(pairs))
	t0 := time.Now()
	tr.do(trace, root, "session.lookups", func() {
		for i, p := range pairs {
			paths[i], errs[i] = sess.RouteLookup(p[0], p[1])
		}
	})
	r.add("lookup", time.Since(t0).Seconds()/float64(len(pairs)))
	for i, p := range pairs {
		if errs[i] != nil {
			r.attempted++
			r.violate("lookup %d→%d between members: %v", p[0], p[1], errs[i])
			continue
		}
		r.checkPath(paths[i], p[0], p[1], k)
	}
}

func sameTree(a, b *overlay.Tree) bool {
	if a == nil || b == nil || a.Root != b.Root || len(a.Parent) != len(b.Parent) {
		return false
	}
	for i := range a.Parent {
		if a.Parent[i] != b.Parent[i] || a.Rank[i] != b.Rank[i] || a.NodeAt[i] != b.NodeAt[i] {
			return false
		}
	}
	return true
}

// shadowOut is a shadow-replayed epoch: the tree and bill the session
// must arrive at, and how long the wft layer (and all replayed parts)
// took.
type shadowOut struct {
	tree   *overlay.Tree
	rounds int
	msgs   int64
	wft    time.Duration // repair plan + engine new + run + extract
	total  time.Duration // wft plus the replayed partition, relabel and checkpoint
}

// shadowEpoch replays what Session.ApplyEpoch will do for a measured
// fault-free patch epoch — partition, wft.Repair and SweepParents, the
// entry draws, wft.NewRepairEngine, Run, wft.ExtractRepair, relabel —
// from the session's public state before the epoch is applied, one span
// per layer call. seed is the epoch's seed, from a sim.Clock seeded like
// the session's.
func (r *run) shadowEpoch(sess *overlay.Session, joins, leaves []int, seed uint64, workers int, trace, root int32) *shadowOut {
	tr := r.tr
	record := workers == 0
	if !record {
		tr = nil
	}
	members, cur := sess.Members(), sess.Tree()
	joins, leaves = append([]int(nil), joins...), append([]int(nil), leaves...)
	sort.Ints(joins)
	sort.Ints(leaves)

	out := &shadowOut{}
	span := tr.begin(trace, root, "shadow")
	defer tr.end(span)
	timed := func(name string, into *time.Duration, fn func()) {
		t0 := time.Now()
		tr.do(trace, span, name, fn)
		d := time.Since(t0)
		out.total += d
		if into != nil {
			*into += d
		}
	}

	// What ApplyEpoch does around the repair: the pre-epoch checkpoint
	// and the membership partition.
	timed("shadow.checkpoint", nil, func() { sess.Checkpoint() })
	var dead []bool
	var newOf []int
	s0 := 0
	timed("shadow.partition", nil, func() { dead, s0, _, newOf = partition(members, joins, leaves) })
	j := len(joins)

	old := &wft.Tree{Root: cur.Root, Rank: cur.Rank, NodeAt: cur.NodeAt, Parent: cur.Parent}
	var deadMask []bool
	if len(leaves) > 0 {
		deadMask = dead
	}
	var rt *wft.Tree
	var err error
	spec := &wft.RepairSpec{Survivors: s0, Joiners: j, OldDepth: old.Depth()}
	timed("wft.repair_plan", &out.wft, func() {
		if rt, err = wft.Repair(old, deadMask, j); err != nil {
			return
		}
		spec.NewRank = rt.Rank
		if deadMask != nil {
			spec.SweepParent = wft.SweepParents(old, deadMask)
		}
	})
	if err != nil {
		r.violate("shadow repair: %v", err)
		return nil
	}
	if j > 0 {
		entry := rng.New(seed).Split(0xa77a)
		spec.Entry = make([]int, j)
		for i := range spec.Entry {
			spec.Entry[i] = rt.NodeAt[entry.Intn(s0)]
		}
	}
	rtimer := &roundTimer{}
	cfg := sim.Config{Seed: seed, Workers: workers, Interrupt: rtimer.poll}
	var eng *sim.Engine
	var protos []*wft.RepairNode
	budget := 0
	timed("wft.repair_engine_new", &out.wft, func() { eng, protos, budget, err = wft.NewRepairEngine(spec, cfg) })
	if err != nil {
		r.violate("shadow repair engine: %v", err)
		return nil
	}
	t0 := time.Now()
	timed("wft.repair_run", &out.wft, func() { eng.Run(budget) })
	ran, end := time.Since(t0), time.Now()
	m := eng.Metrics()
	if !record {
		r.inc("sim.w1_run_s", ran.Seconds())
		r.inc("sim.w1_msgs", float64(m.TotalMessages))
		return nil
	}
	var mt *wft.Tree
	timed("wft.repair_extract", &out.wft, func() { mt, err = wft.ExtractRepair(spec, protos) })
	if err != nil {
		r.violate("shadow repair left a node behind fault-free: %v", err)
		return nil
	}
	timed("shadow.relabel", nil, func() { out.tree = relabel(mt, newOf) })

	rtimer.flush(r, end)
	out.rounds, out.msgs = eng.Round(), m.TotalMessages
	r.inc("sim.run_s", ran.Seconds())
	r.inc("sim.msgs", float64(m.TotalMessages))
	r.inc("sim.engines_built", 1)
	r.inc("sim.capacity_drops", float64(m.RecvDrops))
	r.add("wft.repair_rounds", float64(out.rounds))
	r.add("wft.repair_msgs", float64(out.msgs))
	return out
}

// shadowWorkers1 replays the next epoch's repair once at Workers: 1
// (without applying it): the ratio to the default run is the engine's
// measured parallel speed-up on repair-sized runs.
func (r *run) shadowWorkers1(st *churnState) {
	joins, leaves := st.plan.Epoch(st.epoch, st.sess.Members(), st.sess.NextID())
	next := st.clk.Snapshot()
	_, seed := next.NextEpoch()
	r.shadowEpoch(st.sess, joins, leaves, seed, 1, 0, 0)
}

// partition splits the membership against the sorted leave list, as
// Session.epochPartition does: the dead mask in member-local space, the
// survivor count, the merged ascending new membership, and the map
// from repair-index space (survivors, then joiners) into it.
func partition(members, joins, leaves []int) (dead []bool, s0 int, newMembers, newOf []int) {
	dead = make([]bool, len(members))
	for _, id := range leaves {
		dead[sort.SearchInts(members, id)] = true
	}
	survivors := make([]int, 0, len(members)-len(leaves))
	for li, id := range members {
		if !dead[li] {
			survivors = append(survivors, id)
		}
	}
	s0 = len(survivors)
	j := len(joins)
	newMembers = make([]int, 0, s0+j)
	newOf = make([]int, s0+j)
	for i, jj := 0, 0; i < s0 || jj < j; {
		if jj >= j || (i < s0 && survivors[i] < joins[jj]) {
			newOf[i] = len(newMembers)
			newMembers = append(newMembers, survivors[i])
			i++
		} else {
			newOf[s0+jj] = len(newMembers)
			newMembers = append(newMembers, joins[jj])
			jj++
		}
	}
	return dead, s0, newMembers, newOf
}

// relabel maps a repaired tree from repair-index space into the
// ascending-member index space.
func relabel(rt *wft.Tree, newOf []int) *overlay.Tree {
	k := len(newOf)
	nt := &overlay.Tree{Rank: make([]int, k), NodeAt: make([]int, k), Parent: make([]int, k)}
	for ri := 0; ri < k; ri++ {
		nl := newOf[ri]
		nt.Rank[nl] = rt.Rank[ri]
		nt.NodeAt[rt.Rank[ri]] = nl
		nt.Parent[nl] = newOf[rt.Parent[ri]]
	}
	nt.Root = newOf[rt.Root]
	return nt
}
