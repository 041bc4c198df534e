package wft

import (
	"reflect"
	"strings"
	"testing"

	"overlay/internal/overlays"
	"overlay/internal/rng"
	"overlay/internal/sim"
)

// permTree builds a valid heap tree over n nodes whose ranks are a
// seed-determined permutation, so repair tests exercise non-identity
// node/rank mappings.
func permTree(t *testing.T, n int, seed uint64) *Tree {
	t.Helper()
	src := rng.New(seed)
	rank := make([]int, n)
	for i := range rank {
		rank[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := src.Intn(i + 1)
		rank[i], rank[j] = rank[j], rank[i]
	}
	tr := &Tree{Rank: rank, NodeAt: make([]int, n), Parent: make([]int, n)}
	for v, r := range rank {
		tr.NodeAt[r] = v
	}
	for v, r := range rank {
		if r == 0 {
			tr.Root = v
			tr.Parent[v] = v
			continue
		}
		tr.Parent[v] = tr.NodeAt[(r-1)/2]
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("permTree invalid: %v", err)
	}
	return tr
}

// repairCase assembles the spec for a (dead mask, joiners) repair the
// same way the session does and returns it with the analytic oracle.
func repairCase(t *testing.T, old *Tree, dead []bool, joiners int, seed uint64) (*RepairSpec, *Tree) {
	t.Helper()
	want, err := Repair(old, dead, joiners)
	if err != nil {
		t.Fatalf("Repair: %v", err)
	}
	s := want.N() - joiners
	spec := &RepairSpec{
		Survivors: s,
		Joiners:   joiners,
		OldDepth:  old.Depth(),
		NewRank:   want.Rank,
	}
	anyDead := false
	for _, d := range dead {
		anyDead = anyDead || d
	}
	if anyDead {
		spec.SweepParent = SweepParents(old, dead)
	}
	if joiners > 0 {
		src := rng.New(seed)
		spec.Entry = make([]int, joiners)
		for i := range spec.Entry {
			spec.Entry[i] = want.NodeAt[src.Intn(s)]
		}
	}
	return spec, want
}

// runRepair executes a spec on the engine and returns the extracted
// tree plus the engine for metric inspection.
func runRepair(t *testing.T, spec *RepairSpec, cfg sim.Config) (*Tree, *sim.Engine, error) {
	t.Helper()
	eng, protos, budget, err := NewRepairEngine(spec, cfg)
	if err != nil {
		t.Fatalf("NewRepairEngine: %v", err)
	}
	eng.Run(budget)
	got, err := ExtractRepair(spec, protos)
	return got, eng, err
}

// TestRepairProtocolMatchesOracle pins the tentpole contract: the
// zero-fault message-level repair reproduces the analytic Repair
// bit for bit, at the exact scheduled round count, for leaves-only,
// joins-only, mixed, and near-total-loss churn.
func TestRepairProtocolMatchesOracle(t *testing.T) {
	cases := []struct {
		name     string
		n        int
		deadFrac float64
		joiners  int
	}{
		{"leaves-only", 200, 0.15, 0},
		{"joins-only", 150, 0, 25},
		{"mixed", 256, 0.1, 30},
		{"single-survivor", 8, 0.99, 3},
		{"tiny", 2, 0.4, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			old := permTree(t, tc.n, 0x5eed+uint64(tc.n))
			src := rng.New(0xdead + uint64(tc.n))
			var dead []bool
			anyDead := false
			if tc.deadFrac > 0 {
				dead = make([]bool, tc.n)
				alive := tc.n
				for v := range dead {
					if alive > 1 && src.Float64() < tc.deadFrac {
						dead[v] = true
						alive--
						anyDead = true
					}
				}
			}
			spec, want := repairCase(t, old, dead, tc.joiners, 0xa77a)
			got, eng, err := runRepair(t, spec, sim.Config{Seed: 0x9})
			if err != nil {
				t.Fatalf("ExtractRepair: %v", err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("measured repair diverged from oracle:\ngot  %+v\nwant %+v", got, want)
			}

			// The schedule is exact under zero faults.
			k := spec.Survivors + spec.Joiners
			sweep := 0
			if anyDead {
				sweep = 2 * (spec.OldDepth + 1)
			}
			join := 0
			if tc.joiners > 0 {
				maxHops := 0
				for x, e := range spec.Entry {
					tgt := (spec.NewRank[spec.Survivors+x] - 1) / 2
					if h := greedyHops(k, spec.NewRank[e], tgt); h > maxHops {
						maxHops = h
					}
				}
				join = maxHops + 2
			}
			d1 := 0
			for 1<<(d1+1) <= k {
				d1++
			}
			wantRounds := sweep + join + d1
			if wantRounds < 1 {
				wantRounds = 1
			}
			if eng.Round() != wantRounds {
				t.Errorf("rounds = %d, want scheduled %d", eng.Round(), wantRounds)
			}

			// Messages stay within the charged envelope: the sweep costs
			// 2(s-1), attachment at most hops+2 per joiner, the commit
			// broadcast k-1.
			charged := int64(k - 1)
			if anyDead {
				charged += int64(2 * (spec.Survivors - 1))
			}
			for x, e := range spec.Entry {
				tgt := (spec.NewRank[spec.Survivors+x] - 1) / 2
				charged += int64(greedyHops(k, spec.NewRank[e], tgt)) + 2
			}
			if m := eng.Metrics().TotalMessages; m > charged {
				t.Errorf("measured %d messages > charged envelope %d", m, charged)
			}
		})
	}
}

// TestRepairDeterministicAcrossWorkers pins bit-identical repair
// output and metrics across the single-goroutine engine (workers 1)
// and forced worker counts.
func TestRepairDeterministicAcrossWorkers(t *testing.T) {
	old := permTree(t, 300, 0x7a11)
	dead := make([]bool, 300)
	src := rng.New(0x40)
	for v := range dead {
		dead[v] = src.Float64() < 0.12
	}
	dead[old.Root] = true
	spec, _ := repairCase(t, old, dead, 40, 0xa77a)

	type outcome struct {
		tree   *Tree
		rounds int
		msgs   int64
	}
	run := func(cfg sim.Config) outcome {
		cfg.Seed = 0x77
		got, eng, err := runRepair(t, spec, cfg)
		if err != nil {
			t.Fatalf("ExtractRepair: %v", err)
		}
		return outcome{got, eng.Round(), eng.Metrics().TotalMessages}
	}
	ref := run(sim.Config{Workers: 1})
	for w := 2; w <= 16; w++ {
		o := run(sim.Config{Workers: w})
		if !reflect.DeepEqual(o, ref) {
			t.Fatalf("workers=%d diverged: %+v vs %+v", w, o, ref)
		}
	}
}

// TestRepairUnderFaults drives the repair through the fault plane:
// delays stretch measured rounds without changing the result, drops
// abort extraction with an actionable error, and a crash-stop on a
// sweep node leaves a survivor uncommitted.
func TestRepairUnderFaults(t *testing.T) {
	old := permTree(t, 220, 0xbee)
	dead := make([]bool, 220)
	src := rng.New(0x41)
	for v := range dead {
		dead[v] = src.Float64() < 0.1
	}
	spec, want := repairCase(t, old, dead, 24, 0xa77a)
	base, bEng, err := runRepair(t, spec, sim.Config{Seed: 0x5})
	if err != nil {
		t.Fatalf("fault-free repair: %v", err)
	}

	t.Run("delay", func(t *testing.T) {
		adv := &sim.Adversary{Seed: 0xd, DelayProb: 0.2, DelayMax: 3}
		got, eng, err := runRepair(t, spec, sim.Config{Seed: 0x5, Adversary: adv})
		if err != nil {
			t.Fatalf("delayed repair aborted: %v", err)
		}
		if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(got, base) {
			t.Error("delays changed the repaired topology")
		}
		if eng.Round() <= bEng.Round() {
			t.Errorf("delayed rounds %d not above fault-free %d", eng.Round(), bEng.Round())
		}
		if eng.Metrics().FaultDelays == 0 {
			t.Error("no delays recorded")
		}
	})

	t.Run("drop-aborts", func(t *testing.T) {
		adv := &sim.Adversary{Seed: 0xd, DropProb: 0.5}
		_, eng, err := runRepair(t, spec, sim.Config{Seed: 0x5, Adversary: adv})
		if err == nil {
			t.Fatal("heavy drops did not abort extraction")
		}
		if !strings.Contains(err.Error(), "never") {
			t.Errorf("abort error %q does not name the failure", err)
		}
		if eng.Metrics().FaultDrops == 0 {
			t.Error("no drops recorded")
		}
	})

	t.Run("crash-aborts", func(t *testing.T) {
		adv := &sim.Adversary{Crashes: []sim.Crash{{Node: 0, Round: 1}}}
		_, _, err := runRepair(t, spec, sim.Config{Seed: 0x5, Adversary: adv})
		if err == nil {
			t.Fatal("crash-stop mid-repair did not abort extraction")
		}
	})
}

// alwaysActive schedules a repair node the way every node was scheduled
// before the protocol became event-driven: awake in every round up to
// the halt round, whether or not it has anything to do. It is the
// reference TestRepairSchedulingEquivalence holds the idle-halting node
// to.
type alwaysActive struct {
	*RepairNode
	haltAt int
	done   bool
}

func (a *alwaysActive) Round(ctx *sim.Ctx, inbox []sim.Wire) {
	a.RepairNode.Round(ctx, inbox)
	a.done = ctx.Round() >= a.haltAt
}

func (a *alwaysActive) Halted() bool { return a.done }

// TestRepairSchedulingEquivalence pins that letting nodes sleep between
// their scheduled emissions changes nothing an epoch bills or commits:
// against the always-active reference (no quiescence floor, as the
// engine ran it) the idle-halting node takes the same rounds, moves the
// same messages node by node and round by round, meets the same faults
// and extracts the same tree — or fails to, with the same reason —
// under every adversary kind and at every execution mode.
func TestRepairSchedulingEquivalence(t *testing.T) {
	old := permTree(t, 260, 0x51ee9)
	dead := make([]bool, 260)
	src := rng.New(0x42)
	for v := range dead {
		dead[v] = src.Float64() < 0.1
	}
	dead[old.Root] = true
	spec, _ := repairCase(t, old, dead, 30, 0xa77a)
	rank0 := 0
	for i, r := range spec.NewRank {
		if r == 0 {
			rank0 = i
		}
	}
	everyone := make([]sim.Crash, spec.Survivors+spec.Joiners)
	for i := range everyone {
		everyone[i] = sim.Crash{Node: i, Round: 2 + i%3}
	}
	side := make([]int, 0, 100)
	for i := 0; i < 100; i++ {
		side = append(side, 2*i)
	}
	adversaries := []struct {
		name string
		adv  *sim.Adversary
	}{
		{"zero-faults", nil},
		{"delay", &sim.Adversary{Seed: 0xd, DelayProb: 0.2, DelayMax: 3}},
		{"drop", &sim.Adversary{Seed: 0xe, DropProb: 0.05}},
		{"partition", &sim.Adversary{Partitions: []sim.Partition{{From: 3, Until: 9, Side: side}}}},
		{"crash-rank0", &sim.Adversary{Crashes: []sim.Crash{{Node: rank0, Round: 4}}}},
		{"crash-everyone", &sim.Adversary{Crashes: everyone}},
	}
	var modes []sim.Config
	for w := 1; w <= 16; w++ {
		modes = append(modes, sim.Config{Workers: w})
	}

	type outcome struct {
		rounds  int
		metrics sim.Metrics
		tree    *Tree
		failure string
	}
	run := func(cfg sim.Config, reference bool) outcome {
		wrap := func(p *RepairNode, _ int) sim.Node { return p }
		if reference {
			wrap = func(p *RepairNode, haltAt int) sim.Node { return &alwaysActive{RepairNode: p, haltAt: haltAt} }
		}
		eng, protos, budget, err := newRepairEngine(spec, cfg, wrap)
		if err != nil {
			t.Fatalf("newRepairEngine: %v", err)
		}
		if reference {
			eng.SetFloor(0)
		}
		eng.Run(budget)
		o := outcome{rounds: eng.Round(), metrics: *eng.Metrics()}
		if o.tree, err = ExtractRepair(spec, protos); err != nil {
			o.failure = err.Error()
		}
		return o
	}
	for _, a := range adversaries {
		t.Run(a.name, func(t *testing.T) {
			for _, cfg := range modes {
				cfg.Seed, cfg.Adversary = 0x5c4ed, a.adv
				want, got := run(cfg, true), run(cfg, false)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("workers=%d: idle-halting run diverged from the always-active reference:\ngot  rounds=%d msgs=%d drops=%d delays=%d failure=%q\nwant rounds=%d msgs=%d drops=%d delays=%d failure=%q",
						cfg.Workers,
						got.rounds, got.metrics.TotalMessages, got.metrics.FaultDrops, got.metrics.FaultDelays, got.failure,
						want.rounds, want.metrics.TotalMessages, want.metrics.FaultDrops, want.metrics.FaultDelays, want.failure)
				}
			}
		})
	}
}

// TestScheduleIsTheSingleSource pins that the value RepairSpec.Schedule
// returns is what the wire protocol runs by: on generated specs of every
// churn shape a zero-fault run ends exactly at the schedule's HaltAt —
// one round short of the charged Rounds, plus the slack — having moved
// no more than the schedule's charged Messages, whatever the execution
// mode. The session formats the same value as its charged bill, so
// charged and measured epochs cannot disagree about a phase budget.
func TestScheduleIsTheSingleSource(t *testing.T) {
	var modes []sim.Config
	for w := 1; w <= 16; w++ {
		modes = append(modes, sim.Config{Workers: w})
	}
	shapes := []struct {
		name               string
		leave, join, rootL bool
	}{
		{"leave-only", true, false, false},
		{"join-only", false, true, false},
		{"both", true, true, false},
		{"root-leaves", true, true, true},
	}
	for _, k := range []int{2, 3, 17, 256, 1000} {
		for _, sh := range shapes {
			old := permTree(t, k, 0x5c4ed+uint64(k))
			var dead []bool
			if sh.leave {
				dead = make([]bool, k)
				src := rng.New(0x1eaf + uint64(k))
				for v := range dead {
					dead[v] = v != old.Root && src.Float64() < 0.1
				}
				// Someone always leaves: the root, or the last rank.
				dead[old.NodeAt[k-1]] = true
				if sh.rootL {
					dead[old.NodeAt[k-1]] = false
					dead[old.Root] = true
				}
			}
			joiners := 0
			if sh.join {
				joiners = 1 + k/16
			}
			spec, want := repairCase(t, old, dead, joiners, 0xa77a+uint64(k))
			for _, slack := range []int{0, 5} {
				spec.BudgetSlack = slack
				sched := spec.Schedule(sh.leave)
				if sched.HaltAt != sched.Rounds()-1+slack {
					t.Fatalf("k=%d %s slack=%d: HaltAt %d, charged rounds %d", k, sh.name, slack, sched.HaltAt, sched.Rounds())
				}
				if (sched.Sweep == Phase{}) == sh.leave || (sched.Join == Phase{}) == sh.join {
					t.Fatalf("k=%d %s: schedule %+v has the wrong phases", k, sh.name, sched)
				}
				for _, cfg := range modes {
					cfg.Seed = 0x9
					got, eng, err := runRepair(t, spec, cfg)
					if err != nil || !reflect.DeepEqual(got, want) {
						t.Fatalf("k=%d %s slack=%d workers=%d: repair diverged from the oracle (err %v)", k, sh.name, slack, cfg.Workers, err)
					}
					if eng.Round() != sched.HaltAt {
						t.Errorf("k=%d %s slack=%d workers=%d: ran %d rounds, schedule halts at %d", k, sh.name, slack, cfg.Workers, eng.Round(), sched.HaltAt)
					}
					if m := eng.Metrics().TotalMessages; m > sched.Messages() {
						t.Errorf("k=%d %s slack=%d workers=%d: moved %d messages, schedule charges %d", k, sh.name, slack, cfg.Workers, m, sched.Messages())
					}
				}
			}
		}
	}
}

// TestGreedyHopsCountsChordRoutes pins the one hop counter the schedule
// charges by to the path form everything else routes with.
func TestGreedyHopsCountsChordRoutes(t *testing.T) {
	for _, k := range []int{1, 2, 3, 17, 256, 1000} {
		src := rng.New(uint64(k))
		for i := 0; i < 200; i++ {
			from, to := src.Intn(k), src.Intn(k)
			if got, want := greedyHops(k, from, to), len(overlays.RouteChord(k, from, to))-1; got != want {
				t.Fatalf("k=%d %d->%d: greedyHops %d, RouteChord takes %d hops", k, from, to, got, want)
			}
		}
	}
}

// TestSweepParentsNilMask: a nil dead mask means nobody died — the
// sweep forest is the old heap itself, exactly what an all-false mask
// yields.
func TestSweepParentsNilMask(t *testing.T) {
	for _, n := range []int{1, 2, 7, 200} {
		old := permTree(t, n, 0xabc+uint64(n))
		got, want := SweepParents(old, nil), SweepParents(old, make([]bool, n))
		if !reflect.DeepEqual(got, want) {
			t.Errorf("n=%d: nil mask gave %v, all-false mask %v", n, got, want)
		}
		for v, p := range got {
			if (v == old.Root) != (p == -1) || (p >= 0 && p != old.Parent[v]) {
				t.Errorf("n=%d: sweep parent of %d is %d, old parent %d, root %d", n, v, p, old.Parent[v], old.Root)
			}
		}
	}
	if got := SweepParents(&Tree{}, nil); len(got) != 0 {
		t.Errorf("empty tree: %v", got)
	}
}

// TestRepairSpecValidation: NewRepairEngine refuses a malformed spec
// with an error naming what is wrong, and never panics on one. The
// "entry equal to k" row sits on the range check's boundary: one off
// there indexes past the table of seen ranks.
func TestRepairSpecValidation(t *testing.T) {
	valid := func() *RepairSpec {
		return &RepairSpec{Survivors: 3, Joiners: 1, OldDepth: 2,
			NewRank: []int{0, 1, 2, 3}, SweepParent: []int{-1, 0, 0}, Entry: []int{0}}
	}
	if _, _, _, err := NewRepairEngine(valid(), sim.Config{Seed: 1}); err != nil {
		t.Fatalf("the valid spec was refused: %v", err)
	}
	for _, c := range []struct {
		name, want string
		edit       func(s *RepairSpec)
	}{
		{"no survivors", "at least one survivor", func(s *RepairSpec) { s.Survivors, s.NewRank = 0, []int{0} }},
		{"negative joiners", "joiners", func(s *RepairSpec) { s.Joiners = -1 }},
		{"short NewRank", "NewRank has 3 entries", func(s *RepairSpec) { s.NewRank = s.NewRank[:3] }},
		{"entry equal to k", "NewRank[3] = 4", func(s *RepairSpec) { s.NewRank[3] = 4 }},
		{"negative entry", "NewRank[2] = -1", func(s *RepairSpec) { s.NewRank[2] = -1 }},
		{"duplicate entry", "NewRank[2] = 1", func(s *RepairSpec) { s.NewRank[2] = 1 }},
		{"short SweepParent", "SweepParent has 2 entries", func(s *RepairSpec) { s.SweepParent = s.SweepParent[:2] }},
	} {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("panicked: %v", p)
				}
			}()
			spec := valid()
			c.edit(spec)
			_, _, _, err := NewRepairEngine(spec, sim.Config{Seed: 1})
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("err %v; want one containing %q", err, c.want)
			}
		})
	}
}
