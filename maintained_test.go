package overlay

import (
	"fmt"
	"hash/fnv"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// openMaintained opens the three workloads over a session with a
// fixed contact seed.
func openMaintained(t *testing.T, sess *Session) (*MaintainedComponents, *MaintainedSpanningTree, *MaintainedMIS) {
	t.Helper()
	opt := &MaintainedOptions{Seed: 99}
	comp, err := OpenMaintainedComponents(sess, opt)
	if err != nil {
		t.Fatal(err)
	}
	st, err := OpenMaintainedSpanningTree(sess, opt)
	if err != nil {
		t.Fatal(err)
	}
	mis, err := OpenMaintainedMIS(sess, opt)
	if err != nil {
		t.Fatal(err)
	}
	return comp, st, mis
}

// labelsOracle recomputes min-identifier component labels by
// union-find over the workload graph.
func labelsOracle(members []int, edges [][2]int) map[int]int {
	parent := map[int]int{}
	for _, id := range members {
		parent[id] = id
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, e := range edges {
		a, b := find(e[0]), find(e[1])
		if a > b {
			a, b = b, a
		}
		if a != b {
			parent[b] = a
		}
	}
	out := map[int]int{}
	for _, id := range members {
		out[id] = find(id)
	}
	return out
}

// forestOracle recomputes the canonical BFS forest from scratch.
func forestOracle(members []int, edges [][2]int) [][2]int {
	adj := map[int][]int{}
	for _, e := range edges {
		adj[e[0]] = append(adj[e[0]], e[1])
		adj[e[1]] = append(adj[e[1]], e[0])
	}
	for id := range adj {
		sort.Ints(adj[id])
	}
	seen := map[int]bool{}
	var out [][2]int
	for _, root := range members {
		if seen[root] {
			continue
		}
		seen[root] = true
		queue := []int{root}
		for h := 0; h < len(queue); h++ {
			u := queue[h]
			for _, nb := range adj[u] {
				if seen[nb] {
					continue
				}
				seen[nb] = true
				if u < nb {
					out = append(out, [2]int{u, nb})
				} else {
					out = append(out, [2]int{nb, u})
				}
				queue = append(queue, nb)
			}
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

// checkMaintainedOracles compares every workload result against its
// from-scratch oracle over the current workload graph.
func checkMaintainedOracles(t *testing.T, tag string, comp *MaintainedComponents, st *MaintainedSpanningTree, mis *MaintainedMIS) {
	t.Helper()
	members := comp.Members()
	edges := comp.GraphEdges()
	if !reflect.DeepEqual(edges, st.GraphEdges()) || !reflect.DeepEqual(edges, mis.GraphEdges()) {
		t.Fatalf("%s: workload graphs diverged", tag)
	}

	want := labelsOracle(members, edges)
	if got := comp.Labels(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: component labels diverge from the union-find oracle", tag)
	}

	if got, wantF := st.Forest(), forestOracle(members, edges); !reflect.DeepEqual(got, wantF) {
		t.Fatalf("%s: spanning forest diverges from the from-scratch oracle", tag)
	}

	// Lexicographic fixpoint: v in the set iff no smaller neighbor is.
	adj := map[int][]int{}
	for _, e := range edges {
		adj[e[0]] = append(adj[e[0]], e[1])
		adj[e[1]] = append(adj[e[1]], e[0])
	}
	in := map[int]bool{}
	for _, id := range mis.Set() {
		in[id] = true
	}
	for _, v := range members {
		want := true
		for _, nb := range adj[v] {
			if nb < v && in[nb] {
				want = false
				break
			}
		}
		if in[v] != want {
			t.Fatalf("%s: MIS membership of %d violates the lexicographic fixpoint", tag, v)
		}
	}
}

// maintainedScript drives the three workloads through 60 churn epochs
// on a 128-member session and returns one transcript line for the open
// state and one per sync round: the three bills and a hash over every
// accessor's result. The script covers every way a sync can go: plain
// patch epochs, a rebuild epoch, a Restore past the workload's snapshot
// (scratch resync), a Restore that stops short of it (incremental), and
// a Restore followed by a different history that overtakes the snapshot,
// so leavers the workload graph already repaired away come back through
// an incremental sync. check, when non-nil, runs on the open state and
// after every sync round.
func maintainedScript(t *testing.T, check func(tag string, bill *EpochBill, syncs []WorkloadBill, comp *MaintainedComponents, st *MaintainedSpanningTree, mis *MaintainedMIS)) []string {
	t.Helper()
	sess, _ := openLineSession(t, 128, nil)
	comp, st, mis := openMaintained(t, sess)
	plan := &ChurnPlan{Seed: 11, Epochs: 1 << 20, JoinFrac: 0.05, LeaveFrac: 0.05}
	var lines []string
	var sealed []WorkloadBill
	step := 0
	churn := func() *EpochBill {
		t.Helper()
		joins, leaves := plan.Epoch(step, sess.Members(), sess.NextID())
		step++
		bill, err := sess.ApplyEpoch(joins, leaves)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		return bill
	}
	record := func(tag string, bill *EpochBill, syncs []WorkloadBill) {
		t.Helper()
		sealed = append(sealed, syncs...)
		h := fnv.New64a()
		labels := comp.Labels()
		for _, id := range comp.Members() {
			fmt.Fprintf(h, "%d:%d,", id, labels[id])
		}
		fmt.Fprintf(h, "|%d|%v|%v|%v|%v", comp.NumComponents(), st.Forest(), st.Roots(), mis.Set(), comp.GraphEdges())
		line := fmt.Sprintf("step %2d %-9s", step, tag)
		for _, b := range syncs {
			fmt.Fprintf(h, "|%s", b.Itemized)
			line += fmt.Sprintf(" {e%d %s aff=%d r=%d m=%d g=%d}", b.Epoch, b.Path, b.Affected, b.Rounds, b.Messages, b.GlobalCapacity)
		}
		lines = append(lines, fmt.Sprintf("%s state=%016x", line, h.Sum64()))
		if check != nil {
			check(fmt.Sprintf("step %d (%s)", step, tag), bill, syncs, comp, st, mis)
		}
	}
	sync := func(tag string, bill *EpochBill) {
		t.Helper()
		record(tag, bill, []WorkloadBill{comp.Sync(), st.Sync(), mis.Sync()})
	}
	restore := func(cp *Checkpoint) {
		t.Helper()
		if err := sess.Restore(cp); err != nil {
			t.Fatal(err)
		}
	}
	patches := func(n int) {
		for i := 0; i < n; i++ {
			sync("patch", churn())
		}
	}

	record("open", nil, []WorkloadBill{comp.Bills()[0], st.Bills()[0], mis.Bills()[0]})
	patches(20)
	// A rebuild epoch: far more leavers than the patch threshold.
	members := sess.Members()
	bill, err := sess.ApplyEpoch(nil, members[:len(members)*2/5])
	if err != nil || !bill.Rebuilt {
		t.Fatalf("expected a rebuild epoch, got %+v, %v", bill, err)
	}
	sync("rebuild", bill)
	patches(9)

	// Restore past the snapshot: the workloads are three epochs ahead of
	// the restored session.
	cp := sess.Checkpoint()
	patches(3)
	restore(cp)
	sync("past", nil)
	patches(8)

	// Restore short of the snapshot: two unsynced epochs, the second
	// rolled back.
	churn()
	cp = sess.Checkpoint()
	churn()
	restore(cp)
	sync("short", nil)
	patches(6)

	// Restore, then a different history that overtakes the snapshot: the
	// next sync is incremental and finds identifiers it removed, and
	// joiner identifiers it has already seen, among the members.
	cp = sess.Checkpoint()
	patches(2)
	restore(cp)
	for i := 0; i < 3; i++ {
		bill = churn()
	}
	sync("overtake", bill)
	patches(6)

	for i, w := range [][]WorkloadBill{comp.Bills(), st.Bills(), mis.Bills()} {
		if 3*len(w) != len(sealed) {
			t.Fatalf("workload %d: Bills() holds %d entries, %d syncs ran", i, len(w), len(sealed)/3)
		}
		for j, b := range w {
			if b != sealed[3*j+i] {
				t.Fatalf("workload %d: Bills()[%d] = %+v, its Sync returned %+v", i, j, b, sealed[3*j+i])
			}
		}
	}
	if comp.Epoch() != sess.Epoch() {
		t.Fatalf("workload synced to epoch %d, session at %d", comp.Epoch(), sess.Epoch())
	}
	return lines
}

func TestMaintainedOracleUnderChurn(t *testing.T) {
	incremental := 0
	maintainedScript(t, func(tag string, bill *EpochBill, syncs []WorkloadBill, comp *MaintainedComponents, st *MaintainedSpanningTree, mis *MaintainedMIS) {
		for i, w := range []interface{ ScratchBill() WorkloadBill }{comp, st, mis} {
			b := syncs[i]
			if bill != nil && bill.Rebuilt {
				if b.Incremental {
					t.Fatalf("%s workload %d: rebuild epoch synced incrementally", tag, i)
				}
				continue
			}
			if !b.Incremental {
				if bill != nil {
					t.Fatalf("%s workload %d: patch epoch synced from scratch", tag, i)
				}
				continue
			}
			incremental++
			sb := w.ScratchBill()
			if b.Rounds >= sb.Rounds {
				t.Fatalf("%s workload %d: incremental %d rounds vs scratch %d — not strictly cheaper", tag, i, b.Rounds, sb.Rounds)
			}
			if b.Messages >= sb.Messages {
				t.Fatalf("%s workload %d: incremental %d msgs vs scratch %d — not strictly cheaper", tag, i, b.Messages, sb.Messages)
			}
		}
		checkMaintainedOracles(t, tag, comp, st, mis)
	})
	if incremental == 0 {
		t.Fatal("the script never synced incrementally")
	}
}

func TestMaintainedRebuildTakesScratchPath(t *testing.T) {
	sess, _ := openLineSession(t, 96, nil)
	comp, st, mis := openMaintained(t, sess)
	var leaves []int
	for _, id := range sess.Members()[:40] {
		leaves = append(leaves, id)
	}
	bill, err := sess.ApplyEpoch(nil, leaves)
	if err != nil {
		t.Fatal(err)
	}
	if !bill.Rebuilt {
		t.Fatalf("expected a rebuild epoch, got %s", bill.Path)
	}
	for name, b := range map[string]WorkloadBill{
		"components": comp.Sync(), "spanning-tree": st.Sync(), "mis": mis.Sync(),
	} {
		if b.Incremental || b.Path != "workload/scratch" {
			t.Fatalf("%s: rebuild epoch billed %q incremental=%v", name, b.Path, b.Incremental)
		}
		if b.Affected != len(sess.Members()) {
			t.Fatalf("%s: scratch sync affected %d of %d members", name, b.Affected, len(sess.Members()))
		}
	}
	checkMaintainedOracles(t, "after rebuild", comp, st, mis)
}

func TestMaintainedRollbackResync(t *testing.T) {
	sess, _ := openLineSession(t, 64, nil)
	comp, st, mis := openMaintained(t, sess)
	cp := sess.Checkpoint()
	next := sess.NextID()
	if _, err := sess.ApplyEpoch([]int{next, next + 1}, []int{5, 9}); err != nil {
		t.Fatal(err)
	}
	comp.Sync()
	st.Sync()
	mis.Sync()
	if err := sess.Restore(cp); err != nil {
		t.Fatal(err)
	}
	// The session rolled back behind the workload snapshot: the next
	// sync must resync from scratch and the results must be
	// oracle-exact again — with the restored leavers re-attached as
	// joiners of the workload graph.
	for name, b := range map[string]WorkloadBill{
		"components": comp.Sync(), "spanning-tree": st.Sync(), "mis": mis.Sync(),
	} {
		if b.Incremental {
			t.Fatalf("%s: post-rollback sync was incremental", name)
		}
	}
	if !reflect.DeepEqual(comp.Members(), sess.Members()) {
		t.Fatalf("post-rollback workload members %v != session members %v", comp.Members(), sess.Members())
	}
	checkMaintainedOracles(t, "after rollback", comp, st, mis)
}

// TestMaintainedDeterminism pins the script's transcript — every bill's
// Affected, Rounds, Messages and Itemized, and Labels, Forest, Roots,
// Set and GraphEdges on open and after every sync — against
// testdata/maintained_golden.txt. The file is a recording of the
// map-based implementation at the commit its header names, not of this
// one: on an intended behaviour change, re-record it from the failure
// output and say so in its header.
func TestMaintainedDeterminism(t *testing.T) {
	const path = "testdata/maintained_golden.txt"
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, l := range strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n") {
		if !strings.HasPrefix(l, "#") {
			want = append(want, l)
		}
	}
	got := maintainedScript(t, nil)
	for i := range got {
		if i >= len(want) || got[i] != want[i] {
			t.Fatalf("transcript line %d diverges from %s:\n got %s\nwant %s", i+1, path, got[i], append(want, "")[min(i, len(want))])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("transcript has %d lines, %s has %d", len(got), path, len(want))
	}
}

func TestMaintainedOpenValidation(t *testing.T) {
	if _, err := OpenMaintainedComponents(nil, nil); err == nil {
		t.Fatal("nil session accepted")
	}
	sess, _ := openLineSession(t, 16, nil)
	if _, err := OpenMaintainedMIS(sess, &MaintainedOptions{Contacts: -1}); err == nil {
		t.Fatal("negative contact count accepted")
	}
	comp, err := OpenMaintainedComponents(sess, nil)
	if err != nil {
		t.Fatal(err)
	}
	bills := comp.Bills()
	if len(bills) != 1 || bills[0].Incremental || bills[0].Path != "workload/scratch" {
		t.Fatalf("open bill wrong: %+v", bills)
	}
}
