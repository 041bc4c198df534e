package overlay

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// TestParsePlanUnifiedGrammar covers the merged specification: fault
// and churn directives in one string, with churnseed= naming the churn
// seed (seed= is the fault seed).
func TestParsePlanUnifiedGrammar(t *testing.T) {
	p, err := ParsePlan("seed=9,drop=0.01,delaymax=3,crash=17@40,cut=0-9@30-60," +
		"epochs=10,join=0.02,leave=0.03,churnseed=5,rebuild=0.5")
	if err != nil {
		t.Fatal(err)
	}
	if p.Faults == nil || p.Churn == nil {
		t.Fatalf("both schedules should be present: %+v", p)
	}
	if p.Faults.Seed != 9 || p.Faults.DropProb != 0.01 || p.Faults.DelayMax != 3 ||
		len(p.Faults.Crashes) != 1 || len(p.Faults.Partitions) != 1 {
		t.Errorf("fault plan wrong: %+v", p.Faults)
	}
	if p.Churn.Seed != 5 || p.Churn.Epochs != 10 || p.Churn.JoinFrac != 0.02 ||
		p.Churn.LeaveFrac != 0.03 || p.Churn.RebuildFraction != 0.5 {
		t.Errorf("churn plan wrong: %+v", p.Churn)
	}
}

// TestParsePlanPartialSpecs: a schedule is only materialized when one
// of its directives appears, and an empty spec yields neither.
func TestParsePlanPartialSpecs(t *testing.T) {
	p, err := ParsePlan("drop=0.1")
	if err != nil || p.Faults == nil || p.Churn != nil {
		t.Errorf("fault-only spec: plan %+v, err %v", p, err)
	}
	p, err = ParsePlan("epochs=3,join=0.1")
	if err != nil || p.Faults != nil || p.Churn == nil {
		t.Errorf("churn-only spec: plan %+v, err %v", p, err)
	}
	p, err = ParsePlan("")
	if err != nil || p.Faults != nil || p.Churn != nil {
		t.Errorf("empty spec: plan %+v, err %v", p, err)
	}
	// A churn directive obliges the churn schedule to validate: without
	// epochs= it would degenerate silently.
	if _, err := ParsePlan("join=0.1"); err == nil {
		t.Error("churn directive without epochs= parsed without error")
	}
}

// TestParsePlanErrors: unified-grammar rejections, including the
// churn-mode spelling of the churn seed and repeat policing on every
// singleton directive.
func TestParsePlanErrors(t *testing.T) {
	for _, bad := range []string{
		"nope=1",                                 // unknown directive
		"drop",                                   // not key=value
		"drop=2",                                 // probability out of range
		"epochs=0",                               // non-positive
		"rebuild=0",                              // ambiguous with unset
		"churnseed=x",                            // malformed seed
		"drop=0.1,drop=0.2",                      // repeated fault singleton
		"epochs=2,epochs=3",                      // repeated churn singleton
		"churnseed=1,churnseed=2",                // repeated churn seed
		"delay=NaN",                              // NaN is no probability
		"epochs=2,join=nan",                      // nor a fraction
		"cut=0-4194304@1-2",                      // a side of 2^22+1 nodes
		"delay=0.5,delaymax=2147483648",          // wraps the engine's int32 delay
		"delay=0.5,delaymax=9223372036854775807", // and so does the int range's top
	} {
		if _, err := ParsePlan(bad); err == nil {
			t.Errorf("spec %q parsed without error", bad)
		}
	}
	if _, err := ParsePlan("wat=1"); err == nil || !strings.Contains(err.Error(), "unknown plan directive") {
		t.Errorf("unified grammar should report unknown *plan* directives, got %v", err)
	}
}

// FuzzParsePlan holds ParsePlan, the one parser of plans arriving from
// outside (the -plan flags, overlayd's create and plan bodies), to three
// properties on any input: it never panics; it is deterministic, the
// same text giving the same plan or the same error; and an accepted
// fault plan either validates against a build of n nodes, and then
// expands its domains and materializes its crashes, or is refused with
// an error, never a panic, at every n tried. Its seed corpus, committed
// under testdata/fuzz/FuzzParsePlan, runs with the tier-1 tests; it
// includes the two finds the target was written for: a cut= range wide
// enough to overflow the side's length, and NaN, which compares false
// against both ends of [0,1] and so passed as a probability.
func FuzzParsePlan(f *testing.F) {
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := ParsePlan(spec)
		q, err2 := ParsePlan(spec)
		if !reflect.DeepEqual(p, q) || fmt.Sprint(err) != fmt.Sprint(err2) {
			t.Fatalf("ParsePlan(%q) twice: %+v, %v and %+v, %v", spec, p, err, q, err2)
		}
		if err != nil {
			if p != nil {
				t.Fatalf("ParsePlan(%q) returned a plan with error %v", spec, err)
			}
			return
		}
		if p.Faults == nil {
			return
		}
		for _, n := range []int{1, 7, 64} {
			if p.Faults.validate(n) == nil {
				p.Faults.expandDomains(n).materializeCrashes(n)
			}
		}
	})
}

// TestParsePlanDomains covers the correlated-failure-domain grammar:
// domains= declares the rack count, domaincut= crashes (ID@ROUND) or
// partitions (ID@FROM-TO) a whole domain, and every malformed or
// inconsistent spelling is rejected with an exact, actionable error.
func TestParsePlanDomains(t *testing.T) {
	p, err := ParsePlan("seed=9,domains=16,domaincut=5@30,domaincut=2@40-90")
	if err != nil {
		t.Fatal(err)
	}
	if p.Faults == nil || p.Faults.Domains != 16 {
		t.Fatalf("domain count not parsed: %+v", p.Faults)
	}
	want := []DomainCut{{Domain: 5, From: 30}, {Domain: 2, From: 40, Until: 90}}
	if !reflect.DeepEqual(p.Faults.DomainCuts, want) {
		t.Fatalf("domain cuts %+v, want %+v", p.Faults.DomainCuts, want)
	}

	for _, c := range []struct{ spec, wantErr string }{
		{"domains=0", "not a positive domain count"},
		{"domains=x", "not a positive domain count"},
		{"domains=4,domains=8", "directive domains= repeated"},
		{"domains=4,domaincut=1@10,domaincut=1@10", "repeated (the identical cut would fire twice)"},
		{"domaincut=1@10", "domaincut= requires domains="},
		{"domains=4,domaincut=4@10", "out of range (domains=4 declares ids 0..3)"},
		{"domains=4,domaincut=-1@10", "not a nonnegative id"},
		{"domains=4,domaincut=1@50-20", "want FROM-TO with FROM < TO"},
		{"domains=4,domaincut=1@20-20", "want FROM-TO with FROM < TO"},
		{"domains=4,domaincut=1", "want DOMAIN@ROUND or DOMAIN@FROM-TO"},
		{"domains=4,domaincut=1@x", "want DOMAIN@ROUND or DOMAIN@FROM-TO"},
	} {
		_, err := ParsePlan(c.spec)
		if err == nil {
			t.Errorf("spec %q parsed without error", c.spec)
			continue
		}
		if !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("spec %q: error %q does not contain %q", c.spec, err, c.wantErr)
		}
	}

	// Repeating domaincut= with *different* cuts is legal (it is a list
	// directive, like crash= and cut=).
	if _, err := ParsePlan("domains=4,domaincut=1@10,domaincut=1@20"); err != nil {
		t.Errorf("distinct cuts on one domain rejected: %v", err)
	}
}

// TestParseFaultPlan covers the fault half of the plan grammar: every
// directive of the retired -faults grammar parses through ParsePlan to
// the same FaultPlan, and every malformed spelling it rejected is still
// rejected.
func TestParseFaultPlan(t *testing.T) {
	p, err := ParsePlan("seed=9,drop=0.01,delay=0.05,delaymax=3,crash=17@40,crash=3@0,crashfrac=0.25@100,cut=0-99@30-60")
	if err != nil {
		t.Fatal(err)
	}
	plan := p.Faults
	if plan == nil || p.Churn != nil {
		t.Fatalf("fault-only spec parsed to %+v", p)
	}
	if plan.Seed != 9 || plan.DropProb != 0.01 || plan.DelayProb != 0.05 || plan.DelayMax != 3 {
		t.Errorf("scalar fields wrong: %+v", plan)
	}
	if len(plan.Crashes) != 2 || plan.Crashes[0] != (Crash{17, 40}) || plan.Crashes[1] != (Crash{3, 0}) {
		t.Errorf("crashes wrong: %+v", plan.Crashes)
	}
	if plan.CrashFrac != 0.25 || plan.CrashFracRound != 100 {
		t.Errorf("crashfrac wrong: %+v", plan)
	}
	if len(plan.Partitions) != 1 || plan.Partitions[0].From != 30 || plan.Partitions[0].Until != 60 ||
		len(plan.Partitions[0].Side) != 100 {
		t.Errorf("partition wrong: %+v", plan.Partitions)
	}
	for _, bad := range []string{
		"drop=2", "drop=x", "nope=1", "crash=5", "crash=5@x", "cut=5@1-2",
		"cut=9-3@1-2", "cut=1-2@5-5", "delaymax=0", "crashfrac=0.5",
	} {
		if _, err := ParsePlan(bad); err == nil {
			t.Errorf("spec %q parsed without error", bad)
		}
	}
}

// TestParseFaultPlanRejectsRepeats: every singleton fault directive
// must be rejected on repeat instead of silently letting the last value
// win; crash= and cut= accumulate and stay repeatable.
func TestParseFaultPlanRejectsRepeats(t *testing.T) {
	repeats := []struct {
		name string
		spec string
	}{
		{"seed", "seed=1,drop=0.1,seed=2"},
		{"drop", "drop=0.1,drop=0.2"},
		{"delay", "delay=0.1,delay=0.2"},
		{"delaymax", "delaymax=2,delaymax=3"},
		{"crashfrac", "crashfrac=0.1@5,crashfrac=0.2@9"},
		{"equal values", "drop=0.1,drop=0.1"}, // equal repeats are still ambiguous intent
	}
	for _, c := range repeats {
		if _, err := ParsePlan(c.spec); err == nil {
			t.Errorf("%s: spec %q parsed without error (last-wins overwrite)", c.name, c.spec)
		}
	}
	p, err := ParsePlan("crash=1@5,crash=2@6,cut=0-3@10-20,cut=4-7@30-40")
	if err != nil {
		t.Fatalf("repeatable directives rejected: %v", err)
	}
	if len(p.Faults.Crashes) != 2 || len(p.Faults.Partitions) != 2 {
		t.Errorf("accumulating directives lost entries: %+v", p.Faults)
	}
}

// TestParseChurnPlan covers the churn half of the plan grammar: the
// retired -churn grammar's directives parse through ParsePlan to the
// same ChurnPlan (the seed spelled churnseed=), and every malformed
// schedule it rejected is still rejected.
func TestParseChurnPlan(t *testing.T) {
	p, err := ParsePlan("epochs=10,join=0.02,leave=0.02,churnseed=5,rebuild=0.3")
	if err != nil {
		t.Fatal(err)
	}
	want := &ChurnPlan{Seed: 5, Epochs: 10, JoinFrac: 0.02, LeaveFrac: 0.02, RebuildFraction: 0.3}
	if !reflect.DeepEqual(p.Churn, want) || p.Faults != nil {
		t.Errorf("parsed %+v / %+v, want %+v and no fault plan", p.Churn, p.Faults, want)
	}
	bad := []string{
		"leave=0.02",                   // epochs missing
		"epochs=0",                     // not positive
		"epochs=10,join=1.5",           // fraction out of range
		"epochs=10,epochs=5",           // repeated directive
		"epochs=10,leave",              // not key=value
		"epochs=10,frobnicate=1",       // unknown key
		"epochs=10,churnseed=-1",       // bad uint
		"epochs=10,rebuild=nope",       // bad float
		"epochs=10,rebuild=0",          // indistinguishable from unset
		"epochs=10,join=0,join=0",      // repeat even with equal values
		"epochs=10,domaincut=1@10",     // fault list directive without its domains=
		"epochs=10,churnseed=5,seed=x", // the fault seed is checked too
	}
	for _, spec := range bad {
		if _, err := ParsePlan(spec); err == nil {
			t.Errorf("ParsePlan(%q): no error", spec)
		}
	}
}

// TestParsePlanLegacySpecs: the two specifications the retired
// ParseFaultPlan/ParseChurnPlan parity test fed both parsers produce,
// through ParsePlan, exactly the plans the legacy parsers built — and a
// -churn specification carried over verbatim does not silently keep its
// meaning: seed= names the fault seed in the one grammar, so the churn
// schedule it used to seed stays at its zero seed and a fault plan
// appears.
func TestParsePlanLegacySpecs(t *testing.T) {
	p, err := ParsePlan("seed=9,drop=0.01,delay=0.05,delaymax=3,crash=17@40,crashfrac=0.25@100,cut=0-99@30-60")
	if err != nil {
		t.Fatal(err)
	}
	side := make([]int, 100)
	for i := range side {
		side[i] = i
	}
	wantFaults := &FaultPlan{
		Seed: 9, DropProb: 0.01, DelayProb: 0.05, DelayMax: 3,
		Crashes:   []Crash{{Node: 17, Round: 40}},
		CrashFrac: 0.25, CrashFracRound: 100,
		Partitions: []Partition{{From: 30, Until: 60, Side: side}},
	}
	if !reflect.DeepEqual(p.Faults, wantFaults) || p.Churn != nil {
		t.Errorf("fault spec parsed to\n%+v / %+v, want\n%+v and no churn plan", p.Faults, p.Churn, wantFaults)
	}

	p, err = ParsePlan("epochs=10,join=0.02,leave=0.03,churnseed=5,rebuild=0.5")
	if err != nil {
		t.Fatal(err)
	}
	wantChurn := &ChurnPlan{Seed: 5, Epochs: 10, JoinFrac: 0.02, LeaveFrac: 0.03, RebuildFraction: 0.5}
	if !reflect.DeepEqual(p.Churn, wantChurn) || p.Faults != nil {
		t.Errorf("churn spec parsed to %+v / %+v, want %+v and no fault plan", p.Churn, p.Faults, wantChurn)
	}

	p, err = ParsePlan("epochs=10,join=0.02,leave=0.03,seed=5,rebuild=0.5")
	if err != nil {
		t.Fatal(err)
	}
	wantChurn.Seed = 0
	if !reflect.DeepEqual(p.Churn, wantChurn) || !reflect.DeepEqual(p.Faults, &FaultPlan{Seed: 5}) {
		t.Errorf("legacy-spelt churn spec parsed to %+v / %+v, want %+v and a fault plan seeded 5", p.Churn, p.Faults, wantChurn)
	}
}
