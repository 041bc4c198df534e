package overlay

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Plan bundles the two session-level schedules under one roof: the
// adversarial fault plane and the churn epoch schedule. ParsePlan
// produces it from a single comma-separated specification, so
// harnesses configure an entire experiment — faults and churn — with
// one flag instead of two grammars.
type Plan struct {
	// Faults is the fault schedule, or nil when the specification named
	// no fault directive (no fault plane is installed).
	Faults *FaultPlan
	// Churn is the churn schedule, or nil when the specification named
	// no churn directive.
	Churn *ChurnPlan
}

// ParsePlan parses the unified plan specification: a comma-separated
// list of directives drawn from both schedules. An empty string (or
// one with no directives) yields a Plan with both schedules nil.
//
// Fault directives (any one present makes Plan.Faults non-nil):
//
//	seed=S             fault seed (uint64)
//	drop=P             per-message drop probability
//	delay=P            per-message delay probability
//	delaymax=K         maximum delay in rounds (default 1, at most 2^31-1)
//	crash=NODE@ROUND   crash-stop NODE at global round ROUND (repeatable)
//	crashfrac=F@ROUND  crash a random F-fraction of nodes at ROUND
//	cut=LO-HI@FROM-TO  partition nodes LO..HI (inclusive, at most 2^22
//	                   of them) away from the rest during global rounds
//	                   [FROM, TO) (repeatable)
//	domains=D          split the id space into D contiguous correlated
//	                   failure domains (rack-shaped; node v is in
//	                   domain v·D/n)
//	domaincut=I@ROUND  crash-stop every node of domain I at ROUND
//	                   (repeatable; requires domains=)
//	domaincut=I@F-T    partition domain I away from the rest during
//	                   global rounds [F, T) (repeatable; requires
//	                   domains=)
//
// Churn directives (any one present makes Plan.Churn non-nil, and the
// resulting schedule must validate — epochs= is then required):
//
//	epochs=E      schedule length (>= 1)
//	join=F        per-epoch join fraction in [0,1]
//	leave=F       per-epoch leave fraction in [0,1]
//	churnseed=S   churn seed (uint64; spelled churnseed because seed=
//	              names the fault seed here)
//	rebuild=F     patch-vs-rebuild threshold in (0,1]
//
// Every directive except crash=, cut=, and domaincut= may appear at
// most once; an exactly repeated domaincut= (same domain, same
// window) is rejected too, since the identical cut firing twice is
// always a typo.
//
// Example: "drop=0.01,delaymax=3,epochs=10,join=0.02,leave=0.02".
func ParsePlan(spec string) (*Plan, error) {
	faults := &FaultPlan{}
	churn := &ChurnPlan{}
	sawFault, sawChurn := false, false
	// Singleton directives set one field; a repeat would silently
	// overwrite the earlier value (last-wins), so it is rejected — only
	// crash=, cut=, and domaincut= accumulate. domaincut= additionally
	// rejects an exactly repeated value: the identical cut twice is a
	// typo, never a schedule.
	seen := map[string]bool{}
	seenCuts := map[string]bool{}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		key, val, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("overlay: plan directive %q is not key=value", part)
		}
		if key != "crash" && key != "cut" && key != "domaincut" {
			if seen[key] {
				return nil, fmt.Errorf("overlay: plan directive %s= repeated (the earlier value would be silently overwritten)", key)
			}
			seen[key] = true
		}
		switch key {
		case "seed":
			v, err := strconv.ParseUint(val, 0, 64)
			if err != nil {
				return nil, fmt.Errorf("overlay: bad fault seed %q: %v", val, err)
			}
			faults.Seed = v
			sawFault = true
		case "drop", "delay":
			v, err := strconv.ParseFloat(val, 64)
			if err != nil || !inUnit(v) {
				return nil, fmt.Errorf("overlay: %s=%q is not a probability in [0,1]", key, val)
			}
			if key == "drop" {
				faults.DropProb = v
			} else {
				faults.DelayProb = v
			}
			sawFault = true
		case "delaymax":
			v, err := strconv.Atoi(val)
			if err != nil || v < 1 || v > maxDelay {
				return nil, fmt.Errorf("overlay: delaymax=%q is not a round count in [1,%d]", val, maxDelay)
			}
			faults.DelayMax = v
			sawFault = true
		case "crash":
			node, round, err := parseAtPair(val)
			if err != nil {
				return nil, fmt.Errorf("overlay: crash=%q: want NODE@ROUND: %v", val, err)
			}
			faults.Crashes = append(faults.Crashes, Crash{Node: node, Round: round})
			sawFault = true
		case "crashfrac":
			fs, rs, ok := strings.Cut(val, "@")
			if !ok {
				return nil, fmt.Errorf("overlay: crashfrac=%q: want FRAC@ROUND", val)
			}
			f, err := strconv.ParseFloat(fs, 64)
			if err != nil || !inUnit(f) {
				return nil, fmt.Errorf("overlay: crashfrac fraction %q is not in [0,1]", fs)
			}
			r, err := strconv.Atoi(rs)
			if err != nil {
				return nil, fmt.Errorf("overlay: crashfrac round %q: %v", rs, err)
			}
			faults.CrashFrac, faults.CrashFracRound = f, r
			sawFault = true
		case "cut":
			rangeSpec, window, ok := strings.Cut(val, "@")
			if !ok {
				return nil, fmt.Errorf("overlay: cut=%q: want LO-HI@FROM-TO", val)
			}
			lo, hi, err := parseDashPair(rangeSpec)
			if err != nil || lo > hi {
				return nil, fmt.Errorf("overlay: cut node range %q: want LO-HI with LO <= HI", rangeSpec)
			}
			if hi-lo >= maxCutNodes {
				return nil, fmt.Errorf("overlay: cut node range %q spans more than %d nodes", rangeSpec, maxCutNodes)
			}
			from, until, err := parseDashPair(window)
			if err != nil || until <= from {
				return nil, fmt.Errorf("overlay: cut window %q: want FROM-TO with FROM < TO", window)
			}
			side := make([]int, 0, hi-lo+1)
			for v := lo; v <= hi; v++ {
				side = append(side, v)
			}
			faults.Partitions = append(faults.Partitions, Partition{From: from, Until: until, Side: side})
			sawFault = true
		case "domains":
			v, err := strconv.Atoi(val)
			if err != nil || v < 1 {
				return nil, fmt.Errorf("overlay: domains=%q is not a positive domain count", val)
			}
			faults.Domains = v
			sawFault = true
		case "domaincut":
			if seenCuts[val] {
				return nil, fmt.Errorf("overlay: plan directive domaincut=%s repeated (the identical cut would fire twice)", val)
			}
			seenCuts[val] = true
			ds, ws, ok := strings.Cut(val, "@")
			if !ok {
				return nil, fmt.Errorf("overlay: domaincut=%q: want DOMAIN@ROUND or DOMAIN@FROM-TO", val)
			}
			d, err := strconv.Atoi(ds)
			if err != nil || d < 0 {
				return nil, fmt.Errorf("overlay: domaincut domain %q is not a nonnegative id", ds)
			}
			if from, until, werr := parseDashPair(ws); werr == nil {
				if until <= from {
					return nil, fmt.Errorf("overlay: domaincut window %q: want FROM-TO with FROM < TO", ws)
				}
				faults.DomainCuts = append(faults.DomainCuts, DomainCut{Domain: d, From: from, Until: until})
			} else {
				r, rerr := strconv.Atoi(ws)
				if rerr != nil {
					return nil, fmt.Errorf("overlay: domaincut=%q: want DOMAIN@ROUND or DOMAIN@FROM-TO", val)
				}
				faults.DomainCuts = append(faults.DomainCuts, DomainCut{Domain: d, From: r})
			}
			sawFault = true
		case "epochs":
			v, err := strconv.Atoi(val)
			if err != nil || v < 1 {
				return nil, fmt.Errorf("overlay: epochs=%q is not a positive epoch count", val)
			}
			churn.Epochs = v
			sawChurn = true
		case "join", "leave", "rebuild":
			v, err := strconv.ParseFloat(val, 64)
			if err != nil || !inUnit(v) {
				return nil, fmt.Errorf("overlay: %s=%q is not a fraction in [0,1]", key, val)
			}
			switch key {
			case "join":
				churn.JoinFrac = v
			case "leave":
				churn.LeaveFrac = v
			case "rebuild":
				if v == 0 {
					return nil, fmt.Errorf("overlay: rebuild=0 is indistinguishable from unset (0 selects the session default); pass a threshold in (0,1]")
				}
				churn.RebuildFraction = v
			}
			sawChurn = true
		case "churnseed":
			v, err := strconv.ParseUint(val, 0, 64)
			if err != nil {
				return nil, fmt.Errorf("overlay: bad churn seed %q: %v", val, err)
			}
			churn.Seed = v
			sawChurn = true
		default:
			return nil, fmt.Errorf("overlay: unknown plan directive %q", key)
		}
	}
	if len(faults.DomainCuts) > 0 && faults.Domains < 1 {
		return nil, fmt.Errorf("overlay: domaincut= requires domains= (no domain count declared)")
	}
	for _, cut := range faults.DomainCuts {
		if cut.Domain >= faults.Domains {
			return nil, fmt.Errorf("overlay: domaincut domain %d out of range (domains=%d declares ids 0..%d)", cut.Domain, faults.Domains, faults.Domains-1)
		}
	}
	out := &Plan{}
	if sawFault {
		out.Faults = faults
	}
	if sawChurn {
		if err := churn.validate(); err != nil {
			return nil, err
		}
		out.Churn = churn
	}
	return out, nil
}

// maxCutNodes bounds the width of a cut= node range. The side is listed
// node by node, so without a bound a plan of a few bytes could ask for
// gigabytes (or, past the int range, a negative length); 2^22 nodes is
// far more than any message-level build, the only kind a fault plan
// applies to, simulates.
const maxCutNodes = 1 << 22

// maxDelay bounds FaultPlan.DelayMax: the engine keeps a delay, and the
// round a delayed message comes due, in 32 bits, and a longer delay
// would wrap there.
const maxDelay = math.MaxInt32

// inUnit reports whether v lies in [0,1]; NaN does not.
func inUnit(v float64) bool { return v >= 0 && v <= 1 }
