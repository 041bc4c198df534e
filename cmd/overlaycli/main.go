// Command overlaycli runs the overlay construction on a generated
// topology and prints the resulting tree and cost statistics.
//
// Usage:
//
//	overlaycli -topology line -n 1024 -seed 7 [-message-level] [-cap 10]
//	overlaycli -topology ring -n 4096 -plan 'drop=0.001,crashfrac=0.03@30'
//	overlaycli -topology ring -n 4096 -plan 'epochs=10,join=0.02,leave=0.02,churnseed=5'
//	overlaycli -topology ring -n 4096 -plan 'crashfrac=0.02@30,epochs=10,join=0.02,leave=0.02' -accounting measured
//
// Topologies: line, ring, tree, grid. The -plan flag takes the one
// plan grammar, overlay.ParsePlan: fault directives and churn
// directives in a single comma-separated specification.
//
// Fault directives (message drops/delays, crash-stop failures,
// partitions, correlated failure domains) install a fault schedule and
// imply -message-level; the run then either reports a well-formed tree
// over the survivors or an explicit abort, and the scenario invariant
// checker's verdict is printed either way.
//
// Churn directives open a live-maintenance session over the completed
// build and apply an epoch schedule of joins and leaves, printing one
// accounting row per epoch and the per-epoch invariant verdict. With
// fault directives too, the fault plan spans the whole session clock:
// rounds past the build are shifted into whichever epoch rebuild they
// land in.
//
// -accounting selects how patch epochs are billed: charged estimates
// analytically, measured runs each repair as a real wire protocol on
// the engine (so the fault plan hits the repair traffic itself) and
// implies -message-level.
//
// -retries R arms the session's epoch recovery ladder with R patch
// retries and R rebuild retries: a measured epoch the adversary
// defeats escalates through backoff-stretched patch attempts and
// rebuild attempts before giving up. Every attempt is itemized in the
// epoch row's path column (e.g. patch/measured×2+rebuild/measured),
// and an epoch that exhausts the ladder rolls the session back to its
// pre-epoch checkpoint — the CLI reports the rollback and keeps
// serving the remaining epochs from the restored state.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"overlay"
	"overlay/internal/scenario"
)

// cliFlags holds every overlaycli flag, registered through
// registerFlags so the usage strings are testable (the flag-help drift
// test asserts they keep naming the valid values and grammars).
type cliFlags struct {
	topo     *string
	n        *int
	seed     *uint64
	msgLvl   *bool
	capFac   *int
	derived  *bool
	planSpec *string
	acctName *string
	retries  *int
	workl    *bool
}

func registerFlags(fs *flag.FlagSet) *cliFlags {
	return &cliFlags{
		topo:     fs.String("topology", "line", "input topology: line|ring|tree|grid"),
		n:        fs.Int("n", 1024, "number of nodes"),
		seed:     fs.Uint64("seed", 1, "run seed"),
		msgLvl:   fs.Bool("message-level", false, "run the real distributed protocol on the NCC0 engine"),
		capFac:   fs.Int("cap", 0, "NCC0 capacity factor κ (per-round cap κ·log n; 0 = uncapped)"),
		derived:  fs.Bool("derived", false, "also print derived overlay sizes"),
		planSpec: fs.String("plan", "", "fault and churn plan (overlay.ParsePlan grammar), e.g. 'drop=0.01,delaymax=3,crash=17@40,cut=0-99@30-60,seed=9,epochs=10,join=0.02,leave=0.02,churnseed=5'; fault directives imply -message-level, churn directives run the epoch schedule"),
		acctName: fs.String("accounting", "charged", "patch-epoch accounting: charged|measured (measured implies -message-level)"),
		retries:  fs.Int("retries", 0, "epoch recovery ladder: retry a defeated epoch up to this many extra patch and rebuild attempts before rolling back"),
		workl:    fs.Bool("workloads", false, "with churn directives in -plan: keep the maintained hybrid workloads (components, spanning forest, MIS) open across the epochs and print each sync's bill against the from-scratch price"),
	}
}

func main() {
	log.SetFlags(0)
	fl := registerFlags(flag.CommandLine)
	flag.Parse()
	topo, n, seed, msgLvl := fl.topo, fl.n, fl.seed, fl.msgLvl
	capFac, derived := fl.capFac, fl.derived
	planSpec, acctName, retries, workl := fl.planSpec, fl.acctName, fl.retries, fl.workl
	if *n < 1 {
		log.Fatal("-n must be >= 1")
	}
	if *retries < 0 {
		log.Fatal("-retries must be >= 0")
	}
	var acct overlay.Accounting
	switch *acctName {
	case "charged":
		acct = overlay.Charged
	case "measured":
		acct = overlay.Measured
		*msgLvl = true
	default:
		log.Fatalf("-accounting %q: want charged or measured", *acctName)
	}

	g, err := scenario.BuildTopology(*topo, *n)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		flag.Usage()
		os.Exit(2)
	}
	p, err := overlay.ParsePlan(*planSpec)
	if err != nil {
		log.Fatal(err)
	}
	plan, churnPlan := p.Faults, p.Churn
	if plan != nil {
		*msgLvl = true
	}
	opts := &overlay.Options{
		Seed:         *seed,
		MessageLevel: *msgLvl,
		CapFactor:    *capFac,
		Faults:       plan,
	}
	res, err := overlay.BuildTree(g, opts)
	if err != nil {
		log.Fatal(err)
	}

	mode := "fast (in-memory, rounds charged)"
	if *msgLvl {
		mode = "message-level (NCC0 engine, rounds measured)"
	}
	fmt.Printf("topology        %s, n=%d\n", *topo, g.N)
	fmt.Printf("mode            %s\n", mode)
	if plan != nil {
		fmt.Printf("faults          %s\n", *planSpec)
	}
	if res.Aborted {
		fmt.Printf("result          ABORTED: %s\n", res.AbortReason)
	} else {
		survivors := g.N
		if res.Survivors != nil {
			survivors = len(res.Survivors)
		}
		fmt.Printf("tree            root=%d depth=%d degree<=3 over %d/%d nodes\n",
			res.Tree.Root, res.Tree.Depth(), survivors, g.N)
	}
	fmt.Printf("rounds          %d\n", res.Stats.Rounds)
	fmt.Printf("expander        diameter=%d spectral gap=%.4f\n",
		res.Stats.ExpanderDiameter, res.Stats.SpectralGap)
	if *msgLvl {
		fmt.Printf("messages        total=%d max/node/round=%d max/node total=%d drops=%d\n",
			res.Stats.Messages, res.Stats.MaxMessagesPerRound, res.Stats.MaxMessagesTotal, res.Stats.CapacityDrops)
	}
	if plan != nil {
		fmt.Printf("fault plane     dropped=%d delayed=%d protocol anomalies=%d\n",
			res.Stats.FaultDrops, res.Stats.FaultDelays, res.Stats.ProtocolAnomalies)
		spec := scenario.Spec{Name: "cli", Topology: *topo, N: *n, Seed: *seed, CapFactor: *capFac, Faults: plan}
		if viols := scenario.CheckInvariants(&spec, g, res); len(viols) == 0 {
			fmt.Println("invariants      all hold")
		} else {
			for _, v := range viols {
				fmt.Printf("invariants      VIOLATED: %s\n", v)
			}
		}
	}
	if *derived && !res.Aborted {
		fmt.Printf("derived         ring=%d chord=%d hypercube=%d debruijn=%d edges\n",
			len(res.Ring()), len(res.Chord()), len(res.Hypercube()), len(res.DeBruijn()))
	}

	if churnPlan == nil {
		return
	}
	if res.Aborted {
		log.Fatal("cannot run the churn schedule: the build aborted")
	}
	sess, err := overlay.Open(res, &overlay.SessionOptions{
		RebuildFraction: churnPlan.RebuildFraction,
		Accounting:      acct,
		PatchRetries:    *retries,
		RebuildRetries:  *retries,
		Build: overlay.Options{
			Seed: *seed, MessageLevel: *msgLvl, CapFactor: *capFac, Faults: plan,
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nchurn           %s\n", *planSpec)
	fmt.Printf("accounting      %s\n", acct)
	if *retries > 0 {
		fmt.Printf("ladder          up to %d extra patch and %d extra rebuild attempts per epoch\n", *retries, *retries)
	}
	var wlComp *overlay.MaintainedComponents
	var wlST *overlay.MaintainedSpanningTree
	var wlMIS *overlay.MaintainedMIS
	if *workl {
		wopt := &overlay.MaintainedOptions{Seed: *seed*2 + 1}
		if wlComp, err = overlay.OpenMaintainedComponents(sess, wopt); err != nil {
			log.Fatal(err)
		}
		if wlST, err = overlay.OpenMaintainedSpanningTree(sess, wopt); err != nil {
			log.Fatal(err)
		}
		if wlMIS, err = overlay.OpenMaintainedMIS(sess, wopt); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("workloads       components, spanning forest, MIS maintained across epochs\n")
	}
	fmt.Printf("%-6s %6s %6s %8s %8s  %-32s %8s %10s  %s\n",
		"epoch", "join", "leave", "members", "tries", "path", "rounds", "messages", "invariants")
	clean, rollbacks := true, 0
	for e := 0; e < churnPlan.Epochs; e++ {
		joins, leaves := churnPlan.Epoch(e, sess.Members(), sess.NextID())
		bill, err := sess.ApplyEpoch(joins, leaves)
		if err != nil {
			if bill == nil || !bill.Aborted {
				fmt.Printf("%-6d epoch failed: %v\n", e, err)
				os.Exit(1)
			}
			// A reasoned abort: the ladder exhausted and the session
			// rolled back to its pre-epoch checkpoint. Report it and
			// keep serving the remaining epochs from the restored state.
			rollbacks++
			fmt.Printf("%-6d %6d %6d %8d %8d  %-32s %8d %10d  ROLLED BACK: %s\n",
				bill.Epoch, bill.Joined, bill.Left, len(sess.Members()), bill.Attempts,
				bill.Path, bill.Rounds, bill.Messages, bill.AbortReason)
			continue
		}
		verdict := "all hold"
		if viols := scenario.CheckEpoch(sess, bill, plan); len(viols) > 0 {
			clean = false
			verdict = "VIOLATED: " + viols[0]
		}
		fmt.Printf("%-6d %6d %6d %8d %8d  %-32s %8d %10d  %s\n",
			bill.Epoch, bill.Joined, bill.Left, bill.Members, bill.Attempts,
			bill.Path, bill.Rounds, bill.Messages, verdict)
		if wlComp != nil {
			cb := wlComp.Sync()
			wlST.Sync()
			wlMIS.Sync()
			price := wlComp.ScratchBill()
			fmt.Printf("       workloads cc=%d st-roots=%d mis=%d %11s %-32s %8d %10d  (scratch: %d rounds, %d msgs)\n",
				wlComp.NumComponents(), len(wlST.Roots()), len(wlMIS.Set()), "",
				cb.Path, cb.Rounds, cb.Messages, price.Rounds, price.Messages)
		}
	}
	fmt.Printf("session         %d members after %d epochs, clock at round %d",
		len(sess.Members()), sess.Epoch(), sess.ClockRound())
	if rollbacks > 0 {
		fmt.Printf(", %d epochs rolled back", rollbacks)
	}
	fmt.Println()
	if *derived {
		fmt.Printf("derived         ring=%d chord=%d hypercube=%d debruijn=%d edges at epoch %d\n",
			len(sess.Ring()), len(sess.Chord()), len(sess.Hypercube()), len(sess.DeBruijn()), sess.Epoch())
	}
	if !clean {
		os.Exit(1)
	}
}
