package main

// lateLimit is how late a reader slot may be sent before it counts
// into gen.reader_late_share.
const lateLimit = 0.001

// overheadLimit is the share tracing may add to an operation.
const overheadLimit = 0.05

// residualLimit is the share of session.apply_s the traced layers may
// leave unaccounted for on churn_measured.
const residualLimit = 0.10

// metrics computes every metric BENCHMARK.json declares from the run's
// samples, totals and spans. A metric its workload or pass does not
// produce reads 0 with n = 0.
//
// An operation is a BuildTree call (build_*), an ApplyEpoch call
// (churn_measured), ApplyEpoch + three workload syncs + the first read
// of the four derived views (churn_derived), or a /plan round trip
// (serve_churn). Allocations are per operation, except on serve_churn
// where they are per request issued (the generator's HTTP client
// included). A lookup is a greedy finger route between two current
// members: over the fresh tree (build_*), through Session.RouteLookup
// (churn_*), or GET /lookup timed from the slot's due time (serve_churn).
func (r *run) metrics() []metric {
	spans := r.tr.recorded()
	self := selfTimes(spans)
	primary, lookup := "op", r.samples["lookup"]
	if r.cfg.Trace {
		primary = "op.traced"
	}
	op := r.samples[primary]

	units := r.decl.units()
	var out []metric
	put := func(name string, v float64, n int) {
		unit, ok := units[name]
		if !ok {
			r.violate("metric %s is not declared in %s", name, contractPath)
		}
		delete(units, name)
		out = append(out, metric{Name: name, Unit: unit, Value: v, N: n})
	}
	// med reports the median of a sample scaled into the metric's unit.
	med := func(name string, v []float64, scale float64) { put(name, median(v)*scale, len(v)) }
	// far reports the p-th percentile when the sample has ten values
	// beyond it, and nothing (n = 0) when it has not.
	far := func(name string, v []float64, p, scale float64) {
		if !tailOK(len(v), p) {
			put(name, 0, 0)
			return
		}
		put(name, percentile(v, p)*scale, len(v))
	}
	// layer reports the per-operation median of a span name.
	layer := func(name string, spanNames ...string) { med(name, perTrace(spans, spanNames...), 1) }
	ratio := func(name string, num, den float64, n int) {
		if den == 0 {
			put(name, 0, 0)
			return
		}
		put(name, num/den, n)
	}
	c := r.counts

	// End to end.
	med("setup_s", r.samples["setup"], 1)
	med("op_p50_ms", op, 1e3)
	put("op_mean_ms", mean(op)*1e3, len(op))
	med("lookup_p50_us", lookup, 1e6)
	put("lookup_mean_us", mean(lookup)*1e6, len(lookup))
	ratio("mallocs_per_op", float64(r.allocObj), float64(r.allocOps), r.allocOps)
	ratio("alloc_mb_per_op", float64(r.allocBytes)/1e6, float64(r.allocOps), r.allocOps)
	put("peak_rss_mb", peakRSSMB(), 1)

	// Per layer: spans first.
	for _, name := range []string{"graphx.simple", "graphx.connected", "graphx.diameter", "graphx.spectralgap",
		"benign.prepare", "expander.create", "expander.engine_new", "expander.run", "expander.final_graph",
		"wft.build_engine_new", "wft.build_run", "wft.extract", "wft.fromgraph",
		"wft.repair_plan", "wft.repair_engine_new", "wft.repair_run", "wft.repair_extract",
		"maintained.cc_sync", "maintained.st_sync", "maintained.mis_sync",
		"derived.first_read_ring", "derived.first_read_chord", "derived.first_read_hypercube", "derived.first_read_debruijn",
		"service.handler"} {
		layer(name+"_s", name)
	}
	layer("sim.new_s", "expander.engine_new", "wft.build_engine_new", "wft.repair_engine_new")
	var transport []float64
	for _, s := range spans {
		if s.Name == "request.lookup" || s.Name == "request.derived" || s.Name == "request.plan" {
			transport = append(transport, float64(self[s.ID])/1e9)
		}
	}
	med("service.transport_s", transport, 1)

	med("expander.evolutions", r.samples["expander.evolutions"], 1)
	med("expander.create_workers1_s", r.samples["expander.create_workers1"], 1)
	med("expander.rounds", r.samples["expander.rounds"], 1)
	med("expander.msgs", r.samples["expander.msgs"], 1)
	med("wft.build_rounds", r.samples["wft.build_rounds"], 1)
	med("wft.build_msgs", r.samples["wft.build_msgs"], 1)
	med("wft.repair_rounds", r.samples["wft.repair_rounds"], 1)
	med("wft.repair_msgs", r.samples["wft.repair_msgs"], 1)
	ratio("sim.ns_per_msg", c["sim.run_s"]*1e9, c["sim.msgs"], int(c["sim.engines_built"]))
	med("sim.round_p50_us", r.samples["sim.round"], 1e6)
	far("sim.round_p95_us", r.samples["sim.round"], 95, 1e6)
	put("sim.engines_built", c["sim.engines_built"], 1)
	ratio("sim.workers1_ns_per_msg", c["sim.w1_run_s"]*1e9, c["sim.w1_msgs"], 1)
	put("sim.fault_drops", c["sim.fault_drops"], 1)
	put("sim.fault_delays", c["sim.fault_delays"], 1)
	put("sim.capacity_drops", c["sim.capacity_drops"], 1)

	med("session.open_s", r.samples["session.open"], 1)
	med("session.apply_s", r.samples["session.apply"], 1)
	med("session.self_s", r.samples["session.self"], 1)
	med("session.residual_share", r.samples["session.residual_share"], 1)
	med("session.checkpoint_s", r.samples["session.checkpoint"], 1)
	if r.cfg.Workload == "churn_measured" || r.cfg.Workload == "churn_derived" {
		med("session.lookup_ns", lookup, 1e9)
	} else {
		put("session.lookup_ns", 0, 0)
	}
	put("session.attempts", c["session.attempts"], int(c["session.epochs"]))
	put("session.patch_retries", c["session.patch_retries"], int(c["session.epochs"]))
	put("session.rebuilds", c["session.rebuilds"], int(c["session.epochs"]))
	put("session.aborts", c["session.aborts"], int(c["session.epochs"]))
	ratio("session.commit_share", c["session.epochs"], c["session.attempts"], int(c["session.attempts"]))
	med("churn.gen_s", r.samples["churn.gen"], 1)
	med("derived.cached_read_ns", r.samples["derived.cached_read"], 1e9)
	med("derived.edges", r.samples["derived.edges"], 1)
	med("maintained.affected", r.samples["maintained.affected"], 1)
	ratio("maintained.incremental_share", c["maintained.incremental"], c["maintained.syncs"], int(c["maintained.syncs"]))

	med("service.create_s", r.samples["service.create"], 1)
	if r.cfg.Workload == "serve_churn" {
		med("service.plan_rtt_s", op, 1)
	} else {
		put("service.plan_rtt_s", 0, 0)
	}
	med("service.lookup_idle_p50_ms", r.samples["lookup.idle"], 1e3)
	ratio("service.lookup_blocked_share", c["lookup.blocked"], c["lookup.issued"], int(c["lookup.issued"]))
	med("service.derived_p50_ms", r.samples["service.derived"], 1e3)
	med("service.nodes_page_s", r.samples["service.nodes_page"], 1)
	ratio("service.stale_share", c["lookup.stale"], c["lookup.issued"], int(c["lookup.issued"]))
	for _, code := range []string{"410", "429", "503", "504"} {
		put("service.http_"+code, c["http_"+code], int(c["issued"]))
	}
	late := r.samples["gen.reader_late"]
	far("gen.reader_late_p99_ms", late, 99, 1e3)
	over := 0
	for _, l := range late {
		if l > lateLimit {
			over++
		}
	}
	ratio("gen.reader_late_share", float64(over), float64(len(late)), len(late))
	far("gen.writer_late_p95_ms", r.samples["gen.writer_late"], 95, 1e3)

	// Tracing overhead: the same operation span, traced over plain, as
	// the median over the run's traced/plain pairs. The run fails when
	// even the lower quartile of the pairs is over the limit: a single
	// pair on this host scatters by more than the limit itself, and fewer
	// than four pairs have no quartile to judge by.
	ovh := r.samples["ovh.ratio"]
	if len(ovh) > 0 {
		q1, q2, _ := quartiles(ovh)
		put("trace.overhead_share", q2-1, len(ovh))
		if q1-1 > overheadLimit && len(ovh) >= 4 && !r.cfg.Quick {
			r.violate("tracing slows the operation by %.3f (lower quartile of %d traced/plain pairs %.3f), limit %.2f", q2-1, len(ovh), q1-1, overheadLimit)
		}
	} else {
		put("trace.overhead_share", 0, 0)
	}
	put("trace.spans", float64(len(spans)), 1)
	if res := r.samples["session.residual_share"]; len(res) > 0 {
		if m := median(res); (m > residualLimit || m < -residualLimit) && !r.cfg.Quick {
			r.violate("the traced layers leave %.3f of session.apply_s unaccounted for, limit %.2f", m, residualLimit)
		}
	}

	// The demoted end-to-end candidates.
	far("op_p95_ms", op, 95, 1e3)
	far("lookup_p99_us", lookup, 99, 1e6)
	ratio("lookup_slo_miss_share", c["lookup.slo_miss"], c["lookup.issued"], int(c["lookup.issued"]))
	ratio("fail_share", float64(r.failed), float64(r.attempted), r.attempted)
	msgsName := "build.msgs_per_s"
	if r.cfg.Trace {
		msgsName += ".traced"
	}
	med("build_msgs_per_s", r.samples[msgsName], 1)
	if r.cfg.Workload == "churn_measured" {
		med("epoch_msgs_per_s", r.samples["epoch.msgs_per_s"], 1)
	} else {
		put("epoch_msgs_per_s", 0, 0)
	}
	for name := range units {
		r.violate("metric %s is declared in %s but not reported", name, contractPath)
	}
	return out
}
