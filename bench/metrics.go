package main

// metricDef names one metric and its unit. BENCHMARK.json at the
// repository root lists the same names and units (TestBenchmarkJSON
// holds the two together); a run prints every one of them, 0 where the
// workload does not exercise the layer.
type metricDef struct {
	name, unit string
}

// endToEndMetrics are measured untraced and carry regression bounds.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"cpu_s", "s"},
	{"avg_turn_s", "sim_s"},
	{"peak_rss_mb", "MB"},
	{"alloc_mb", "MB"},
}

// perLayerMetrics come from the traced run and carry no bound. `_ms` is
// summed self time per pass, `_calls` a count per pass; both are the
// median over the run's traced repetitions.
var perLayerMetrics = []metricDef{
	// Set-up.
	{"experiments.env_build_ms", "ms"},
	{"trace.synthesize_ms", "ms"},
	{"trace.swf_parse_ms", "ms"},
	// Level A: the bench-owned event loop over sim.Queue + svc.Cluster.
	{"svc.submit_ms", "ms"},
	{"svc.submit_calls", "count"},
	{"svc.round_ms", "ms"},
	{"svc.round_calls", "count"},
	{"svc.round_p99_us", "us"},
	{"svc.placed_per_round", "count"},
	{"svc.complete_ms", "ms"},
	{"svc.complete_calls", "count"},
	{"sim.queue_self_ms", "ms"},
	{"sim.events", "count"},
	{"trace.loop_self_ms", "ms"},
	{"svc.snapshot_ms", "ms"},
	{"svc.restore_ms", "ms"},
	{"svc.snapshot_mb", "MB"},
	// Level B: the bench-wired round over the placement kernel.
	{"placement.queue_self_ms", "ms"},
	{"placement.queue_len_max", "count"},
	{"placement.place_ok_ms", "ms"},
	{"placement.place_ok_calls", "count"},
	{"placement.place_fail_ms", "ms"},
	{"placement.place_fail_calls", "count"},
	{"placement.place_ok_ratio", "ratio"},
	{"placement.reserve_ms", "ms"},
	{"placement.reserve_nodes", "count"},
	{"placement.release_ms", "ms"},
	{"placement.release_nodes", "count"},
	{"placement.invalidate_ms", "ms"},
	{"placement.ns_per_node_mut", "ns"},
	{"placement.state_new_ms", "ms"},
	// Inside Place and below: CPU-profile shares of the traced passes.
	{"cpu.placement_walk_pct", "%"},
	{"cpu.placement_flush_pct", "%"},
	{"cpu.placement_merge_pct", "%"},
	{"cpu.placement_mutate_pct", "%"},
	{"cpu.placement_invalidate_pct", "%"},
	{"cpu.placement_queue_pct", "%"},
	{"cpu.placement_other_pct", "%"},
	{"cpu.svc_pct", "%"},
	{"cpu.sim_trace_pct", "%"},
	{"cpu.testbed_pct", "%"},
	{"cpu.http_json_pct", "%"},
	{"cpu.runtime_gc_pct", "%"},
	{"cpu.runtime_alloc_pct", "%"},
	{"cpu.bench_pct", "%"},
	{"cpu.unmatched_pct", "%"},
	// The testbed scheduler, driven directly.
	{"sched.new_ms", "ms"},
	{"sched.submit_ms", "ms"},
	{"sched.run_ms.CE", "ms"},
	{"sched.run_ms.CS", "ms"},
	{"sched.run_ms.SNS", "ms"},
	{"experiments.sns_gain_pct", "%"},
	// The daemon, phase by phase.
	{"api.admit_jobs_per_s", "1/s"},
	{"api.op_ms_p50", "ms"},
	{"api.op_ms_p99", "ms"},
	{"api.post_ms_p50", "ms"},
	{"api.post_ms_p99", "ms"},
	{"api.wait_ms_p50", "ms"},
	{"api.wait_ms_p99", "ms"},
	{"api.polls_per_op", "count"},
	{"api.get_job_ms_p50", "ms"},
	{"api.get_job_ms_p99", "ms"},
	{"api.stats_ms_p50", "ms"},
	{"api.cancel_ms_p50", "ms"},
	{"api.cancel_ms_p99", "ms"},
	{"api.http_429", "count"},
	{"api.overhead_x", "ratio"},
	{"loadgen.slo_miss_frac", "ratio"},
	// The process and the machine.
	{"runtime.cpu_s", "s"},
	{"runtime.alloc_mb", "MB"},
	{"runtime.mallocs", "count"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"bench.pass_wall_s", "s"},
	{"bench.trace_overhead_pct", "%"},
	{"machine.spin_before_ms", "ms"},
	{"machine.spin_after_ms", "ms"},
	{"machine.sleep_late_p99_ms", "ms"},
	// Opt-in kernel widths, fig20_sns only.
	{"variant.flat_s", "s"},
	{"variant.shards64_s", "s"},
	{"variant.mutworkers_s", "s"},
	{"variant.shards64_mutworkers_s", "s"},
}
