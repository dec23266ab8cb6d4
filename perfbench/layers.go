package main

// layerMetric is one per-layer metric of the traced run.
type layerMetric struct{ name, unit string }

// perLayer lists every per-layer metric a traced run reports, in the order
// BENCHMARK.json lists them. A workload reports 0 for a metric of a layer
// it bypasses. The comment above each group names the end-to-end metric
// the group should move.
var perLayer = []layerMetric{
	// sim-specmix → ns_per_access: the three parts of a simulated access.
	{"trace.gen_ns_per_access", "ns"},
	{"coherence.ns_per_access", "ns"},
	{"sim.self_ns_per_access", "ns"},
	// sim-specmix → setup_s: machine construction (sim.New).
	{"coherence.build_ms", "ms"},
	// sim-specmix: simulated statistics, which a speed-only change must
	// leave identical.
	{"cachesim.l1_hit_rate", "ratio"},
	{"cachesim.l2_hit_rate", "ratio"},
	{"directory.edtd_hits", "count"},
	{"core.vd_hits", "count"},
	{"directory.mem_fetches", "count"},
	{"core.td_to_vd", "count"},
	{"core.vd_to_td", "count"},
	{"core.vd_drop", "count"},
	{"core.eb_probe_ratio", "ratio"},
	{"cuckoo.vd_self_conflicts", "count"},
	{"sim.total_ipc", "instr/cycle"},
	{"sim.max_cycles", "cycles"},
	// leak-trials → trials_per_s, ns_per_access and alloc_mb.
	{"coherence.reset_us", "us"},
	{"attack.driver_us", "us"},
	{"leakage.shard_ms", "ms"},
	{"stats.merge_ms", "ms"},
	{"attack.round_ns_per_access", "ns"},
	{"attack.accesses_per_trial", "count"},
	{"leakage.allocs_per_trial", "count"},
	// serve-leak → job_p50_s, job_p90_s and jobs_per_s.
	{"server.submit_ms", "ms"},
	{"server.queue_wait_ms", "ms"},
	{"server.notify_ms", "ms"},
	{"server.result_ms", "ms"},
	{"server.run_ms", "ms"},
	{"server.service_tax_ms", "ms"},
	// serve-leak → setup_s and jobs_per_s; close and verify record the
	// store's read path beside its write path.
	{"store.open_ms", "ms"},
	{"store.flushes", "count"},
	{"store.records_per_flush", "count"},
	{"store.close_ms", "ms"},
	{"store.verify_ms", "ms"},
	// serve-leak's fleet probe, jobs of the same shape sent as fleet jobs
	// → job_p50_s and jobs_per_s of a fleet deployment.
	{"fleet.shard_ms", "ms"},
	{"fleet.coordinator_ms", "ms"},
	{"fleet.worker_busy_share", "ratio"},
	{"fleet.useful_shard_ratio", "ratio"},
	// Every workload → its throughput metric and alloc_mb.
	{"runtime.gc_cpu_share", "ratio"},
	{"cachesim.cpu_share", "ratio"},
	{"cuckoo.cpu_share", "ratio"},
	{"core.cpu_share", "ratio"},
	{"directory.cpu_share", "ratio"},
	{"coherence.cpu_share", "ratio"},
	{"sim.cpu_share", "ratio"},
	{"trace.cpu_share", "ratio"},
	{"attack.cpu_share", "ratio"},
	{"leakage.cpu_share", "ratio"},
	{"stats.cpu_share", "ratio"},
	{"server.cpu_share", "ratio"},
	{"store.cpu_share", "ratio"},
	{"fleet.cpu_share", "ratio"},
	{"runtime.cpu_share", "ratio"},
	{"other.cpu_share", "ratio"},
	// Every workload: span self time of the benchmark's calls into each
	// layer, and the unattributed rest, as shares of operation time.
	{"trace.self_share", "ratio"},
	{"coherence.self_share", "ratio"},
	{"sim.self_share", "ratio"},
	{"leakage.self_share", "ratio"},
	{"server.self_share", "ratio"},
	{"other.self_share", "ratio"},
	// Every workload: traced minus untraced median operation latency.
	{"tracing.overhead_ms", "ms"},
}
