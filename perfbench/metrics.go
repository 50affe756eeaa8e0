package main

// defaultSeconds is the run length BENCHMARK.json declares.
const defaultSeconds = 15

// classes are the eight query classes of the serving mix, in the order
// the report lists them.
var classes = []string{
	"set_by_id", "sets_contains", "sets_top", "sets_ranked",
	"patterns_by_vertex", "vertex", "epsilon_indexed", "epsilon_computed",
}

// endToEnd are the metrics every untraced run reports, with the bound
// by which each may get worse. Every workload reports every one of
// them, so each is a role that each workload fills; README.md has the
// table:
//
//	setup_s      CPU time of the benchmark process per set-up (median)
//	mine_wall_ms median wall time, net of CPU steal (steal.go), per exact
//	             Mine call at nproc: the measured calls (mine-*), the
//	             Mine that builds the served index in each set-up
//	             (serve-dblp, update-dblp)
//	cpu_ms       CPU time per exact Mine (mine-*), server CPU per request
//	             at 100 req/s (serve-dblp), server CPU per read with the
//	             remines included (update-dblp)
//	alt_cpu_ms   CPU time per Mine at parallelism 1 (mine-dblp), per
//	             sampled Mine (mine-dense), gateway-fleet CPU per request
//	             (serve-dblp), server CPU of the first update after an
//	             mmap boot (update-dblp)
//	memory_bytes Go heap peak per Mine call (mine-*), server VmHWM
//	             (serve-dblp), server live heap after the updates and a
//	             forced GC (update-dblp)
//
// The serving latencies and the other wall-clock numbers are measured
// too but not gated: on a shared 2-vCPU VM they move by 20–90% between
// runs of the same code (README.md).
var endToEnd = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "mine_wall_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "cpu_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "alt_cpu_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "memory_bytes", Unit: "bytes", Better: "lower", Bound: 0.2},
}

// perLayer are the metrics every traced run reports. A layer a workload
// does not exercise reports 0.
var perLayer = func() []metricSpec {
	lower := func(name, unit string) metricSpec { return metricSpec{Name: name, Unit: unit, Better: "lower"} }
	higher := func(name, unit string) metricSpec { return metricSpec{Name: name, Unit: unit, Better: "higher"} }
	ms := []metricSpec{
		// The workloads' own wall-clock end-to-end numbers.
		lower("e2e.setup_wall_s", "s"),
		lower("e2e.mine_s", "s"),
		lower("e2e.mine_p1_s", "s"),
		lower("e2e.mine_sampled_s", "s"),
		lower("e2e.mine_heap_peak_bytes", "bytes"),
		lower("e2e.query_p50_ms", "ms"),
		lower("e2e.query_p99_ms", "ms"),
		higher("e2e.max_qps", "1/s"),
		higher("e2e.saturated_qps", "1/s"),
		lower("e2e.gateway_query_p50_ms", "ms"),
		lower("e2e.gateway_query_p99_ms", "ms"),
		lower("e2e.boot_s", "s"),
		lower("e2e.update_visible_s", "s"),
		lower("e2e.first_update_visible_s", "s"),
		lower("e2e.server_rss_bytes", "bytes"),
		lower("run.error_ratio", "ratio"),
		lower("trace.overhead_ms", "ms"),

		lower("datagen.generate_s", "s"),

		lower("core.mine_s", "s"),
		lower("core.sets_evaluated", "count"),
		lower("core.sets_emitted", "count"),
		lower("core.patterns_emitted", "count"),
		lower("core.allocs", "count"),
		lower("core.alloc_bytes", "bytes"),
		lower("core.gc_cycles", "count"),
		lower("core.cpu_self_s", "s"),
		lower("sort.cpu_self_s", "s"),

		lower("epsilon.cpu_self_s", "s"),
		lower("epsilon.certstore.cpu_self_s", "s"),
		lower("epsilon.estimate_ms", "ms"),

		lower("core.search_nodes", "count"),
		lower("core.sampled_vertices", "count"),
		lower("quasiclique.cpu_self_s", "s"),
		lower("bitset.cpu_self_s", "s"),

		lower("nullmodel.cpu_self_s", "s"),

		lower("runtime.gc_cpu_s", "s"),
		lower("runtime.malloc_cpu_s", "s"),

		lower("graph.apply_ms", "ms"),
		lower("graph.dirty_attrs", "count"),

		lower("core.remine_s", "s"),
		lower("core.first_remine_s", "s"),
		higher("core.reused_sets", "count"),
		lower("core.recomputed_sets", "count"),
		lower("server.remine_s", "s"),
		lower("server.updates_per_remine", "ratio"),

		lower("index.build_s", "s"),
		lower("index.rebuild_s", "s"),
		lower("index.first_query_ms", "ms"),
		lower("index.cpu_self_s", "s"),
	}
	for _, c := range classes {
		ms = append(ms, lower("index.lookup_ms."+c, "ms"))
	}
	ms = append(ms,
		lower("snapshot.write_s", "s"),
		lower("snapshot.bytes", "bytes"),
		lower("snapshot.open_ms", "ms"),
	)
	for _, c := range classes {
		ms = append(ms, lower("server.handler_ms."+c, "ms"))
	}
	for _, c := range classes {
		ms = append(ms, lower("server.bytes."+c, "bytes"))
	}
	ms = append(ms,
		lower("server.http_overhead_ms", "ms"),
		lower("server.cpu_self_s", "s"),
		higher("server.eps_cache_hit_ratio", "ratio"),
		lower("server.eps_cache_evictions", "count"),
		lower("encoding_json.cpu_self_s", "s"),
		lower("net_http.cpu_self_s", "s"),

		lower("shard.plan_s", "s"),
		lower("shard.mine_max_s", "s"),
		lower("shard.merge_s", "s"),

		lower("gateway.overhead_ms", "ms"),
		lower("gateway.shard_request_ms", "ms"),
		lower("gateway.retries", "count"),
		lower("gateway.partial_responses", "count"),

		lower("loadgen.late_ms_p99", "ms"),
		higher("loadgen.sent", "count"),
		lower("loadgen.conns", "count"),
	)
	return ms
}()
