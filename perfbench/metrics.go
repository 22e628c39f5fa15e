package main

// MetricDef names a reported metric and its unit.
type MetricDef struct {
	Name string
	Unit string
}

// e2eMetrics are reported by every untraced run. Their meaning per
// workload (README.md): throughput is simulated cycles per second on the
// sim workloads, compile jobs per second on compile-sweep and sessions per
// second on service-mix; latency_ms is the median time of the workload's
// unit of work.
var e2eMetrics = []MetricDef{
	{"setup_s", "s"},
	{"throughput", "1/s"},
	{"latency_ms", "ms"},
	{"rss_mb", "MiB"},
}

// selfLayers are the layers whose share of traced self time is reported.
var selfLayers = []string{"bench", "firrtl", "cgraph", "core", "sim", "verify", "codegen", "service", "hostmodel"}

// layerMetrics are reported by every traced run; a layer the workload
// does not call reports 0.
var layerMetrics = func() []MetricDef {
	ms := []MetricDef{
		{"firrtl.parse_ms", "ms"}, {"firrtl.flatten_ms", "ms"}, {"firrtl.lower_ms", "ms"},
		{"cgraph.build_ms", "ms"}, {"core.partition_ms", "ms"},
	}
	for _, d := range sweepDesigns {
		ms = append(ms,
			MetricDef{"core.k8.replication_cost." + d, "ratio"},
			MetricDef{"core.k8.cut_cost." + d, "count"},
			MetricDef{"core.k8.derep_regs." + d, "count"},
			MetricDef{"core.k8.imbalance." + d, "ratio"})
	}
	ms = append(ms, []MetricDef{
		{"sim.compile_ms", "ms"}, {"sim.link_ms", "ms"},
		{"sim.instrs_per_cycle", "count"}, {"sim.fusion_rate", "ratio"},
		{"verify.program_ms", "ms"},
		{"codegen.kernel_ms", "ms"}, {"codegen.build_s", "s"}, {"codegen.native_speedup", "ratio"},
		{"sim.eval_us", "us"}, {"sim.eval_wait_us", "us"}, {"sim.commit_us", "us"}, {"sim.commit_wait_us", "us"},
		{"sim.imbalance", "ratio"}, {"sim.speedup", "ratio"},
		{"sim.run1_us", "us"}, {"sim.peek_us", "us"}, {"sim.call_overhead_us", "us"},
		{"service.compile_ms", "ms"}, {"service.create_ms", "ms"}, {"service.poke_ms", "ms"},
		{"service.run_ms", "ms"}, {"service.peek_ms", "ms"}, {"service.checkpoint_ms", "ms"},
		{"service.restore_ms", "ms"}, {"service.close_ms", "ms"},
		{"service.cache_hit_rate", "ratio"}, {"service.lanes_per_run", "count"},
		{"service.batch_occupancy", "ratio"}, {"service.overloads", "count"},
		{"trace.overhead", "ratio"}, {"hostmodel.modeled_khz", "kHz"},
	}...)
	for _, l := range selfLayers {
		ms = append(ms, MetricDef{l + ".self_share", "ratio"})
	}
	return ms
}()
