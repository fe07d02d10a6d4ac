package main

// metricDef names a printed metric and its unit. BENCHMARK.json declares
// the same names; a test keeps the two in step.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics an untraced run prints.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"run_s", "s"},
	{"tick_ms_p50", "ms"},
	{"tick_ms_p95", "ms"},
	{"recovery_s", "s"},
	{"peak_mem_mb", "MB"},
	{"attrib_err_pct", "%"},
}

// perLayer are the metrics a traced run prints. Tick-path metrics are
// means per steady-state tick unless the README says otherwise.
var perLayer = []metricDef{
	{"calib.s", "s"},
	{"experiments.assemble_ms", "ms"},
	{"durable.open_ms", "ms"},
	{"sim.advance_us", "us"},
	{"sim.self_us", "us"},
	{"core.hook_us", "us"},
	{"core.hooks", "count"},
	{"core.hook_ns", "ns"},
	{"core.interrupts", "count"},
	{"core.switches", "count"},
	{"core.binds", "count"},
	{"core.io", "count"},
	{"core.forks", "count"},
	{"power.meter_us", "us"},
	{"power.samples", "count"},
	{"align.refits", "count"},
	{"align.rejected", "count"},
	{"align.fallbacks", "count"},
	{"align.refit_us", "us"},
	{"stream.consume_us", "us"},
	{"stream.records", "count"},
	{"stream.drift_evictions", "count"},
	{"stream.sink_us", "us"},
	{"stream.store_us", "us"},
	{"durable.wal_write_us", "us"},
	{"durable.wal_bytes", "bytes"},
	{"durable.wal_sync_us", "us"},
	{"durable.ckpt_ms", "ms"},
	{"durable.ckpt_bytes", "bytes"},
	{"runtime.alloc_kb", "KB"},
	{"runtime.mallocs", "count"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"recovery.open_ms", "ms"},
	{"recovery.replay_ms", "ms"},
	{"recovery.replayed_ticks", "count"},
	{"recovery.catchup_ms", "ms"},
	{"runtime.cpu_s", "s"},
	{"runner.busy_frac", "ratio"},
	{"runner.speedup_x", "x"},
	{"cluster.requests", "count"},
	{"trace.overhead_pct", "%"},
	{"trace.tick_us", "us"},
	{"trace.accounted_pct", "%"},
}
