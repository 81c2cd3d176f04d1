package main

// layerMetrics names every per-layer metric with its unit, in the
// order BENCHMARK.json lists them. Every traced run reports all of
// them: a metric measured over the workload's window is 0 on a
// workload that leaves its layer idle, and a probe metric is measured
// on every workload, on inputs cut from the run's seed.
var layerMetrics = [][2]string{
	// Window: what the generator saw at the HTTP boundary.
	{"serve.ack_p50_ms", "ms"},
	{"serve.ack_p99_ms", "ms"},
	{"serve.stats_p50_ms", "ms"},
	{"serve.shed_429", "count"},
	{"serve.http_errors", "count"},
	// Window: the daemon's own /metricsz counters and gauges.
	{"ingest.fsyncs_per_batch", "ratio"},
	{"ingest.wal_bytes_per_user_byte", "ratio"},
	{"ingest.queue_depth_p95", "count"},
	{"ingest.inflight_bytes_max", "bytes"},
	{"ingest.checkpoints", "count"},
	{"ingest.checkpoint_bytes", "bytes"},
	{"ingest.wal_seals", "count"},
	{"ingest.visible_p50_ms", "ms"},
	{"ingest.visible_p99_ms", "ms"},
	{"ingest.visible_lag_p50_ms", "ms"},
	{"ingest.visible_lag_p95_ms", "ms"},
	{"ingest.visible_lag_p99_ms", "ms"},
	// After the window: the dead daemon's directory reopened.
	{"ingest.reopen_ms", "ms"},
	{"ingest.recovery_read_bytes", "bytes"},
	{"ingest.replayed_batches", "count"},
	// Window: the job API as its client saw it.
	{"sched.submit_ack_p50_ms", "ms"},
	{"sched.report_fetch_p50_ms", "ms"},
	{"sched.shed", "count"},
	{"sched.failed", "count"},
	// Window: the process under test and the generator.
	{"proc.cpu_cores", "cores"},
	{"proc.cpu_us_per_record", "us"},
	{"loadgen.late_p99_ms", "ms"},
	{"loadgen.late_max_ms", "ms"},
	{"bench.op_tail_ms", "ms"},
	{"bench.records_per_s", "records/s"},
	{"bench.trace_overhead_pct", "%"},
	{"bench.failed_share", "ratio"},
	// Probes: public functions timed in this process.
	{"serve.events_handler_us", "us"},
	{"serve.events_self_us", "us"},
	{"serve.stats_handler_ms", "ms"},
	{"serve.stats_self_ms", "ms"},
	{"ingest.ingest_call_us", "us"},
	{"ingest.allocs_per_batch", "count"},
	{"ingest.alloc_bytes_per_batch", "bytes"},
	{"ingest.stats_call_ms", "ms"},
	{"ingest.stats_probe_us", "us"},
	{"frame.append_4k_mb_per_s", "MB/s"},
	{"frame.append_64k_mb_per_s", "MB/s"},
	{"frame.verify_4k_mb_per_s", "MB/s"},
	{"frame.verify_64k_mb_per_s", "MB/s"},
	{"kvenc.sort_mb_per_s", "MB/s"},
	{"kvenc.merge_mb_per_s", "MB/s"},
	{"bytestore.pool_getput_ns", "ns"},
	{"hashfam.sum64_ns", "ns"},
	{"workload.gen_mb_per_s", "MB/s"},
	{"engine.job_sm_s", "s"},
	{"engine.job_inc_s", "s"},
	{"engine.sim_overhead_x", "x"},
	{"engine.virtual_s", "s"},
	{"engine.map_finish_virtual_s", "s"},
	{"engine.map_spill_bytes", "bytes"},
	{"engine.shuffle_bytes", "bytes"},
	{"engine.reduce_spill_bytes", "bytes"},
	{"engine.io_requests", "count"},
	{"engine.output_records", "count"},
	{"engine.allocs_per_job", "count"},
	{"engine.alloc_mb_per_job", "MB"},
	{"proc.gc_pause_ms", "ms"},
	{"realexec.job_sm_s", "s"},
	{"realexec.job_inc_s", "s"},
	{"realexec.job_inc_w1_s", "s"},
	{"realexec.map_finish_s", "s"},
	{"sched.submit_call_ms", "ms"},
	{"sched.overhead_ms", "ms"},
	{"sched.runs_call_ms", "ms"},
	{"jobstore.fsyncs_per_job", "ratio"},
	{"jobstore.log_bytes_per_job", "bytes"},
	{"jobstore.snapshots", "count"},
}

// zeroLayerMetrics starts every per-layer metric at 0.
func zeroLayerMetrics() metrics {
	m := make(metrics, len(layerMetrics))
	for _, l := range layerMetrics {
		m.set(l[0], 0, l[1])
	}
	return m
}
