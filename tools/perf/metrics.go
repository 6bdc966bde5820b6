package main

// metricDef describes one metric the benchmark reports. The tables
// below are the single definition: BENCHMARK.json, the README tables
// and the emitted results are all checked against them by the tests.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "higher" or "lower"
	Bound  float64 // end-to-end only: share of the baseline median it may worsen by
}

// endToEnd lists what a user of the system sees. Every metric is
// measured on every workload (the acceptance harness wants one value
// per metric per run); README.md says what each means per workload.
var endToEnd = []metricDef{
	// Work units completed per second of pass wall time: trace records
	// (analyze_*, live_monitor), packets (capture_pcap), NFS operations
	// (serve_*).
	{"work_per_s", "1/s", "higher", 0.25},
	// Median latency of one request: an NFS operation (serve_*);
	// elsewhere one whole run of the tool, per 100 000 units of input.
	{"lat_p50_ms", "ms", "lower", 0.25},
	// Tail latency: p99 of NFS operations (serve_*); elsewhere the third
	// quartile of the run times.
	{"lat_tail_ms", "ms", "lower", 0.25},
	// User + system CPU of every measured process per work unit.
	{"cpu_us_per_unit", "us", "lower", 0.25},
	// Peak resident set of the measured processes, summed; the smallest
	// over the passes, which is what the run needs (the rest is GC timing).
	{"peak_rss_mb", "MB", "lower", 0.25},
	// Wall time to produce the workload's inputs from the seed: generate,
	// convert, split, start daemons.
	{"setup_s", "s", "lower", 0.25},
}

// perLayer lists the single-layer metrics of the traced run; the layer
// is the package the name starts with. A metric reads 0 on a workload
// whose path does not cross that layer.
var perLayer = []metricDef{
	// analyze_text, analyze_binary → work_per_s
	{Name: "core.decode_serial_ns_per_rec", Unit: "ns", Better: "lower"},
	{Name: "core.decode_parallel_ns_per_rec", Unit: "ns", Better: "lower"},
	{Name: "core.decode_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "core.decode_allocs_per_rec", Unit: "count", Better: "lower"},
	{Name: "pipeline.join_ns_per_rec", Unit: "ns", Better: "lower"},
	{Name: "pipeline.join_allocs_per_rec", Unit: "count", Better: "lower"},
	{Name: "pipeline.join_matched_share", Unit: "ratio", Better: "higher"},
	{Name: "pipeline.route_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "pipeline.reduce_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "pipeline.finish_ms", Unit: "ms", Better: "lower"},
	{Name: "jobspec.render_ms", Unit: "ms", Better: "lower"},
	{Name: "pipeline.single_thread_records_per_s", Unit: "1/s", Better: "higher"},
	{Name: "pipeline.bottleneck_share", Unit: "ratio", Better: "lower"},
	{Name: "pipeline.stage_sum_over_wall", Unit: "ratio", Better: "higher"},
	{Name: "runtime.gc_cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "runtime.allocs_per_rec", Unit: "count", Better: "lower"},
	// every workload: fidelity of the in-process view
	{Name: "perf.inproc_over_cli", Unit: "ratio", Better: "lower"},
	// → setup_s
	{Name: "workload.gen_recs_per_s", Unit: "1/s", Better: "higher"},
	{Name: "core.binary_write_ns_per_rec", Unit: "ns", Better: "lower"},
	// analyze_dist → work_per_s
	{Name: "core.traceset_merge_ns_per_rec", Unit: "ns", Better: "lower"},
	{Name: "jobspec.runfiles_ms_per_piece", Unit: "ms", Better: "lower"},
	{Name: "state.bytes_per_piece", Unit: "B", Better: "lower"},
	{Name: "pipeline.write_partial_ms", Unit: "ms", Better: "lower"},
	{Name: "pipeline.read_partial_ms", Unit: "ms", Better: "lower"},
	{Name: "pipeline.merge_partials_ms", Unit: "ms", Better: "lower"},
	{Name: "dispatch.run_ms", Unit: "ms", Better: "lower"},
	{Name: "dispatch.transport_overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "dispatch.bytes_shipped", Unit: "B", Better: "lower"},
	{Name: "dispatch.assignments", Unit: "count", Better: "lower"},
	{Name: "dispatch.retries", Unit: "count", Better: "lower"},
	{Name: "dispatch.speculations", Unit: "count", Better: "lower"},
	{Name: "nfsanalyze.local_coord_wall_s", Unit: "s", Better: "lower"},
	{Name: "nfsanalyze.dist_overhead_ratio", Unit: "ratio", Better: "lower"},
	// live_monitor → work_per_s, lat_*
	{Name: "pipeline.push_join_ns_per_rec", Unit: "ns", Better: "lower"},
	{Name: "pipeline.live_feed_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "window.ring_add_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "pipeline.fork_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "pipeline.fork_max_ms", Unit: "ms", Better: "lower"},
	{Name: "pipeline.snapshot_finish_ms", Unit: "ms", Better: "lower"},
	{Name: "nfsmond.scrape_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "nfsmond.scrape_full_ms", Unit: "ms", Better: "lower"},
	// capture_pcap → work_per_s
	{Name: "pcap.read_ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "wire.decode_ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "wire.defrag_ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "tcpasm.add_ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "rpc.scan_ns_per_msg", Unit: "ns", Better: "lower"},
	{Name: "rpc.decode_ns_per_msg", Unit: "ns", Better: "lower"},
	{Name: "nfs.parse_ns_per_msg", Unit: "ns", Better: "lower"},
	{Name: "capture.sniffer_ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "core.marshal_ns_per_rec", Unit: "ns", Better: "lower"},
	{Name: "anon.record_ns_per_rec", Unit: "ns", Better: "lower"},
	{Name: "capture.decode_error_share", Unit: "ratio", Better: "lower"},
	{Name: "capture.orphan_reply_share", Unit: "ratio", Better: "lower"},
	// serve_read, serve_write → work_per_s, lat_p50_ms
	{Name: "nfs.encode_args_ns", Unit: "ns", Better: "lower"},
	{Name: "rpc.encode_call_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.write_record_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.read_record_ns", Unit: "ns", Better: "lower"},
	{Name: "rpc.decode_call_ns", Unit: "ns", Better: "lower"},
	{Name: "nfs.decode_args_ns", Unit: "ns", Better: "lower"},
	{Name: "server.handle_ns", Unit: "ns", Better: "lower"},
	{Name: "vfs.op_ns", Unit: "ns", Better: "lower"},
	{Name: "nfs.encode_res_ns", Unit: "ns", Better: "lower"},
	{Name: "rpc.encode_reply_ns", Unit: "ns", Better: "lower"},
	{Name: "rpc.decode_reply_ns", Unit: "ns", Better: "lower"},
	{Name: "nfs.decode_res_ns", Unit: "ns", Better: "lower"},
	{Name: "server.inproc_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "server.socket_share", Unit: "ratio", Better: "lower"},
	{Name: "server.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "wire.bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "vfs.parallel_speedup", Unit: "ratio", Better: "higher"},
	{Name: "client.read_p50_us", Unit: "us", Better: "lower"},
	{Name: "client.write_p50_us", Unit: "us", Better: "lower"},
	{Name: "client.meta_p50_us", Unit: "us", Better: "lower"},
}

func findMetric(defs []metricDef, name string) (metricDef, bool) {
	for _, d := range defs {
		if d.Name == name {
			return d, true
		}
	}
	return metricDef{}, false
}
