package main

// metricDecl declares one metric the way BENCHMARK.json does; the test
// suite holds the two in agreement.
type metricDecl struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEndMetrics are what a user of the IDS sees, per workload, measured
// with tracing off. The timing bounds are as wide as the driver allows:
// on the shared 2-CPU host this was written on, back-to-back runs of the
// same binary differ by 10-15% for minutes at a time.
var endToEndMetrics = []metricDecl{
	{"setup_s", "s", "lower", 0.25},
	{"serial_fps", "1/s", "higher", 0.25},
	{"sharded_fps", "1/s", "higher", 0.25},
	{"serial_alert_lag_p50_us", "us", "lower", 0.25},
	{"sharded_alert_lag_p50_us", "us", "lower", 0.25},
	{"sharded_alert_lag_p90_us", "us", "lower", 0.25},
	{"heap_bytes_per_session", "B", "lower", 0.05},
}

// perLayerMetrics come from the traced run. README.md says which
// end-to-end metric each should move, on which workload.
var perLayerMetrics = []metricDecl{
	{Name: "capture.read_ns_per_frame", Unit: "ns", Better: "lower"},
	{Name: "capture.bytes_per_frame", Unit: "B", Better: "lower"},

	{Name: "packet.decode_ns_per_frame", Unit: "ns", Better: "lower"},
	{Name: "packet.reasm_ns_per_frag", Unit: "ns", Better: "lower"},
	{Name: "packet.reasm_groups", Unit: "count", Better: "higher"},
	{Name: "packet.stream_ns_per_seg", Unit: "ns", Better: "lower"},
	{Name: "packet.stream_ooo_share", Unit: "ratio", Better: "lower"},

	{Name: "rtp.peek_ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "rtcp.peek_ns_per_pkt", Unit: "ns", Better: "lower"},

	{Name: "sip.parse_ns_per_msg", Unit: "ns", Better: "lower"},
	{Name: "sip.parse_allocs_per_msg", Unit: "count", Better: "lower"},
	{Name: "sdp.parse_ns_per_body", Unit: "ns", Better: "lower"},
	{Name: "sip.framer_ns_per_msg", Unit: "ns", Better: "lower"},

	{Name: "distill.ns_per_frame", Unit: "ns", Better: "lower"},
	{Name: "distill.self_ns_per_frame", Unit: "ns", Better: "lower"},
	{Name: "distill.allocs_per_frame", Unit: "count", Better: "lower"},
	{Name: "distill.footprint_share", Unit: "ratio", Better: "higher"},
	{Name: "distill.slowpath_share", Unit: "ratio", Better: "lower"},
	{Name: "distill.mismatch_share", Unit: "ratio", Better: "lower"},

	{Name: "generator.ns_per_view", Unit: "ns", Better: "lower"},
	{Name: "generator.ns_per_view.rtp", Unit: "ns", Better: "lower"},
	{Name: "generator.ns_per_view.rtcp", Unit: "ns", Better: "lower"},
	{Name: "generator.ns_per_view.sip", Unit: "ns", Better: "lower"},
	{Name: "generator.events_per_view", Unit: "ratio", Better: "lower"},
	{Name: "generator.allocs_per_view", Unit: "count", Better: "lower"},
	{Name: "trail.append_ns", Unit: "ns", Better: "lower"},

	{Name: "rules.feed_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "rules.feed_ns_per_event_x1k", Unit: "ns", Better: "lower"},
	{Name: "rules.events", Unit: "count", Better: "lower"},
	{Name: "rules.alerts", Unit: "count", Better: "higher"},

	{Name: "engine.ns_per_frame.rtp", Unit: "ns", Better: "lower"},
	{Name: "engine.ns_per_frame.rtcp", Unit: "ns", Better: "lower"},
	{Name: "engine.ns_per_frame.sip", Unit: "ns", Better: "lower"},
	{Name: "engine.ns_per_frame.frag", Unit: "ns", Better: "lower"},
	{Name: "engine.ns_per_frame.tcpseg", Unit: "ns", Better: "lower"},
	{Name: "engine.ns_per_frame.mismatch", Unit: "ns", Better: "lower"},
	{Name: "engine.allocs_per_frame", Unit: "count", Better: "lower"},
	{Name: "engine.alloc_bytes_per_frame", Unit: "B", Better: "lower"},
	{Name: "engine.gc_count", Unit: "count", Better: "lower"},
	{Name: "engine.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.trace_overhead_pct", Unit: "%", Better: "lower"},

	{Name: "sharded.router_ns_per_frame", Unit: "ns", Better: "lower"},
	{Name: "sharded.router_busy_share", Unit: "ratio", Better: "lower"},
	{Name: "sharded.drain_ms", Unit: "ms", Better: "lower"},
	{Name: "sharded.merge_ms", Unit: "ms", Better: "lower"},
	{Name: "sharded.shard_skew", Unit: "ratio", Better: "lower"},
	{Name: "sharded.frames_shed", Unit: "count", Better: "lower"},
	{Name: "sharded.speedup_vs_serial", Unit: "ratio", Better: "higher"},
	{Name: "sharded.fps.i1s1", Unit: "1/s", Better: "higher"},
	{Name: "sharded.fps.i2s2", Unit: "1/s", Better: "higher"},

	{Name: "snapshot.encode_ms", Unit: "ms", Better: "lower"},
	{Name: "snapshot.restore_ms", Unit: "ms", Better: "lower"},
	{Name: "snapshot.bytes", Unit: "B", Better: "lower"},
	{Name: "snapshot.bytes_per_session", Unit: "B", Better: "lower"},

	{Name: "digest.encode_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "digest.decode_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "digest.bytes_per_event", Unit: "B", Better: "lower"},
	{Name: "coop.merge_ns_per_event", Unit: "ns", Better: "lower"},

	{Name: "alerts.lag_p99_us.serial", Unit: "us", Better: "lower"},
	{Name: "alerts.lag_p99_us.sharded", Unit: "us", Better: "lower"},
	{Name: "alerts.lag_max_us.sharded", Unit: "us", Better: "lower"},
	{Name: "alerts.samples", Unit: "count", Better: "higher"},
	{Name: "pacer.late_p99_us", Unit: "us", Better: "lower"},
	{Name: "pacer.late_max_us", Unit: "us", Better: "lower"},
}
