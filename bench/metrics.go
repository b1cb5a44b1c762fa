package main

// The metric catalog. BENCHMARK.json at the repository root repeats it
// for the driver; selftest_test.go fails if the two drift apart.

type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd is what a user of the file service sees, reported by every
// workload with tracing off.
var endToEnd = []metricDef{
	{"read_p50_us", "us", "lower", 0.20},
	{"read_tail_us", "us", "lower", 0.25},
	{"write_p50_us", "us", "lower", 0.20},
	{"write_tail_us", "us", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.20},
	{"cpu_us_per_op", "us", "lower", 0.20},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer is what the traced run reports: the ladder rungs first, then
// the counts and spans taken around the workload.
var perLayer = []metricDef{
	{name: "wire.rtt_small_ns", unit: "ns", better: "lower"},
	{name: "wire.rtt_page_ns", unit: "ns", better: "lower"},
	{name: "vproto.codec_small_ns", unit: "ns", better: "lower"},
	{name: "vproto.codec_page_ns", unit: "ns", better: "lower"},
	{name: "bufpool.get_release_ns", unit: "ns", better: "lower"},
	{name: "ipc.udp.echo_small_ns", unit: "ns", better: "lower"},
	{name: "ipc.udp.echo_page_ns", unit: "ns", better: "lower"},
	{name: "ipc.batched.echo_small_ns", unit: "ns", better: "lower"},
	{name: "ipc.batched.echo_page_ns", unit: "ns", better: "lower"},
	{name: "ipc.node.exchange_mem_ns", unit: "ns", better: "lower"},
	{name: "ipc.node.exchange_udp_ns", unit: "ns", better: "lower"},
	{name: "ipc.node.exchange_udp_allocs", unit: "count", better: "lower"},
	{name: "ipc.node.exchange_batched_ns", unit: "ns", better: "lower"},
	{name: "ipc.node.reply_seg_page_mem_ns", unit: "ns", better: "lower"},
	{name: "ipc.node.reply_seg_page_udp_ns", unit: "ns", better: "lower"},
	{name: "ipc.node.moveto_64k_us", unit: "us", better: "lower"},
	{name: "ipc.node.movefrom_64k_us", unit: "us", better: "lower"},
	{name: "rfs.store.mem_read_ns", unit: "ns", better: "lower"},
	{name: "rfs.store.file_read_ns", unit: "ns", better: "lower"},
	{name: "rfs.store.file_write_ns", unit: "ns", better: "lower"},
	{name: "rfs.client.read_hit_mem_ns", unit: "ns", better: "lower"},
	{name: "rfs.client.read_hit_udp_ns", unit: "ns", better: "lower"},
	{name: "rfs.client.read_hit_udp_allocs", unit: "count", better: "lower"},
	{name: "rfs.client.read_miss_udp_ns", unit: "ns", better: "lower"},
	{name: "rfs.client.write_udp_ns", unit: "ns", better: "lower"},
	{name: "rfs.client.write_udp_allocs", unit: "count", better: "lower"},
	{name: "rfs.client.read_64k_udp_us", unit: "us", better: "lower"},
	{name: "rfs.client.read_64k_udp_allocs", unit: "count", better: "lower"},
	{name: "rfs.client.write_64k_udp_us", unit: "us", better: "lower"},
	{name: "rfs.client.write_64k_udp_allocs", unit: "count", better: "lower"},
	{name: "rfs.router.read_hit_udp_ns", unit: "ns", better: "lower"},
	{name: "rfs.repl.write_udp_ns", unit: "ns", better: "lower"},
	{name: "rfs.inval.write_udp_ns", unit: "ns", better: "lower"},
	{name: "rfs.ccache.get_ns", unit: "ns", better: "lower"},
	{name: "rfs.cclient.read_hit_ns", unit: "ns", better: "lower"},
	{name: "obs.timing_on_delta_ns", unit: "ns", better: "lower"},
	{name: "ladder.residual_pct", unit: "%", better: "lower"},

	{name: "net.sends_per_op", unit: "1/op", better: "lower"},
	{name: "net.recvs_per_op", unit: "1/op", better: "lower"},
	{name: "ipc.retransmits_per_kop", unit: "1/kop", better: "lower"},
	{name: "ipc.overload_sheds_per_kop", unit: "1/kop", better: "lower"},
	{name: "ipc.dups_per_kop", unit: "1/kop", better: "lower"},
	{name: "ipc.exchange_p50_ns", unit: "ns", better: "lower"},
	{name: "ipc.exchange_p99_ns", unit: "ns", better: "lower"},
	{name: "rfs.op.read_p50_ns", unit: "ns", better: "lower"},
	{name: "rfs.op.write_p50_ns", unit: "ns", better: "lower"},
	{name: "rfs.cache.hit_ratio", unit: "ratio", better: "higher"},
	{name: "rfs.flush.blocks_per_run", unit: "count", better: "higher"},
	{name: "rfs.flush.runs_per_kop", unit: "1/kop", better: "lower"},
	{name: "rfs.store.reads_per_op", unit: "1/op", better: "lower"},
	{name: "rfs.store.writes_per_op", unit: "1/op", better: "lower"},
	{name: "rfs.store.write_amp", unit: "ratio", better: "lower"},
	{name: "rfs.repl.records_per_write", unit: "ratio", better: "lower"},
	{name: "rfs.repl.lag_max", unit: "count", better: "lower"},
	{name: "rfs.inval.callbacks_per_write", unit: "ratio", better: "lower"},
	{name: "rfs.inval.errs", unit: "count", better: "lower"},
	{name: "rfs.ccache.hit_ratio", unit: "ratio", better: "higher"},
	{name: "rfs.cclient.purges", unit: "count", better: "lower"},
	{name: "span.client_read.p50_us", unit: "us", better: "lower"},
	{name: "span.server_read.p50_us", unit: "us", better: "lower"},
	{name: "span.client_read.self_p50_us", unit: "us", better: "lower"},
	{name: "span.client_write.p50_us", unit: "us", better: "lower"},
	{name: "span.server_write.p50_us", unit: "us", better: "lower"},
	{name: "span.client_write.self_p50_us", unit: "us", better: "lower"},
	{name: "runtime.allocs_per_op", unit: "1/op", better: "lower"},
	{name: "runtime.bytes_per_op", unit: "B/op", better: "lower"},
	{name: "runtime.gc_cycles", unit: "count", better: "lower"},
	{name: "runtime.gc_pause_ms", unit: "ms", better: "lower"},
	{name: "runtime.peak_rss_mb", unit: "MB", better: "lower"},
	{name: "trace.overhead_pct", unit: "%", better: "lower"},
	{name: "host.factor", unit: "ratio", better: "lower"},
}

// missing is what a per-layer metric reads when its source is gone (a
// registry name a later change removed): the run still succeeds and
// stderr names the key.
const missing = -1.0
