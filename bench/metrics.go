package main

// metricDef names one metric and its unit. The two lists below are the
// benchmark's vocabulary; BENCHMARK.json at the repository root repeats
// them for the driver (TestBenchmarkJSON keeps the two in step).
type metricDef struct {
	name, unit string
	lower      bool // lower is better
}

// endToEndMetrics are what a user of the two programs would see, measured
// with tracing off. On the daemon workloads a request is one HTTP GET
// through the proxy; on the simulator workloads the latency metrics treat
// one `icnsim` invocation as the request (see README).
var endToEndMetrics = []metricDef{
	{"setup_s", "s", true},
	{"req_per_s", "1/s", false},
	{"cpu_us_per_req", "us", true},
	{"peak_rss_mb", "MiB", true},
	{"latency_p50_us", "us", true},
	{"latency_p95_us", "us", true},
	{"ttfb_p50_us", "us", true},
}

// perLayerMetrics come from the traced run. The prefix is the module the
// number belongs to.
var perLayerMetrics = []metricDef{
	// Black-box daemon, /debug/metrics deltas over a closed-loop phase.
	{"proxy.busy_us_per_req", "us", true},
	{"proxy.hit_ratio", "ratio", false},
	{"proxy.response_bytes_per_req", "B", true},
	{"resolver.busy_us_per_req", "us", true},
	{"resolver.requests_per_req", "ratio", true},
	{"origin.busy_us_per_req", "us", true},
	{"origin.requests_per_req", "ratio", true},
	{"origin.store_hits_per_req", "ratio", true},
	{"overload.proxy_queue_wait_us_per_req", "us", true},
	{"overload.proxy_limit_min", "count", false},
	{"overload.shed_total", "count", true},
	{"origin.concurrent_miss_crash", "count", true},

	// In-process stack with the benchmark's own spans on every boundary.
	{"proxy.self_us", "us", true},
	{"proxy.resolve_wait_us", "us", true},
	{"proxy.fetch_wait_us", "us", true},
	{"resolver.handler_us", "us", true},
	{"origin.handler_us", "us", true},
	{"httpx.hop_us", "us", true},
	{"overload.middleware_us", "us", true},
	{"obs.instrument_us", "us", true},

	// Layer functions called directly on the workload's inputs.
	{"names.parse_ns", "ns", true},
	{"names.verify_content_us", "us", true},
	{"metalink.verify_response_us", "us", true},
	{"metalink.build_headers_us", "us", true},
	{"resolver.registry_resolve_ns", "ns", true},
	{"overload.acquire_release_ns", "ns", true},
	{"proxy.get_hit_ns", "ns", true},
	{"proxy.get_hit_allocs", "count", true},

	// Simulator, through its public entry points.
	{"topo.build_ms", "ms", true},
	{"trace.gen_ns_per_req", "ns", true},
	{"trace.wait_share", "ratio", true},
	{"sim.new_ms", "ms", true},
	{"sim.run_ns_per_req.EDGE", "ns", true},
	{"sim.run_ns_per_req.EDGE-Coop", "ns", true},
	{"sim.run_ns_per_req.ICN-SP", "ns", true},
	{"sim.run_ns_per_req.ICN-NR", "ns", true},
	{"sim.stream_ns_per_req_w1", "ns", true},
	{"sim.stream_ns_per_req_wN", "ns", true},
	{"sim.worker_speedup", "ratio", false},
	{"sim.stream_over_run_ratio.ICN-NR", "ratio", true},
	{"sim.exchange_ns_per_req", "ns", true},
	{"sim.allocs_per_req", "count", true},
	{"cache.lru_ns_per_op", "ns", true},
	{"cache.lru_hit_ratio", "ratio", false},
	{"cache.arc_ns_per_op", "ns", true},
	{"cache.arc_hit_ratio", "ratio", false},
	{"cache.car_ns_per_op", "ns", true},
	{"cache.car_hit_ratio", "ratio", false},
	{"cache.tinylfu_ns_per_op", "ns", true},
	{"cache.tinylfu_hit_ratio", "ratio", false},
	{"sim.served_leaf_share", "ratio", false},
	{"sim.served_origin_share", "ratio", true},
	{"sim.evictions_per_req", "ratio", true},
	{"sim.transfers_per_req", "ratio", true},

	// How much of what was measured is the harness itself.
	{"client.cpu_us_per_req", "us", true},
	{"client.late_p99_us", "us", true},
	{"client.latency_p99_us", "us", true},
	{"client.latency_p999_us", "us", true},
	{"harness.tracing_overhead_pct", "%", true},
	{"harness.inproc_over_daemon_ratio", "ratio", true},
}

func unitOf(name string) string {
	for _, list := range [][]metricDef{endToEndMetrics, perLayerMetrics} {
		for _, d := range list {
			if d.name == name {
				return d.unit
			}
		}
	}
	panic("bench: metric " + name + " is not declared in metrics.go")
}
