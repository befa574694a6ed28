package main

// The benchmark's declared surface: workloads, end-to-end metrics and
// per-layer metrics. BENCHMARK.json at the repository root mirrors these
// tables by hand and bench_test.go fails when the two drift apart.

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	wSimPaper    = "sim_paper"
	wSimFull     = "sim_full"
	wProxyBare   = "proxy_bare"
	wProxyMbneck = "proxy_mbneck"
)

var workloadSpecs = []workloadSpec{
	{wSimPaper, "paper's unstable 4/4/1 config, all control planes off: engine, server, resource, netmodel, lb do all the work"},
	{wSimFull, "same topology with prequal, probing, admission, adapt, telemetry, events, spans armed: a plane gain shows only here"},
	{wProxyBare, "one serial client, 128-byte replies, no backend work or planes: per-request cost of net/http + Proxy.handle is the latency"},
	{wProxyMbneck, "16 clients, 8 ms service, 16 KiB replies, stalls, sticky mix, every plane on the path: pooling, queues and planes matter"},
}

// End-to-end metrics. Every workload reports every one (the driver's
// contract), so each is defined on both substrates; README.md gives the
// per-workload definition. Bounds are shares of the parent's median.
var endToEndSpecs = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.20},
	{"lat_p50_us", "us", "lower", 0.10},
	{"slo_share", "share", "higher", 0.10},
	{"alloc_bytes_per_op", "B/op", "lower", 0.05},
}

// Per-layer metrics, from the traced run. A layer a workload never
// enters reports 0 for its metrics there (the "predicted no change"
// rows of the README table).
var perLayerSpecs = []metricSpec{
	// sim engine
	{"sim.s_per_wall_s", "1/1", "higher", 0},
	{"sim.events_fired", "count", "lower", 0},
	{"sim.ns_per_event", "ns", "lower", 0},
	{"sim.schedule_fire_ns", "ns", "lower", 0},
	{"sim.schedule_fire_deep_ns", "ns", "lower", 0},
	{"sim.engine_share", "share", "lower", 0},
	// workload generator (sim)
	{"workload.issued", "count", "higher", 0},
	{"workload.completed", "count", "higher", 0},
	{"workload.events_per_req", "1/op", "lower", 0},
	// lb (sim balancer)
	{"lb.dispatch_ns", "ns", "lower", 0},
	{"lb.dispatches", "count", "higher", 0},
	{"lb.rejects", "count", "lower", 0},
	{"lb.share", "share", "lower", 0},
	// netmodel, server
	{"netmodel.drops", "count", "lower", 0},
	{"netmodel.retransmits", "count", "lower", 0},
	{"netmodel.giveups", "count", "lower", 0},
	{"server.web_served", "count", "higher", 0},
	{"server.app_served", "count", "higher", 0},
	{"server.db_served", "count", "higher", 0},
	// the modelled system's own outputs (simulated time)
	{"model.vlrt_share", "share", "lower", 0},
	{"model.rt_mean_ms", "ms", "lower", 0},
	{"model.rt_p99_ms", "ms", "lower", 0},
	{"model.failures", "count", "lower", 0},
	{"model.digest", "hash", "lower", 0},
	// metrics / stats recorders
	{"metrics.record_ns", "ns", "lower", 0},
	{"stats.hist_record_ns", "ns", "lower", 0},
	// control and observation planes
	{"admission.gate_ns", "ns", "lower", 0},
	{"admission.sheds", "count", "lower", 0},
	{"admission.limit_final", "count", "higher", 0},
	{"probe.observe_ns", "ns", "lower", 0},
	{"probe.pool_depth", "count", "higher", 0},
	{"telemetry.samples", "count", "higher", 0},
	{"obs.span_ns", "ns", "lower", 0},
	{"obs.events", "count", "higher", 0},
	{"adapt.decisions", "count", "lower", 0},
	{"mbneck.detected", "count", "higher", 0},
	// load generator's view (HTTP)
	{"client.req_per_s", "1/s", "higher", 0},
	{"client.fail_share", "share", "lower", 0},
	{"client.lat_p50_us", "us", "lower", 0},
	{"client.lat_p90_us", "us", "lower", 0},
	{"client.lat_p99_us", "us", "lower", 0},
	{"client.lat_top_us", "us", "lower", 0},
	{"client.lat_max_us", "us", "lower", 0},
	{"client.conn_reuse_share", "share", "higher", 0},
	{"client.floor_p50_us", "us", "lower", 0},
	// direct-to-backend arm and what the proxy adds over it
	{"backend.direct_p50_us", "us", "lower", 0},
	{"backend.direct_p99_us", "us", "lower", 0},
	{"proxy.added_p50_us", "us", "lower", 0},
	{"proxy.added_p99_us", "us", "lower", 0},
	// proxy self time and its upstream child
	{"proxy.self_p50_us", "us", "lower", 0},
	{"proxy.self_p99_us", "us", "lower", 0},
	{"upstream.roundtrip_p50_us", "us", "lower", 0},
	{"upstream.roundtrip_p99_us", "us", "lower", 0},
	{"upstream.get_conn_p50_us", "us", "lower", 0},
	{"upstream.get_conn_p99_us", "us", "lower", 0},
	{"upstream.ttfb_p50_us", "us", "lower", 0},
	{"upstream.round_trips", "count", "lower", 0},
	{"upstream.dials", "count", "lower", 0},
	{"upstream.dial_share", "share", "lower", 0},
	// httpcluster balancer and proxy counters
	{"httpcluster.acquire_release_ns", "ns", "lower", 0},
	{"httpcluster.acquire_session_ns", "ns", "lower", 0},
	{"httpcluster.served", "count", "higher", 0},
	{"httpcluster.errors", "count", "lower", 0},
	{"httpcluster.shed", "count", "lower", 0},
	{"httpcluster.retries", "count", "lower", 0},
	{"httpcluster.rejects", "count", "lower", 0},
	{"httpcluster.dispatch_spread", "ratio", "lower", 0},
	{"httpcluster.stalled_dispatch_share", "share", "lower", 0},
	{"httpcluster.sticky_violations", "count", "lower", 0},
	// injected millibottlenecks (HTTP)
	{"mbneck.stalls", "count", "lower", 0},
	{"mbneck.slow_share", "share", "lower", 0},
	{"mbneck.slow_per_stall", "1/stall", "lower", 0},
	// whole process
	{"mem.total_alloc_mb", "MB", "lower", 0},
	{"mem.mallocs_per_op", "1/op", "lower", 0},
	{"mem.gc_cycles", "count", "lower", 0},
	{"mem.sys_mb", "MB", "lower", 0},
	{"cpu.user_s", "s", "lower", 0},
	{"cpu.sys_s", "s", "lower", 0},
	{"cpu.us_per_op", "us/op", "lower", 0},
	// host slowdown the reference arm saw (reference.go); 1 = nominal
	{"ref.slowdown", "ratio", "lower", 0},
	// cost of the bench's own tracing
	{"trace.overhead_p50_us", "us", "lower", 0},
	{"trace.overhead_share", "share", "lower", 0},
}

func specByName(specs []metricSpec) map[string]metricSpec {
	m := make(map[string]metricSpec, len(specs))
	for _, s := range specs {
		m[s.Name] = s
	}
	return m
}
