package main

import (
	"math"
	"sort"
)

// metricDef is one row of the benchmark's contract: BENCHMARK.json repeats
// these tables, and bench_test.go fails if the two disagree.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // share of the parent's median it may worsen by; 0 for per-layer metrics
}

// endToEnd is what a caller of iosserve or a fleet of them would notice. Every
// workload reports every one.
//
// The four timed metrics carry the contract's widest bound, 25 %. On the
// 2-core shared box this was written on, identical code drifted 15-50 % raw
// from run to run and 5-14 % after reference normalisation (README, "Noise"),
// and a bound has to sit well above that to mean anything. The issue asked
// for 10-15 %; the host does not allow it, so the tight guards are the other
// four: allocation and retained heap repeat to under 0.3 % and carry 2-3 %,
// and sched_speedup is a pure function of the schedules returned.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"cold_norm_s", "s", "lower", 0.25},
	{"cold_alloc_mb", "MB", "lower", 0.02},
	{"warm_norm_rps", "1/s", "higher", 0.25},
	{"warm_p50_norm_us", "us", "lower", 0.25},
	{"warm_alloc_kb", "KB", "lower", 0.02},
	{"heap_retained_mb", "MB", "lower", 0.03},
	{"sched_speedup", "x", "higher", 0.001},
}

// perLayer is emitted by the traced run. The prefix is the module under
// ios/internal whose work the metric counts or times; host.* and budget.*
// describe the measurement itself. README.md maps each prefix to the
// end-to-end metric it should move, per workload.
var perLayer = []metricDef{
	{name: "graph.build_us", unit: "us", better: "lower"},
	{name: "graph.fromjson_us", unit: "us", better: "lower"},
	{name: "graph.fingerprint_us", unit: "us", better: "lower"},
	{name: "graph.partition_us", unit: "us", better: "lower"},
	{name: "graph.blocks", unit: "count", better: "lower"},

	{name: "profile.prelower_us", unit: "us", better: "lower"},
	{name: "profile.fork_us", unit: "us", better: "lower"},
	{name: "profile.measure_schedule_us", unit: "us", better: "lower"},
	{name: "profile.stage_measurements", unit: "count", better: "lower"},

	{name: "gpusim.runs", unit: "count", better: "lower"},
	{name: "gpusim.busy_ms", unit: "ms", better: "lower"},
	{name: "gpusim.ns_per_run", unit: "ns", better: "lower"},

	{name: "measure.hits", unit: "count", better: "higher"},
	{name: "measure.misses", unit: "count", better: "lower"},
	{name: "measure.coalesced", unit: "count", better: "higher"},
	{name: "measure.remote", unit: "count", better: "higher"},
	{name: "measure.hit_ratio", unit: "%", better: "higher"},
	{name: "measure.entries", unit: "count", better: "lower"},
	{name: "measure.load_ms", unit: "ms", better: "lower"},
	{name: "measure.save_ms", unit: "ms", better: "lower"},
	{name: "measure.merge_us_per_entry", unit: "us", better: "lower"},

	{name: "core.blocks_searched", unit: "count", better: "lower"},
	{name: "core.states", unit: "count", better: "lower"},
	{name: "core.transitions", unit: "count", better: "lower"},
	{name: "core.search_ms", unit: "ms", better: "lower"},
	{name: "core.discover_ms", unit: "ms", better: "lower"},
	{name: "core.compute_ms", unit: "ms", better: "lower"},
	{name: "core.ns_per_transition", unit: "ns", better: "lower"},
	{name: "core.hardest_block_ms_w1", unit: "ms", better: "lower"},
	{name: "core.hardest_block_ms_wmax", unit: "ms", better: "lower"},
	{name: "core.parallel_speedup", unit: "x", better: "higher"},

	{name: "blockcache.fingerprint_us_per_block", unit: "us", better: "lower"},
	{name: "blockcache.rebind_us_per_block", unit: "us", better: "lower"},
	{name: "blockcache.canonicalize_us", unit: "us", better: "lower"},
	{name: "blockcache.hits", unit: "count", better: "higher"},
	{name: "blockcache.misses", unit: "count", better: "lower"},
	{name: "blockcache.remote", unit: "count", better: "higher"},
	{name: "blockcache.hit_ratio", unit: "%", better: "higher"},
	{name: "blockcache.load_ms", unit: "ms", better: "lower"},
	{name: "blockcache.save_ms", unit: "ms", better: "lower"},
	{name: "blockcache.wire_decode_us_per_entry", unit: "us", better: "lower"},
	{name: "blockcache.file_kb", unit: "KB", better: "lower"},

	{name: "schedule.marshal_us", unit: "us", better: "lower"},
	{name: "schedule.fromjson_us", unit: "us", better: "lower"},
	{name: "schedule.summarize_us", unit: "us", better: "lower"},
	{name: "schedule.validate_us", unit: "us", better: "lower"},
	{name: "schedule.json_kb", unit: "KB", better: "lower"},

	{name: "plan.build_ms", unit: "ms", better: "lower"},
	{name: "plan.searches", unit: "count", better: "lower"},
	{name: "plan.route_ns", unit: "ns", better: "lower"},
	{name: "plan.load_ms", unit: "ms", better: "lower"},

	{name: "serve.handler_us.optimize_hit", unit: "us", better: "lower"},
	{name: "serve.handler_us.optimize_plan", unit: "us", better: "lower"},
	{name: "serve.handler_us.measure_baseline", unit: "us", better: "lower"},
	{name: "serve.handler_us.measure_schedule", unit: "us", better: "lower"},
	{name: "serve.handler_us.stats", unit: "us", better: "lower"},
	{name: "serve.schedcache_hit_ns", unit: "ns", better: "lower"},
	{name: "serve.cache_hits", unit: "count", better: "higher"},
	{name: "serve.cache_misses", unit: "count", better: "lower"},
	{name: "serve.cache_coalesced", unit: "count", better: "higher"},
	{name: "serve.resp_kb", unit: "KB", better: "lower"},
	{name: "serve.allocs_per_req", unit: "count", better: "lower"},
	{name: "serve.http_p50_us", unit: "us", better: "lower"},
	{name: "serve.http_p99_us", unit: "us", better: "lower"},
	{name: "serve.transport_us", unit: "us", better: "lower"},

	{name: "cluster.ring_owner_ns", unit: "ns", better: "lower"},
	{name: "cluster.join_ready_ms", unit: "ms", better: "lower"},
	{name: "cluster.pullplans_ms", unit: "ms", better: "lower"},
	{name: "cluster.block_fetch_hits", unit: "count", better: "higher"},
	{name: "cluster.block_fetch_misses", unit: "count", better: "lower"},
	{name: "cluster.block_fetch_errors", unit: "count", better: "lower"},
	{name: "cluster.measure_fetch_hits", unit: "count", better: "higher"},
	{name: "cluster.measure_fetch_misses", unit: "count", better: "lower"},
	{name: "cluster.measure_fetch_errors", unit: "count", better: "lower"},
	{name: "cluster.peer_requests", unit: "count", better: "lower"},
	{name: "cluster.peer_kb", unit: "KB", better: "lower"},
	{name: "cluster.peer_rtt_p50_us", unit: "us", better: "lower"},
	{name: "cluster.sync_ms", unit: "ms", better: "lower"},
	{name: "cluster.pushed_entries", unit: "count", better: "lower"},
	{name: "cluster.seed_fetch_misses", unit: "count", better: "lower"},
	{name: "cluster.local_searches", unit: "count", better: "lower"},

	{name: "batching.decide_ns", unit: "ns", better: "lower"},
	{name: "batching.sim_goodput_rps", unit: "1/s", better: "higher"},
	{name: "batching.sim_p99_ms", unit: "ms", better: "lower"},
	{name: "batching.slo_violations", unit: "count", better: "lower"},

	{name: "host.ref_ms", unit: "ms", better: "lower"},
	{name: "host.ref_spread_pct", unit: "%", better: "lower"},
	{name: "host.gomaxprocs", unit: "count", better: "higher"},
	{name: "host.gc_cycles", unit: "count", better: "lower"},
	{name: "host.gc_pause_ms", unit: "ms", better: "lower"},
	{name: "host.cold_raw_s", unit: "s", better: "lower"},
	{name: "host.warm_raw_rps", unit: "1/s", better: "higher"},
	{name: "host.trace_overhead_pct", unit: "%", better: "lower"},
	{name: "budget.cold_unattributed_pct", unit: "%", better: "lower"},
	{name: "budget.warm_unattributed_pct", unit: "%", better: "lower"},
}

// summary is the distribution of one metric's samples inside a run.
type summary struct {
	median, q1, q3 float64
	n              int
}

// quantile follows Python's statistics.quantiles(values, n=4) (the default
// "exclusive" method), so -compare and the driver cut quartiles the same way.
func quantile(sorted []float64, k int) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if n == 1 {
		return sorted[0]
	}
	pos := float64(k) * float64(n+1) / 4
	j := int(pos)
	if j < 1 {
		j = 1
	}
	if j > n-1 {
		j = n - 1
	}
	frac := pos - float64(j)
	return sorted[j-1] + frac*(sorted[j]-sorted[j-1])
}

func summarize(values []float64) summary {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return summary{median: quantile(s, 2), q1: quantile(s, 1), q3: quantile(s, 3), n: len(s)}
}

func median(values []float64) float64 { return summarize(values).median }

// percentile returns the p-quantile (0..1) of an ascending slice by nearest rank.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// worsening is how far b is on the wrong side of a, as a share of a.
func worsening(better string, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / math.Abs(a)
	}
	return (b - a) / math.Abs(a)
}
