package main

import (
	"math"
	"sort"
)

// Metric sources. Every metric says which clock it uses: "host" values are
// wall time, CPU time or memory of the simulator and carry noise; "sim" values
// and "count" values come from the simulated machine and repeat bit for bit at
// one seed. A host-only optimisation must leave every exact metric identical.
const (
	srcHost  = "host"  // harness-measured wall/CPU time or memory
	srcSim   = "sim"   // simulated clock, exact
	srcCount = "count" // exact count reported by the system
	srcSpan  = "span"  // host span recorded around a facade call
	srcProbe = "probe" // layer's public entry point driven directly
	srcShare = "share" // CPU-profile samples bucketed by package
)

// metricDef declares one metric. The end-to-end list mirrors BENCHMARK.json
// (smoke_test.go keeps the two in step).
type metricDef struct {
	name, unit, better string
	// bound is the share of the parent's median by which an end-to-end
	// metric may get worse across commits. It has to cover the spread between
	// seeds as well (README.md, "Steadiness"), which is why exact metrics
	// have a non-zero bound here; -compare holds them to bit-equality at one
	// seed regardless.
	bound float64
	src   string
}

func (m metricDef) exact() bool { return m.src == srcSim || m.src == srcCount }

var endToEnd = []metricDef{
	{"host_mtuples_per_s", "Mtuples/s", "higher", 0.25, srcHost},
	{"host_queries_per_s", "1/s", "higher", 0.25, srcHost},
	{"host_allocs_per_iter", "count", "lower", 0.25, srcHost},
	{"host_alloc_mb_per_iter", "MB", "lower", 0.25, srcHost},
	{"host_peak_rss_mb", "MB", "lower", 0.25, srcHost},
	{"sim_cycles_per_tuple", "cycles", "lower", 0.15, srcSim},
	{"sim_speedup_vs_fixed", "ratio", "higher", 0.25, srcSim},
	{"sim_latency_p50_ms", "ms", "lower", 0.25, srcSim},
	{"sim_latency_p90_ms", "ms", "lower", 0.25, srcSim},
	{"setup_s", "s", "lower", 0.25, srcHost},
}

var perLayer = []metricDef{
	{"hw.cache.loads", "count", "lower", 0, srcCount},
	{"hw.cache.l1_miss_ratio", "ratio", "lower", 0, srcCount},
	{"hw.cache.l2_miss_ratio", "ratio", "lower", 0, srcCount},
	{"hw.cache.l3_miss_ratio", "ratio", "lower", 0, srcCount},
	{"hw.cache.mem_lines", "count", "lower", 0, srcCount},
	{"hw.cache.load_run_ns", "ns", "lower", 0, srcProbe},
	{"hw.cache.load_sel_ns", "ns", "lower", 0, srcProbe},
	{"hw.cache.load_stream_miss_ns", "ns", "lower", 0, srcProbe},
	{"hw.cache.load_stream_hit_ns", "ns", "lower", 0, srcProbe},
	{"hw.cache.self_share", "ratio", "lower", 0, srcShare},
	{"hw.cache.host_ns_per_load", "ns", "lower", 0, srcShare},

	{"hw.branch.branches", "count", "lower", 0, srcCount},
	{"hw.branch.mispredict_ratio", "ratio", "lower", 0, srcCount},
	{"hw.branch.observe_random_ns", "ns", "lower", 0, srcProbe},
	{"hw.branch.observe_biased_ns", "ns", "lower", 0, srcProbe},
	{"hw.branch.self_share", "ratio", "lower", 0, srcShare},
	{"hw.branch.host_ns_per_branch", "ns", "lower", 0, srcShare},

	{"hw.cpu.instructions", "count", "lower", 0, srcCount},
	{"hw.cpu.sim_ipc", "ratio", "higher", 0, srcCount},
	{"hw.cpu.cond_branch_n_ns", "ns", "lower", 0, srcProbe},
	{"hw.cpu.load_addrs_ns", "ns", "lower", 0, srcProbe},
	{"hw.cpu.self_share", "ratio", "lower", 0, srcShare},
	{"hw.cpu.repeat_cycle_drift_max", "cycles", "lower", 0, srcHost},

	{"exec.qualifying_ratio", "ratio", "lower", 0, srcCount},
	{"exec.run_ns_per_tuple", "ns", "lower", 0, srcProbe},
	{"exec.parallel_run_ns_per_tuple", "ns", "lower", 0, srcProbe},
	{"exec.wave_overhead_ratio", "ratio", "lower", 0, srcProbe},
	{"exec.self_share", "ratio", "lower", 0, srcShare},
	{"exec.host_ns_per_tuple", "ns", "lower", 0, srcShare},

	{"runtime.cpu_per_wall", "ratio", "higher", 0, srcHost},
	{"runtime.self_share", "ratio", "lower", 0, srcShare},

	{"core.optimizations", "count", "lower", 0, srcCount},
	{"core.reorders", "count", "lower", 0, srcCount},
	{"core.reverts", "count", "lower", 0, srcCount},
	{"core.converged_at_cycles", "cycles", "lower", 0, srcCount},
	{"core.sim_speedup_micro_vs_fixed", "ratio", "higher", 0, srcCount},
	{"core.estimate_us", "us", "lower", 0, srcProbe},
	{"core.self_share", "ratio", "lower", 0, srcShare},

	{"costmodel.peo_counters_us", "us", "lower", 0, srcProbe},
	{"costmodel.self_share", "ratio", "lower", 0, srcShare},

	{"progopt.compile_ms_p50", "ms", "lower", 0, srcSpan},
	{"progopt.compile_ms_p90", "ms", "lower", 0, srcSpan},
	{"progopt.compile_ms_n", "count", "higher", 0, srcSpan},
	{"progopt.exec_fixed_ms_p50", "ms", "lower", 0, srcSpan},
	{"progopt.exec_fixed_ms_p90", "ms", "lower", 0, srcSpan},
	{"progopt.exec_fixed_ms_n", "count", "higher", 0, srcSpan},
	{"progopt.exec_progressive_ms_p50", "ms", "lower", 0, srcSpan},
	{"progopt.exec_progressive_ms_p90", "ms", "lower", 0, srcSpan},
	{"progopt.exec_progressive_ms_n", "count", "higher", 0, srcSpan},
	{"progopt.exec_micro_ms_p50", "ms", "lower", 0, srcSpan},
	{"progopt.exec_micro_ms_p90", "ms", "lower", 0, srcSpan},
	{"progopt.exec_micro_ms_n", "count", "higher", 0, srcSpan},
	{"progopt.self_share", "ratio", "lower", 0, srcShare},

	{"service.plan_cache_hit_ratio", "ratio", "higher", 0, srcCount},
	{"service.warm_start_ratio", "ratio", "higher", 0, srcCount},
	{"service.peak_active", "count", "higher", 0, srcCount},
	{"service.sim_queue_wait_p50_ms", "ms", "lower", 0, srcCount},
	{"service.sim_makespan_ms", "ms", "lower", 0, srcCount},
	{"service.sim_span_underflows", "count", "lower", 0, srcCount},
	{"service.submit_hit_us", "us", "lower", 0, srcSpan},
	{"service.submit_miss_us", "us", "lower", 0, srcSpan},
	{"service.wait_ms_p50", "ms", "lower", 0, srcSpan},
	{"service.wait_ms_p90", "ms", "lower", 0, srcSpan},
	{"service.write_metrics_ms", "ms", "lower", 0, srcSpan},
	{"service.allocs_per_query", "count", "lower", 0, srcSpan},
	{"service.fingerprint_ns", "ns", "lower", 0, srcProbe},
	{"service.self_share", "ratio", "lower", 0, srcShare},

	{"storage.blocks_pruned_ratio", "ratio", "higher", 0, srcCount},
	{"storage.vectors_skipped_ratio", "ratio", "higher", 0, srcCount},
	{"storage.tier_hit_ratio", "ratio", "higher", 0, srcCount},
	{"storage.evictions", "count", "lower", 0, srcCount},
	{"storage.bytes_fetched", "B", "lower", 0, srcCount},
	{"storage.stall_cycles", "cycles", "lower", 0, srcCount},
	{"storage.self_share", "ratio", "lower", 0, srcShare},

	{"columnar.encoded_bytes_per_plain_byte", "ratio", "lower", 0, srcCount},
	{"columnar.encode_mb_s", "MB/s", "higher", 0, srcProbe},
	{"columnar.decode_mb_s", "MB/s", "higher", 0, srcProbe},
	{"columnar.self_share", "ratio", "lower", 0, srcShare},

	{"trace.events_per_iter", "count", "lower", 0, srcCount},
	{"trace.write_chrome_ms", "ms", "lower", 0, srcSpan},
	{"trace.span_append_ns", "ns", "lower", 0, srcProbe},
	{"trace.span_allocs", "count", "lower", 0, srcProbe},
	{"trace.host_overhead_ratio", "ratio", "lower", 0, srcHost},
	{"trace.self_share", "ratio", "lower", 0, srcShare},

	{"tpch.generate_mrows_s", "Mrows/s", "higher", 0, srcSpan},
	{"tpch.self_share", "ratio", "lower", 0, srcShare},

	{"other.self_share", "ratio", "lower", 0, srcShare},
	{"bench.span_overhead_ratio", "ratio", "lower", 0, srcHost},
	{"bench.host_slowdown", "ratio", "lower", 0, srcHost},
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// median returns the median of xs (0 for none). xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile returns the nearest-rank q-quantile of xs (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

// ratio returns a/b, or 0 when b is 0: a layer that did no work on a workload
// reports 0 for its ratios.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
