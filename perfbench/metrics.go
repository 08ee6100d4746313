package main

import (
	"strings"

	"glider/internal/policy"
)

// metric is one reported number: its name and unit as BENCHMARK.json lists
// them, the direction that counts as better, and — for per-layer metrics —
// which end-to-end metric it should move on which workload.
type metric struct {
	Name   string
	Unit   string
	Better string
	Moves  string
}

// endToEnd are the metrics a --trace 0 run prints, on every workload. Each
// workload defines its own unit of work ("request"): a sweep cell, a Figure
// 13 simulation job, an HTTP request, or one dataset-and-train operation.
var endToEnd = []metric{
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "sim_accesses_per_s", Unit: "1/s", Better: "higher"},
	{Name: "req_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "req_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "goodput_rps", Unit: "1/s", Better: "higher"},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower"},
}

// sweepWorkloads mixes benchmarks where nearly every access reaches the LLC
// (omnetpp, mcf, lbm) with ones the L1/L2 filter thins (657.xz, astar,
// xalancbmk), so the upper-filter share a one-pass engine could save shows.
var sweepWorkloads = []string{"omnetpp", "mcf", "lbm", "657.xz", "astar", "xalancbmk"}

// metricSafe maps a policy or workload name onto the metric-name alphabet
// [A-Za-z0-9_.-] ("ship++" → "ship_pp").
func metricSafe(s string) string {
	return strings.ReplaceAll(s, "++", "_pp")
}

func policyNsMetric(p string) string     { return "policy." + metricSafe(p) + ".ns_per_llc_access" }
func policyAllocsMetric(p string) string { return "policy." + metricSafe(p) + ".allocs_per_llc_access" }
func llcFracMetric(w string) string      { return "cache.llc_access_frac." + metricSafe(w) }

// perLayer are the metrics a --trace 1 run prints, on every workload. A layer
// the workload does not exercise reports 0: it did no work there.
func perLayer() []metric {
	ms := []metric{
		{"workload.generate_ms", "ms", "lower", "setup_s on sweep, multicore and train; req_p95_ms on serve"},
		{"workload.store_hit_ratio", "ratio", "higher", "req_p95_ms on serve"},
		{"cache.upper_ns_per_access", "ns", "lower", "sim_accesses_per_s on sweep and multicore"},
	}
	for _, w := range sweepWorkloads {
		ms = append(ms, metric{llcFracMetric(w), "ratio", "lower", "bounds what sharing L1/L2 can save on sweep"})
	}
	for _, p := range policy.Names() {
		ms = append(ms,
			metric{policyNsMetric(p), "ns", "lower", "sim_accesses_per_s on sweep (and multicore for the paper set); req_p95_ms on serve"},
			metric{policyAllocsMetric(p), "count", "lower", "sim_accesses_per_s on sweep (and multicore for the paper set); req_p95_ms on serve"})
	}
	ms = append(ms,
		metric{"cpu.timing_ns_per_access", "ns", "lower", "sim_accesses_per_s on multicore, then sweep"},
		metric{"simrunner.job_ms_p50", "ms", "lower", "sim_accesses_per_s on sweep and multicore"},
		metric{"simrunner.job_ms_max", "ms", "lower", "sim_accesses_per_s on sweep and multicore"},
		metric{"simrunner.idle_frac", "ratio", "lower", "sim_accesses_per_s on sweep and multicore"},
		metric{"server.queue_wait_ms_p95", "ms", "lower", "req_p95_ms and goodput_rps on serve"},
		metric{"server.exec_ms_p50", "ms", "lower", "req_p95_ms and goodput_rps on serve"},
		metric{"server.exec_ms_p95", "ms", "lower", "req_p95_ms and goodput_rps on serve"},
		metric{"server.cache_hit_ratio", "ratio", "higher", "req_p95_ms and goodput_rps on serve"},
		metric{"server.coalesced", "count", "higher", "req_p95_ms and goodput_rps on serve"},
		metric{"server.rejected", "count", "lower", "req_p95_ms and goodput_rps on serve"},
		metric{"gateway.cache_hit_ratio", "ratio", "higher", "req_p50_ms on serve"},
		metric{"gateway.hit_latency_ms_p50", "ms", "lower", "req_p50_ms on serve"},
		metric{"gateway.retries", "count", "lower", "req_p50_ms on serve"},
		metric{"ledger.append_us_p50", "us", "lower", "req_p95_ms on serve"},
		metric{"ledger.artifacts", "count", "higher", "req_p95_ms on serve"},
		metric{"ledger.batches", "count", "higher", "req_p95_ms on serve"},
		metric{"estimate.surrogate_frac", "ratio", "higher", "req_p95_ms on serve"},
		metric{"estimate.train_s", "s", "lower", "setup_s on serve"},
		metric{"opt.label_ns_per_access", "ns", "lower", "sim_accesses_per_s on train"},
		metric{"offline.dataset_ms", "ms", "lower", "sim_accesses_per_s and req_p95_ms on train"},
		metric{"offline.epoch_ms", "ms", "lower", "sim_accesses_per_s and goodput_rps on train"},
		metric{"offline.eval_ms", "ms", "lower", "sim_accesses_per_s and goodput_rps on train"},
		metric{"bench.generator_late_ms_p95", "ms", "lower", "req_p95_ms on serve (load-generator health, not the system)"},
		metric{"bench.layer_sum_gap_frac", "ratio", "lower", "none: how far the layer self times miss the untraced cell time"},
		metric{"bench.trace_overhead_frac", "ratio", "lower", "none: the traced run's slowdown on the same calls"},
	)
	return ms
}
