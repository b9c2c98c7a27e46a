//go:build unix

package main

// metricDef declares one reported metric. BENCHMARK.json carries the same
// names, units and directions (a test keeps the two in step); `feeds` — the
// end-to-end metric a layer metric should move, and where — has no place in
// that file's fixed schema and lives here and in the README.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
	// feeds, per-layer only: (H) = read from the HTTP surface and /proc during
	// the traced round, (R) = stage replay through public functions; then the
	// end-to-end metric the layer metric should move, and where.
	feeds string
}

// endToEndDefs are what a user of the system sees; every workload reports
// all of them. An op is a job, or a whole campaign on the two campaign
// workloads. Failed ops are not a metric here: they are the `failed` count
// of every result, and any failed op fails the run.
var endToEndDefs = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "ops_per_s", unit: "1/s", better: "higher", bound: 0.2},
	{name: "latency_p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "latency_tail_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "cpu_s_per_op", unit: "s", better: "lower", bound: 0.2},
}

// perLayerDefs, by module.
var perLayerDefs = []metricDef{
	{name: "disard.boot_ms", unit: "ms", better: "lower", feeds: "(H) setup_s on small_warm (KB load + initial Retrain)"},
	{name: "disard.submit_ack_ms_p50", unit: "ms", better: "lower", feeds: "(H) latency_p50_ms on small_warm; noise elsewhere"},
	{name: "disard.result_fetch_ms_p50", unit: "ms", better: "lower", feeds: "(H) latency_p50_ms on small_warm; noise elsewhere"},
	{name: "disard.http_bytes_per_op", unit: "bytes", better: "lower", feeds: "(H) latency_p50_ms on small_warm; noise elsewhere"},
	{name: "disard.peak_rss_mb", unit: "MiB", better: "lower", feeds: "(H) informational, +-15% between runs"},
	{name: "core.queue_wait_ms_p50", unit: "ms", better: "lower", feeds: "(H) latency_p50_ms on campaign/cluster_campaign; ~0 elsewhere by construction"},
	{name: "core.run_ms_p50", unit: "ms", better: "lower", feeds: "(H) latency_p50_ms everywhere"},
	{name: "core.deploy_hold_ms_p50", unit: "ms", better: "lower", feeds: "(R) ops_per_s on small_warm (serialised: ops_per_s <= 1/hold); none on nested_mc"},
	{name: "core.deploy_share", unit: "ratio", better: "lower", feeds: "(R/H) ops_per_s on small_warm"},
	{name: "core.service_overhead_us", unit: "us", better: "lower", feeds: "(R) latency_p50_ms on small_warm"},
	{name: "provision.select_ms_p50", unit: "ms", better: "lower", feeds: "(R) ops_per_s on small_warm"},
	{name: "provision.candidates", unit: "count", better: "lower", feeds: "(R) ops_per_s on small_warm"},
	{name: "provision.pred_abs_err_pct_p50", unit: "%", better: "lower", feeds: "(H) decision quality on small_warm: a cheaper predictor must not raise it"},
	{name: "provision.deadline_miss_share", unit: "ratio", better: "lower", feeds: "(H) decision quality on small_warm: must stay 0 (a miss is also a failed op)"},
	{name: "ml.retrain_ms_p50", unit: "ms", better: "lower", feeds: "(R) ops_per_s and latency_tail_ms on small_warm; setup_s there (boot retrains every architecture)"},
	{name: "ml.retrain_samples", unit: "count", better: "lower", feeds: "(R) context for ml.retrain_ms_p50"},
	{name: "ml.predict_us", unit: "us", better: "lower", feeds: "(R) ops_per_s on small_warm (Select predicts every candidate)"},
	{name: "kb.size_end", unit: "count", better: "higher", feeds: "(H) must equal start + deploys"},
	{name: "cloud.exec_sim_us", unit: "us", better: "lower", feeds: "(R) ops_per_s on small_warm"},
	{name: "cloud.billed_usd_per_op", unit: "usd", better: "lower", feeds: "(H) decision quality on small_warm (simulated dollars)"},
	{name: "eeb.split_us", unit: "us", better: "lower", feeds: "(R) latency_p50_ms on small_warm"},
	{name: "finmath.norm_ns", unit: "ns", better: "lower", feeds: "(R) ops_per_s on nested_mc"},
	{name: "stochastic.outer_fill_ns_per_step", unit: "ns", better: "lower", feeds: "(R) ops_per_s on nested_mc"},
	{name: "stochastic.inner_fill_ns_per_step", unit: "ns", better: "lower", feeds: "(R) ops_per_s on nested_mc"},
	{name: "stochastic.derived_fill_ns_per_step", unit: "ns", better: "lower", feeds: "(R) latency_p50_ms on campaign; no change from PathSource-only work"},
	{name: "stochastic.set_generated", unit: "count", better: "lower", feeds: "(R) latency_p50_ms on campaign (paths generated once per campaign)"},
	{name: "fund.returns_ns_per_path", unit: "ns", better: "lower", feeds: "(R) ops_per_s on nested_mc"},
	{name: "policy.flows_ns_per_contract", unit: "ns", better: "lower", feeds: "(R) ops_per_s on nested_mc"},
	{name: "alm.value_range_ms", unit: "ms", better: "lower", feeds: "(R) ops_per_s and cpu_s_per_op on nested_mc; latency_p50_ms on campaign"},
	{name: "alm.ns_per_inner_path", unit: "ns", better: "lower", feeds: "(R) ops_per_s and cpu_s_per_op on nested_mc"},
	{name: "alm.allocs_per_outer", unit: "count", better: "lower", feeds: "(R) cpu_s_per_op on nested_mc"},
	{name: "alm.unattributed_share", unit: "ratio", better: "lower", feeds: "(R) what the stochastic/fund/policy probes do not explain of alm.value_range_ms"},
	{name: "grid.sequential_ms", unit: "ms", better: "lower", feeds: "(R) the single-threaded baseline and correctness reference"},
	{name: "grid.run_ms", unit: "ms", better: "lower", feeds: "(R) ops_per_s on nested_mc"},
	{name: "grid.parallel_efficiency", unit: "ratio", better: "higher", feeds: "(R) ops_per_s on nested_mc"},
	{name: "cluster.slices_per_op", unit: "count", better: "lower", feeds: "(H) latency_p50_ms on cluster_campaign; 0 elsewhere"},
	{name: "cluster.paths_per_slice", unit: "count", better: "higher", feeds: "(H) latency_p50_ms on cluster_campaign; 0 elsewhere"},
	{name: "cluster.slice_failures", unit: "count", better: "lower", feeds: "(H) must be 0"},
	{name: "cluster.local_fallbacks", unit: "count", better: "lower", feeds: "(H) must be 0"},
	{name: "cluster.worker_cpu_share", unit: "ratio", better: "higher", feeds: "(H) cpu_s_per_op on cluster_campaign; 0 elsewhere"},
	{name: "cluster.execute_rtt_ms_p50", unit: "ms", better: "lower", feeds: "(R) latency_p50_ms on cluster_campaign; 0 elsewhere"},
	{name: "cluster.bytes_out_per_op", unit: "bytes", better: "lower", feeds: "(R) latency_p50_ms on cluster_campaign; 0 elsewhere"},
	{name: "cluster.bytes_in_per_op", unit: "bytes", better: "lower", feeds: "(R) latency_p50_ms on cluster_campaign; 0 elsewhere"},
	{name: "cluster.scenario_fetches_per_op", unit: "count", better: "lower", feeds: "(R) latency_p50_ms on cluster_campaign; 0 elsewhere"},
	{name: "cluster.scenario_fetch_ms_p50", unit: "ms", better: "lower", feeds: "(R) latency_p50_ms on cluster_campaign; 0 elsewhere"},
	{name: "cluster.scenario_bytes_per_op", unit: "bytes", better: "lower", feeds: "(R) latency_p50_ms on cluster_campaign; 0 elsewhere"},
	{name: "bench.trace_overhead_pct", unit: "%", better: "lower", feeds: "(H) traced-round ops_per_s against the untraced median"},
	{name: "bench.machine_speed_x", unit: "ratio", better: "higher", feeds: "(H) the box's speed in the traced round against the reference; per-layer values are raw"},
	{name: "bench.build_s", unit: "s", better: "lower", feeds: "(H) go build of cmd/disard, excluded from setup_s"},
	{name: "bench.kbgen_s", unit: "s", better: "lower", feeds: "(H) generating small_warm's knowledge base, excluded from setup_s"},
}

func defByName(defs []metricDef, name string) (metricDef, bool) {
	for _, d := range defs {
		if d.name == name {
			return d, true
		}
	}
	return metricDef{}, false
}
