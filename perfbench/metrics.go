package main

import "repro/internal/classify"

type metricDef struct{ Name, Unit string }

// endToEnd are the metrics a user of the system sees, reported by every
// workload from its untraced units. BENCHMARK.json lists the same names and
// units; the tests hold the two together.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"run_s", "s"},
	{"heap_peak_mb", "MB"},
	{"wmt_min", "instance-min"},
	{"decide_p50_ms", "ms"},
	{"decide_p99_ms", "ms"},
	{"ok_frac", "ratio"},
}

// policyKeys name the seven compared policies in store-compare's order:
// SPES first, the capacity-budgeted pair last.
var policyKeys = []string{"spes", "fixed", "hf", "ha", "defuse", "faascache", "lcs"}

// perLayer are the metrics of single layers, reported by the traced pass.
func perLayer() []metricDef {
	defs := []metricDef{
		{"trace.generate_s", "s"},
		{"trace.slot_index_s", "s"},
		{"trace.csv_write_s", "s"},
		{"trace.ingest_s", "s"},
		{"trace.store_mb", "MB"},
		{"trace.store_open_s", "s"},
		{"trace.store_shard_s", "s"},
		{"trace.store_shard_calls", "count"},
		{"trace.store_shard_ms_p50", "ms"},
		{"trace.store_decode_ms_p50", "ms"},
		{"core.train_s", "s"},
		{"core.q3_csr", "ratio"},
	}
	for _, t := range classify.Types() {
		defs = append(defs, metricDef{"classify.type." + t.String(), "count"})
	}
	defs = append(defs,
		metricDef{"sim.steps", "count"},
		metricDef{"sim.step_s", "s"},
		metricDef{"sim.step_us_p50", "us"},
		metricDef{"sim.step_us_p99", "us"},
		metricDef{"sim.close_s", "s"},
		metricDef{"sim.cold_starts", "count"},
		metricDef{"sim.invoked_slots", "count"},
	)
	for _, k := range policyKeys {
		defs = append(defs, metricDef{"sim.policy." + k + "_s", "s"})
	}
	for _, k := range policyKeys[1:] {
		defs = append(defs,
			metricDef{"baselines." + k + ".q3_csr", "ratio"},
			metricDef{"baselines." + k + ".wmt_min", "instance-min"})
	}
	return append(defs,
		metricDef{"serve.open_s", "s"},
		metricDef{"serve.send_ms_p50", "ms"},
		metricDef{"serve.send_ms_p99", "ms"},
		metricDef{"serve.retrain_stall_ms", "ms"},
		metricDef{"serve.queue_depth_max", "count"},
		metricDef{"serve.requests", "count"},
		metricDef{"serve.retries", "count"},
		metricDef{"serve.shed_queue", "count"},
		metricDef{"serve.shed_decision", "count"},
		metricDef{"serve.snapshots", "count"},
		metricDef{"serve.applied_events", "count"},
		metricDef{"bench.lag_ms_p50", "ms"},
		metricDef{"bench.lag_ms_p99", "ms"},
		metricDef{"bench.iterations", "count"},
		metricDef{"bench.layer_cover_frac", "ratio"},
		metricDef{"bench.trace_overhead_frac", "ratio"},
	)
}
