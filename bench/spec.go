package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd are the metrics a user of the engines sees; every workload
// reports all of them from its untraced runs, in this order.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"execs_per_s", "execs/s"},
	{"instr_per_s", "instr/s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics of single layers, reported by traced runs
// only. A workload that never reaches a layer reports 0 for it; one that
// runs a layer the benchmark cannot observe leaves its metrics
// unmeasured (workload.unmeasured).
// Distribution metrics come in threes: the median, the tail percentile
// (see tailPercentile) and the sample count (_n).
var perLayer = []metricDef{
	{"guest.build_s", "s"},
	{"guest.boot_s", "s"},
	{"guest.bugs_found", "count"},

	{"iss.instr", "instr"},
	{"iss.exec_s", "s"},
	{"iss.instr_per_s", "instr/s"},
	{"iss.bb_hit_ratio", "ratio"},
	{"iss.path_us_p50", "us"},
	{"iss.path_us_p99", "us"},
	{"iss.path_n", "count"},
	{"iss.clone_us_p50", "us"},
	{"iss.clone_us_p99", "us"},
	{"iss.clone_n", "count"},

	{"cte.paths", "count"},
	{"cte.self_s", "s"},
	{"cte.time_to_all_bugs_s", "s"},
	{"cte.fork_ratio", "ratio"},
	{"cte.fork_restarts", "count"},
	{"cte.fork_suffix_instr", "instr"},
	{"cte.dedup_us_p50", "us"},
	{"cte.dedup_us_p99", "us"},
	{"cte.dedup_n", "count"},

	{"smt.queries", "count"},
	{"smt.solver_s", "s"},
	{"smt.solver_share", "ratio"},
	{"smt.query_us_p50", "us"},
	{"smt.query_us_p99", "us"},
	{"smt.query_n", "count"},
	{"smt.replay_s", "s"},
	{"smt.replay_n", "count"},

	{"qcache.lookups", "count"},
	{"qcache.hit_ratio", "ratio"},
	{"qcache.solver_calls", "count"},
	{"qcache.self_s", "s"},
	{"qcache.resolve_us_p50", "us"},
	{"qcache.resolve_us_p99", "us"},
	{"qcache.resolve_n", "count"},

	{"fuzz.execs", "count"},
	{"fuzz.concrete_s", "s"},
	{"fuzz.batch_us_p50", "us"},
	{"fuzz.batch_n", "count"},
	{"fuzz.edges", "count"},
	{"hybrid.escalations", "count"},
	{"hybrid.replayed_instr", "instr"},
	{"hybrid.solver_s", "s"},

	{"bmc.steps", "count"},
	{"bmc.solve_s", "s"},

	{"campaign.requests", "count"},
	{"campaign.wire_bytes", "bytes"},
	{"campaign.empty_leases", "count"},
	{"campaign.lease_us_p50", "us"},
	{"campaign.lease_us_p99", "us"},
	{"campaign.lease_n", "count"},
	{"campaign.result_us_p50", "us"},
	{"campaign.result_us_p99", "us"},
	{"campaign.result_n", "count"},
	{"campaign.duplicates", "count"},
	{"campaign.expired", "count"},

	{"go.heap_peak_mb", "MB"},
	{"go.gc_cpu_s", "s"},

	{"vp.instr_per_s", "instr/s"},
	{"trace_overhead", "ratio"},
}

// benchSpec is the part of BENCHMARK.json the benchmark reads: the
// regression bounds and directions the comparer applies, and the run
// length.
type benchSpec struct {
	RunSeconds int            `json:"run_seconds"`
	Workloads  []specWorkload `json:"workloads"`
	EndToEnd   []specMetric   `json:"end_to_end"`
	PerLayer   []specMetric   `json:"per_layer"`
}

type specWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// specMetric is one metric of BENCHMARK.json. Bound, the share of the
// parent's median by which the metric may worsen, exists for end-to-end
// metrics only.
type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}
