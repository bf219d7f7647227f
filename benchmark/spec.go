package main

// This file is the Go-side copy of BENCHMARK.json: the workloads and
// the metrics this program emits, with unit, direction and regression
// bound. TestSpecMatchesBenchmarkJSON keeps the two identical.

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end metrics only
}

const (
	lower  = "lower"
	higher = "higher"
)

// runSeconds is BENCHMARK.json's run_seconds: the measured time of one
// run, and the default of -seconds.
const runSeconds = 18

var workloadSpecs = []workloadSpec{
	{"oltp_native", "ERP transaction mix through hana.Table/View: only core, the delta/main stores, mvcc, wal and merge work; wire, sql and calc do nothing, so their gains must not show here"},
	{"oltp_sql_wire", "the same mix over PREPARE/EXECUTE against a hanaserver process: adds client, server, sql and calc to every operation, so a wire, SQL or plan-cache gain shows here first"},
	{"olap_sql", "prepared scan queries on a table fully merged into main with an empty delta, customer above and region below the decode-cache cap: scan kernels and batch operators only, no merge runs"},
	{"htap_mixed", "one writer and one analyst on the same table through embedded SQL with merges running: scans cross L1, L2 and main while writes arrive, the paper's central case"},
}

// endToEndSpecs are what a user of the system sees. Every workload
// reports every one of them: the OLTP-first workloads take their query
// numbers from a short reporting phase after the transaction window,
// and olap_sql takes its transaction numbers from a short booking
// phase after the query window.
var endToEndSpecs = []metricSpec{
	{"setup_s", "s", lower, 0.25},
	{"oltp_ops_per_s", "1/s", higher, 0.25},
	{"point_p50_us", "us", lower, 0.25},
	{"point_p95_us", "us", lower, 0.25},
	{"insert_p50_us", "us", lower, 0.25},
	{"update_p50_us", "us", lower, 0.25},
	{"write_p99_us", "us", lower, 0.25},
	{"olap_queries_per_s", "1/s", higher, 0.25},
	{"q_group_low_p50_ms", "ms", lower, 0.25},
	{"q_group_high_p50_ms", "ms", lower, 0.25},
	{"q_filter_p50_ms", "ms", lower, 0.25},
	{"q_join_p50_ms", "ms", lower, 0.25},
	{"q_filter_mean_ms", "ms", lower, 0.25},
	{"rss_peak_mb", "MB", lower, 0.25},
	{"stored_bytes_per_user_byte", "B/B", lower, 0.02},
	{"recovery_s", "s", lower, 0.25},
}
