package main

// perLayerSpecs are the traced run's metrics, named
// <module>.<metric>[.<class>] after the module they measure. They come
// from three sources, all outside the engine: counter deltas over the
// workload's traced window (DB.Metrics, Table.Stats, the METRICS and
// STATS verbs), the ladder (ladder.go) and the probes (probe_*.go).
// They carry no bound: they explain a move in an end-to-end metric,
// they are not gated themselves.
var perLayerSpecs = []metricSpec{
	// client / hanaserver
	{Name: "client.noop_rtt_us", Unit: "us", Better: lower},
	{Name: "client.bytes_per_op", Unit: "B", Better: lower},
	{Name: "client.reconnects", Unit: "count", Better: lower},
	{Name: "client.retries", Unit: "count", Better: lower},
	{Name: "hanaserver.self_us.point", Unit: "us", Better: lower},
	{Name: "hanaserver.self_us.insert", Unit: "us", Better: lower},
	{Name: "hanaserver.self_us.q_filter", Unit: "us", Better: lower},
	// sql
	{Name: "sql.parse_us.point", Unit: "us", Better: lower},
	{Name: "sql.parse_us.insert", Unit: "us", Better: lower},
	{Name: "sql.parse_us.q_group_low", Unit: "us", Better: lower},
	{Name: "sql.prepare_us.point", Unit: "us", Better: lower},
	{Name: "sql.prepare_us.q_group_low", Unit: "us", Better: lower},
	{Name: "sql.self_us.point", Unit: "us", Better: lower},
	{Name: "sql.self_us.insert", Unit: "us", Better: lower},
	{Name: "sql.self_us.update", Unit: "us", Better: lower},
	{Name: "sql.self_us.delete", Unit: "us", Better: lower},
	{Name: "sql.self_us.q_group_low", Unit: "us", Better: lower},
	{Name: "sql.self_us.q_filter", Unit: "us", Better: lower},
	{Name: "sql.plan_cache_hit_ratio", Unit: "ratio", Better: higher},
	{Name: "sql.rows_examined_per_row.point", Unit: "ratio", Better: lower},
	// calc
	{Name: "calc.build_optimize_us.q_group_low", Unit: "us", Better: lower},
	{Name: "calc.self_us.point", Unit: "us", Better: lower},
	{Name: "calc.self_us.q_group_low", Unit: "us", Better: lower},
	{Name: "calc.self_us.q_filter", Unit: "us", Better: lower},
	// engine
	{Name: "engine.scan_rows_per_s", Unit: "1/s", Better: higher},
	{Name: "engine.filter_rows_per_s", Unit: "1/s", Better: higher},
	{Name: "engine.hashagg_rows_per_s", Unit: "1/s", Better: higher},
	{Name: "engine.hashjoin_rows_per_s", Unit: "1/s", Better: higher},
	// core and its stages
	{Name: "core.view_open_ns", Unit: "ns", Better: lower},
	{Name: "core.get_us.l1", Unit: "us", Better: lower},
	{Name: "core.get_us.l2", Unit: "us", Better: lower},
	{Name: "core.get_us.main", Unit: "us", Better: lower},
	{Name: "core.insert_commit_us", Unit: "us", Better: lower},
	{Name: "core.update_commit_us", Unit: "us", Better: lower},
	{Name: "core.delete_commit_us", Unit: "us", Better: lower},
	{Name: "core.bulk_insert_rows_per_s", Unit: "1/s", Better: higher},
	{Name: "core.scan_rows_per_s.l1", Unit: "1/s", Better: higher},
	{Name: "core.scan_rows_per_s.l2", Unit: "1/s", Better: higher},
	{Name: "core.scan_rows_per_s.main", Unit: "1/s", Better: higher},
	{Name: "core.agg_rows_per_s", Unit: "1/s", Better: higher},
	{Name: "core.parallel_scan_speedup", Unit: "ratio", Better: higher},
	{Name: "core.scan_worker_utilization", Unit: "ratio", Better: higher},
	{Name: "core.throttled_writes", Unit: "count", Better: lower},
	{Name: "core.rejected_writes", Unit: "count", Better: lower},
	{Name: "core.admission_delay_s", Unit: "s", Better: lower},
	{Name: "core.stall_share.write", Unit: "ratio", Better: lower},
	{Name: "core.delta_rows_at_end", Unit: "count", Better: lower},
	// mvcc
	{Name: "mvcc.begin_commit_ns", Unit: "ns", Better: lower},
	{Name: "mvcc.write_conflicts", Unit: "count", Better: lower},
	// wal
	{Name: "wal.append_ns", Unit: "ns", Better: lower},
	{Name: "wal.sync_us", Unit: "us", Better: lower},
	{Name: "wal.appends", Unit: "count", Better: lower},
	{Name: "wal.syncs", Unit: "count", Better: lower},
	{Name: "wal.busy_s", Unit: "s", Better: lower},
	{Name: "wal.bytes_per_user_byte", Unit: "B/B", Better: lower},
	// persist
	{Name: "persist.savepoint_s", Unit: "s", Better: lower},
	{Name: "persist.savepoint_bytes_per_user_byte", Unit: "B/B", Better: lower},
	{Name: "persist.recovery_rows_per_s", Unit: "1/s", Better: higher},
	{Name: "persist.replayed_records", Unit: "count", Better: lower},
	// merge
	{Name: "merge.l1_rows_per_s", Unit: "1/s", Better: higher},
	{Name: "merge.main_rows_per_s.classic", Unit: "1/s", Better: higher},
	{Name: "merge.main_rows_per_s.resort", Unit: "1/s", Better: higher},
	{Name: "merge.main_rows_per_s.partial", Unit: "1/s", Better: higher},
	{Name: "merge.collect_share", Unit: "ratio", Better: lower},
	{Name: "merge.column_share", Unit: "ratio", Better: lower},
	{Name: "merge.build_share", Unit: "ratio", Better: lower},
	{Name: "merge.worker_utilization", Unit: "ratio", Better: higher},
	{Name: "merge.l1_count", Unit: "count", Better: lower},
	{Name: "merge.main_count", Unit: "count", Better: lower},
	{Name: "merge.busy_s", Unit: "s", Better: lower},
	{Name: "merge.failures", Unit: "count", Better: lower},
	{Name: "merge.rows_rewritten_per_row_written", Unit: "ratio", Better: lower},
	// dict
	{Name: "dict.sorted_lookup_ns", Unit: "ns", Better: lower},
	{Name: "dict.unsorted_getoradd_ns", Unit: "ns", Better: lower},
	{Name: "dict.merge_values_per_s", Unit: "1/s", Better: higher},
	// bitpack / mainstore / compress
	{Name: "bitpack.decode_codes_per_s", Unit: "1/s", Better: higher},
	{Name: "bitpack.scan_intervals_codes_per_s", Unit: "1/s", Better: higher},
	{Name: "bitpack.scan_member_codes_per_s", Unit: "1/s", Better: higher},
	{Name: "mainstore.bytes_per_row", Unit: "B", Better: lower},
	{Name: "mainstore.decode_cache_hit_ratio.q_group_low", Unit: "ratio", Better: higher},
	{Name: "mainstore.decode_cache_hit_ratio.q_group_high", Unit: "ratio", Better: higher},
	{Name: "compress.ratio", Unit: "ratio", Better: higher},
	{Name: "compress.scan_ratio", Unit: "ratio", Better: lower},
	// obs
	{Name: "obs.overhead_ratio", Unit: "ratio", Better: higher},
}
