package main

// This file is the benchmark's contract in code: the workloads and every
// metric name, unit, direction and bound. BENCHMARK.json at the root of
// the repository lists the same, and TestSpecMatchesBenchmarkJSON keeps the
// two identical.

const (
	lower  = "lower"
	higher = "higher"
)

// metricSpec names one metric. Bound is the share of the base median by
// which an end-to-end metric may worsen before it counts as a regression;
// per-layer metrics carry no bound.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what a user of the system sees, reported by every workload.
// Three of them are defined by one workload's extra leg and degenerate
// elsewhere (see README "End-to-end metrics"): killed_pass_s sums the
// kill-leg latencies on `recovery` and the failure-free latencies where no
// worker is killed; wire_mb is socket bytes on `proc` and the in-memory
// transport's cross-worker payload bytes elsewhere.
var endToEnd = []metricSpec{
	{"setup_s", "s", lower, 0.25},
	{"pass_s", "s", lower, 0.25},
	{"query_geomean_s", "s", lower, 0.25},
	{"cpu_s", "s", lower, 0.25},
	{"peak_rss_mb", "MB", lower, 0.20},
	{"ft_overhead_ratio", "ratio", lower, 0.20},
	{"killed_pass_s", "s", lower, 0.25},
	{"wire_mb", "MB", lower, 0.10},
}

// perLayer lists the single-layer metrics; a layer is a package under
// internal/. The *timed* ones (ns per row, key, transaction ...) come from
// the layer suite in layers.go and are measured on `tpch-data` only; the
// wire.* timings, the per-kill counts and the model.* rows are likewise
// filled on the one workload that exercises them. A metric that a workload
// does not measure reads 0 there.
var perLayer = []metricSpec{
	// batch
	{Name: "batch.encode.ns_per_row", Unit: "ns/row", Better: lower},
	{Name: "batch.encode.bytes_per_row", Unit: "B/row", Better: lower},
	{Name: "batch.encode_raw.ns_per_row", Unit: "ns/row", Better: lower},
	{Name: "batch.decode.ns_per_row", Unit: "ns/row", Better: lower},
	{Name: "batch.decode_project.ns_per_row", Unit: "ns/row", Better: lower},
	{Name: "batch.hashkeys.ns_per_row", Unit: "ns/row", Better: lower},
	{Name: "batch.partition.ns_per_row", Unit: "ns/row", Better: lower},
	{Name: "batch.hashtab_insert.ns_per_key", Unit: "ns/key", Better: lower},
	{Name: "batch.hashtab_lookup.ns_per_key", Unit: "ns/key", Better: lower},
	{Name: "batch.shuffle_raw_mb", Unit: "MB", Better: lower},
	{Name: "batch.shuffle_enc_mb", Unit: "MB", Better: lower},
	{Name: "batch.scan_skipped_mb", Unit: "MB", Better: higher},
	// expr
	{Name: "expr.filter.ns_per_row", Unit: "ns/row", Better: lower},
	{Name: "expr.project.ns_per_row", Unit: "ns/row", Better: lower},
	// ops
	{Name: "ops.filter_project.ns_per_row", Unit: "ns/row", Better: lower},
	{Name: "ops.join_build.ns_per_row", Unit: "ns/row", Better: lower},
	{Name: "ops.join_probe.ns_per_row", Unit: "ns/row", Better: lower},
	{Name: "ops.agg_consume.ns_per_row", Unit: "ns/row", Better: lower},
	{Name: "ops.agg_consume_wide.ns_per_row", Unit: "ns/row", Better: lower},
	{Name: "ops.agg_finalize.ns_per_group", Unit: "ns/group", Better: lower},
	{Name: "ops.sort.ns_per_row", Unit: "ns/row", Better: lower},
	{Name: "ops.join_spilled.ns_per_row", Unit: "ns/row", Better: lower},
	{Name: "ops.agg_spilled.ns_per_row", Unit: "ns/row", Better: lower},
	{Name: "ops.sort_spilled.ns_per_row", Unit: "ns/row", Better: lower},
	// spill
	{Name: "spill.run_write.ns_per_row", Unit: "ns/row", Better: lower},
	{Name: "spill.run_read.ns_per_row", Unit: "ns/row", Better: lower},
	{Name: "spill.bytes_per_row", Unit: "B/row", Better: lower},
	// plan, tpch
	{Name: "plan.optimize_lower.us_per_query", Unit: "us/query", Better: lower},
	{Name: "tpch.generate.ns_per_row", Unit: "ns/row", Better: lower},
	// storage
	{Name: "storage.obj_get.ns_per_kb", Unit: "ns/KB", Better: lower},
	{Name: "storage.obj_put.ns_per_kb", Unit: "ns/KB", Better: lower},
	{Name: "storage.disk_write.ns_per_kb", Unit: "ns/KB", Better: lower},
	{Name: "storage.obj_read_mb", Unit: "MB", Better: lower},
	{Name: "storage.backup_write_mb", Unit: "MB", Better: lower},
	{Name: "storage.backup_read_mb", Unit: "MB", Better: lower},
	// gcs
	{Name: "gcs.update.ns_per_txn", Unit: "ns/txn", Better: lower},
	{Name: "gcs.update_multi.ns_per_txn", Unit: "ns/txn", Better: lower},
	{Name: "gcs.view.ns_per_op", Unit: "ns/op", Better: lower},
	{Name: "gcs.update_contended.ns_per_txn", Unit: "ns/txn", Better: lower},
	{Name: "gcs.txns_per_query", Unit: "count", Better: lower},
	{Name: "gcs.txns_batched_per_query", Unit: "count", Better: higher},
	{Name: "gcs.log_kb_per_query", Unit: "KB", Better: lower},
	// lineage
	{Name: "lineage.encode.ns_per_record", Unit: "ns/record", Better: lower},
	{Name: "lineage.decode.ns_per_record", Unit: "ns/record", Better: lower},
	{Name: "lineage.bytes_per_record", Unit: "B/record", Better: lower},
	{Name: "lineage.records_per_query", Unit: "count", Better: lower},
	{Name: "lineage.flushes_per_query", Unit: "count", Better: lower},
	{Name: "lineage.records_per_flush", Unit: "count", Better: higher},
	{Name: "lineage.flush_p50_us", Unit: "us", Better: lower},
	{Name: "lineage.flush_p99_us", Unit: "us", Better: lower},
	// flight
	{Name: "flight.push.ns_per_partition", Unit: "ns/partition", Better: lower},
	{Name: "flight.take.ns_per_partition", Unit: "ns/partition", Better: lower},
	{Name: "flight.spool_fetch.ns_per_kb", Unit: "ns/KB", Better: lower},
	{Name: "flight.pushes_per_query", Unit: "count", Better: lower},
	{Name: "flight.partitions_moved", Unit: "count", Better: lower},
	// wire
	{Name: "wire.frame.ns_per_frame", Unit: "ns/frame", Better: lower},
	{Name: "wire.gcs_txn.us_per_txn", Unit: "us/txn", Better: lower},
	{Name: "wire.push.us_per_partition", Unit: "us/partition", Better: lower},
	{Name: "wire.obj_get.us_per_op", Unit: "us/op", Better: lower},
	{Name: "wire.kb_per_task", Unit: "KB/task", Better: lower},
	{Name: "wire.amplification", Unit: "ratio", Better: lower},
	// engine
	{Name: "engine.tasks_per_query", Unit: "count", Better: lower},
	{Name: "engine.partition_tasks_per_query", Unit: "count", Better: lower},
	{Name: "engine.task_p50_us", Unit: "us", Better: lower},
	{Name: "engine.task_p99_us", Unit: "us", Better: lower},
	{Name: "engine.admission_wait_p50_us", Unit: "us", Better: lower},
	{Name: "engine.idle_share", Unit: "ratio", Better: lower},
	{Name: "engine.rewinds_per_kill", Unit: "count", Better: lower},
	{Name: "engine.replays_per_kill", Unit: "count", Better: lower},
	{Name: "engine.tasks_replayed_per_kill", Unit: "count", Better: lower},
	{Name: "engine.kills_retimed", Unit: "count", Better: lower},
	{Name: "engine.recovery_ratio", Unit: "ratio", Better: lower},
	{Name: "engine.task_busy_s", Unit: "s", Better: lower},
	{Name: "engine.push_busy_s", Unit: "s", Better: lower},
	{Name: "engine.flush_busy_s", Unit: "s", Better: lower},
	{Name: "engine.scan_stage_wall_s", Unit: "s", Better: lower},
	{Name: "engine.exec_stage_wall_s", Unit: "s", Better: lower},
	{Name: "engine.recovery_pass_ms", Unit: "ms", Better: lower},
	// cluster, metrics, trace
	{Name: "cluster.new.us", Unit: "us", Better: lower},
	{Name: "metrics.hist_observe.ns_per_op", Unit: "ns/op", Better: lower},
	{Name: "trace.record.ns_per_span", Unit: "ns/span", Better: lower},
	{Name: "trace.spans_per_query", Unit: "count", Better: lower},
	{Name: "trace.dropped", Unit: "count", Better: lower},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: lower},
	// reconciliation of the layer timings with the end-to-end CPU time
	{Name: "model.attributed_cpu_share", Unit: "ratio", Better: higher},
	{Name: "model.unattributed_cpu_s", Unit: "s", Better: lower},
}

// allMetrics lists the end-to-end metrics, then the per-layer ones.
func allMetrics() []metricSpec {
	return append(append([]metricSpec(nil), endToEnd...), perLayer...)
}

// workloadSpec is one set of inputs. Every workload runs rounds of paired
// passes over Queries: a `none` leg (no fault tolerance) and a `wal` leg
// (write-ahead lineage, the engine default), plus a `kill` leg when Kill
// is set. Sizes are what fits the driver's time cap on a 2-core box; the
// README records how they were chosen.
type workloadSpec struct {
	Name      string  `json:"name"`
	Why       string  `json:"why"`
	SF        float64 `json:"-"`
	SplitRows int     `json:"-"`
	Workers   int     `json:"-"`
	Queries   []int   `json:"-"`
	Kill      bool    `json:"-"` // add the kill leg: one worker dies mid-query
	Proc      bool    `json:"-"` // workers are quokka-worker OS processes on loopback
	Layers    bool    `json:"-"` // run the timed layer suite in the traced run
}

var allQueries = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22}

var workloads = []workloadSpec{
	{
		Name: "tpch-data",
		Why:  "all 22 queries over 32k-row splits: scan decode, kernels, hash+route and the codec do the work, the control plane little",
		SF:   0.03, SplitRows: 32768, Workers: 2, Queries: allQueries, Layers: true,
	},
	{
		Name: "tpch-ctl",
		Why:  "the same 22 queries over 128-row splits: per-task fixed cost (GCS txn, lineage flush, poll) dominates and kernels barely register",
		SF:   0.005, SplitRows: 128, Workers: 2, Queries: allQueries,
	},
	{
		Name: "recovery",
		Why:  "Q1,3,5,9 on 4 workers with one killed mid-query: rewind, replay and backup reads run beside the normal push and backup-write path",
		SF:   0.05, SplitRows: 1024, Workers: 4, Queries: []int{1, 3, 5, 9}, Kill: true,
	},
	{
		Name: "proc",
		Why:  "Q1,3,6 on 2 quokka-worker OS processes over loopback TCP: nearly all time is the wire layer and the remote GCS and flight backends",
		SF:   0.002, SplitRows: 8192, Workers: 2, Queries: []int{1, 3, 6}, Proc: true,
	},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}
