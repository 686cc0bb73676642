package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"

	"quokka/internal/metrics"
	"quokka/internal/trace"
)

// result is what one run of one workload reports. Metrics holds the
// end-to-end metrics, the per-layer metrics, or both, depending on the
// run's -trace setting.
type result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Trace     int                `json:"trace"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	// Samples states how many samples stand behind the medians.
	Samples map[string]int `json:"samples"`
	// Spans are the benchmark's own spans of a traced run.
	Spans []benchSpan `json:"spans,omitempty"`
}

// result turns the run's samples into metrics.
func (r *run) result() *result {
	res := &result{
		Workload: r.w.Name, Seed: r.opt.seed, Trace: r.opt.trace,
		Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: map[string]float64{},
		Samples: map[string]int{"setup": len(r.setup)},
		Spans:   r.spans,
	}
	for l, s := range r.untraced {
		res.Samples["passes_"+string(l)] = len(s.pass)
		res.Samples["traced_passes_"+string(l)] = len(r.traced[l].pass)
	}
	m := map[string]float64{}
	r.endToEndMetrics(m)
	if r.opt.trace != 0 {
		r.countedMetrics(m)
		r.tracedMetrics(m)
		for k, v := range r.layers {
			m[k] = v
		}
		r.modelMetrics(m)
	}
	specs := endToEnd
	switch r.opt.trace {
	case 1:
		specs = perLayer
	case -1:
		specs = allMetrics()
	}
	for _, sp := range specs {
		v := m[sp.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0 // nothing measured (every sample failed): the run reports correct=false
		}
		res.Metrics[sp.Name] = v
	}
	return res
}

func (r *run) endToEndMetrics(m map[string]float64) {
	wal, none := r.untraced[legWAL], r.untraced[legNone]
	m["setup_s"] = median(r.setup)
	m["pass_s"] = median(wal.pass)
	m["query_geomean_s"] = geomean(queryMedians(wal))
	m["cpu_s"] = median(wal.cpu)
	m["peak_rss_mb"] = r.env.peakRSSMB()
	// Paired by round: pass i of each leg ran back to back in round i. A
	// failed pass on either side breaks the pairing; the medians still
	// give the ratio then.
	if len(wal.pass) == len(none.pass) {
		ratios := make([]float64, len(wal.pass))
		for i := range ratios {
			ratios[i] = wal.pass[i] / none.pass[i]
		}
		m["ft_overhead_ratio"] = median(ratios)
	} else {
		m["ft_overhead_ratio"] = median(wal.pass) / median(none.pass)
	}
	fault := wal
	if r.w.Kill {
		fault = r.untraced[legKill]
	}
	m["killed_pass_s"] = sum(queryMedians(fault))
	net := wal.counts[metrics.NetBytesWire]
	if net == 0 {
		net = wal.counts[metrics.NetBytesModelled]
	}
	m["wire_mb"] = float64(net) / float64(wal.passes) / 1e6
}

// queryMedians returns each query's median latency, in query order.
func queryMedians(s *legSamples) []float64 {
	qs := make([]int, 0, len(s.lat))
	for q := range s.lat {
		qs = append(qs, q)
	}
	sort.Ints(qs)
	out := make([]float64, len(qs))
	for i, q := range qs {
		out[i] = median(s.lat[q])
	}
	return out
}

// countedMetrics derives the per-layer counts from the cluster counter and
// histogram deltas around the untraced wal passes (and, for the per-kill
// rows, from the kill leg's clusters).
func (r *run) countedMetrics(m map[string]float64) {
	wal := r.untraced[legWAL]
	c := func(name string) float64 { return float64(wal.counts[name]) }
	passes, queries := float64(wal.passes), float64(wal.queries)

	m["batch.shuffle_raw_mb"] = c(metrics.ShuffleRawBytes) / passes / 1e6
	m["batch.shuffle_enc_mb"] = c(metrics.ShuffleWireBytes) / passes / 1e6
	m["batch.scan_skipped_mb"] = c(metrics.ScanBytesSkipped) / passes / 1e6
	m["storage.obj_read_mb"] = c(metrics.ObjReadBytes) / passes / 1e6
	m["storage.backup_write_mb"] = c(metrics.BackupWriteBytes) / passes / 1e6
	m["gcs.txns_per_query"] = c(metrics.GCSTxns) / queries
	m["gcs.txns_batched_per_query"] = c(metrics.GCSTxnBatched) / queries
	m["gcs.log_kb_per_query"] = c(metrics.GCSBytes) / queries / 1e3
	m["lineage.records_per_query"] = c(metrics.LineageRecords) / queries
	m["lineage.flushes_per_query"] = c(metrics.LineageFlushes) / queries
	m["lineage.records_per_flush"] = c(metrics.LineageRecords) / c(metrics.LineageFlushes)
	m["flight.pushes_per_query"] = c(metrics.NetworkPushes) / queries
	m["flight.partitions_moved"] = c(metrics.PartitionsMoved) / queries
	m["engine.tasks_per_query"] = c(metrics.TasksExecuted) / queries
	m["engine.partition_tasks_per_query"] = c(metrics.PartitionTasks) / queries

	us := func(name string, q float64) float64 { return float64(wal.hists[name].Quantile(q)) / 1e3 }
	m["lineage.flush_p50_us"] = us(metrics.FlushLatencyNS, 0.50)
	m["lineage.flush_p99_us"] = us(metrics.FlushLatencyNS, 0.99)
	m["engine.task_p50_us"] = us(metrics.TaskLatencyNS, 0.50)
	m["engine.task_p99_us"] = us(metrics.TaskLatencyNS, 0.99)
	m["engine.admission_wait_p50_us"] = us(metrics.AdmissionWaitNS, 0.50)
	m["engine.idle_share"] = 1 - median(wal.cpu)/(median(wal.pass)*float64(runtime.NumCPU()))

	if r.w.Kill {
		kill := r.untraced[legKill]
		kills := float64(kill.kills)
		m["engine.rewinds_per_kill"] = float64(kill.counts[metrics.RecoveryRewinds]) / kills
		m["engine.replays_per_kill"] = float64(kill.counts[metrics.RecoveryReplays]) / kills
		m["engine.tasks_replayed_per_kill"] = float64(kill.counts[metrics.TasksReplayed]) / kills
		m["engine.kills_retimed"] = float64(kill.retimed + r.traced[legKill].retimed)
		m["engine.recovery_ratio"] = sum(queryMedians(kill)) / sum(queryMedians(wal))
		m["storage.backup_read_mb"] = float64(kill.counts[metrics.DiskReadBytes]) / float64(kill.passes) / 1e6
	}
}

// tracedMetrics derives the per-layer numbers that need the engine's flight
// recorder: busy time per span kind, stage wall-clock, recovery passes, the
// tracing overhead, and — in process mode, where a span's duration is a
// wire round trip — the wire timings.
func (r *run) tracedMetrics(m map[string]float64) {
	wal, base := r.traced[legWAL], r.untraced[legWAL]
	if wal.passes == 0 {
		return
	}
	passes, busy, count := float64(wal.passes), wal.busy, wal.count
	m["engine.task_busy_s"] = busy[trace.KindTask].Seconds() / passes
	m["engine.push_busy_s"] = busy[trace.KindPush].Seconds() / passes
	m["engine.flush_busy_s"] = busy[trace.KindFlush].Seconds() / passes
	m["engine.scan_stage_wall_s"] = wal.scanWall.Seconds() / passes
	m["engine.exec_stage_wall_s"] = wal.execWall.Seconds() / passes
	m["trace.spans_per_query"] = float64(wal.spans) / float64(wal.queries)
	m["trace.dropped"] = float64(wal.dropped)
	m["trace.overhead_ratio"] = median(wal.pass) / median(base.pass)

	if r.w.Kill {
		kill := r.traced[legKill]
		m["engine.recovery_pass_ms"] = kill.busy[trace.KindRecovery].Seconds() * 1e3 / float64(kill.count[trace.KindRecovery])
	}

	if r.w.Proc {
		// The head's collector does not see the worker processes' counters;
		// their spans do come back, so tasks are counted from those.
		tasksPerPass := float64(count[trace.KindTask]) / passes
		wirePerPass := float64(base.counts[metrics.NetBytesWire]) / float64(base.passes)
		m["engine.tasks_per_query"] = float64(count[trace.KindTask]) / float64(wal.queries)
		m["wire.kb_per_task"] = wirePerPass / tasksPerPass / 1e3
		m["wire.amplification"] = float64(base.counts[metrics.NetBytesWire]) / float64(base.counts[metrics.NetBytesModelled])
		m["wire.push.us_per_partition"] = float64(busy[trace.KindPush].Microseconds()) / float64(count[trace.KindPush])
		m["wire.gcs_txn.us_per_txn"] = float64(busy[trace.KindFlush].Microseconds()) / float64(count[trace.KindFlush])
		m["wire.obj_get.us_per_op"] = float64(wal.scanTaskDur.Microseconds()) / float64(wal.scanTasks)
		m["wire.frame.ns_per_frame"] = median(base.pass) * 1e9 / (wirePerPass / 65536)
	}
}

// modelMetrics reconciles the layer suite with the end-to-end CPU time
// (ROADMAP "breakdown ≈ total"). Codec and routing work scales with bytes,
// so the suite's per-row costs on its 15-column lineitem batch are turned
// into per-byte costs and multiplied by the bytes the measured passes moved;
// operator kernels are multiplied by the rows the traced pass saw enter each
// kind of stage. The sum is set against cpu_s, and what the model does not
// explain is a row of its own.
func (r *run) modelMetrics(m map[string]float64) {
	wal, traced := r.untraced[legWAL], r.traced[legWAL]
	if r.layers == nil || traced.passes == 0 {
		return
	}
	perPass := func(name string) float64 { return float64(wal.counts[name]) / float64(wal.passes) }
	rowsIn := func(kinds ...string) (n float64) {
		for _, k := range kinds {
			n += float64(traced.stageIn[k])
		}
		return n / float64(traced.passes)
	}
	rawPerRow, encPerRow := r.layers[layerRawBytesPerRow], m["batch.encode.bytes_per_row"]
	decodePerEncByte := m["batch.decode.ns_per_row"] / encPerRow
	ns := perPass(metrics.ShuffleRawBytes)*(m["batch.encode.ns_per_row"]+m["batch.hashkeys.ns_per_row"]+m["batch.partition.ns_per_row"])/rawPerRow +
		perPass(metrics.ShuffleWireBytes)*decodePerEncByte +
		(perPass(metrics.ObjReadBytes)-perPass(metrics.ScanBytesSkipped))*decodePerEncByte +
		rowsIn("map", "filter", "select")*m["ops.filter_project.ns_per_row"] +
		rowsIn("join")*(m["ops.join_build.ns_per_row"]+m["ops.join_probe.ns_per_row"])/2 +
		rowsIn("agg")*m["ops.agg_consume.ns_per_row"] +
		rowsIn("sort")*m["ops.sort.ns_per_row"]
	cpu := median(wal.cpu)
	m["model.attributed_cpu_share"] = ns / 1e9 / cpu
	m["model.unattributed_cpu_s"] = cpu - ns/1e9
}

// contractLine renders the one JSON object the driver reads from the last
// line of standard output.
func (res *result) contractLine() string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	units := map[string]string{}
	for _, sp := range allMetrics() {
		units[sp.Name] = sp.Unit
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]value{}}
	for name, v := range res.Metrics {
		out.Metrics[name] = value{v, units[name]}
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err) // only NaN/Inf can fail, and result() removed those
	}
	return string(b)
}

// print writes a human-readable table of the result to w (stderr in
// practice, so that the contract line stays alone at the end of stdout).
func (res *result) print(w *os.File) {
	fmt.Fprintf(w, "workload %s seed %d: attempted %d, failed %d, samples %v\n",
		res.Workload, res.Seed, res.Attempted, res.Failed, res.Samples)
	for _, sp := range allMetrics() {
		if v, ok := res.Metrics[sp.Name]; ok {
			fmt.Fprintf(w, "  %-36s %14.6g %s\n", sp.Name, v, sp.Unit)
		}
	}
}
