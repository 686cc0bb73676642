package bench

import (
	"fmt"
	"time"

	"quokka/internal/engine"
	"quokka/internal/metrics"
	"quokka/internal/tpch"
)

// SpeedupRow is one query's timings for Figure 6 / 11a.
type SpeedupRow struct {
	Query                       int
	Quokka, Spark, Trino        time.Duration
	VsSpark, VsTrino            float64
	QuokkaTasks, QuokkaReplayed int64
}

// Table1 prints the fault-tolerance design-choice matrix (Table I).
func (h *Harness) Table1() {
	h.printf("Table I — fault tolerance design choices\n")
	h.printf("%-14s %-16s %-9s %-17s %-8s\n", "System", "Description", "Spooling", "State Checkpoint", "Lineage")
	rows := [][5]string{
		{"Trino", "Pipelined SQL", "yes", "no", "yes"},
		{"SparkSQL", "Stagewise SQL", "no", "no", "yes"},
		{"Kafka Streams", "Dataflow", "yes", "yes", "yes"},
		{"Flink", "Dataflow", "no", "yes", "no"},
		{"StreamScope", "Dataflow", "no", "yes", "yes"},
		{"Quokka", "Pipelined SQL", "no", "no", "yes"},
	}
	for _, r := range rows {
		h.printf("%-14s %-16s %-9s %-17s %-8s\n", r[0], r[1], r[2], r[3], r[4])
	}
	h.printf("\n")
}

// Fig6 compares Quokka vs the SparkSQL-like and Trino-like (with FT)
// baselines on the given queries and worker count, returning speedups.
func (h *Harness) Fig6(workers int, queries []int) ([]SpeedupRow, error) {
	h.title("Figure 6/11a — Quokka speedup vs SparkSQL and Trino(FT), %d workers, SF %g", workers, h.P.SF)
	h.printf("%-5s %10s %10s %10s %9s %9s\n", "query", "quokka(s)", "spark(s)", "trino(s)", "vs.spark", "vs.trino")
	var rows []SpeedupRow
	var vsS, vsT []float64
	for _, q := range queries {
		dq, rep, err := h.run(workers, q, engine.DefaultConfig())
		if err != nil {
			return nil, fmt.Errorf("fig6 q%d quokka: %w", q, err)
		}
		ds, _, err := h.run(workers, q, engine.SparkConfig())
		if err != nil {
			return nil, fmt.Errorf("fig6 q%d spark: %w", q, err)
		}
		dt, _, err := h.run(workers, q, engine.TrinoConfig())
		if err != nil {
			return nil, fmt.Errorf("fig6 q%d trino: %w", q, err)
		}
		row := SpeedupRow{
			Query: q, Quokka: dq, Spark: ds, Trino: dt,
			VsSpark: seconds(ds) / seconds(dq), VsTrino: seconds(dt) / seconds(dq),
			QuokkaTasks: rep.TasksExecuted,
		}
		rows = append(rows, row)
		vsS = append(vsS, row.VsSpark)
		vsT = append(vsT, row.VsTrino)
		h.printf("%-5d %10.3f %10.3f %10.3f %8.2fx %8.2fx\n",
			q, seconds(dq), seconds(ds), seconds(dt), row.VsSpark, row.VsTrino)
	}
	h.printf("geomean speedup: vs spark %.2fx, vs trino %.2fx\n\n", geomean(vsS), geomean(vsT))
	return rows, nil
}

// AblationRow is one query's timings for a two-or-three-way ablation.
type AblationRow struct {
	Query   int
	Timings map[string]time.Duration
}

// Fig7 compares pipelined vs stagewise execution (both with write-ahead
// lineage) on the representative queries.
func (h *Harness) Fig7(workers int) ([]AblationRow, error) {
	h.title("Figure 7 — pipelined vs stagewise execution, %d workers", workers)
	h.printf("%-5s %13s %13s %9s\n", "query", "pipelined(s)", "stagewise(s)", "speedup")
	var rows []AblationRow
	var sp []float64
	for _, q := range tpch.RepresentativeQueries {
		pip, _, err := h.run(workers, q, engine.DefaultConfig())
		if err != nil {
			return nil, fmt.Errorf("fig7 q%d pipelined: %w", q, err)
		}
		cfg := engine.DefaultConfig()
		cfg.Execution = engine.Stagewise
		stg, _, err := h.run(workers, q, cfg)
		if err != nil {
			return nil, fmt.Errorf("fig7 q%d stagewise: %w", q, err)
		}
		rows = append(rows, AblationRow{Query: q, Timings: map[string]time.Duration{
			"pipelined": pip, "stagewise": stg,
		}})
		s := seconds(stg) / seconds(pip)
		sp = append(sp, s)
		h.printf("%-5d %13.3f %13.3f %8.2fx\n", q, seconds(pip), seconds(stg), s)
	}
	h.printf("geomean pipelined speedup: %.2fx\n\n", geomean(sp))
	return rows, nil
}

// Fig8 compares dynamic task dependencies against the two static lineage
// strategies (batch 8 and batch 128).
func (h *Harness) Fig8(workers int) ([]AblationRow, error) {
	h.title("Figure 8 — dynamic vs static task dependencies, %d workers", workers)
	h.printf("%-5s %11s %11s %12s\n", "query", "dynamic(s)", "static-8(s)", "static-128(s)")
	var rows []AblationRow
	for _, q := range tpch.RepresentativeQueries {
		dyn, _, err := h.run(workers, q, engine.DefaultConfig())
		if err != nil {
			return nil, fmt.Errorf("fig8 q%d dynamic: %w", q, err)
		}
		s8cfg := engine.DefaultConfig()
		s8cfg.Dynamic = false
		s8cfg.StaticBatch = 8
		s8, _, err := h.run(workers, q, s8cfg)
		if err != nil {
			return nil, fmt.Errorf("fig8 q%d static8: %w", q, err)
		}
		s128cfg := engine.DefaultConfig()
		s128cfg.Dynamic = false
		s128cfg.StaticBatch = 128
		s128, _, err := h.run(workers, q, s128cfg)
		if err != nil {
			return nil, fmt.Errorf("fig8 q%d static128: %w", q, err)
		}
		rows = append(rows, AblationRow{Query: q, Timings: map[string]time.Duration{
			"dynamic": dyn, "static8": s8, "static128": s128,
		}})
		h.printf("%-5d %11.3f %11.3f %12.3f\n", q, seconds(dyn), seconds(s8), seconds(s128))
	}
	h.printf("\n")
	return rows, nil
}

// OverheadRow is one query's fault-tolerance overhead ratios for Fig. 9.
type OverheadRow struct {
	Query                                 int
	TrinoSpool, QuokkaSpool, WAL          float64
	SpoolBytes, BackupBytes, LineageBytes int64
}

// Fig9 measures normal-execution overhead of each fault-tolerance
// strategy: runtime with FT divided by runtime with FT off, per system.
func (h *Harness) Fig9(workers int) ([]OverheadRow, error) {
	h.title("Figure 9 — fault tolerance overhead (runtime FT-on / FT-off), %d workers", workers)
	h.printf("%-5s %12s %13s %7s %14s %14s %13s\n",
		"query", "trino-spool", "quokka-spool", "wal", "spooled(MB)", "backup(MB)", "lineage(KB)")
	var rows []OverheadRow
	var to, qo, wo []float64
	for _, q := range tpch.RepresentativeQueries {
		// Trino: static pipelined; FT off vs spooling to the harness store (S3).
		trinoOff := engine.TrinoConfig()
		trinoOff.FT = engine.FTNone
		tOff, _, err := h.run(workers, q, trinoOff)
		if err != nil {
			return nil, fmt.Errorf("fig9 q%d trino-off: %w", q, err)
		}
		tOn, _, err := h.run(workers, q, engine.TrinoConfig())
		if err != nil {
			return nil, fmt.Errorf("fig9 q%d trino-on: %w", q, err)
		}
		// Quokka with S3 spooling instead of WAL.
		qsCfg := engine.DefaultConfig()
		qsCfg.FT = engine.FTSpool
		qSpool, spoolRep, err := h.run(workers, q, qsCfg)
		if err != nil {
			return nil, fmt.Errorf("fig9 q%d quokka-spool: %w", q, err)
		}
		// Quokka FT off and with write-ahead lineage.
		offCfg := engine.DefaultConfig()
		offCfg.FT = engine.FTNone
		qOff, _, err := h.run(workers, q, offCfg)
		if err != nil {
			return nil, fmt.Errorf("fig9 q%d quokka-off: %w", q, err)
		}
		qWal, walRep, err := h.run(workers, q, engine.DefaultConfig())
		if err != nil {
			return nil, fmt.Errorf("fig9 q%d quokka-wal: %w", q, err)
		}
		row := OverheadRow{
			Query:        q,
			TrinoSpool:   seconds(tOn) / seconds(tOff),
			QuokkaSpool:  seconds(qSpool) / seconds(qOff),
			WAL:          seconds(qWal) / seconds(qOff),
			SpoolBytes:   spoolRep.Metrics[metrics.SpoolWriteBytes],
			BackupBytes:  walRep.Metrics[metrics.BackupWriteBytes],
			LineageBytes: walRep.Metrics[metrics.GCSBytes],
		}
		rows = append(rows, row)
		to = append(to, row.TrinoSpool)
		qo = append(qo, row.QuokkaSpool)
		wo = append(wo, row.WAL)
		h.printf("%-5d %11.2fx %12.2fx %6.2fx %14.2f %14.2f %13.1f\n",
			q, row.TrinoSpool, row.QuokkaSpool, row.WAL,
			float64(row.SpoolBytes)/1e6, float64(row.BackupBytes)/1e6, float64(row.LineageBytes)/1e3)
	}
	h.printf("geomean overhead: trino-spool %.2fx, quokka-spool %.2fx, wal %.2fx\n\n",
		geomean(to), geomean(qo), geomean(wo))
	return rows, nil
}

// CheckpointAblation quantifies §V-C's claim that checkpointing is even
// more expensive than spooling: it compares WAL, S3 spooling and
// checkpointing overheads (and bytes persisted) on join-heavy queries.
func (h *Harness) CheckpointAblation(workers int) ([]OverheadRow, error) {
	h.title("Checkpointing ablation (§V-C) — overhead vs FT-off, %d workers", workers)
	h.printf("%-5s %7s %7s %12s %15s %14s\n", "query", "wal", "spool", "checkpoint", "ckpt bytes(MB)", "spooled(MB)")
	queries := []int{3, 5, 9}
	var rows []OverheadRow
	for _, q := range queries {
		offCfg := engine.DefaultConfig()
		offCfg.FT = engine.FTNone
		off, _, err := h.run(workers, q, offCfg)
		if err != nil {
			return nil, err
		}
		wal, _, err := h.run(workers, q, engine.DefaultConfig())
		if err != nil {
			return nil, err
		}
		spCfg := engine.DefaultConfig()
		spCfg.FT = engine.FTSpool
		sp, spRep, err := h.run(workers, q, spCfg)
		if err != nil {
			return nil, err
		}
		ckCfg := engine.DefaultConfig()
		ckCfg.FT = engine.FTCheckpoint
		ckCfg.CheckpointEveryTasks = 4
		ck, ckRep, err := h.run(workers, q, ckCfg)
		if err != nil {
			return nil, err
		}
		row := OverheadRow{
			Query:       q,
			WAL:         seconds(wal) / seconds(off),
			QuokkaSpool: seconds(sp) / seconds(off),
			TrinoSpool:  seconds(ck) / seconds(off), // reused column: checkpoint overhead
			SpoolBytes:  spRep.Metrics[metrics.SpoolWriteBytes],
			BackupBytes: ckRep.Metrics[metrics.CheckpointBytes],
		}
		rows = append(rows, row)
		h.printf("%-5d %6.2fx %6.2fx %11.2fx %15.2f %14.2f\n",
			q, row.WAL, row.QuokkaSpool, row.TrinoSpool,
			float64(ckRep.Metrics[metrics.CheckpointBytes])/1e6,
			float64(spRep.Metrics[metrics.SpoolWriteBytes])/1e6)
	}
	h.printf("\n")
	return rows, nil
}

// RecoveryRow is one query's fault-recovery measurement.
type RecoveryRow struct {
	Query           int
	QuokkaOverhead  float64 // runtime-with-failure / failure-free runtime
	SparkOverhead   float64
	RestartOverhead float64 // restart-from-scratch baseline
	EndToEndSpeedup float64 // quokka-with-failure vs spark-with-failure
}

// Fig10a kills one worker at 50% of each representative query and
// compares Quokka's and the Spark baseline's recovery overhead.
func (h *Harness) Fig10a(workers int) ([]RecoveryRow, error) {
	h.title("Figure 10a/11b — recovery overhead, worker killed at 50%%, %d workers", workers)
	h.printf("%-5s %15s %15s %10s %14s\n", "query", "spark overhead", "quokka overhead", "restart", "e2e speedup")
	var rows []RecoveryRow
	var so, qo []float64
	for _, q := range tpch.RepresentativeQueries {
		row, err := h.recoveryPoint(workers, q, 0.5, false)
		if err != nil {
			return nil, fmt.Errorf("fig10a q%d: %w", q, err)
		}
		rows = append(rows, row)
		so = append(so, row.SparkOverhead)
		qo = append(qo, row.QuokkaOverhead)
		h.printf("%-5d %14.2fx %14.2fx %9.2fx %13.2fx\n",
			q, row.SparkOverhead, row.QuokkaOverhead, row.RestartOverhead, row.EndToEndSpeedup)
	}
	h.printf("geomean recovery overhead: spark %.2fx, quokka %.2fx\n\n", geomean(so), geomean(qo))
	return rows, nil
}

// Fig10b is the TPC-H Q9 case study: a worker dies at varying points of
// the query; recovery overhead is compared against the restart baseline
// and Spark, including the measured restart cost.
func (h *Harness) Fig10b(workers int) ([]RecoveryRow, error) {
	h.title("Figure 10b — TPC-H Q9 case study, failure at varying completion, %d workers", workers)
	h.printf("%-8s %15s %15s %15s %14s\n", "kill at", "spark overhead", "quokka overhead", "restart (meas.)", "e2e speedup")
	fracs := []float64{1.0 / 6, 2.0 / 6, 3.0 / 6, 4.0 / 6, 5.0 / 6}
	var rows []RecoveryRow
	for _, f := range fracs {
		row, err := h.recoveryPoint(workers, 9, f, true)
		if err != nil {
			return nil, fmt.Errorf("fig10b frac %.2f: %w", f, err)
		}
		rows = append(rows, row)
		h.printf("%-8.1f%% %14.2fx %14.2fx %14.2fx %13.2fx\n",
			f*100, row.SparkOverhead, row.QuokkaOverhead, row.RestartOverhead, row.EndToEndSpeedup)
	}
	h.printf("\n")
	return rows, nil
}

// recoveryPoint measures one (query, kill fraction) recovery data point.
// measureRestart additionally runs the real restart baseline; otherwise
// the analytic 1 + (1-frac) bound is reported.
func (h *Harness) recoveryPoint(workers, q int, frac float64, measureRestart bool) (RecoveryRow, error) {
	var row RecoveryRow
	row.Query = q
	// Failure-free baselines.
	qBase, _, err := h.run(workers, q, engine.DefaultConfig())
	if err != nil {
		return row, err
	}
	sBase, _, err := h.run(workers, q, engine.SparkConfig())
	if err != nil {
		return row, err
	}
	// With failure.
	qFail, _, err := h.runWithKill(workers, q, engine.DefaultConfig(), qBase, frac)
	if err != nil {
		return row, err
	}
	sFail, _, err := h.runWithKill(workers, q, engine.SparkConfig(), sBase, frac)
	if err != nil {
		return row, err
	}
	row.QuokkaOverhead = seconds(qFail) / seconds(qBase)
	row.SparkOverhead = seconds(sFail) / seconds(sBase)
	row.EndToEndSpeedup = seconds(sFail) / seconds(qFail)
	if measureRestart {
		rst, err := h.runRestartBaseline(workers, q, qBase, frac)
		if err != nil {
			return row, err
		}
		row.RestartOverhead = seconds(rst) / seconds(qBase)
	} else {
		// Analytic restart bound: work done before the kill is wasted.
		row.RestartOverhead = 1 + frac
	}
	return row, nil
}
