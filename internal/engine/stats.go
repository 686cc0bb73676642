package engine

import (
	"fmt"
	"strings"
	"time"

	"quokka/internal/trace"
)

// StageStats is one stage's actuals, aggregated from the query's flight
// recorder: what EXPLAIN ANALYZE annotates the plan with. Wall is the sum
// of task wall-clock across the stage's channels (tasks run in parallel,
// so Wall exceeds elapsed time on parallel stages — it measures work, not
// the critical path).
type StageStats struct {
	Stage        int
	Name         string
	Detail       string
	Parallelism  int
	Tasks        int64
	Replays      int64 // consume tasks retraced under their logged range
	InRows       int64
	InBytes      int64
	OutRows      int64
	OutBytes     int64
	Wall         time.Duration
	SpillBytes   int64
	SpillRuns    int64
	SplitsPruned int // reader stages: splits zone-map pruning removed
}

// stageStats aggregates the recorder's task spans per stage. Returns nil
// when the query ran without tracing.
func (r *Runner) stageStats() []StageStats {
	if r.rec == nil {
		return nil
	}
	out := make([]StageStats, len(r.plan.Stages))
	for i, st := range r.plan.Stages {
		out[i] = StageStats{Stage: i, Name: st.Name, Detail: st.Detail, Parallelism: r.par[i]}
		if st.Reader != nil && st.Reader.Splits != nil && st.Reader.TotalSplits > 0 {
			out[i].SplitsPruned = st.Reader.TotalSplits - len(st.Reader.Splits)
		}
	}
	for _, s := range r.rec.Snapshot() {
		if s.Kind != trace.KindTask || s.Stage < 0 || s.Stage >= len(out) {
			continue
		}
		st := &out[s.Stage]
		st.Tasks++
		if s.Replay {
			st.Replays++
		}
		st.InRows += s.InRows
		st.InBytes += s.InBytes
		st.OutRows += s.OutRows
		st.OutBytes += s.OutBytes
		st.Wall += s.Dur
		st.SpillBytes += s.SpillBytes
		st.SpillRuns += s.SpillRuns
	}
	return out
}

// FormatStageStats renders the per-stage actuals as an aligned table —
// the ANALYZE half of EXPLAIN ANALYZE.
func FormatStageStats(stats []StageStats) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-3s %-14s %4s %5s %5s %12s %10s %12s %10s %10s %10s  %s\n",
		"id", "stage", "par", "tasks", "repl", "rows_in", "bytes_in", "rows_out", "bytes_out", "wall", "spill", "detail")
	for _, s := range stats {
		detail := s.Detail
		if s.SplitsPruned > 0 {
			detail += fmt.Sprintf(" [pruned %d splits]", s.SplitsPruned)
		}
		fmt.Fprintf(&b, "%-3d %-14s %4d %5d %5d %12d %10s %12d %10s %10s %10s  %s\n",
			s.Stage, s.Name, s.Parallelism, s.Tasks, s.Replays,
			s.InRows, fmtBytes(s.InBytes), s.OutRows, fmtBytes(s.OutBytes),
			s.Wall.Round(10*time.Microsecond), fmtBytes(s.SpillBytes), detail)
	}
	return b.String()
}

// fmtBytes renders a byte count compactly (B/KiB/MiB/GiB).
func fmtBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1fGiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}
