package quokka

import (
	"fmt"
	"strings"
	"time"

	"quokka/internal/batch"
	"quokka/internal/engine"
)

// Result holds a query's output rows and its execution report.
type Result struct {
	batch   *batch.Batch
	report  *engine.Report
	explain string
}

// Explain returns the optimized logical plan the query executed (the same
// rendering DataFrame.Explain produces), or "" for plans that bypassed
// the planner.
func (r *Result) Explain() string { return r.explain }

// ExplainAnalyze returns the optimized logical plan followed by the
// per-stage actuals recorded by the flight recorder: tasks and replays,
// rows and bytes in and out, summed task wall-clock, and spill volume per
// physical stage. Requires the cluster to have been configured with
// WithTracing — without it, only the plan and a notice are returned.
func (r *Result) ExplainAnalyze() string {
	var b strings.Builder
	if r.explain != "" {
		b.WriteString(strings.TrimRight(r.explain, "\n"))
		b.WriteString("\n\n")
	}
	if r.report == nil || r.report.Stages == nil {
		b.WriteString("(no per-stage actuals: cluster was not configured with WithTracing)\n")
		return b.String()
	}
	fmt.Fprintf(&b, "duration=%v tasks=%d replayed=%d recoveries=%d\n",
		r.report.Duration.Round(10*time.Microsecond),
		r.report.TasksExecuted, r.report.TasksReplayed, r.report.Recoveries)
	b.WriteString(engine.FormatStageStats(r.report.Stages))
	return b.String()
}

// NumRows returns the number of output rows.
func (r *Result) NumRows() int {
	if r.batch == nil {
		return 0
	}
	return r.batch.NumRows()
}

// Columns returns the output column names in order.
func (r *Result) Columns() []string {
	if r.batch == nil {
		return nil
	}
	out := make([]string, r.batch.Schema.Len())
	for i, f := range r.batch.Schema.Fields {
		out[i] = f.Name
	}
	return out
}

// Rows materializes the output as generic values, row-major.
func (r *Result) Rows() [][]any {
	if r.batch == nil {
		return nil
	}
	n := r.batch.NumRows()
	out := make([][]any, n)
	for i := 0; i < n; i++ {
		row := make([]any, len(r.batch.Cols))
		for c, col := range r.batch.Cols {
			row[c] = col.Value(i)
		}
		out[i] = row
	}
	return out
}

// Duration returns the query's wall-clock runtime.
func (r *Result) Duration() time.Duration { return r.report.Duration }

// Recoveries returns how many fault-recovery passes ran.
func (r *Result) Recoveries() int { return r.report.Recoveries }

// TasksExecuted returns the number of committed tasks (including
// replays).
func (r *Result) TasksExecuted() int64 { return r.report.TasksExecuted }

// TasksReplayed returns the number of consume tasks re-executed under
// their logged lineage during recovery. A rewound reader's re-read and a
// re-derived last task are counted as executed, not replayed.
func (r *Result) TasksReplayed() int64 { return r.report.TasksReplayed }

// Metric returns one named counter from the run (see Cluster.Metrics for
// the full set).
func (r *Result) Metric(name string) int64 { return r.report.Metrics[name] }

// String renders up to 25 rows as an aligned table: every cell is padded
// to its column's widest rendered value among the shown rows (and the
// header), so columns line up vertically.
func (r *Result) String() string {
	if r.batch == nil || r.batch.NumRows() == 0 {
		return "(empty result)"
	}
	cols := r.Columns()
	n := r.batch.NumRows()
	shown := n
	if shown > 25 {
		shown = 25
	}
	// Render all cells first, then size each column.
	cells := make([][]string, shown)
	widths := make([]int, len(cols))
	for c, name := range cols {
		widths[c] = len(name)
	}
	for i := 0; i < shown; i++ {
		row := make([]string, len(r.batch.Cols))
		for c, col := range r.batch.Cols {
			row[c] = fmt.Sprintf("%v", col.Value(i))
			if len(row[c]) > widths[c] {
				widths[c] = len(row[c])
			}
		}
		cells[i] = row
	}
	var b strings.Builder
	writeRow := func(row []string) {
		for c, cell := range row {
			if c > 0 {
				b.WriteString(" | ")
			}
			b.WriteString(cell)
			// Pad to the column width; the last column stays ragged so
			// lines carry no trailing spaces.
			if c < len(row)-1 {
				b.WriteString(strings.Repeat(" ", widths[c]-len(cell)))
			}
		}
		b.WriteByte('\n')
	}
	writeRow(cols)
	total := 0
	for _, w := range widths {
		total += w
	}
	b.WriteString(strings.Repeat("-", total+3*(len(widths)-1)))
	b.WriteByte('\n')
	for _, row := range cells {
		writeRow(row)
	}
	if shown < n {
		fmt.Fprintf(&b, "... (%d more rows)\n", n-shown)
	}
	return b.String()
}
