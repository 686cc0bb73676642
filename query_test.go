package quokka

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"quokka/internal/gcs"
)

// TestSubmitCursorMatchesCollect: the public streaming path. A sorted
// (deterministic) query drained through a Cursor yields exactly the rows,
// in exactly the order, Collect returns.
func TestSubmitCursorMatchesCollect(t *testing.T) {
	c := newTestCluster(t, 3)
	salesTable(t, c, 700)
	sess := NewSession(c)
	frame := sess.Read("sales").
		GroupBy([]string{"region"}, SumOf("total", Col("amount")), CountAll("n")).
		Sort(0, Asc("region"))

	want, err := frame.Collect(context.Background(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}

	q, err := frame.Submit(context.Background(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cur := q.Cursor()
	var got [][]any
	for {
		rows, err := cur.Next()
		if err != nil {
			t.Fatalf("cursor: %v", err)
		}
		if rows == nil {
			break
		}
		got = append(got, rows...)
	}
	if err := q.Wait(); err != nil {
		t.Fatal(err)
	}
	wantRows := want.Rows()
	if len(got) != len(wantRows) {
		t.Fatalf("cursor rows = %d, Collect rows = %d", len(got), len(wantRows))
	}
	for i := range got {
		for j := range got[i] {
			if got[i][j] != wantRows[i][j] {
				t.Errorf("row %d col %d: %v vs %v", i, j, got[i][j], wantRows[i][j])
			}
		}
	}
	if cols := cur.Columns(); len(cols) != 3 || cols[0] != "region" {
		t.Errorf("cursor columns = %v", cols)
	}
}

// TestSubmitConcurrentQueries: two queries on one cluster through the
// public API, submitted together; both match their serial results and
// their executions overlap.
func TestSubmitConcurrentQueries(t *testing.T) {
	c := newTestCluster(t, 3)
	salesTable(t, c, 2000)
	sess := NewSession(c)
	sums := sess.Read("sales").
		GroupBy([]string{"region"}, SumOf("total", Col("amount"))).
		Sort(0, Asc("region"))
	counts := sess.Read("sales").
		Filter(Col("online").Eq(LitB(true))).
		GroupBy(nil, CountAll("n"))

	wantSums, err := sums.Collect(context.Background(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}

	q1, err := sums.Submit(context.Background(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	q2, err := sess.Submit(context.Background(), counts, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if q1.QueryID() == "" || q1.QueryID() == q2.QueryID() {
		t.Errorf("concurrent queries are named %q and %q: ids must be set and distinct", q1.QueryID(), q2.QueryID())
	}
	r1, err := q1.Result()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := q2.Result()
	if err != nil {
		t.Fatal(err)
	}
	if r1.NumRows() != wantSums.NumRows() {
		t.Errorf("concurrent sums rows = %d, want %d", r1.NumRows(), wantSums.NumRows())
	}
	for i, row := range r1.Rows() {
		if row[0] != wantSums.Rows()[i][0] || row[1] != wantSums.Rows()[i][1] {
			t.Errorf("row %d: %v vs %v", i, row, wantSums.Rows()[i])
		}
	}
	if got := r2.Rows()[0][0].(int64); got != 1000 {
		t.Errorf("online count = %d, want 1000", got)
	}
	if r1.Explain() == "" || r2.Explain() == "" {
		t.Error("submitted queries lost their EXPLAIN rendering")
	}
}

// flushGate holds every flush of task commits — the control store's one
// Apply caller — until open is closed: until then no query commits a task, so
// none can finish.
type flushGate struct {
	gcs.Backend
	open chan struct{}
}

func (g flushGate) Apply(entries []gcs.Entry) ([]bool, error) {
	<-g.open
	return g.Backend.Apply(entries)
}

// TestSubmitCancel: cancelling one in-flight query surfaces
// context.Canceled from Wait and leaves a concurrent query's result
// untouched. Commits are held until the cancel, so the victim cannot finish
// before it however fast it runs.
func TestSubmitCancel(t *testing.T) {
	c := newTestCluster(t, 3)
	salesTable(t, c, 4000)
	gate := flushGate{Backend: c.inner.GCS, open: make(chan struct{})}
	c.inner.GCS = gate
	sess := NewSession(c)
	frame := sess.Read("sales").
		GroupBy([]string{"region"}, SumOf("total", Col("amount"))).
		Sort(0, Asc("region"))

	victim, err := frame.Submit(context.Background(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	survivor, err := frame.Submit(context.Background(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	victim.Cancel()
	close(gate.open)
	if err := victim.Wait(); !errors.Is(err, context.Canceled) {
		t.Errorf("victim err = %v, want context.Canceled", err)
	}
	res, err := survivor.Result()
	if err != nil {
		t.Fatalf("survivor: %v", err)
	}
	if res.NumRows() != 7 {
		t.Errorf("survivor rows = %d, want 7", res.NumRows())
	}
}

// TestSubmitPlanTimeErrors: plan-time validation still happens at Submit,
// synchronously, exactly as Collect reports it.
func TestSubmitPlanTimeErrors(t *testing.T) {
	c := newTestCluster(t, 2)
	salesTable(t, c, 10)
	sess := NewSession(c)
	if _, err := sess.Read("nope").Submit(context.Background(), DefaultConfig()); !errors.Is(err, ErrUnknownTable) {
		t.Errorf("unknown table: %v", err)
	}
	if _, err := sess.Read("sales").Filter(Col("ghost").Gt(LitI(0))).
		Submit(context.Background(), DefaultConfig()); !errors.Is(err, ErrUnknownColumn) {
		t.Errorf("unknown column: %v", err)
	}
}

// TestAdmissionLimitPublic: the public knob bounds concurrency; both
// queries still complete.
func TestAdmissionLimitPublic(t *testing.T) {
	c := newTestCluster(t, 2)
	salesTable(t, c, 1000)
	c.Configure(WithAdmissionLimit(1))
	sess := NewSession(c)
	frame := sess.Read("sales").GroupBy(nil, CountAll("n"))
	q1, err := frame.Submit(context.Background(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	q2, err := frame.Submit(context.Background(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []*Query{q1, q2} {
		res, err := q.Result()
		if err != nil {
			t.Fatal(err)
		}
		if res.Rows()[0][0].(int64) != 1000 {
			t.Errorf("count = %v", res.Rows()[0][0])
		}
	}
	if peak := c.Metrics()["queries.peak"]; peak != 1 {
		t.Errorf("queries.peak = %d under limit 1", peak)
	}
}

// TestSubmitTracedObservability: the public observability surface. A
// query on a WithTracing cluster exposes its report histograms, per-stage
// actuals, EXPLAIN ANALYZE and a parseable Chrome trace; an untraced query
// exposes none of the span-derived views but still answers identically.
func TestSubmitTracedObservability(t *testing.T) {
	c := newTestCluster(t, 3)
	salesTable(t, c, 1500)
	c.Configure(WithTracing(true))
	sess := NewSession(c)
	frame := sess.Read("sales").
		GroupBy([]string{"region"}, SumOf("total", Col("amount")), CountAll("n")).
		Sort(0, Asc("region"))

	q, err := frame.Submit(context.Background(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := q.Result()
	if err != nil {
		t.Fatal(err)
	}

	rep := q.Report()
	if rep == nil {
		t.Fatal("Report is nil after Result")
	}
	task, ok := rep.Histograms["task.latency.ns"]
	if !ok || task.Count == 0 {
		t.Fatalf("task-latency histogram missing or empty: %+v", rep.Histograms)
	}
	if task.Count != rep.TasksExecuted {
		t.Errorf("histogram count %d != tasks executed %d", task.Count, rep.TasksExecuted)
	}

	stats := q.Stats()
	if len(stats) == 0 {
		t.Fatal("Stats is empty on a traced query")
	}
	var rows int64
	for _, st := range stats {
		rows += st.OutRows
	}
	if rows == 0 {
		t.Error("per-stage actuals carry no output rows")
	}
	// The scan, its map and the partial aggregate run as one fused stage,
	// named and detailed by its chain: rows in are the rows it read, rows
	// out the partial groups it emitted.
	if fused := stats[0]; !strings.HasPrefix(fused.Name, "scan-sales▸") || !strings.HasSuffix(fused.Name, "▸agg-partial") ||
		!strings.Contains(fused.Detail, "scan sales") || !strings.Contains(fused.Detail, " ▸ partial agg") {
		t.Errorf("fused stage %q, detail %q: want its chain's names and details", fused.Name, fused.Detail)
	} else if fused.InRows != 1500 || fused.OutRows == 0 || fused.OutRows >= fused.InRows {
		t.Errorf("fused stage rows in %d, out %d: want the 1500 rows read in and the partial groups out", fused.InRows, fused.OutRows)
	}

	ea := res.ExplainAnalyze()
	for _, want := range []string{"scan sales", "agg", "rows_in", "bytes_out"} {
		if !strings.Contains(ea, want) {
			t.Errorf("ExplainAnalyze missing %q:\n%s", want, ea)
		}
	}

	tr := q.Trace()
	if tr == nil {
		t.Fatal("Trace is nil on a traced query")
	}
	if tr.Len() == 0 || tr.Dropped() != 0 {
		t.Errorf("trace spans = %d, dropped = %d", tr.Len(), tr.Dropped())
	}
	var buf strings.Builder
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal([]byte(buf.String()), &events); err != nil {
		t.Fatalf("trace JSON does not parse: %v", err)
	}

	// Untraced cluster: same answer, no span-derived views.
	c2 := newTestCluster(t, 3)
	salesTable(t, c2, 1500)
	q2, err := NewSession(c2).Read("sales").
		GroupBy([]string{"region"}, SumOf("total", Col("amount")), CountAll("n")).
		Sort(0, Asc("region")).
		Submit(context.Background(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	res2, err := q2.Result()
	if err != nil {
		t.Fatal(err)
	}
	if q2.Trace() != nil || q2.Stats() != nil {
		t.Error("untraced query exposes a trace")
	}
	if !strings.Contains(res2.ExplainAnalyze(), "WithTracing") {
		t.Error("untraced ExplainAnalyze should point at WithTracing")
	}
	want, got := res.Rows(), res2.Rows()
	if len(want) != len(got) {
		t.Fatalf("traced %d rows vs untraced %d", len(want), len(got))
	}
	for i := range want {
		for j := range want[i] {
			if want[i][j] != got[i][j] {
				t.Errorf("row %d col %d: %v vs %v", i, j, want[i][j], got[i][j])
			}
		}
	}
}

// TestResultStringAligned: the satellite fix — String really does align
// columns now, and still caps at 25 rows.
func TestResultStringAligned(t *testing.T) {
	c := newTestCluster(t, 2)
	rows := make([][]any, 30)
	for i := range rows {
		rows[i] = []any{int64(i), strings.Repeat("x", 1+i%5)}
	}
	if err := c.CreateTable("t", []ColumnDef{
		{Name: "a_very_long_header", Type: Int64},
		{Name: "s", Type: String},
	}, rows, 0); err != nil {
		t.Fatal(err)
	}
	res, err := NewSession(c).Read("t").
		Sort(0, Asc("a_very_long_header")).
		Collect(context.Background(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	out := res.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// header + rule + 25 rows + "... more rows" marker
	if len(lines) != 28 {
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[len(lines)-1], "5 more rows") {
		t.Errorf("missing truncation marker: %q", lines[len(lines)-1])
	}
	// Every data line's separator must sit at the same byte offset as the
	// header's — that is what "aligned" means.
	sep := strings.Index(lines[0], " | ")
	if sep < 0 {
		t.Fatalf("no separator in header %q", lines[0])
	}
	for i, ln := range lines[2 : len(lines)-1] {
		if idx := strings.Index(ln, " | "); idx != sep {
			t.Errorf("row %d separator at %d, header at %d: %q", i, idx, sep, ln)
		}
	}
}
