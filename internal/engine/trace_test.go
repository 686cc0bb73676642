package engine

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"quokka/internal/batch"
	"quokka/internal/gcs"
	"quokka/internal/lineage"
	"quokka/internal/metrics"
	"quokka/internal/trace"
)

// Tracing must only observe: the same plan on the same data returns
// byte-identical output with the recorder off and on.
func TestTracingByteIdenticalResults(t *testing.T) {
	const n = 1000
	tables := map[string][]*batch.Batch{"numbers": numbersTable(n, 8)}
	p := scanFilterAggPlan(200)

	clOff := testCluster(t, 4, tables)
	outOff, repOff := runPlan(t, clOff, p, DefaultConfig())

	clOn := testCluster(t, 4, tables)
	Configure(clOn, WithTracing(true))
	outOn, repOn := runPlan(t, clOn, p, DefaultConfig())

	if !bytes.Equal(batch.Encode(outOff), batch.Encode(outOn)) {
		t.Fatal("tracing changed the query result")
	}
	if repOff.Stages != nil {
		t.Error("untraced report has Stages")
	}
	if repOn.Stages == nil {
		t.Error("traced report is missing Stages")
	}
}

func TestTracingStageStats(t *testing.T) {
	const n = 1000
	cl := testCluster(t, 4, map[string][]*batch.Batch{"numbers": numbersTable(n, 8)})
	Configure(cl, WithTracing(true))
	p := scanFilterAggPlan(0)
	r, err := NewRunner(cl, p, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	q := r.Start(t.Context())
	out, rep, err := q.Result()
	if err != nil {
		t.Fatal(err)
	}
	checkSumCountFull(t, out, n)

	stats := q.Stats()
	if len(stats) != len(p.Stages) {
		t.Fatalf("Stats: %d stages, want %d", len(stats), len(p.Stages))
	}
	for _, st := range stats {
		if st.Tasks == 0 {
			t.Errorf("stage %d (%s): no task spans", st.Stage, st.Name)
		}
		if st.Wall <= 0 {
			t.Errorf("stage %d (%s): no wall-clock", st.Stage, st.Name)
		}
		if st.OutBytes == 0 {
			t.Errorf("stage %d (%s): no output bytes", st.Stage, st.Name)
		}
	}
	// The reader produces all n rows; the filter consumes and re-emits
	// them; the global aggregate collapses them to one row.
	if got := stats[0].OutRows; got != n {
		t.Errorf("reader OutRows = %d, want %d", got, n)
	}
	if got := stats[1].InRows; got != n {
		t.Errorf("filter InRows = %d, want %d", got, n)
	}
	if got := stats[2].OutRows; got != 1 {
		t.Errorf("agg OutRows = %d, want 1", got)
	}
	// Report.Stages carries the same aggregation.
	if rep.Stages[0].Tasks != stats[0].Tasks {
		t.Errorf("Report.Stages disagrees with Stats: %d vs %d", rep.Stages[0].Tasks, stats[0].Tasks)
	}
	rendered := FormatStageStats(stats)
	for _, want := range []string{"read", "filter", "agg", "rows_in"} {
		if !strings.Contains(rendered, want) {
			t.Errorf("FormatStageStats missing %q:\n%s", want, rendered)
		}
	}
}

// A KillWorker run's trace must show the recovery: rewind spans for the
// re-placed channels and work of a rewound incarnation (task spans at channel
// epoch 1 or more: a retraced consume task, a reader's re-read or a
// re-derived last task), under more than one epoch.
func TestTracingRecoveryEpochs(t *testing.T) {
	const n = 2000
	cl := testCluster(t, 4, map[string][]*batch.Batch{"numbers": numbersTable(n, 100)})
	Configure(cl, WithTracing(true))
	r, err := NewRunner(cl, scanFilterAggPlan(0), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Kill worker 1 once its reader channel (seeded on it: channel c starts on
	// worker c) has committed a task, so the recovery has work to retrace —
	// a kill timed on the cluster-wide task count can land before that.
	killInTxn(cl, 1, func(tx *gcs.Txn) bool {
		return txGetInt(tx, r.keyCursor(lineage.ChannelID{Stage: 0, Channel: 1}), 0) > 0
	})
	q := r.Start(t.Context())
	out, rep, err := q.Result()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	checkSumCountFull(t, out, n)
	if rep.Recoveries == 0 {
		t.Fatal("expected at least one recovery")
	}

	var rewinds, rewoundTasks, recoveries int
	epochs := map[int]bool{}
	for _, s := range q.Trace().Snapshot() {
		epochs[s.Epoch] = true
		switch {
		case s.Kind == trace.KindRewind:
			rewinds++
		case s.Kind == trace.KindRecovery:
			recoveries++
		case s.Kind == trace.KindTask && s.Epoch >= 1:
			rewoundTasks++
		}
	}
	if rewinds == 0 {
		t.Error("no rewind spans recorded")
	}
	if recoveries != rep.Recoveries {
		t.Errorf("recovery spans = %d, want %d", recoveries, rep.Recoveries)
	}
	if rewoundTasks == 0 {
		t.Error("no task spans of a rewound incarnation recorded")
	}
	if len(epochs) < 2 {
		t.Errorf("want >= 2 distinct epochs in the trace, got %v", epochs)
	}

	// The Chrome export must parse and carry the recovery markers.
	var buf bytes.Buffer
	if err := q.Trace().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("trace JSON does not parse: %v", err)
	}
	js := buf.String()
	for _, want := range []string{"rewind", "replay", "recovery"} {
		if !strings.Contains(js, want) {
			t.Errorf("exported trace missing %q events", want)
		}
	}
}

// Concurrent traced queries on one cluster must keep their histograms and
// recorders apart: each query's task-latency count matches its own task
// count, and the cluster-wide tee carries the sum.
func TestTracingHistogramIsolation(t *testing.T) {
	const n = 1000
	cl := testCluster(t, 4, map[string][]*batch.Batch{"numbers": numbersTable(n, 8)})
	Configure(cl, WithTracing(true))

	const queries = 4
	qs := make([]*Query, queries)
	for i := range qs {
		r, err := NewRunner(cl, scanFilterAggPlan(0), DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		qs[i] = r.Start(t.Context())
	}
	var totalTasks int64
	for i, q := range qs {
		out, rep, err := q.Result()
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		checkSumCountFull(t, out, n)
		h, ok := rep.Histograms[metrics.TaskLatencyNS]
		if !ok {
			t.Fatalf("query %d: no task-latency histogram", i)
		}
		if h.Count != rep.TasksExecuted {
			t.Errorf("query %d: histogram count %d != tasks executed %d", i, h.Count, rep.TasksExecuted)
		}
		totalTasks += rep.TasksExecuted
		// Each query's recorder holds only its own task spans.
		var tasks int64
		for _, s := range q.Trace().Snapshot() {
			if s.Kind == trace.KindTask {
				tasks++
			}
		}
		if tasks != rep.TasksExecuted {
			t.Errorf("query %d: %d task spans, want %d", i, tasks, rep.TasksExecuted)
		}
	}
	cw := cl.Metrics.Hist(metrics.TaskLatencyNS)
	if cw == nil {
		t.Fatal("cluster-wide task-latency histogram missing")
	}
	if got := cw.Snapshot().Count; got != totalTasks {
		t.Errorf("cluster-wide histogram count %d != total tasks %d", got, totalTasks)
	}
}

// checkSumCountFull asserts the scanFilterAggPlan(0) result over ids
// 0..n-1 with v = 2*id.
func checkSumCountFull(t *testing.T, out *batch.Batch, n int) {
	t.Helper()
	var want float64
	for i := 0; i < n; i++ {
		want += float64(2 * i)
	}
	checkSumCount(t, out, want, int64(n))
}
