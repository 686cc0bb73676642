package quokka

import (
	"context"
	"fmt"
	"io"

	"quokka/internal/engine"
	"quokka/internal/plan"
	"quokka/internal/trace"
)

// Report is a finished query's execution report: wall-clock duration,
// recovery passes, task counts, the query's own metric counters and
// latency histograms, and — when the cluster was configured with
// WithTracing — per-stage actuals (Stages).
type Report = engine.Report

// StageStats is one stage's actuals aggregated from the flight recorder:
// task and replay counts, rows/bytes in and out, summed task wall-clock,
// and spill volume. See Query.Stats and Result.ExplainAnalyze.
type StageStats = engine.StageStats

// Query is a handle on one submitted query. Any number of queries may be
// in flight on one cluster at a time: each runs under its own query-ID
// namespace (GCS keys, shuffle mailbox slots, spill files, backups), the
// cluster's admission controller bounds how many execute concurrently
// (FIFO queueing beyond the bound), and worker failures replay each
// in-flight query's lineage independently.
//
// Consume a query EITHER through Result (everything at once, what Collect
// does) OR through Cursor (streaming batches with backpressure) — the
// cursor releases head-node memory as it advances, so rows it consumed are
// not part of a later Result.
type Query struct {
	inner   *engine.Query
	explain string
}

// QueryID returns the cluster-unique id all of this query's namespaced
// state (GCS keys, spill files, mailbox slots) is prefixed with.
func (q *Query) QueryID() string { return q.inner.QueryID() }

// Done returns a channel closed when the query reaches a terminal state.
func (q *Query) Done() <-chan struct{} { return q.inner.Done() }

// Wait blocks until the query finishes and returns its terminal error
// (nil on success; context.Canceled after Cancel or a cancelled submit
// context). Sugar for WaitContext(context.Background()).
func (q *Query) Wait() error { return q.inner.Wait() }

// WaitContext blocks until the query finishes or ctx is done. A ctx expiry
// returns ctx.Err() without cancelling the query — it keeps running and can
// be waited on again; use Cancel to stop it.
func (q *Query) WaitContext(ctx context.Context) error { return q.inner.WaitContext(ctx) }

// Cancel stops the query mid-flight: its tasks stop, mailbox slots drain,
// spill namespaces are swept, and its GCS namespace is deleted — without
// disturbing any concurrent query. Idempotent; also safe while the query
// is still waiting in the admission queue.
func (q *Query) Cancel() { q.inner.Cancel() }

// Result materializes the output as the query runs and returns it once
// the query completes, exactly like Collect. If a Cursor already consumed
// part of the stream, only the remainder is returned.
func (q *Query) Result() (*Result, error) {
	out, rep, err := q.inner.Result()
	if err != nil {
		return nil, err
	}
	return &Result{batch: out, report: rep, explain: q.explain}, nil
}

// Report returns the query's execution report, or nil while it is still
// running. The report's Histograms carry the query's task-latency,
// admission-wait, flush-latency and cursor-stall distributions; Stages is
// populated when the cluster was configured with WithTracing.
func (q *Query) Report() *Report { return q.inner.Report() }

// Stats returns per-stage actuals aggregated from the query's flight
// recorder — a live, partial aggregate while the query runs. Nil unless
// the cluster was configured with WithTracing.
func (q *Query) Stats() []StageStats { return q.inner.Stats() }

// Trace returns the query's flight recorder handle, or nil unless the
// cluster was configured with WithTracing. It may be exported while the
// query runs (spans appear as work commits) or after completion.
func (q *Query) Trace() *Trace {
	if rec := q.inner.Trace(); rec != nil {
		return &Trace{rec: rec}
	}
	return nil
}

// Trace is a query's flight recorder: every recorded span of work, held in
// bounded per-worker buffers.
type Trace struct {
	rec *trace.Recorder
}

// Len returns how many spans the recorder holds.
func (t *Trace) Len() int {
	if t.rec == nil {
		return 0
	}
	return t.rec.Len()
}

// Dropped returns how many spans were discarded because a per-worker
// buffer filled (0 in normal runs).
func (t *Trace) Dropped() int64 {
	if t.rec == nil {
		return 0
	}
	return t.rec.Dropped()
}

// WriteJSON writes the trace in Chrome trace-event JSON, loadable in
// Perfetto or chrome://tracing: one track per worker (plus the head node),
// task/push spans as complete events, recovery rewinds as instants, and
// replayed work flagged with its recovery epoch.
func (t *Trace) WriteJSON(w io.Writer) error {
	if t.rec == nil {
		return fmt.Errorf("quokka: trace has no recorder (tracing was not enabled)")
	}
	return t.rec.WriteJSON(w)
}

// Cursor returns the query's streaming result cursor: final-stage batches
// in deterministic (channel, sequence) order, delivered incrementally as
// the last stage commits them — the same rows in the same order Result
// returns on a deterministic plan, without materializing one giant batch
// at the head node. While a cursor is attached the head-node buffer is
// bounded (RunConfig.CursorBufferBytes), so a slow consumer backpressures
// the output stage through the engine's task-retry machinery.
func (q *Query) Cursor() *Cursor { return &Cursor{inner: q.inner.Cursor()} }

// Cursor iterates a query's output in chunks. Not safe for concurrent use
// by multiple goroutines.
type Cursor struct {
	inner *engine.Cursor
	cols  []string
}

// Next returns the next chunk of output rows, blocking until the final
// stage commits one. It returns (nil, nil) at end of stream, and the
// query's terminal error if execution fails or is cancelled. Sugar for
// NextContext(context.Background()).
func (c *Cursor) Next() ([][]any, error) {
	return c.NextContext(context.Background())
}

// NextContext is Next honouring ctx: a ctx expiry unblocks the wait and
// returns ctx.Err() without poisoning the cursor — iteration can resume
// with a fresh context.
func (c *Cursor) NextContext(ctx context.Context) ([][]any, error) {
	b, err := c.inner.NextContext(ctx)
	if err != nil || b == nil {
		return nil, err
	}
	if c.cols == nil {
		c.cols = make([]string, b.Schema.Len())
		for i, f := range b.Schema.Fields {
			c.cols[i] = f.Name
		}
	}
	n := b.NumRows()
	rows := make([][]any, n)
	for i := 0; i < n; i++ {
		row := make([]any, len(b.Cols))
		for j, col := range b.Cols {
			row[j] = col.Value(i)
		}
		rows[i] = row
	}
	return rows, nil
}

// Columns returns the output column names. Known after the first
// successful Next.
func (c *Cursor) Columns() []string { return c.cols }

// Err returns the error that terminated iteration, if any.
func (c *Cursor) Err() error { return c.inner.Err() }

// Submit starts executing the frame's plan without waiting for it: the
// query is optimized and lowered synchronously (plan-time errors surface
// here), then handed to the cluster's admission controller and executed in
// the background. The returned handle exposes Cursor, Cancel, Wait and
// Result; Collect is exactly Submit followed by Result.
func (d *DataFrame) Submit(ctx context.Context, cfg RunConfig) (*Query, error) {
	opt, err := d.optimize()
	if err != nil {
		return nil, err
	}
	phys, err := plan.Lower(opt, plan.Optimized)
	if err != nil {
		return nil, fmt.Errorf("quokka: invalid query: %w", err)
	}
	q, err := submitPlan(ctx, d.s.cluster, phys, cfg)
	if err != nil {
		return nil, err
	}
	q.explain = plan.Explain(opt)
	return q, nil
}

// Submit is Session-level sugar for DataFrame.Submit.
func (s *Session) Submit(ctx context.Context, d *DataFrame, cfg RunConfig) (*Query, error) {
	return d.Submit(ctx, cfg)
}

// submitPlan starts an engine plan on a cluster and returns its handle.
func submitPlan(ctx context.Context, c *Cluster, phys *engine.Plan, cfg RunConfig) (*Query, error) {
	r, err := engine.NewRunner(c.inner, phys, cfg)
	if err != nil {
		return nil, err
	}
	return &Query{inner: r.Start(ctx)}, nil
}
