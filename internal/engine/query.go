package engine

import (
	"context"
	"sync"
	"time"

	"quokka/internal/batch"
	"quokka/internal/metrics"
	"quokka/internal/trace"
)

// DefaultCursorBufferBytes bounds the head-node buffer of committed-but-
// unread output partitions while a Cursor is attached. Beyond it,
// deliveries are refused and the producing tasks stay pending — the
// engine's task-retry machinery then acts as end-to-end backpressure.
const DefaultCursorBufferBytes = 4 << 20

// Query is a handle on one in-flight (or finished) query execution. It is
// returned immediately by Runner.Start — possibly before the query is even
// admitted — and exposes streaming consumption (Cursor), cancellation,
// completion waiting and the final report.
type Query struct {
	r      *Runner
	cancel context.CancelFunc
	done   chan struct{}

	curOnce sync.Once
	cur     *Cursor

	mu     sync.Mutex
	err    error
	report *Report
}

// Start begins executing the query and returns its handle without
// blocking. The query first passes the cluster's admission controller
// (FIFO, bounded concurrency); cancellation — via ctx or Query.Cancel —
// works in every phase, including while still queued.
func (r *Runner) Start(ctx context.Context) *Query {
	ctx, cancel := context.WithCancel(ctx)
	q := &Query{r: r, cancel: cancel, done: make(chan struct{})}
	go q.run(ctx)
	return q
}

// run drives the query to a terminal state on its own goroutine.
func (q *Query) run(ctx context.Context) {
	started := time.Now()
	err := q.r.execute(ctx)
	rep := &Report{
		QueryID:       q.r.qid,
		Duration:      time.Since(started),
		Recoveries:    q.r.recovered,
		TasksExecuted: q.r.qmet.Get(metrics.TasksExecuted),
		TasksReplayed: q.r.qmet.Get(metrics.TasksReplayed),
		Metrics:       q.r.qmet.Snapshot(),
		Histograms:    q.r.qmet.Histograms(),
		Stages:        q.r.stageStats(),
	}
	// The network split is accounted at the cluster's mailboxes and
	// sockets, which per-query collectors cannot see: modelled shuffle
	// payload bytes vs real wire bytes (process mode). Surface both as
	// cluster-cumulative values so a Report shows what a query's transport
	// actually moved — 0 vs non-0 wire bytes is the in-memory/process
	// mode tell.
	for _, name := range []string{metrics.NetBytesModelled, metrics.NetBytesWire} {
		if v := q.r.met.Get(name); v != 0 {
			rep.Metrics[name] = v
		}
	}
	q.mu.Lock()
	q.err = err
	q.report = rep
	q.mu.Unlock()
	// Wake any cursor blocked on the stream; nil err = clean end of stream.
	q.r.collector.terminate(err)
	q.cancel() // release the ctx; no-op if already cancelled
	close(q.done)
}

// QueryID returns the query's cluster-unique id.
func (q *Query) QueryID() string { return q.r.qid }

// Done returns a channel closed when the query reaches a terminal state.
func (q *Query) Done() <-chan struct{} { return q.done }

// Cancel stops the query. Task managers stop, mailbox slots drain, spill
// namespaces sweep, and the query's GCS namespace is deleted — without
// disturbing concurrent queries. Idempotent; safe while still queued.
func (q *Query) Cancel() { q.cancel() }

// Wait blocks until the query finishes and returns its terminal error
// (nil on success, context.Canceled after Cancel). Sugar for
// WaitContext(context.Background()).
func (q *Query) Wait() error {
	return q.WaitContext(context.Background())
}

// WaitContext blocks until the query finishes or ctx is done. A ctx
// expiry returns ctx.Err() WITHOUT cancelling the query — the query keeps
// running and can be waited on again (use Cancel to stop it).
func (q *Query) WaitContext(ctx context.Context) error {
	select {
	case <-q.done:
	case <-ctx.Done():
		return ctx.Err()
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.err
}

// Report returns the execution report, or nil while the query is still
// running.
func (q *Query) Report() *Report {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.report
}

// Trace returns the query's flight recorder, or nil when the cluster was
// not configured with WithTracing at submit time. It may be read while the
// query runs (spans appear as work commits) or after completion; use
// Recorder.WriteJSON for the Chrome trace-event export.
func (q *Query) Trace() *trace.Recorder { return q.r.rec }

// Stats returns per-stage actuals aggregated from the flight recorder:
// task counts, rows/bytes in and out, summed task wall-clock, spill
// volume. Nil when tracing is off; live (a partial aggregate) while the
// query still runs.
func (q *Query) Stats() []StageStats { return q.r.stageStats() }

// Metric reads one of THIS query's counters live, while the query runs —
// concurrent queries on one cluster each report their own tasks, spill
// bytes, shuffle traffic and recoveries (this is how overlapping execution
// is observable). See package metrics for the counter names.
func (q *Query) Metric(name string) int64 { return q.r.qmet.Get(name) }

// Result waits for completion and returns the concatenated output exactly
// as the one-shot Runner.Run always has. If a Cursor consumed part of the
// stream, Result returns only the remainder — use one or the other.
func (q *Query) Result() (*batch.Batch, *Report, error) {
	if err := q.Wait(); err != nil {
		return nil, nil, err
	}
	out, err := q.r.assembleResult()
	if err != nil {
		return nil, nil, err
	}
	return out, q.Report(), nil
}

// Cursor returns the query's streaming result cursor: a pull-based
// iterator over final-stage output batches in deterministic (channel,
// sequence) order — the same rows in the same order Result would return on
// a deterministic plan, but delivered incrementally as the last stage
// commits them instead of as one giant head-node batch. Attaching the
// cursor bounds the head-node buffer (Config.CursorBufferBytes), turning
// slow consumption into backpressure on the output stage. Subsequent calls
// return the same cursor.
func (q *Query) Cursor() *Cursor {
	q.curOnce.Do(func() {
		q.r.collector.stream(q.r.cfg.CursorBufferBytes)
		q.cur = &Cursor{q: q}
	})
	return q.cur
}

// Cursor iterates a query's output batches as they are committed by the
// final stage. Not safe for concurrent use by multiple goroutines.
type Cursor struct {
	q   *Query
	err error
	eos bool
}

// Next returns the next non-empty output batch, blocking until one is
// committed. It returns (nil, nil) at end of stream and the query's
// terminal error if execution fails or is cancelled. Sugar for
// NextContext(context.Background()).
func (c *Cursor) Next() (*batch.Batch, error) {
	return c.NextContext(context.Background())
}

// NextContext is Next honouring ctx: a ctx expiry unblocks the wait and
// returns ctx.Err() without latching it — the cursor stays usable and the
// query keeps running.
func (c *Cursor) NextContext(ctx context.Context) (*batch.Batch, error) {
	if c.err != nil || c.eos {
		return nil, c.err
	}
	r := c.q.r
	// The collector blocks on a cond var; wake it when ctx fires so the
	// cancellation is observed promptly.
	stop := context.AfterFunc(ctx, r.collector.wake)
	defer stop()
	for {
		stallStart := time.Now()
		data, ok, err := r.collector.next(ctx)
		r.hStall.observe(int64(time.Since(stallStart)))
		if err != nil {
			if ctx.Err() == nil {
				c.err = err // terminal query error: latch it
			}
			return nil, err
		}
		if !ok {
			c.eos = true
			return nil, nil
		}
		if len(data) == 0 {
			continue // empty partition: watermark filler, no rows
		}
		b, err := batch.Decode(data)
		if err != nil {
			c.err = err
			return nil, err
		}
		if b.NumRows() == 0 {
			continue
		}
		return b, nil
	}
}

// Err returns the error that terminated iteration, if any.
func (c *Cursor) Err() error { return c.err }
