package wire

// Streaming results over the wire: an output task's payload reaches the head
// in one sink_deliver frame, and a delivery the head's cursor buffer refuses
// is the same frame again on the task's next retry.

import (
	"context"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"quokka/internal/batch"
	"quokka/internal/cluster"
	"quokka/internal/engine"
	"quokka/internal/expr"
	"quokka/internal/lineage"
	"quokka/internal/metrics"
	"quokka/internal/ops"
	"quokka/internal/trace"
)

// cursorPlan reads lineitem into a filter with one channel per worker and no
// final merge: the output stage's partitions come from every worker.
func cursorPlan() *engine.Plan {
	return engine.MustPlan(
		&engine.Stage{ID: 0, Name: "read", Reader: &engine.ReaderSpec{Table: "lineitem"}},
		&engine.Stage{ID: 1, Name: "filter",
			Op:     ops.NewFilterSpec(expr.Ge(expr.C("l_orderkey"), expr.Int64(0))),
			Inputs: []engine.StageInput{{Stage: 0, Part: engine.Direct()}}},
	)
}

// startCursorPlan starts cursorPlan on cl with the head's cursor buffer far
// below one partition, so a cursor's every delivery but the one it waits for
// is refused.
func startCursorPlan(ctx context.Context, t *testing.T, cl *cluster.Cluster) *engine.Query {
	t.Helper()
	cfg := engine.DefaultConfig()
	cfg.CursorBufferBytes = 2048
	r, err := engine.NewRunner(cl, cursorPlan(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r.Start(ctx)
}

// drain reads a cursor to its end, calling each after every batch, and
// returns the batches concatenated.
func drain(t *testing.T, cur *engine.Cursor, each func(n int)) *batch.Batch {
	t.Helper()
	var parts []*batch.Batch
	for {
		b, err := cur.NextContext(context.Background())
		if err != nil {
			t.Fatalf("cursor after %d batches: %v", len(parts), err)
		}
		if b == nil {
			break
		}
		parts = append(parts, b)
		each(len(parts))
	}
	all, err := batch.Concat(parts)
	if err != nil {
		t.Fatal(err)
	}
	return all
}

// sinkFrames is the sink_deliver frames the head served and the output tasks
// the merged trace holds, first runs and reruns alike.
func sinkFrames(cl *cluster.Cluster, q *engine.Query, outStage int) (frames, tasks int64) {
	for _, s := range q.Trace().Snapshot() {
		if s.Kind == trace.KindTask && s.Stage == outStage {
			tasks++
		}
	}
	return cl.Metrics.Get(metrics.WireFrames + "sink_deliver"), tasks
}

// TestProcessModeCursorMatchesResult: two wire workers stream a multi-channel
// output through a 2 KiB cursor buffer to a consumer that sleeps between
// batches. The stream is Result's bytes; without a cursor every output task
// costs one sink_deliver frame, with one a refused delivery costs another.
func TestProcessModeCursorMatchesResult(t *testing.T) {
	if testing.Short() {
		t.Skip("process-mode e2e is not short")
	}
	cl, _ := distCluster(t, 2, engine.WithTracing(true))
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	before := cl.Metrics.Get(metrics.WireFrames + "sink_deliver")
	q := startCursorPlan(ctx, t, cl)
	want, _, err := q.Result()
	if err != nil {
		t.Fatal(err)
	}
	frames, tasks := sinkFrames(cl, q, 1)
	if frames-before != tasks {
		t.Errorf("without a cursor: %d sink_deliver frames for %d output tasks, want one each", frames-before, tasks)
	}

	before = frames
	q = startCursorPlan(ctx, t, cl)
	got := drain(t, q.Cursor(), func(int) { time.Sleep(2 * time.Millisecond) })
	if err := q.Wait(); err != nil {
		t.Fatal(err)
	}
	if string(batch.Encode(got)) != string(batch.Encode(want)) {
		t.Fatalf("cursor stream differs from Result: %d rows, want %d", got.NumRows(), want.NumRows())
	}
	frames, tasks = sinkFrames(cl, q, 1)
	if frames-before < tasks {
		t.Errorf("through a cursor: %d sink_deliver frames for %d output tasks", frames-before, tasks)
	}
	t.Logf("through a 2 KiB cursor: %d sink_deliver frames for %d output tasks (%.2f each)",
		frames-before, tasks, float64(frames-before)/float64(tasks))
}

// TestBadDeliveryRefused: the head does not trust a worker's result frame. A
// sink_deliver for a live query naming a task that is not one of its
// output-stage tasks — a negative or out-of-range channel, another stage, a
// negative sequence — closes the conn unanswered with ErrCorrupt and changes
// nothing: the head keeps serving, and the query's stream is still the
// whole result.
func TestBadDeliveryRefused(t *testing.T) {
	if testing.Short() {
		t.Skip("process-mode e2e is not short")
	}
	cl, srv := distCluster(t, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	want, _, err := startCursorPlan(ctx, t, cl).Result()
	if err != nil {
		t.Fatal(err)
	}

	// An attached cursor nobody reads holds the query live, its output stage
	// pending on the full buffer.
	q := startCursorPlan(ctx, t, cl)
	cur := q.Cursor()
	for {
		srv.mu.Lock()
		live := srv.queries[q.QueryID()] != nil
		srv.mu.Unlock()
		if live {
			break
		}
		select {
		case <-q.Done():
			t.Fatalf("query ended before it was registered: %v", q.Wait())
		case <-time.After(time.Millisecond):
		}
	}
	for _, task := range []lineage.TaskName{
		{Stage: 1, Channel: -1}, {Stage: 1, Channel: 2}, {Stage: 0}, {Stage: 1, Seq: -1},
	} {
		var w wbuf
		w.str(q.QueryID())
		w.task(task)
		w.i64(0)
		w.bytes(make([]byte, 4096))
		c, err := net.DialTimeout("tcp", srv.Addr(), 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		c.SetDeadline(time.Now().Add(10 * time.Second))
		if err := writeFrame(c, mtSinkDeliver, w.b); err != nil {
			t.Fatal(err)
		}
		if rt, _, err := readFrame(c); err != io.EOF {
			t.Errorf("delivery of %s: the head answered 0x%02x, %v; want the conn closed", task, rt, err)
		}
		c.Close()
		if err := srv.handleOp(c, mtSinkDeliver, w.b); !errors.Is(err, ErrCorrupt) {
			t.Errorf("delivery of %s: the dispatcher returned %v, want ErrCorrupt", task, err)
		}
	}

	got := drain(t, cur, func(int) {})
	if err := q.Wait(); err != nil {
		t.Fatal(err)
	}
	if string(batch.Encode(got)) != string(batch.Encode(want)) {
		t.Fatalf("stream after refused deliveries: %d rows, want %d", got.NumRows(), want.NumRows())
	}
}

// TestProcessModeKillWorkerMidCursor is engine.TestKillWorkerMidCursorFetch
// over the wire: the worker hosting output channel 1 is killed after the
// cursor read two batches; recovery re-executes the channel and the stream is
// still the failure-free result's bytes.
func TestProcessModeKillWorkerMidCursor(t *testing.T) {
	if testing.Short() {
		t.Skip("process-mode e2e is not short")
	}
	cl, _ := distCluster(t, 3)
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	want, _, err := startCursorPlan(ctx, t, cl).Result()
	if err != nil {
		t.Fatal(err)
	}

	q := startCursorPlan(ctx, t, cl)
	got := drain(t, q.Cursor(), func(n int) {
		if n == 2 {
			cl.Worker(1).Kill() // hosts output channel 1
		}
	})
	if err := q.Wait(); err != nil {
		t.Fatalf("wait: %v", err)
	}
	if string(batch.Encode(got)) != string(batch.Encode(want)) {
		t.Errorf("cursor stream differs after a mid-stream kill: %d rows, want %d", got.NumRows(), want.NumRows())
	}
	if rep := q.Report(); rep.Recoveries == 0 {
		t.Error("no recovery recorded despite the kill")
	}
}
