package engine

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"quokka/internal/batch"
	"quokka/internal/cluster"
	"quokka/internal/expr"
	"quokka/internal/flight"
	"quokka/internal/gcs"
	"quokka/internal/lineage"
	"quokka/internal/metrics"
	"quokka/internal/ops"
	"quokka/internal/trace"
)

// killAfterTasks kills the given worker once the cluster has executed at
// least n tasks. The kill is delivered from inside the push of whichever task
// pushes next — a task that has not committed yet, so the query cannot have
// finished, however fast it runs — with a polling goroutine behind it for a
// query whose pushes are all done. It returns a done channel.
func killAfterTasks(cl *cluster.Cluster, victim int, n int64) <-chan struct{} {
	done := make(chan struct{})
	var once sync.Once
	due := func() bool {
		if cl.Metrics.Get(metrics.TasksExecuted) < n {
			return false
		}
		once.Do(func() {
			cl.Worker(cluster.WorkerID(victim)).Kill()
			close(done)
		})
		return true
	}
	for _, w := range cl.Workers {
		w.Peer = killerTransport{Peer: w.Peer, due: due}
	}
	go func() {
		for !due() {
			time.Sleep(100 * time.Microsecond)
		}
	}()
	return done
}

// killerTransport asks due before every push.
type killerTransport struct {
	flight.Peer
	due func() bool
}

func (k killerTransport) Push(p flight.Partition) error {
	k.due()
	return k.Peer.Push(p)
}

// killWhen kills the given worker as soon as the query's committed state
// satisfies cond, polled from a background goroutine — a kill placed by
// what has been committed rather than by a cluster-wide task count, for
// tests that need the recovery to find specific lineage. It returns a done
// channel.
func killWhen(r *Runner, victim int, cond func(tx *gcs.Txn) bool) <-chan struct{} {
	done := make(chan struct{})
	go func() {
		defer close(done)
		for ready := false; !ready; time.Sleep(50 * time.Microsecond) {
			r.gcsView(func(tx *gcs.Txn) error {
				ready = cond(tx)
				return nil
			})
		}
		r.cl.Worker(cluster.WorkerID(victim)).Kill()
	}()
	return done
}

// killInTxn kills the given worker from inside the first update transaction
// on the cluster's control store that leaves cond true: placed, like
// killWhen's, by what has been committed, but never late — a poller can sample
// its way past a short query's last commit and then wait for good. Install it
// before the query starts.
func killInTxn(cl *cluster.Cluster, victim int, cond func(tx *gcs.Txn) bool) {
	kill := cl.Worker(cluster.WorkerID(victim)).Kill // idempotent
	cl.GCS = txnHook{Backend: cl.GCS, after: func(tx *gcs.Txn, _ bool) {
		if cond(tx) {
			kill()
		}
	}}
}

// txnHook shows after every update transaction that is about to commit — its
// body returned nil — and whether it is a flush of task commits, the one
// UpdateMulti caller there is.
type txnHook struct {
	gcs.Backend
	after func(tx *gcs.Txn, flush bool)
}

func (h txnHook) body(flush bool, fn func(tx *gcs.Txn) error) func(tx *gcs.Txn) error {
	return func(tx *gcs.Txn) error {
		err := fn(tx)
		if err == nil {
			h.after(tx, flush)
		}
		return err
	}
}

func (h txnHook) UpdateNS(ns string, fn func(tx *gcs.Txn) error) error {
	return h.Backend.UpdateNS(ns, h.body(false, fn))
}

func (h txnHook) UpdateMulti(nss []string, fn func(tx *gcs.Txn) error) error {
	return h.Backend.UpdateMulti(nss, h.body(true, fn))
}

// committedWatermark folds a channel's committed lineage — its first n lin/
// records, all of them below cur/ for n < 0 — into the watermark it has
// consumed up to, for a kill condition: the control store keeps no watermark,
// only what derives one (docs/contracts/control-store.md).
func committedWatermark(tx *gcs.Txn, r *Runner, id lineage.ChannelID, n int) lineage.Watermark {
	if n < 0 {
		n = txGetInt(tx, r.keyCursor(id), 0)
	}
	wm := lineage.Watermark{}
	for q := range n {
		v, _ := tx.Get(r.keyLineage(lineage.TaskName{Stage: id.Stage, Channel: id.Channel, Seq: q}))
		if rec, err := lineage.DecodeRecord(v); err == nil && rec.Kind == lineage.KindConsume {
			wm[lineage.EdgeChannel{Input: rec.Input, UpChannel: rec.UpChannel}] += rec.Count
		}
	}
	return wm
}

func runWithFailure(t *testing.T, cl *cluster.Cluster, p *Plan, cfg Config, victim int, afterTasks int64) (*batch.Batch, *Report, error) {
	t.Helper()
	r, err := NewRunner(cl, p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	killed := killAfterTasks(cl, victim, afterTasks)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	out, rep, runErr := r.Run(ctx)
	<-killed
	return out, rep, runErr
}

func TestRecoveryScanAggregate(t *testing.T) {
	const n = 2000
	cl := testCluster(t, 4, map[string][]*batch.Batch{"numbers": numbersTable(n, 24)})
	out, rep, err := runWithFailure(t, cl, scanFilterAggPlan(0), DefaultConfig(), 1, 5)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	var want float64
	for i := 0; i < n; i++ {
		want += float64(2 * i)
	}
	checkSumCount(t, out, want, n)
	if rep.Recoveries == 0 {
		t.Error("expected at least one recovery")
	}
}

func TestRecoveryJoin(t *testing.T) {
	const nFact = 1000
	cl := testCluster(t, 4, joinTables(nFact))
	out, rep, err := runWithFailure(t, cl, joinPlan(), DefaultConfig(), 2, 6)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if out == nil || out.NumRows() != 10 {
		t.Fatalf("result: %v", out)
	}
	for i := 0; i < out.NumRows(); i++ {
		if out.Col("c").Ints[i] != nFact/10 {
			t.Errorf("group %q count = %d, want %d",
				out.Col("name").Strings[i], out.Col("c").Ints[i], nFact/10)
		}
	}
	if rep.Recoveries == 0 {
		t.Error("expected a recovery")
	}
}

// The core correctness property of write-ahead lineage: the query result
// with a failure equals the result without one (channels that did not fail
// are never rewound, and replays regenerate identical partitions).
func TestFailureResultEqualsFailureFreeResult(t *testing.T) {
	tables := joinTables(800)
	clean := testCluster(t, 4, tables)
	wantOut, _ := runPlan(t, clean, joinPlan(), DefaultConfig())

	faulty := testCluster(t, 4, tables)
	gotOut, _, err := runWithFailure(t, faulty, joinPlan(), DefaultConfig(), 1, 4)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	wantEnc := batch.Encode(wantOut)
	gotEnc := batch.Encode(gotOut)
	if string(wantEnc) != string(gotEnc) {
		t.Fatalf("results differ:\nwant %v\ngot  %v", wantOut, gotOut)
	}
}

func TestRecoverySparkMode(t *testing.T) {
	cl := testCluster(t, 4, joinTables(600))
	out, rep, err := runWithFailure(t, cl, joinPlan(), SparkConfig(), 3, 4)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if out == nil || out.NumRows() != 10 {
		t.Fatalf("result: %v", out)
	}
	if rep.Recoveries == 0 {
		t.Error("expected a recovery")
	}
}

func TestRecoverySpoolMode(t *testing.T) {
	cl := testCluster(t, 4, joinTables(600))
	cfg := TrinoConfig()
	out, rep, err := runWithFailure(t, cl, joinPlan(), cfg, 1, 4)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if out == nil || out.NumRows() != 10 {
		t.Fatalf("result: %v", out)
	}
	if rep.Metrics[metrics.SpoolWriteBytes] == 0 {
		t.Error("spool mode should write spool bytes")
	}
	if rep.Recoveries == 0 {
		t.Error("expected a recovery")
	}
}

func TestRecoveryCheckpointMode(t *testing.T) {
	cl := testCluster(t, 4, joinTables(800))
	cfg := DefaultConfig()
	cfg.FT = FTCheckpoint
	cfg.CheckpointEveryTasks = 2
	out, rep, err := runWithFailure(t, cl, joinPlan(), cfg, 2, 8)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if out == nil || out.NumRows() != 10 {
		t.Fatalf("result: %v", out)
	}
	var total int64
	for i := 0; i < out.NumRows(); i++ {
		total += out.Col("c").Ints[i]
	}
	if total != 800 {
		t.Errorf("total = %d, want 800", total)
	}
	if rep.Metrics[metrics.CheckpointBytes] == 0 {
		t.Error("checkpoint mode should persist state bytes")
	}
}

func TestNoFaultToleranceFailsQuery(t *testing.T) {
	cl := testCluster(t, 4, map[string][]*batch.Batch{"numbers": numbersTable(2000, 24)})
	cfg := DefaultConfig()
	cfg.FT = FTNone
	_, _, err := runWithFailure(t, cl, scanFilterAggPlan(0), cfg, 1, 5)
	if !errors.Is(err, ErrQueryFailed) {
		t.Fatalf("err = %v, want ErrQueryFailed", err)
	}
}

func TestNestedFailures(t *testing.T) {
	const nFact = 1500
	cl := testCluster(t, 5, joinTables(nFact))
	r, err := NewRunner(cl, joinPlan(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	k1 := killAfterTasks(cl, 1, 4)
	k2 := killAfterTasks(cl, 3, 12)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	out, rep, runErr := r.Run(ctx)
	<-k1
	<-k2
	if runErr != nil {
		t.Fatalf("Run: %v", runErr)
	}
	if out == nil || out.NumRows() != 10 {
		t.Fatalf("result: %v", out)
	}
	for i := 0; i < out.NumRows(); i++ {
		if out.Col("c").Ints[i] != nFact/10 {
			t.Errorf("group %q count = %d", out.Col("name").Strings[i], out.Col("c").Ints[i])
		}
	}
	// Both kills may land within one heartbeat tick, in which case a
	// single reconciliation pass handles them together — also correct.
	if rep.Recoveries < 1 {
		t.Errorf("recoveries = %d, want >= 1", rep.Recoveries)
	}
}

func TestAllWorkersDead(t *testing.T) {
	cl := testCluster(t, 2, map[string][]*batch.Batch{"numbers": numbersTable(4000, 40)})
	r, err := NewRunner(cl, scanFilterAggPlan(0), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Both die inside a transaction once three tasks ran: a poller could
	// sample its way past the query's last commit.
	ran3 := func(*gcs.Txn) bool { return cl.Metrics.Get(metrics.TasksExecuted) >= 3 }
	killInTxn(cl, 0, ran3)
	killInTxn(cl, 1, ran3)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_, _, runErr := r.Run(ctx)
	if !errors.Is(runErr, ErrNoWorkers) {
		t.Fatalf("err = %v, want ErrNoWorkers", runErr)
	}
}

// scanMapAggPlan inserts a narrow map stage between scan and aggregate, so
// spool-mode recovery must cascade through a non-spooled stage.
func scanMapAggPlan() *Plan {
	return MustPlan(
		&Stage{ID: 0, Name: "read", Reader: &ReaderSpec{Table: "numbers"}},
		&Stage{ID: 1, Name: "map",
			Op:     ops.NewFilterProjectSpec(nil, ops.NE("v", expr.C("v"))),
			Inputs: []StageInput{{Stage: 0, Part: Direct()}}},
		&Stage{ID: 2, Name: "agg", Parallelism: 1,
			Op:     ops.NewHashAggSpec(nil, ops.Sum("s", expr.C("v")), ops.CountStar("c")),
			Inputs: []StageInput{{Stage: 1, Part: Single()}}},
	)
}

func TestRecoverySpoolModeWithNarrowStage(t *testing.T) {
	const n = 2500
	cl := testCluster(t, 4, map[string][]*batch.Batch{"numbers": numbersTable(n, 30)})
	cfg := DefaultConfig()
	cfg.FT = FTSpool
	out, rep, err := runWithFailure(t, cl, scanMapAggPlan(), cfg, 2, 6)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	var want float64
	for i := 0; i < n; i++ {
		want += float64(2 * i)
	}
	checkSumCount(t, out, want, n)
	if rep.Recoveries == 0 {
		t.Error("expected a recovery")
	}
}

// TestFailureRecoveryWithParallelOperators kills a worker mid-probe while
// stateful operators run partition-parallel: the replayed channels must
// rebuild identical per-partition state (partition assignment is a pure
// function of key hash), so the result equals the failure-free result
// byte for byte.
func TestFailureRecoveryWithParallelOperators(t *testing.T) {
	tables := joinTables(800)
	cfg := DefaultConfig()
	cfg.Parallelism = 4
	cfg.CPUPerWorker = 4

	clean := testCluster(t, 4, tables)
	wantOut, _ := runPlan(t, clean, joinPlan(), cfg)

	faulty := testCluster(t, 4, tables)
	// The dim build side commits within the first few tasks; by task 8 the
	// join channels are probing fact batches, so the kill lands mid-probe.
	gotOut, rep, err := runWithFailure(t, faulty, joinPlan(), cfg, 1, 8)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Recoveries == 0 {
		t.Error("expected at least one recovery")
	}
	if rep.Metrics[metrics.PartitionTasks] == 0 {
		t.Error("no partition tasks dispatched under Parallelism=4")
	}
	if string(batch.Encode(gotOut)) != string(batch.Encode(wantOut)) {
		t.Fatalf("results differ:\nwant %v\ngot  %v", wantOut, gotOut)
	}
}

// TestCheckpointRestartRestoresState: the one kind of channel that restarts
// from a checkpoint mark — an output-stage channel, which no rewound consumer
// needs re-produced — does: killed past a mark, the sort channel comes back at
// the mark's Seq, not at 0, with the snapshot's rows and the mark's watermark
// (the only stored one there is: it equals the fold of the lineage below the
// mark), and the result is the no-fault run's byte for byte.
func TestCheckpointRestartRestoresState(t *testing.T) {
	const n = 6000
	tables := map[string][]*batch.Batch{"numbers": numbersTable(n, 120)}
	cfg := DefaultConfig()
	cfg.FT = FTCheckpoint
	cfg.CheckpointEveryTasks = 2
	cfg.MaxTake = 2 // many small sort tasks: marks land while there is work left
	want, _ := runPlan(t, testCluster(t, 4, tables), spillSortPlan(), cfg)
	if want == nil || want.NumRows() != n {
		t.Fatalf("failure-free result: %v", want)
	}

	cl := testCluster(t, 4, tables)
	Configure(cl, WithTracing(true))
	r, err := NewRunner(cl, spillSortPlan(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The sort channel is seeded on worker 0. Kill it once the channel has
	// committed past a mark, so the restart has lineage above the mark to
	// retrace as well.
	sortCh := lineage.ChannelID{Stage: 1, Channel: 0}
	var mark checkpointMark
	var folded lineage.Watermark
	killInTxn(cl, 0, func(tx *gcs.Txn) bool {
		v, _ := tx.Get(r.keyCheckpoint(sortCh))
		m, err := decodeCheckpoint(v)
		if err != nil || m.Seq == 0 || txGetInt(tx, r.keyCursor(sortCh), 0) <= m.Seq {
			return false
		}
		if mark.Seq == 0 {
			mark, folded = m, committedWatermark(tx, r, sortCh, m.Seq)
		}
		return true
	})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	q := r.Start(ctx)
	got, rep, err := q.Result()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Recoveries == 0 {
		t.Fatal("no kill, or none the query noticed: nothing recovered")
	}
	if !reflect.DeepEqual(mark.WM, folded) {
		t.Errorf("mark at task %d carries watermark %v, its lineage folds to %v", mark.Seq, mark.WM, folded)
	}
	if !bytes.Equal(batch.Encode(got), batch.Encode(want)) {
		t.Fatalf("result differs from the failure-free run: %d rows, want %d", got.NumRows(), want.NumRows())
	}
	// The restarted incarnation: its first task is at a mark (the one the kill
	// saw, or a later one), and it consumed fewer rows than the table has —
	// the rest came out of the snapshot.
	first, rows := -1, int64(0)
	for _, s := range q.Trace().Snapshot() {
		if s.Kind == trace.KindTask && s.Stage == sortCh.Stage && s.Epoch > 0 {
			if first < 0 || s.Seq < first {
				first = s.Seq
			}
			rows += s.InRows
		}
	}
	if first < mark.Seq || rows >= n {
		t.Errorf("the rewound sort channel restarted at task %d having consumed %d of %d rows: want a start at or past the mark (task %d) and the rest from its snapshot", first, rows, n, mark.Seq)
	}
}

// TestCheckpointRestartKeepsDeliveredResults: an output-stage operator that
// emits before it finalizes — a hash join — restarts from its mark after its
// worker dies, and the results its tasks below the mark delivered and
// committed are still the head's: nothing re-delivers them, so the head must
// have held them since their commit. The rows are the failure-free run's (as a
// multiset: raw join output is partition-grouped).
func TestCheckpointRestartKeepsDeliveredResults(t *testing.T) {
	tables := joinTables(4000)
	p := MustPlan(joinPlan().Stages[:3]...) // the join is the output stage
	cfg := DefaultConfig()
	cfg.FT = FTCheckpoint
	cfg.CheckpointEveryTasks = 2
	cfg.MaxTake = 1
	want, _ := runPlan(t, testCluster(t, 4, tables), p, cfg)

	cl := testCluster(t, 4, tables)
	r, err := NewRunner(cl, p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Join channel 1 is seeded on worker 1: kill it once the channel has
	// committed past a mark that has results below it.
	joinCh := lineage.ChannelID{Stage: 2, Channel: 1}
	killInTxn(cl, 1, func(tx *gcs.Txn) bool {
		v, _ := tx.Get(r.keyCheckpoint(joinCh))
		m, err := decodeCheckpoint(v)
		return err == nil && m.Seq >= 10 && txGetInt(tx, r.keyCursor(joinCh), 0) > m.Seq+1
	})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	got, rep, err := r.Start(ctx).Result()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Recoveries == 0 {
		t.Fatal("no kill, or none the query noticed: nothing recovered")
	}
	if g, w := rowMultiset(got), rowMultiset(want); !slices.Equal(g, w) {
		t.Fatalf("result differs from the failure-free run: %d rows, want %d", len(g), len(w))
	}
}

// rowMultiset renders every row of b and sorts them.
func rowMultiset(b *batch.Batch) []string {
	var rows []string
	for i := 0; b != nil && i < b.NumRows(); i++ {
		var row strings.Builder
		for _, c := range b.Cols {
			fmt.Fprintf(&row, "|%v", c.Value(i))
		}
		rows = append(rows, row.String())
	}
	slices.Sort(rows)
	return rows
}

// TestFatalTaskErrorFailsQuery: an error retrying cannot fix — here a split
// object that does not decode — ends Run with that error, under a deadline
// that a task manager retrying it forever would run out.
func TestFatalTaskErrorFailsQuery(t *testing.T) {
	cl := testCluster(t, 2, map[string][]*batch.Batch{"numbers": numbersTable(400, 8)})
	cl.ObjStore.PutFree(tableSplitKey("numbers", 3), []byte("not a batch"))
	r, err := NewRunner(cl, scanFilterAggPlan(0), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_, _, err = r.Run(ctx)
	if err == nil || ctx.Err() != nil || errors.Is(err, ErrQueryFailed) {
		t.Fatalf("Run over a corrupt split: %v (deadline: %v), want the decode error", err, ctx.Err())
	}
	assertNoQueryState(t, cl, "after a fatal task error")
}
