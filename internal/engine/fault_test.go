package engine

import (
	"context"
	"errors"
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
		w.Flight = killerTransport{Transport: w.Flight, due: due}
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
	flight.Transport
	due func() bool
}

func (k killerTransport) Push(p flight.Partition) error {
	k.due()
	return k.Transport.Push(p)
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

// txGetWatermark decodes a channel's committed watermark for a kill condition.
func txGetWatermark(tx *gcs.Txn, key string) (lineage.Watermark, error) {
	v, _ := tx.Get(key)
	return lineage.DecodeWatermark(v)
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
	go func() {
		for cl.Metrics.Get(metrics.TasksExecuted) < 3 {
			time.Sleep(100 * time.Microsecond)
		}
		cl.Worker(0).Kill()
		cl.Worker(1).Kill()
	}()
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
