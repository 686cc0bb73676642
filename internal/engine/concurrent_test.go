package engine

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"quokka/internal/batch"
	"quokka/internal/cluster"
	"quokka/internal/expr"
	"quokka/internal/gcs"
	"quokka/internal/metrics"
	"quokka/internal/ops"
)

// Concurrent query sessions: N runners share one cluster. Every test here
// asserts the two core guarantees of the Submit API — isolation (each
// query's result is byte-identical to its serial run; teardown of one
// query leaves the others untouched) and shared-resource governance
// (bounded admission, shared CPU slots, per-query spill namespaces).

// startPlan submits a plan on the cluster and returns its handle.
func startPlan(t *testing.T, cl *cluster.Cluster, p *Plan, cfg Config, ctx context.Context) *Query {
	t.Helper()
	r, err := NewRunner(cl, p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r.Start(ctx)
}

// assertNoQueryState asserts the GCS holds no per-query namespace and no
// worker disk holds spill or backup files — the full teardown guarantee.
func assertNoQueryState(t *testing.T, cl *cluster.Cluster, label string) {
	t.Helper()
	// The whole-store scan is a probe of the head's concrete store, not part
	// of the gcs.Backend contract.
	cl.GCS.(*gcs.Store).View(func(tx *gcs.Txn) error {
		if keys := tx.List("q/"); len(keys) != 0 {
			t.Errorf("%s: GCS still holds %d per-query keys, e.g. %q", label, len(keys), keys[0])
		}
		return nil
	})
	for _, w := range cl.Workers {
		if !w.Alive() {
			continue
		}
		if n := w.Disk.UsedBytesPrefix("spill/"); n != 0 {
			t.Errorf("%s: worker %d leaked %d spill bytes", label, w.ID, n)
		}
		if n := w.Disk.UsedBytesPrefix("bk/"); n != 0 {
			t.Errorf("%s: worker %d leaked %d backup bytes", label, w.ID, n)
		}
	}
}

// TestConcurrentQueriesByteIdentical: four queries — two plan shapes, with
// and without a memory budget — run concurrently on one cluster and each
// produces exactly the bytes its serial run produced. Overlapping
// execution is observable through the queries.peak gauge.
func TestConcurrentQueriesByteIdentical(t *testing.T) {
	tables := spillTables(3000, 4000)
	for name, splits := range map[string][]*batch.Batch{"numbers": numbersTable(3000, 12)} {
		tables[name] = splits
	}
	cl := testCluster(t, 4, tables)

	type variant struct {
		name   string
		plan   func() *Plan
		budget int64
		par    int
	}
	variants := []variant{
		{"joinAgg", spillJoinAggPlan, 0, 2},
		{"joinAgg-spill", spillJoinAggPlan, 16_000, 4},
		{"sort", spillSortPlan, 0, 1},
		{"sort-spill", spillSortPlan, 16_000, 2},
	}

	// Serial references first (one at a time on the same cluster).
	want := make([][]byte, len(variants))
	for i, v := range variants {
		cfg := DefaultConfig()
		cfg.MemoryBudget = v.budget
		cfg.Parallelism = v.par
		out, _ := runPlan(t, cl, v.plan(), cfg)
		want[i] = batch.Encode(out)
	}

	// Now all four at once.
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	qs := make([]*Query, len(variants))
	for i, v := range variants {
		cfg := DefaultConfig()
		cfg.MemoryBudget = v.budget
		cfg.Parallelism = v.par
		qs[i] = startPlan(t, cl, v.plan(), cfg, ctx)
	}
	for i, q := range qs {
		out, rep, err := q.Result()
		if err != nil {
			t.Fatalf("%s: %v", variants[i].name, err)
		}
		if string(batch.Encode(out)) != string(want[i]) {
			t.Errorf("%s: concurrent result differs from serial run", variants[i].name)
		}
		if rep.TasksExecuted == 0 {
			t.Errorf("%s: no per-query tasks recorded", variants[i].name)
		}
		if rep.QueryID == "" {
			t.Errorf("%s: report missing query id", variants[i].name)
		}
	}
	if peak := cl.Metrics.Get(metrics.QueriesPeak); peak < 2 {
		t.Errorf("queries.peak = %d, want >= 2 (no overlapping execution observed)", peak)
	}
	assertNoQueryState(t, cl, "after concurrent batch")
}

// TestAdmissionFIFOBound: with the admission limit at 1, two submissions
// never overlap — the second queues FIFO and still completes correctly.
func TestAdmissionFIFOBound(t *testing.T) {
	cl := testCluster(t, 4, map[string][]*batch.Batch{"numbers": numbersTable(1000, 8)})
	Configure(cl, WithAdmissionLimit(1))
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	qa := startPlan(t, cl, scanFilterAggPlan(0), DefaultConfig(), ctx)
	qb := startPlan(t, cl, scanFilterAggPlan(500), DefaultConfig(), ctx)
	outB, _, errB := qb.Result()
	outA, _, errA := qa.Result()
	if errA != nil || errB != nil {
		t.Fatalf("errors: %v, %v", errA, errB)
	}
	var wantA, wantB float64
	for i := 0; i < 1000; i++ {
		wantA += float64(2 * i)
		if i >= 500 {
			wantB += float64(2 * i)
		}
	}
	checkSumCount(t, outA, wantA, 1000)
	checkSumCount(t, outB, wantB, 500)
	if peak := cl.Metrics.Get(metrics.QueriesPeak); peak != 1 {
		t.Errorf("queries.peak = %d under admission limit 1", peak)
	}
	if queued := cl.Metrics.Get(metrics.QueriesQueued); queued < 1 {
		t.Errorf("queries.queued = %d, want >= 1", queued)
	}
}

// TestAdmissionCancelWhileQueued: cancelling a queued query removes it
// from the FIFO without consuming a slot, and later submissions still run.
func TestAdmissionCancelWhileQueued(t *testing.T) {
	cl := testCluster(t, 2, map[string][]*batch.Batch{"numbers": numbersTable(2000, 16)})
	Configure(cl, WithAdmissionLimit(1))
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	qa := startPlan(t, cl, scanFilterAggPlan(0), DefaultConfig(), ctx)
	qb := startPlan(t, cl, scanFilterAggPlan(0), DefaultConfig(), ctx)
	qb.Cancel()
	if err := qb.Wait(); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled queued query: err = %v", err)
	}
	if _, _, err := qa.Result(); err != nil {
		t.Fatalf("first query: %v", err)
	}
	qc := startPlan(t, cl, scanFilterAggPlan(0), DefaultConfig(), ctx)
	if _, _, err := qc.Result(); err != nil {
		t.Fatalf("post-cancel query: %v", err)
	}
	assertNoQueryState(t, cl, "after queued cancel")
}

// TestCursorMatchesRun: on a deterministic plan (a full sort), draining
// the streaming cursor yields exactly the rows, in exactly the order, of
// the one-shot Result path.
func TestCursorMatchesRun(t *testing.T) {
	tables := map[string][]*batch.Batch{"numbers": numbersTable(3000, 12)}
	cl := testCluster(t, 4, tables)
	want, _ := runPlan(t, cl, spillSortPlan(), DefaultConfig())

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for _, bufBytes := range []int64{0, 512} { // default and aggressively tiny
		cfg := DefaultConfig()
		cfg.CursorBufferBytes = bufBytes
		q := startPlan(t, cl, spillSortPlan(), cfg, ctx)
		cur := q.Cursor()
		var got []*batch.Batch
		for {
			b, err := cur.NextContext(context.Background())
			if err != nil {
				t.Fatalf("buf %d: cursor: %v", bufBytes, err)
			}
			if b == nil {
				break
			}
			got = append(got, b)
		}
		if err := q.Wait(); err != nil {
			t.Fatalf("buf %d: wait: %v", bufBytes, err)
		}
		all, err := batch.Concat(got)
		if err != nil {
			t.Fatal(err)
		}
		if string(batch.Encode(all)) != string(batch.Encode(want)) {
			t.Errorf("buf %d: cursor stream differs from Collect result", bufBytes)
		}
		assertNoQueryState(t, cl, fmt.Sprintf("after cursor run (buf %d)", bufBytes))
	}
}

// TestCursorMultiChannelOrder: when the output stage has several channels,
// the cursor yields channel 0's partitions in sequence order, then channel
// 1's, matching the (channel, seq) order Result drains them in.
func TestCursorMultiChannelOrder(t *testing.T) {
	tables := map[string][]*batch.Batch{"numbers": numbersTable(2000, 16)}
	cl := testCluster(t, 4, tables)
	// Output stage = the filter itself: parallel channels, no final merge.
	p := MustPlan(
		&Stage{ID: 0, Name: "read", Reader: &ReaderSpec{Table: "numbers"}},
		&Stage{ID: 1, Name: "filter",
			Op:     ops.NewFilterSpec(expr.Ge(expr.C("id"), expr.Int64(0))),
			Inputs: []StageInput{{Stage: 0, Part: Direct()}}},
	)
	want, _ := runPlan(t, cl, p, DefaultConfig())

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	cfg := DefaultConfig()
	cfg.CursorBufferBytes = 2048 // force backpressure across channels
	q := startPlan(t, cl, p, cfg, ctx)
	cur := q.Cursor()
	var got []*batch.Batch
	for {
		b, err := cur.NextContext(context.Background())
		if err != nil {
			t.Fatalf("cursor: %v", err)
		}
		if b == nil {
			break
		}
		got = append(got, b)
	}
	if err := q.Wait(); err != nil {
		t.Fatal(err)
	}
	all, err := batch.Concat(got)
	if err != nil {
		t.Fatal(err)
	}
	if string(batch.Encode(all)) != string(batch.Encode(want)) {
		t.Error("multi-channel cursor stream differs from Result order")
	}
}

// TestResultAfterPartialCursor: Result drains the same stream a Cursor reads,
// so after a Cursor took the first batches, Result returns the rest, in
// order: the two together are the whole result.
func TestResultAfterPartialCursor(t *testing.T) {
	tables := map[string][]*batch.Batch{"numbers": numbersTable(2000, 16)}
	cl := testCluster(t, 4, tables)
	p := MustPlan(
		&Stage{ID: 0, Name: "read", Reader: &ReaderSpec{Table: "numbers"}},
		&Stage{ID: 1, Name: "filter",
			Op:     ops.NewFilterSpec(expr.Ge(expr.C("id"), expr.Int64(0))),
			Inputs: []StageInput{{Stage: 0, Part: Direct()}}},
	)
	want, _ := runPlan(t, cl, p, DefaultConfig())

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	q := startPlan(t, cl, p, DefaultConfig(), ctx)
	cur := q.Cursor()
	var got []*batch.Batch
	for range 3 {
		b, err := cur.NextContext(context.Background())
		if err != nil || b == nil {
			t.Fatalf("cursor: %v, %v", b, err)
		}
		got = append(got, b)
	}
	rest, _, err := q.Result()
	if err != nil {
		t.Fatal(err)
	}
	all, err := batch.Concat(append(got, rest))
	if err != nil {
		t.Fatal(err)
	}
	if rest.NumRows() == 0 || string(batch.Encode(all)) != string(batch.Encode(want)) {
		t.Errorf("3 cursor batches + Result (%d rows) differ from the whole result (%d rows)", rest.NumRows(), want.NumRows())
	}
}

// TestResultBehindUnreadCursor: with a Cursor attached and never read, the
// collector refuses every delivery but the cursor's next partition once its
// buffer is full, so a Result that waited for completion before draining
// would never return. Result drains while the query runs.
func TestResultBehindUnreadCursor(t *testing.T) {
	tables := map[string][]*batch.Batch{"numbers": numbersTable(2000, 16)}
	cl := testCluster(t, 4, tables)
	p := MustPlan(
		&Stage{ID: 0, Name: "read", Reader: &ReaderSpec{Table: "numbers"}},
		&Stage{ID: 1, Name: "filter",
			Op:     ops.NewFilterSpec(expr.Ge(expr.C("id"), expr.Int64(0))),
			Inputs: []StageInput{{Stage: 0, Part: Direct()}}},
	)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	cfg := DefaultConfig()
	cfg.CursorBufferBytes = 2048
	q := startPlan(t, cl, p, cfg, ctx)
	q.Cursor()
	out, _, err := q.Result()
	if err != nil {
		t.Fatalf("Result behind an unread cursor: %v", err)
	}
	if out.NumRows() != 2000 {
		t.Fatalf("Result returned %d rows, want 2000", out.NumRows())
	}
}

// TestCancelMidSpillNoLeak: cancelling a spilling query mid-flight sweeps
// its spill namespace, drains its mailboxes and deletes its GCS keys —
// while a concurrent query on the same cluster is completely unaffected.
func TestCancelMidSpillNoLeak(t *testing.T) {
	tables := spillTables(8000, 10000)
	cl := testCluster(t, 4, tables)

	// Serial reference for the surviving query.
	survivorCfg := DefaultConfig()
	survivorCfg.Parallelism = 2
	wantOut, _ := runPlan(t, cl, spillJoinAggPlan(), survivorCfg)
	want := batch.Encode(wantOut)

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	victimCfg := DefaultConfig()
	victimCfg.MemoryBudget = 8_000 // tight: spills early and often
	victim := startPlan(t, cl, spillJoinAggPlan(), victimCfg, ctx)
	survivor := startPlan(t, cl, spillJoinAggPlan(), survivorCfg, ctx)

	// Cancel the victim as soon as it has actually spilled.
	deadline := time.Now().Add(60 * time.Second)
	for victim.r.qmet.Get(metrics.SpillRuns) == 0 {
		select {
		case <-victim.Done():
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("victim never spilled")
		}
		time.Sleep(50 * time.Microsecond)
	}
	victim.Cancel()
	if err := victim.Wait(); !errors.Is(err, context.Canceled) {
		t.Errorf("victim err = %v, want context.Canceled", err)
	}

	out, _, err := survivor.Result()
	if err != nil {
		t.Fatalf("survivor: %v", err)
	}
	if string(batch.Encode(out)) != string(want) {
		t.Error("survivor result changed by concurrent cancellation")
	}
	assertNoQueryState(t, cl, "after mid-spill cancel")
}

// TestConcurrentKillWorkerBothRecover: a worker dies while two queries are
// in flight; each replays its own lineage independently and both finish
// byte-identical to their serial runs.
func TestConcurrentKillWorkerBothRecover(t *testing.T) {
	tables := spillTables(3000, 4000)
	tables["numbers"] = numbersTable(3000, 24)
	cl := testCluster(t, 4, tables)

	wantJoin, _ := runPlan(t, cl, spillJoinAggPlan(), DefaultConfig())
	var wantSum float64
	for i := 0; i < 3000; i++ {
		wantSum += float64(2 * i)
	}

	// Kill once BOTH queries have committed three tasks (per query, not the
	// cluster total, so neither is still in seed).
	store := cl.GCS
	killOnCommits(cl, 1, func(commits map[string]int) bool {
		for _, c := range commits {
			if c < 3 {
				return false
			}
		}
		return len(commits) == 2
	})
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	qa := startPlan(t, cl, spillJoinAggPlan(), DefaultConfig(), ctx)
	qb := startPlan(t, cl, scanFilterAggPlan(0), DefaultConfig(), ctx)

	outA, repA, errA := qa.Result()
	outB, repB, errB := qb.Result()
	if errA != nil || errB != nil {
		t.Fatalf("errors after worker kill: %v, %v", errA, errB)
	}
	if string(batch.Encode(outA)) != string(batch.Encode(wantJoin)) {
		t.Error("join query result differs after mid-flight worker kill")
	}
	checkSumCount(t, outB, wantSum, 3000)
	if repA.Recoveries == 0 && repB.Recoveries == 0 {
		t.Error("neither query recorded a recovery after a worker kill")
	}
	cl.GCS = store // the teardown probe reads the concrete store
	assertNoQueryState(t, cl, "after concurrent kill")
}
