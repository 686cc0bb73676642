package engine

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"quokka/internal/batch"
	"quokka/internal/expr"
	"quokka/internal/metrics"
	"quokka/internal/ops"
)

// Head-node throughput work: group-commit lineage, worker-side result
// spooling, admission queueing and the consolidated tuning API. Every
// test asserts the cardinal invariant first — none of these optimizations
// may change a single output byte — and then the mechanism-specific
// property (fewer transactions, fewer head bytes, context plumbing).

// TestConcurrentAdmission8ByteIdentical: eight queries of four plan shapes
// run concurrently under an admission limit of 8 with result spooling on
// (the default); every one is byte-identical to its serial run and full
// teardown holds.
func TestConcurrentAdmission8ByteIdentical(t *testing.T) {
	tables := spillTables(3000, 4000)
	tables["numbers"] = numbersTable(3000, 12)
	cl := testCluster(t, 4, tables)
	Configure(cl, WithAdmissionLimit(8))

	type variant struct {
		name   string
		plan   func() *Plan
		budget int64
		par    int
	}
	mk := func(cut int64) func() *Plan { return func() *Plan { return scanFilterAggPlan(cut) } }
	variants := []variant{
		{"joinAgg", spillJoinAggPlan, 0, 2},
		{"joinAgg-spill", spillJoinAggPlan, 16_000, 4},
		{"sort", spillSortPlan, 0, 1},
		{"sort-spill", spillSortPlan, 16_000, 2},
		{"agg0", mk(0), 0, 2},
		{"agg500", mk(500), 0, 1},
		{"joinAgg-2", spillJoinAggPlan, 0, 1},
		{"sort-2", spillSortPlan, 0, 2},
	}

	want := make([][]byte, len(variants))
	for i, v := range variants {
		cfg := DefaultConfig()
		cfg.MemoryBudget = v.budget
		cfg.Parallelism = v.par
		out, _ := runPlan(t, cl, v.plan(), cfg)
		want[i] = batch.Encode(out)
	}

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
	}
	if peak := cl.Metrics.Get(metrics.QueriesPeak); peak < 2 {
		t.Errorf("queries.peak = %d, want >= 2", peak)
	}
	assertNoQueryState(t, cl, "after admission-8 batch")
}

// TestConcurrentCursorsAdmission8: eight streaming cursors drain eight
// concurrent queries (admission 8, spooling on, tiny buffers forcing
// fetch-on-demand from workers); each stream equals its Collect result.
func TestConcurrentCursorsAdmission8(t *testing.T) {
	tables := map[string][]*batch.Batch{"numbers": numbersTable(3000, 12)}
	cl := testCluster(t, 4, tables)
	Configure(cl, WithAdmissionLimit(8))
	want, _ := runPlan(t, cl, spillSortPlan(), DefaultConfig())
	wantEnc := string(batch.Encode(want))

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	const n = 8
	errs := make([]error, n)
	got := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		cfg := DefaultConfig()
		cfg.CursorBufferBytes = 2048 // force spooled fetches + backpressure
		q := startPlan(t, cl, spillSortPlan(), cfg, ctx)
		cur := q.Cursor()
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var parts []*batch.Batch
			for {
				b, err := cur.Next()
				if err != nil {
					errs[i] = err
					return
				}
				if b == nil {
					break
				}
				parts = append(parts, b)
			}
			if err := q.Wait(); err != nil {
				errs[i] = err
				return
			}
			all, err := batch.Concat(parts)
			if err != nil {
				errs[i] = err
				return
			}
			got[i] = string(batch.Encode(all))
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("cursor %d: %v", i, errs[i])
		}
		if got[i] != wantEnc {
			t.Errorf("cursor %d: stream differs from Collect result", i)
		}
	}
	assertNoQueryState(t, cl, "after concurrent cursors")
}

// TestKillWorkerMidCursorFetch: a multi-channel output plan is consumed
// through a tiny-buffer cursor (so result payloads stay spooled on their
// workers); an output-stage worker is killed mid-iteration. The cursor's
// fetch from the dead worker fails, recovery replays the channel's
// committed lineage, and the drained stream is still byte-identical — no
// lost rows, no duplicates past the read watermark.
func TestKillWorkerMidCursorFetch(t *testing.T) {
	tables := map[string][]*batch.Batch{"numbers": numbersTable(6000, 24)}
	cl := testCluster(t, 4, tables)
	p := cursorKillPlan()
	want, _ := runPlan(t, cl, p, DefaultConfig())

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	cfg := DefaultConfig()
	cfg.CursorBufferBytes = 2048
	q := startPlan(t, cl, p, cfg, ctx)
	cur := q.Cursor()
	var parts []*batch.Batch
	killed := false
	for {
		b, err := cur.Next()
		if err != nil {
			t.Fatalf("cursor after kill=%v: %v", killed, err)
		}
		if b == nil {
			break
		}
		parts = append(parts, b)
		if !killed && len(parts) == 2 {
			cl.Worker(1).Kill() // hosts output channel 1 (and its backups)
			killed = true
		}
	}
	if !killed {
		t.Fatal("stream ended before the kill point; grow the table")
	}
	if err := q.Wait(); err != nil {
		t.Fatalf("wait: %v", err)
	}
	all, err := batch.Concat(parts)
	if err != nil {
		t.Fatal(err)
	}
	if string(batch.Encode(all)) != string(batch.Encode(want)) {
		t.Error("cursor stream differs after mid-fetch worker kill")
	}
	if rep := q.Report(); rep.Recoveries == 0 {
		t.Error("no recovery recorded despite worker kill")
	}
	assertNoQueryState(t, cl, "after mid-cursor kill")
}

// cursorKillPlan: read -> filter with parallel output channels, so result
// partitions spread across workers and a single worker kill loses some.
func cursorKillPlan() *Plan {
	return multiChannelOutputPlan()
}

// TestGroupCommitReducesTxns: the same query committed per-task
// (LineageFlushInterval < 0) and group-committed with a held-open flush
// window produces identical bytes, while the grouped run folds many task
// commits into shared transactions.
func TestGroupCommitReducesTxns(t *testing.T) {
	tables := map[string][]*batch.Batch{"numbers": numbersTable(3000, 24)}
	cl := testCluster(t, 4, tables)

	solo := DefaultConfig()
	solo.LineageFlushInterval = -1 // one GCS transaction per task commit
	outSolo, repSolo := runPlan(t, cl, scanFilterAggPlan(0), solo)
	// Batching off goes through the same flush, one entry at a time.
	if n := repSolo.Metrics[metrics.GCSTxnBatched]; n != 0 {
		t.Errorf("disabled group commit folded %d commits into shared transactions", n)
	}
	if got := repSolo.Metrics[metrics.LineageFlushes]; got != repSolo.TasksExecuted {
		t.Errorf("disabled group commit: %d flushes for %d committed tasks, want one each", got, repSolo.TasksExecuted)
	}

	grouped := DefaultConfig()
	grouped.LineageFlushInterval = 200 * time.Microsecond
	outGrouped, repGrouped := runPlan(t, cl, scanFilterAggPlan(0), grouped)

	if string(batch.Encode(outSolo)) != string(batch.Encode(outGrouped)) {
		t.Fatal("group commit changed query output")
	}
	flushes := repGrouped.Metrics[metrics.LineageFlushes]
	batched := repGrouped.Metrics[metrics.GCSTxnBatched]
	commits := flushes + batched
	if flushes == 0 {
		t.Fatal("group commit issued no flushes")
	}
	if batched == 0 {
		t.Error("no task commits were folded into shared transactions")
	}
	if commits != repGrouped.TasksExecuted {
		t.Errorf("flushes(%d) + batched(%d) = %d, want TasksExecuted = %d",
			flushes, batched, commits, repGrouped.TasksExecuted)
	}
	if repGrouped.Metrics[metrics.LineageRecords] != repSolo.Metrics[metrics.LineageRecords] {
		t.Errorf("lineage records differ: grouped %d vs solo %d",
			repGrouped.Metrics[metrics.LineageRecords], repSolo.Metrics[metrics.LineageRecords])
	}
}

// TestResultSpoolingShrinksHeadBytes: with spooling on (default) the head
// receives manifests, not payloads, during execution; the head.result.bytes
// gauge collapses versus the DisableResultSpool run while the result stays
// byte-identical.
func TestResultSpoolingShrinksHeadBytes(t *testing.T) {
	tables := map[string][]*batch.Batch{"numbers": numbersTable(3000, 12)}
	cl := testCluster(t, 4, tables)

	direct := DefaultConfig()
	direct.DisableResultSpool = true
	outDirect, repDirect := runPlan(t, cl, spillSortPlan(), direct)

	outSpooled, repSpooled := runPlan(t, cl, spillSortPlan(), DefaultConfig())

	if string(batch.Encode(outDirect)) != string(batch.Encode(outSpooled)) {
		t.Fatal("result spooling changed query output")
	}
	hd, hs := repDirect.Metrics[metrics.HeadResultBytes], repSpooled.Metrics[metrics.HeadResultBytes]
	if hd == 0 {
		t.Fatal("direct run recorded no head result bytes")
	}
	if hs >= hd {
		t.Errorf("head.result.bytes: spooled %d >= direct %d — manifests not smaller than payloads", hs, hd)
	}
}

// TestOptionDefaultsResolve: cluster options become the per-query defaults
// and a query's own Config still wins.
func TestOptionDefaultsResolve(t *testing.T) {
	cl := testCluster(t, 2, map[string][]*batch.Batch{"numbers": numbersTable(100, 2)})
	s := sharedFor(cl)

	// res resolves a Config carrying just the two inheritable fields.
	res := func(cursor int64, flush time.Duration) Policy {
		t.Helper()
		cfg := DefaultConfig()
		cfg.CursorBufferBytes, cfg.LineageFlushInterval = cursor, flush
		p, err := resolve(cfg, s.options())
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	if got := res(0, 0).CursorBufferBytes; got != DefaultCursorBufferBytes {
		t.Errorf("built-in cursor default = %d", got)
	}
	Configure(cl, WithCursorBufferBytes(9999), WithLineageFlushInterval(-1))
	if got := res(0, 0).CursorBufferBytes; got != 9999 {
		t.Errorf("cluster cursor default = %d, want 9999", got)
	}
	if got := res(123, 0).CursorBufferBytes; got != 123 {
		t.Errorf("per-query cursor override = %d, want 123", got)
	}
	if got := res(-1, 0).CursorBufferBytes; got >= 0 {
		t.Errorf("negative per-query cursor = %d, want it kept negative (unbounded)", got)
	}
	if got := res(0, 0).LineageFlushInterval; got != -1 {
		t.Errorf("cluster flush default = %v, want -1", got)
	}
	if got := res(0, time.Millisecond).LineageFlushInterval; got != time.Millisecond {
		t.Errorf("per-query flush override = %v", got)
	}
	Configure(cl, WithCursorBufferBytes(0), WithLineageFlushInterval(0))
	if got := res(0, 0).CursorBufferBytes; got != DefaultCursorBufferBytes {
		t.Errorf("reset cursor default = %d", got)
	}

	// A zero Config resolves to the documented defaults; MinTake alone
	// floors below its default (take whatever is committed).
	zero, err := resolve(Config{Dynamic: true}, clusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	d := DefaultConfig()
	if zero.MaxTake != d.MaxTake || zero.MinTake != 1 || zero.ThreadsPerWorker != d.ThreadsPerWorker ||
		zero.CPUPerWorker != d.CPUPerWorker || zero.Parallelism != d.CPUPerWorker ||
		zero.CheckpointEveryTasks != d.CheckpointEveryTasks ||
		zero.PollInterval != d.PollInterval || zero.HeartbeatInterval != d.HeartbeatInterval {
		t.Errorf("zero Config resolved to %+v", zero.Config)
	}
	if !zero.ShuffleCompress || !zero.SpillCompress || zero.Tracing {
		t.Errorf("zero options resolved to compress=%v/%v tracing=%v", zero.ShuffleCompress, zero.SpillCompress, zero.Tracing)
	}
	if _, err := resolve(Config{}, clusterOptions{}); err == nil {
		t.Error("static mode without StaticBatch resolved")
	}

	// The resolved values reach the runner.
	cfg := DefaultConfig()
	cfg.LineageFlushInterval = -1
	r, err := NewRunner(cl, scanFilterAggPlan(0), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.cfg.LineageFlushInterval != -1 || r.cfg.CursorBufferBytes != DefaultCursorBufferBytes {
		t.Errorf("runner resolved flush=%v cursor=%d", r.cfg.LineageFlushInterval, r.cfg.CursorBufferBytes)
	}

	// Admission and worker-memory options reach shared state; 0 restores
	// the admission default.
	Configure(cl, WithAdmissionLimit(2), WithWorkerMemoryBudget(1<<20))
	if s.admit.limit != 2 || s.workerBudget != 1<<20 {
		t.Error("admission / worker-memory options did not reach shared state")
	}
	Configure(cl, WithAdmissionLimit(0), WithWorkerMemoryBudget(0))
	if s.admit.limit != DefaultAdmissionLimit {
		t.Error("WithAdmissionLimit(0) should restore the default")
	}
}

// TestContextAwareHandles: WaitContext and NextContext honour their
// context without poisoning the handle — a timed-out wait can be retried
// and the query still completes normally.
func TestContextAwareHandles(t *testing.T) {
	cl := testCluster(t, 2, map[string][]*batch.Batch{"numbers": numbersTable(2000, 16)})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	q := startPlan(t, cl, multiChannelOutputPlan(), DefaultConfig(), ctx)
	cur := q.Cursor()

	expired, expCancel := context.WithCancel(context.Background())
	expCancel()
	if err := q.WaitContext(expired); !errors.Is(err, context.Canceled) {
		t.Errorf("WaitContext(cancelled) = %v", err)
	}
	if _, err := cur.NextContext(expired); !errors.Is(err, context.Canceled) {
		t.Errorf("NextContext(cancelled) = %v", err)
	}
	if cur.Err() != nil {
		t.Errorf("context expiry latched into cursor: %v", cur.Err())
	}

	// The handle is still fully usable.
	var rows int
	for {
		b, err := cur.Next()
		if err != nil {
			t.Fatalf("Next after expiry: %v", err)
		}
		if b == nil {
			break
		}
		rows += b.NumRows()
	}
	if err := q.Wait(); err != nil {
		t.Fatalf("Wait after expiry: %v", err)
	}
	if rows != 2000 {
		t.Errorf("streamed %d rows, want 2000", rows)
	}
	assertNoQueryState(t, cl, "after context-aware handles")
}

// TestAdaptiveGranularityCoarsens: a query executing with others queued
// behind the admission gate produces the bytes of an unqueued run, and so do
// the queued ones once admitted. (The take-coarsening ladder the name recalls
// left the task path with the sweep that tuned it; MinTake/MaxTake apply as
// configured.)
func TestAdaptiveGranularityCoarsens(t *testing.T) {
	tables := map[string][]*batch.Batch{"numbers": numbersTable(4000, 32)}
	cl := testCluster(t, 4, tables)

	out, repIdle := runPlan(t, cl, scanFilterAggPlan(0), DefaultConfig())
	wantEnc := string(batch.Encode(out))

	// Saturate admission so the probe query sees a non-empty queue.
	Configure(cl, WithAdmissionLimit(1))
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	probe := startPlan(t, cl, scanFilterAggPlan(0), DefaultConfig(), ctx)
	queued := make([]*Query, 3)
	for i := range queued {
		queued[i] = startPlan(t, cl, scanFilterAggPlan(0), DefaultConfig(), ctx)
	}
	outProbe, repProbe, err := probe.Result()
	if err != nil {
		t.Fatal(err)
	}
	if string(batch.Encode(outProbe)) != wantEnc {
		t.Error("adaptive granularity changed query output")
	}
	for _, q := range queued {
		o, _, err := q.Result()
		if err != nil {
			t.Fatal(err)
		}
		if string(batch.Encode(o)) != wantEnc {
			t.Error("queued query output differs")
		}
	}
	// Coarser takes mean the pressured run needs no MORE tasks than the
	// idle one (dynamic takes make exact equality run-dependent).
	if repProbe.TasksExecuted > repIdle.TasksExecuted {
		t.Logf("pressured run used %d tasks vs idle %d (informational)",
			repProbe.TasksExecuted, repIdle.TasksExecuted)
	}
	assertNoQueryState(t, cl, "after adaptive granularity")
}

// multiChannelOutputPlan: read -> parallel filter output (no final merge),
// so the output stage has one channel per worker and result partitions
// spool across the whole cluster.
func multiChannelOutputPlan() *Plan {
	return MustPlan(
		&Stage{ID: 0, Name: "read", Reader: &ReaderSpec{Table: "numbers"}},
		&Stage{ID: 1, Name: "filter",
			Op:     ops.NewFilterSpec(expr.Ge(expr.C("id"), expr.Int64(0))),
			Inputs: []StageInput{{Stage: 0, Part: Direct()}}},
	)
}
