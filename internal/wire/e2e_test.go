package wire

// End-to-end process-mode tests that stay inside one OS process: the head
// cluster serves its wire endpoint on loopback TCP and the "worker
// processes" are goroutines running RunWorker against it. Every byte still
// crosses a real socket through the real protocol — only fork/exec and
// SIGKILL are elided (those live in dist_test.go behind QUOKKA_DIST_TEST).

import (
	"context"
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"quokka/internal/batch"
	"quokka/internal/cluster"
	"quokka/internal/engine"
	"quokka/internal/gcs"
	"quokka/internal/metrics"
	"quokka/internal/ops"
	"quokka/internal/storage"
	"quokka/internal/tpch"
	"quokka/internal/trace"
)

var (
	e2eDataOnce sync.Once
	e2eData     *tpch.Data
)

func e2eDataset() *tpch.Data {
	e2eDataOnce.Do(func() { e2eData = tpch.Generate(0.01) })
	return e2eData
}

func e2eStore(t *testing.T) *storage.ObjectStore {
	t.Helper()
	store := storage.NewObjectStore(storage.CostModel{}, storage.ProfileS3, nil)
	tpch.Load(store, e2eDataset(), 1024)
	return store
}

// memRun executes TPC-H query q on a fresh in-memory cluster: the
// reference result process mode must reproduce byte for byte.
func memRun(t *testing.T, q int, workers int, cfg engine.Config) *batch.Batch {
	t.Helper()
	cl, err := cluster.New(cluster.Options{
		Workers:  workers,
		Cost:     storage.CostModel{},
		ObjStore: e2eStore(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := tpch.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	r, err := engine.NewRunner(cl, plan, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	out, _, err := r.Run(ctx)
	if err != nil {
		t.Fatalf("in-memory run: %v", err)
	}
	return out
}

// distCluster builds a head cluster serving its wire endpoint on loopback
// and attaches `workers` goroutine workers via RunWorker.
func distCluster(t *testing.T, workers int, opts ...engine.Option) (*cluster.Cluster, *Server) {
	t.Helper()
	cl, srv, _ := distClusterMet(t, workers, opts...)
	return cl, srv
}

// distClusterMet is distCluster, returning each worker's own collector too.
func distClusterMet(t *testing.T, workers int, opts ...engine.Option) (*cluster.Cluster, *Server, []*metrics.Collector) {
	t.Helper()
	cl, srv, ws, _ := distWorkers(t, workers, nil, opts...)
	mets := make([]*metrics.Collector, workers)
	for i, w := range ws {
		mets[i] = w.cl.Metrics
	}
	return cl, srv, mets
}

// distWorkers is distCluster handing back every attached worker — its view of
// the cluster, its mailbox, its collector — and the cancel that stops it. prep,
// if not nil, sees each worker after it attached and before its control loop
// runs: where a test interposes on the worker's cluster view.
func distWorkers(t *testing.T, workers int, prep func(w *workerRT), opts ...engine.Option) (*cluster.Cluster, *Server, []*workerRT, []context.CancelFunc) {
	t.Helper()
	cl, err := cluster.New(cluster.Options{
		Workers:  workers,
		Cost:     storage.CostModel{},
		ObjStore: e2eStore(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	engine.Configure(cl, opts...)
	srv, err := NewServer(cl, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	engine.SetRemoteExec(cl, srv)

	ws, stops := make([]*workerRT, workers), make([]context.CancelFunc, workers)
	for i := 0; i < workers; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		t.Cleanup(cancel)
		w, err := attachWorker(ctx, WorkerConfig{Head: srv.Addr(), ID: i, SpillDir: t.TempDir()}, &metrics.Collector{})
		if err != nil {
			t.Fatal(err)
		}
		if prep != nil {
			prep(w)
		}
		ws[i], stops[i] = w, cancel
		go func() {
			defer w.close()
			// A worker error after the head shut down is expected noise; loop
			// returns nil on clean ctx cancellation.
			_ = w.loop(ctx)
		}()
	}
	if err := srv.AwaitWorkers(workers, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	return cl, srv, ws, stops
}

func distRun(t *testing.T, cl *cluster.Cluster, q int, cfg engine.Config) (*batch.Batch, *engine.Report, []trace.Span, error) {
	t.Helper()
	plan, err := tpch.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	r, err := engine.NewRunner(cl, plan, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	query := r.Start(ctx)
	out, rep, runErr := query.Result()
	var spans []trace.Span
	if rec := query.Trace(); rec.Enabled() {
		spans = rec.Snapshot()
	}
	return out, rep, spans, runErr
}

// staticCfg fixes task consumption (no dynamic take): with consumption
// order pinned, Q1/Q3-class queries are bitwise deterministic across runs,
// so process mode can be held to full byte identity. (Q9 is not bitwise
// self-deterministic even between two in-memory runs — its final
// aggregation folds partials from multiple upstream channels in arrival
// order, which perturbs float summation; the fault suite's FP tolerance
// applies there.) It also pins one executor thread per worker, for the frame
// budgets, not for correctness: at the default thread count
// TestRoundTripsPerTask's Q3 draws 369–405 await frames for ~160 commit
// frames (its bound is commits + 4) and 5.9–6.3 request frames per task
// (budget 5), and TestPeerPushFailureIsARetryNotAVerdict saw no retried push
// within its 30 s once in two runs.
func staticCfg() engine.Config {
	cfg := engine.DefaultConfig()
	cfg.Dynamic = false
	cfg.ThreadsPerWorker = 1
	return cfg
}

// sameResult compares two results the way the repo's fault suite does
// (internal/tpch assertSameResult): schemas, row counts, and every cell
// exact — except Float64 cells, compared with a relative tolerance,
// because dynamic task dependencies legitimately vary float summation
// order between any two runs, wire or not.
func sameResult(t *testing.T, q int, a, b *batch.Batch) {
	t.Helper()
	if (a == nil) != (b == nil) {
		t.Fatalf("Q%d: one result empty: %v vs %v", q, a, b)
	}
	if a == nil {
		return
	}
	if !a.Schema.Equal(b.Schema) {
		t.Fatalf("Q%d schemas differ: %s vs %s", q, a.Schema, b.Schema)
	}
	if a.NumRows() != b.NumRows() {
		t.Fatalf("Q%d row counts differ: %d vs %d", q, a.NumRows(), b.NumRows())
	}
	for ci, ca := range a.Cols {
		cb := b.Cols[ci]
		name := a.Schema.Fields[ci].Name
		for r := 0; r < a.NumRows(); r++ {
			if ca.Type == batch.Float64 {
				x, y := ca.Floats[r], cb.Floats[r]
				if math.Abs(x-y) > 1e-9*(math.Abs(x)+math.Abs(y))+1e-9 {
					t.Fatalf("Q%d row %d col %s: %v vs %v", q, r, name, x, y)
				}
				continue
			}
			if ca.Value(r) != cb.Value(r) {
				t.Fatalf("Q%d row %d col %s: %v vs %v", q, r, name, ca.Value(r), cb.Value(r))
			}
		}
	}
}

// TestProcessModeEquivalence runs TPC-H queries across three wire-attached
// workers against the in-memory engine: schemas, row counts, and every
// non-float cell exact; float sums within the fault suite's tolerance
// (partial-aggregation fold order follows arrival order on ANY multi-
// channel run, wire or not — see sameResult). The tentpole acceptance:
// the wire layer is pure transport, invisible in query output.
func TestProcessModeEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("process-mode e2e is not short")
	}
	const workers = 3
	cl, _ := distCluster(t, workers)
	for _, q := range []int{1, 3, 9} {
		want := memRun(t, q, workers, staticCfg())
		got, _, _, err := distRun(t, cl, q, staticCfg())
		if err != nil {
			t.Fatalf("Q%d over the wire: %v", q, err)
		}
		sameResult(t, q, want, got)
	}
	if n := cl.Metrics.Get(metrics.NetBytesWire); n == 0 {
		t.Error("net.bytes.wire stayed 0 across wire-transported queries")
	}
}

// TestProcessModeNothingWaitsForTheFallback runs the equivalence queries with
// the poll interval at 1 s — the watcher's fallback at 16 s, what it is really
// parked for the head's 100 ms cap — beside the default: no slower (twice, and
// a scheduling hiccup, allowed), no wait in head or worker that a timer ended
// and that then found work, and the same result.
func TestProcessModeNothingWaitsForTheFallback(t *testing.T) {
	if testing.Short() {
		t.Skip("process-mode e2e is not short")
	}
	const workers = 3
	cl, _, mets := distClusterMet(t, workers)
	for _, q := range []int{1, 3, 9} {
		want, rep, _, err := distRun(t, cl, q, engine.DefaultConfig())
		if err != nil {
			t.Fatalf("Q%d: %v", q, err)
		}
		slow := engine.DefaultConfig()
		slow.PollInterval = time.Second
		got, slowRep, _, err := distRun(t, cl, q, slow)
		if err != nil {
			t.Fatalf("Q%d at a 1 s poll interval: %v", q, err)
		}
		sameResult(t, q, want, got)
		if slowRep.Duration > 2*rep.Duration+100*time.Millisecond {
			t.Errorf("Q%d: %v at a 1 s poll interval, %v at the default: something waited for a timer", q, slowRep.Duration, rep.Duration)
		}
	}
	hits := cl.Metrics.Get(metrics.WaitFallbackHits)
	for _, met := range mets {
		hits += met.Get(metrics.WaitFallbackHits)
	}
	if hits != 0 {
		t.Errorf("%d waits were ended by a timer and then found work", hits)
	}
}

// TestProcessModeSerialByteIdentity covers the query class that is only
// bitwise deterministic when fully serial (Q9: multi-channel partial-agg
// folds): one worker, one thread, static take — wire and in-memory runs
// must agree to the last bit.
func TestProcessModeSerialByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("process-mode e2e is not short")
	}
	cl, _ := distCluster(t, 1)
	want := memRun(t, 9, 1, staticCfg())
	got, _, _, err := distRun(t, cl, 9, staticCfg())
	if err != nil {
		t.Fatalf("Q9 over the wire: %v", err)
	}
	if string(batch.Encode(got)) != string(batch.Encode(want)) {
		t.Error("Q9 serial: wire result differs from in-memory")
	}
}

// TestProcessModeDynamicEquivalence runs the default (dynamic) config over
// the wire and compares with the fault suite's float tolerance: dynamic
// take varies summation order between ANY two runs, so exact-cell equality
// plus FP tolerance is the honest invariant here.
func TestProcessModeDynamicEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("process-mode e2e is not short")
	}
	const workers, q = 3, 9
	cl, _ := distCluster(t, workers)
	want := memRun(t, q, workers, engine.DefaultConfig())
	got, _, _, err := distRun(t, cl, q, engine.DefaultConfig())
	if err != nil {
		t.Fatalf("Q%d over the wire: %v", q, err)
	}
	sameResult(t, q, want, got)
}

// killMidQuery kills worker w once lineage commits are landing and one of
// them is w's own: the query is then provably mid-flight, with committed
// tasks of the victim to preserve (replay) and in-flight ones to rewind. (Ten
// commits alone used to imply that; at a frame per transaction the worker the
// head starts first can land ten before the next has landed one.) The
// returned channel closes once the kill is delivered.
func killMidQuery(cl *cluster.Cluster, w cluster.WorkerID) <-chan struct{} {
	store := cl.GCS.(*gcs.Store)
	base := store.Version()
	victimCommitted := func() (yes bool) {
		store.View(func(tx *gcs.Txn) error {
			for _, k := range tx.List("") {
				// pd/<task> records which worker holds a committed task's backup.
				if v, _ := tx.Get(k); strings.Contains(k, "/pd/") && string(v) == strconv.Itoa(int(w)) {
					yes = true
				}
			}
			return nil
		})
		return yes
	}
	killed := make(chan struct{})
	go func() {
		defer close(killed)
		for store.Version() < base+10 || !victimCommitted() {
			time.Sleep(time.Millisecond)
		}
		cl.Worker(w).Kill()
	}()
	return killed
}

// TestProcessModeKillWorker kills one wire-attached worker mid-query (from
// the head side: mailbox failed, worker process zombied) and demands full
// recovery — exact result (FP tolerance on the float sums, like the fault
// suite) plus rewind/replay spans in the merged trace.
func TestProcessModeKillWorker(t *testing.T) {
	if testing.Short() {
		t.Skip("process-mode e2e is not short")
	}
	const workers, q = 3, 9
	cfg := engine.DefaultConfig()
	cl, _ := distCluster(t, workers, engine.WithTracing(true))
	want := memRun(t, q, workers, cfg)

	killed := killMidQuery(cl, 1)

	got, rep, spans, err := distRun(t, cl, q, cfg)
	<-killed
	if err != nil {
		t.Fatalf("Q%d with mid-query kill: %v", q, err)
	}
	sameResult(t, q, want, got)
	if rep.Recoveries == 0 {
		t.Error("no recovery recorded despite mid-query kill")
	}
	var rewinds, replays int
	for _, s := range spans {
		switch {
		case s.Kind == trace.KindRewind:
			rewinds++
		case s.Kind == trace.KindTask && s.Replay:
			replays++
		}
	}
	if rewinds == 0 {
		t.Error("trace holds no rewind spans")
	}
	if replays == 0 {
		t.Error("trace holds no replayed-task spans")
	}

	// The cluster keeps working minus the dead worker: the next query runs
	// on the survivors, byte-identical to in-memory.
	got2, _, _, err := distRun(t, cl, 3, staticCfg())
	if err != nil {
		t.Fatalf("Q3 after worker loss: %v", err)
	}
	want2 := memRun(t, 3, workers, staticCfg())
	if string(batch.Encode(got2)) != string(batch.Encode(want2)) {
		t.Error("Q3 after worker loss differs from in-memory")
	}
}

// TestProcessModeFatalTaskErrorFailsQuery: a task error no retry can fix — a
// shuffle key the producer's output does not have — raised inside a worker
// process travels as mtFail to the head, whose coordinator ends the query with
// it (the worker that raised it named), well inside a deadline that a task
// manager retrying it forever would run out; the fleet then runs the next query.
func TestProcessModeFatalTaskErrorFailsQuery(t *testing.T) {
	if testing.Short() {
		t.Skip("process-mode e2e is not short")
	}
	cl, _ := distCluster(t, 2)
	bad := engine.MustPlan(
		&engine.Stage{ID: 0, Name: "read", Reader: &engine.ReaderSpec{Table: "nation"}},
		&engine.Stage{ID: 1, Name: "count", Parallelism: 1,
			Op:     ops.NewHashAggSpec(nil, ops.CountStar("c")),
			Inputs: []engine.StageInput{{Stage: 0, Part: engine.Hash("no_such_column")}}},
	)
	r, err := engine.NewRunner(cl, bad, engine.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_, _, err = r.Run(ctx)
	if err == nil || ctx.Err() != nil || !strings.Contains(err.Error(), "no_such_column") || !strings.Contains(err.Error(), "worker ") {
		t.Fatalf("Run of a plan with a missing shuffle key: %v (deadline: %v), want the worker's partition-key error", err, ctx.Err())
	}
	if _, _, _, err := distRun(t, cl, 6, staticCfg()); err != nil {
		t.Fatalf("Q6 after a failed query: %v", err)
	}
}
