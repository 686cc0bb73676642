package tpch

// Concurrent query sessions stress test: N TPC-H queries with mixed
// Parallelism and MemoryBudget submitted on ONE cluster at once, each
// compared to its own serial run on an identical cluster — the repo's
// standard result comparison (exact for non-floats; float aggregates
// carry the usual cross-run summation-order tolerance, which applies
// between ANY two runs, concurrent or not). A KillWorker variant asserts
// that every in-flight query recovers independently through its own
// per-query lineage namespace.

import (
	"context"
	"testing"
	"time"

	"quokka/internal/batch"
	"quokka/internal/cluster"
	"quokka/internal/engine"
	"quokka/internal/metrics"
)

// concurrentMix is the stress workload: different plan shapes with mixed
// parallelism and memory budgets sharing one cluster.
type concurrentCase struct {
	q      int
	par    int
	budget int64
}

var concurrentMix = []concurrentCase{
	{1, 1, 0},      // scan-aggregate, serial operators
	{6, 4, 0},      // selective scan-aggregate, partitioned
	{3, 4, 32_000}, // pipelined join under a budget (spills)
	{9, 2, 64_000}, // deep multi-join under a budget
	{18, 4, 0},     // large join + top-k
}

func submitQuery(t *testing.T, cl *cluster.Cluster, ctx context.Context, c concurrentCase) *engine.Query {
	t.Helper()
	plan, err := Query(c.q)
	if err != nil {
		t.Fatal(err)
	}
	cfg := engine.DefaultConfig()
	cfg.Parallelism = c.par
	cfg.MemoryBudget = c.budget
	r, err := engine.NewRunner(cl, plan, cfg)
	if err != nil {
		t.Fatalf("q%d: %v", c.q, err)
	}
	return r.Start(ctx)
}

func serialReference(t *testing.T, cl *cluster.Cluster, c concurrentCase) *batch.Batch {
	t.Helper()
	cfg := engine.DefaultConfig()
	cfg.Parallelism = c.par
	cfg.MemoryBudget = c.budget
	return runQuery2(t, cl, c.q, cfg)
}

// runQuery2 mirrors runQuery but keeps the configured cfg untouched.
func runQuery2(t *testing.T, cl *cluster.Cluster, q int, cfg engine.Config) *batch.Batch {
	t.Helper()
	plan, err := Query(q)
	if err != nil {
		t.Fatal(err)
	}
	r, err := engine.NewRunner(cl, plan, cfg)
	if err != nil {
		t.Fatalf("q%d: %v", q, err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	out, _, err := r.Run(ctx)
	if err != nil {
		t.Fatalf("q%d: %v", q, err)
	}
	return out
}

func TestConcurrentTPCHMatchesSerial(t *testing.T) {
	cl := loadCluster(t, 4)
	engine.Configure(cl, engine.WithAdmissionLimit(len(concurrentMix))) // let the whole mix overlap

	want := make([]*batch.Batch, len(concurrentMix))
	for i, c := range concurrentMix {
		want[i] = serialReference(t, cl, c)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Second)
	defer cancel()
	qs := make([]*engine.Query, len(concurrentMix))
	for i, c := range concurrentMix {
		qs[i] = submitQuery(t, cl, ctx, c)
	}
	for i, q := range qs {
		out, rep, err := q.Result()
		if err != nil {
			t.Fatalf("q%d concurrent: %v", concurrentMix[i].q, err)
		}
		assertSameResult(t, concurrentMix[i].q, want[i], out)
		if rep.TasksExecuted == 0 {
			t.Errorf("q%d: empty per-query report", concurrentMix[i].q)
		}
	}
	if peak := cl.Metrics.Get(metrics.QueriesPeak); peak < 2 {
		t.Errorf("queries.peak = %d: no overlap observed in the stress mix", peak)
	}
	// Full teardown: no spill or backup bytes anywhere.
	for _, w := range cl.Workers {
		if n := w.Disk.UsedBytesPrefix("spill/"); n != 0 {
			t.Errorf("worker %d leaked %d spill bytes", w.ID, n)
		}
		if n := w.Disk.UsedBytesPrefix("bk/"); n != 0 {
			t.Errorf("worker %d leaked %d backup bytes", w.ID, n)
		}
	}
}

// TestConcurrentTPCHKillWorker: the same mix in flight when a worker dies;
// every query must recover independently (its own barrier, its own
// lineage replay) and still match its serial run.
func TestConcurrentTPCHKillWorker(t *testing.T) {
	mix := []concurrentCase{{3, 4, 32_000}, {6, 4, 0}, {9, 2, 0}}
	cl := loadCluster(t, 4)

	want := make([]*batch.Batch, len(mix))
	for i, c := range mix {
		want[i] = serialReference(t, cl, c)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Second)
	defer cancel()
	qs := make([]*engine.Query, len(mix))
	for i, c := range mix {
		plan, err := Query(c.q)
		if err != nil {
			t.Fatal(err)
		}
		cfg := engine.DefaultConfig()
		cfg.Parallelism = c.par
		cfg.MemoryBudget = c.budget
		r, err := engine.NewRunner(cl, plan, cfg)
		if err != nil {
			t.Fatalf("q%d: %v", c.q, err)
		}
		qs[i] = r.Start(ctx)
	}
	// Kill once every query has committed a little work but none has
	// plausibly finished: per-QUERY counters, not the cluster total, so a
	// fast query cannot mask one still seeding.
	deadline := time.Now().Add(60 * time.Second)
	for {
		ready := true
		for _, q := range qs {
			if q.Metric(metrics.TasksExecuted) < 2 {
				ready = false
				break
			}
		}
		if ready {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("stress mix did not start executing")
		}
		time.Sleep(100 * time.Microsecond)
	}
	cl.Worker(1).Kill()

	recoveries := 0
	for i, q := range qs {
		out, rep, err := q.Result()
		if err != nil {
			t.Fatalf("q%d after kill: %v", mix[i].q, err)
		}
		assertSameResult(t, mix[i].q, want[i], out)
		recoveries += rep.Recoveries
	}
	if recoveries == 0 {
		t.Error("worker killed mid-mix but no query recorded a recovery")
	}
}
