package tpch

// End-to-end fault injection on real TPC-H queries: a worker dies
// mid-query and the result must equal the failure-free result. This is
// the paper's central guarantee exercised on its actual workload.

import (
	"context"
	"sync"
	"testing"
	"time"

	"quokka/internal/batch"
	"quokka/internal/cluster"
	"quokka/internal/engine"
	"quokka/internal/flight"
	"quokka/internal/metrics"
)

var _ = batch.Encode // fault tests return batches via runQueryWithKill

func runQueryWithKill(t *testing.T, cl *cluster.Cluster, q int, cfg engine.Config, victim int, afterTasks int64) *batch.Batch {
	t.Helper()
	plan, err := Query(q)
	if err != nil {
		t.Fatal(err)
	}
	r, err := engine.NewRunner(cl, plan, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The kill is delivered from inside the push of whichever task pushes next
	// once afterTasks have run — a task not yet committed, so the query cannot
	// have finished, however fast it runs — with a polling goroutine behind it
	// for a query whose pushes are all done.
	done := make(chan struct{})
	var once sync.Once
	due := func() bool {
		if cl.Metrics.Get(metrics.TasksExecuted) < afterTasks {
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
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	out, rep, err := r.Run(ctx)
	<-done
	if err != nil {
		t.Fatalf("q%d with failure: %v", q, err)
	}
	if rep.Recoveries == 0 {
		t.Errorf("q%d: worker killed but no recovery ran", q)
	}
	return out
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

// TestTPCHFailureRecoveryMatchesFailureFree kills a worker mid-query on
// representative queries across all fault-tolerant configurations and
// requires the exact failure-free result.
func TestTPCHFailureRecoveryMatchesFailureFree(t *testing.T) {
	par4 := func(c engine.Config) engine.Config {
		c.Parallelism = 4
		c.CPUPerWorker = 4
		return c
	}
	cases := []struct {
		q    int
		cfg  engine.Config
		name string
	}{
		{5, engine.DefaultConfig(), "Q5-wal"},
		{9, engine.DefaultConfig(), "Q9-wal"},
		{3, engine.SparkConfig(), "Q3-spark"},
		{10, engine.TrinoConfig(), "Q10-trino"},
		// Partition-parallel operators: replay must rebuild the same hash-
		// partitioned join/agg state the dead worker held mid-probe.
		{9, par4(engine.DefaultConfig()), "Q9-wal-par4"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			want := runQuery(t, loadCluster(t, 4), tc.q, tc.cfg)
			got := runQueryWithKill(t, loadCluster(t, 4), tc.q, tc.cfg, 2, 25)
			// Dynamic task dependencies make float summation order vary
			// between runs (with or without failures), so compare with the
			// same FP tolerance as the cross-parallelism gate. Keys, counts
			// and row sets must match exactly.
			assertSameResult(t, tc.q, want, got)
		})
	}
}

// TestTPCHCheckpointRecovery exercises checkpoint-restore on a join-heavy
// query: state restored from the object store, remainder replayed.
func TestTPCHCheckpointRecovery(t *testing.T) {
	cfg := engine.DefaultConfig()
	cfg.FT = engine.FTCheckpoint
	cfg.CheckpointEveryTasks = 3
	want := runQuery(t, loadCluster(t, 4), 5, cfg)
	got := runQueryWithKill(t, loadCluster(t, 4), 5, cfg, 1, 40)
	assertSameResult(t, 5, want, got)
}

// TestNothingWaitsForTheFallback sets the timers the control plane falls back
// on far beyond the test — poll interval 1 s (the watcher's fallback is 16 of
// them), heartbeat 5 s — and runs every query on 4 workers: each must match
// the 1-worker reference and finish as fast as ever, because every wait ends
// on the commit it waits for. Then Q3, Q5 and Q9 with a worker killed
// mid-query (the heartbeat, which is how a death is noticed, at its default).
// engine.wait.fallback_hits counts waits a timer ended that then found work.
func TestNothingWaitsForTheFallback(t *testing.T) {
	timed := func(t *testing.T, cl *cluster.Cluster, run func() *batch.Batch) *batch.Batch {
		t.Helper()
		start := time.Now()
		out := run()
		if took := time.Since(start); took > 3*time.Second {
			t.Errorf("took %v: something waited for a timer", took)
		}
		if hits := cl.Metrics.Get(metrics.WaitFallbackHits); hits != 0 {
			t.Errorf("%d waits were ended by a timer and then found work", hits)
		}
		return out
	}
	for _, q := range QueryNumbers() {
		t.Run(queryName(q), func(t *testing.T) {
			t.Parallel()
			cfg := engine.DefaultConfig()
			cfg.PollInterval, cfg.HeartbeatInterval = time.Second, 5*time.Second
			want := runQuery(t, loadCluster(t, 1), q, engine.DefaultConfig())
			cl := loadCluster(t, 4)
			got := timed(t, cl, func() *batch.Batch { return runQuery(t, cl, q, cfg) })
			assertSameResult(t, q, want, got)
		})
	}
	for _, q := range []int{3, 5, 9} {
		for _, threads := range []int{1, 8} {
			t.Run(queryName(q)+"-kill-threads"+itoa(threads), func(t *testing.T) {
				t.Parallel()
				cfg := engine.DefaultConfig()
				cfg.PollInterval, cfg.ThreadsPerWorker = 500*time.Millisecond, threads
				want := runQuery(t, loadCluster(t, 1), q, engine.DefaultConfig())
				cl := loadCluster(t, 4)
				got := timed(t, cl, func() *batch.Batch { return runQueryWithKill(t, cl, q, cfg, 2, 25) })
				assertSameResult(t, q, want, got)
			})
		}
	}
}
