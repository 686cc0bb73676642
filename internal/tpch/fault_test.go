package tpch

// End-to-end fault injection on real TPC-H queries: a worker dies
// mid-query and the result must equal the failure-free result. This is
// the paper's central guarantee exercised on its actual workload.

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"quokka/internal/batch"
	"quokka/internal/cluster"
	"quokka/internal/engine"
	"quokka/internal/gcs"
	"quokka/internal/metrics"
)

func runQueryWithKill(t *testing.T, cl *cluster.Cluster, q int, cfg engine.Config, victim int, afterTasks int) *batch.Batch {
	t.Helper()
	plan, err := Query(q)
	if err != nil {
		t.Fatal(err)
	}
	r, err := engine.NewRunner(cl, plan, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The kill is fired from inside the flush that carries the afterTasks-th
	// task commit, so the query cannot have finished, however fast it runs.
	killOnCommits(cl, victim, func(commits map[string]int) bool {
		total := 0
		for _, c := range commits {
			total += c
		}
		return total >= afterTasks
	})
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	out, rep, err := r.Run(ctx)
	if err != nil {
		t.Fatalf("q%d with failure: %v", q, err)
	}
	if rep.Recoveries == 0 {
		t.Errorf("q%d: worker killed but no recovery ran", q)
	}
	return out
}

// killOnCommits kills the given worker from inside the first flush — the one
// Apply caller — after which due holds of the task commits flushed so far:
// cur/ puts of the entries applied, counted per query id. Install it before
// the queries start.
func killOnCommits(cl *cluster.Cluster, victim int, due func(commits map[string]int) bool) {
	cl.GCS = &commitKiller{Backend: cl.GCS, kill: cl.Worker(cluster.WorkerID(victim)).Kill,
		due: due, commits: map[string]int{}}
}

// commitKiller is killOnCommits' gcs.Backend decorator.
type commitKiller struct {
	gcs.Backend
	kill func() // idempotent
	due  func(commits map[string]int) bool

	mu      sync.Mutex
	commits map[string]int
}

func (k *commitKiller) Apply(entries []gcs.Entry) ([]bool, error) {
	applied, err := k.Backend.Apply(entries)
	if err != nil {
		return applied, err
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	for i, e := range entries {
		for _, p := range e.Puts {
			if qid, rest, _ := strings.Cut(strings.TrimPrefix(p.Key, "q/"), "/"); applied[i] && strings.HasPrefix(rest, "cur/") {
				k.commits[qid]++
			}
		}
	}
	if k.due(k.commits) {
		k.kill()
	}
	return applied, err
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
	ckpt := engine.DefaultConfig()
	ckpt.FT = engine.FTCheckpoint
	ckpt.CheckpointEveryTasks = 3
	cases := []struct {
		q    int
		cfg  engine.Config
		name string
	}{
		{5, engine.DefaultConfig(), "Q5-wal"},
		{9, engine.DefaultConfig(), "Q9-wal"},
		{3, engine.SparkConfig(), "Q3-spark"},
		{10, engine.TrinoConfig(), "Q10-trino"},
		// Config.Parallelism has no effect: the same kill at another value
		// must recover to the same result.
		{9, par4(engine.DefaultConfig()), "Q9-wal-par4"},
		// Joins broadcast for a build side small next to its probe side, and
		// Q21's aggregation fused behind the one that routes by its key.
		{18, engine.DefaultConfig(), "Q18-wal"},
		{21, engine.DefaultConfig(), "Q21-wal"},
		// Q13's aggregation runs in its join's task: under checkpoint the
		// fused join-to-agg chain recovers to the same result. Recovery
		// rebuilds that chain from scratch rather than from a checkpoint
		// mark (its rewound consumer needs all its committed tasks), so this
		// case does not exercise a fused chain restarted from a mark.
		{13, ckpt, "Q13-checkpoint"},
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
