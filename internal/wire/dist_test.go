package wire

// The real thing: three quokka-worker OS processes, one SIGKILLed
// mid-query. Opt-in via QUOKKA_DIST_TEST=1 (it builds the worker binary
// and forks processes, which is too heavy — and too environment-dependent
// — for the default tier-1 run; `make dist-smoke` and the dist-smoke CI
// job run it).

import (
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"quokka/internal/cluster"
	"quokka/internal/engine"
	"quokka/internal/storage"
	"quokka/internal/tpch"
	"quokka/internal/trace"
)

// buildWorkerBinary compiles cmd/quokka-worker into a temp dir.
func buildWorkerBinary(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "quokka-worker")
	cmd := exec.Command("go", "build", "-o", bin, "quokka/cmd/quokka-worker")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("build quokka-worker: %v\n%s", err, out)
	}
	return bin
}

// TestDistSIGKILL is the paper's fault model made literal: a query runs
// across three real worker processes and one of them is SIGKILLed (kill
// -9, no cleanup, no goodbye) mid-query. The survivors must deliver the
// exact result, with rewind/replay spans in the merged trace.
func TestDistSIGKILL(t *testing.T) {
	if os.Getenv("QUOKKA_DIST_TEST") == "" {
		t.Skip("set QUOKKA_DIST_TEST=1 to run the multi-process SIGKILL test")
	}
	const workers, q = 3, 9
	bin := buildWorkerBinary(t)

	cfg := engine.DefaultConfig()
	want := memRun(t, q, workers, cfg)

	cl, err := cluster.New(cluster.Options{
		Workers:  workers,
		Cost:     storage.CostModel{},
		ObjStore: e2eStore(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	engine.Configure(cl, engine.WithTracing(true))
	srv, err := NewServer(cl, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	engine.SetRemoteExec(cl, srv)
	for i := 0; i < workers; i++ {
		if err := srv.Spawn(bin, i, 0, 0, t.TempDir()); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.AwaitWorkers(workers, 60*time.Second); err != nil {
		t.Fatal(err)
	}

	// KillWorker on a spawned worker delivers a real SIGKILL to its
	// process (Server.Spawn installed the hook); the dropped control conn
	// then confirms the death to the head's liveness detection.
	killed := killMidQuery(cl, 1)

	plan, err := tpch.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	r, err := engine.NewRunner(cl, plan, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Second)
	defer cancel()
	query := r.Start(ctx)
	got, rep, runErr := query.Result()
	<-killed
	if runErr != nil {
		t.Fatalf("Q%d with SIGKILLed worker: %v", q, runErr)
	}
	sameResult(t, q, want, got)
	if rep.Recoveries == 0 {
		t.Error("no recovery recorded despite SIGKILLed worker")
	}
	var rewinds, replays int
	for _, s := range query.Trace().Snapshot() {
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
	if n := srv.AttachedWorkers(); n != workers-1 {
		t.Errorf("%d workers still attached, want %d (one SIGKILLed)", n, workers-1)
	}
}
