package quokka_test

// Public-surface coverage of process mode: NewCluster with WithListenAddr
// comes up serving its wire endpoint, workers attach over real loopback
// TCP (goroutine workers here — the fork/exec + SIGKILL path lives in
// internal/wire/dist_test.go behind QUOKKA_DIST_TEST), and queries run on
// them through the unchanged TPC-H helpers.

import (
	"context"
	"math"
	"testing"
	"time"

	"quokka"
	"quokka/internal/wire"
)

func TestProcessModePublicSurface(t *testing.T) {
	if testing.Short() {
		t.Skip("process-mode e2e is not short")
	}
	const workers = 2
	cl, err := quokka.NewCluster(quokka.ClusterConfig{Workers: workers, TimeScale: -1},
		quokka.WithListenAddr("127.0.0.1:0"))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	addr := cl.WireAddr()
	if addr == "" {
		t.Fatal("WireAddr empty in process mode")
	}
	quokka.LoadTPCH(cl, 0.005, 512)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for i := 0; i < workers; i++ {
		go func() { _ = wire.RunWorker(ctx, wire.WorkerConfig{Head: addr, ID: i}) }()
	}
	if err := cl.AwaitWorkers(workers, 30*time.Second); err != nil {
		t.Fatal(err)
	}

	// The in-memory reference for the same dataset.
	ref, err := quokka.NewCluster(quokka.ClusterConfig{Workers: workers, TimeScale: -1})
	if err != nil {
		t.Fatal(err)
	}
	quokka.LoadTPCH(ref, 0.005, 512)

	rctx, rcancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer rcancel()
	got, err := quokka.RunTPCH(rctx, cl, 6, quokka.DefaultConfig())
	if err != nil {
		t.Fatalf("Q6 over the wire: %v", err)
	}
	want, err := quokka.RunTPCH(rctx, ref, 6, quokka.DefaultConfig())
	if err != nil {
		t.Fatalf("Q6 in-memory: %v", err)
	}
	if got.NumRows() != 1 || want.NumRows() != 1 {
		t.Fatalf("Q6 rows: %d vs %d, want 1", got.NumRows(), want.NumRows())
	}
	x, y := got.Rows()[0][0].(float64), want.Rows()[0][0].(float64)
	if math.Abs(x-y) > 1e-9*(math.Abs(x)+math.Abs(y))+1e-9 {
		t.Fatalf("Q6 revenue differs: %v vs %v", x, y)
	}
	if cl.Metrics()["net.bytes.wire"] == 0 {
		t.Error("net.bytes.wire stayed 0 on a process-mode cluster")
	}
	if ref.Metrics()["net.bytes.wire"] != 0 {
		t.Error("net.bytes.wire non-zero on an in-memory cluster")
	}
}
