package engine

import (
	"context"
	"runtime"
	"sync"
	"testing"
	"time"

	"quokka/internal/batch"
	"quokka/internal/expr"
	"quokka/internal/gcs"
	"quokka/internal/ops"
)

// The control plane waits on one primitive (Runner.gcsAwait) and these tests
// set PollInterval to a second, so that anything still waiting for a timer —
// the fallback is 16 of them — is seen to.

// awaitRecorder counts the AwaitNS calls in flight that may park at least
// long, and stamps every flush of task commits.
type awaitRecorder struct {
	gcs.Backend
	long time.Duration

	mu                 sync.Mutex
	parked, parkedPeak int
	lastFlush          time.Time
}

func (a *awaitRecorder) AwaitNS(ctx context.Context, ns string, after uint64, park time.Duration) uint64 {
	if park >= a.long {
		a.mu.Lock()
		a.parked++
		a.parkedPeak = max(a.parkedPeak, a.parked)
		a.mu.Unlock()
		defer func() {
			a.mu.Lock()
			a.parked--
			a.mu.Unlock()
		}()
	}
	return a.Backend.AwaitNS(ctx, ns, after, park)
}

func (a *awaitRecorder) Apply(entries []gcs.Entry) ([]bool, error) {
	applied, err := a.Backend.Apply(entries)
	a.mu.Lock()
	a.lastFlush = time.Now()
	a.mu.Unlock()
	return applied, err
}

func (a *awaitRecorder) watchers() (now, peak int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.parked, a.parkedPeak
}

// slowPollCfg is the default configuration with the poll interval at 1 s.
func slowPollCfg() Config {
	cfg := DefaultConfig()
	cfg.PollInterval = time.Second
	return cfg
}

// heldQuery starts a four-channel query whose output nobody reads past a
// 1-byte cursor buffer: every output channel but the one the cursor wants next
// is refused, and the query idles with work pending until it is cancelled.
func heldQuery(t *testing.T, workers int) (*awaitRecorder, *Query, context.CancelFunc) {
	t.Helper()
	cl := testCluster(t, workers, map[string][]*batch.Batch{"numbers": numbersTable(2000, 16)})
	rec := &awaitRecorder{Backend: cl.GCS, long: 16 * time.Second}
	cl.GCS = rec
	p := MustPlan(
		&Stage{ID: 0, Name: "read", Reader: &ReaderSpec{Table: "numbers"}},
		&Stage{ID: 1, Name: "filter",
			Op:     ops.NewFilterSpec(expr.Ge(expr.C("id"), expr.Int64(0))),
			Inputs: []StageInput{{Stage: 0, Part: Direct()}}},
	)
	cfg := slowPollCfg()
	cfg.CursorBufferBytes = 1
	r, err := NewRunner(cl, p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Bound the result buffer before the query runs: a cursor attached after
	// Start can come too late, once a fast query has delivered everything.
	r.collector.stream(cfg.CursorBufferBytes)
	ctx, cancel := context.WithCancel(context.Background())
	q := r.Start(ctx)
	q.Cursor()
	return rec, q, cancel
}

// TestOneWatcherPerWorker: with eight threads per worker and nothing to do,
// each worker parks one AwaitNS on the namespace — never more, at any moment
// of the query — and the other seven threads queue for the token.
func TestOneWatcherPerWorker(t *testing.T) {
	const workers = 4
	rec, q, cancel := heldQuery(t, workers)
	defer cancel()
	deadline := time.Now().Add(10 * time.Second)
	for {
		now, peak := rec.watchers()
		if peak > workers {
			t.Fatalf("%d watchers parked at once on %d workers", peak, workers)
		}
		if now == workers {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d workers have a watcher parked", now, workers)
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := q.Wait(); err != context.Canceled {
		t.Fatalf("held query ended with %v", err)
	}
	if now, peak := rec.watchers(); now != 0 || peak > workers {
		t.Errorf("after the query: %d parked, peak %d", now, peak)
	}
}

// TestTeardownDoesNotWaitOutABackoff: a query ends when its last commit lands
// and a cancelled one when it is cancelled — no thread sleeps through either.
func TestTeardownDoesNotWaitOutABackoff(t *testing.T) {
	cl := testCluster(t, 4, map[string][]*batch.Batch{"numbers": numbersTable(1000, 8)})
	rec := &awaitRecorder{Backend: cl.GCS, long: 16 * time.Second}
	cl.GCS = rec
	out, rep := runPlan(t, cl, scanFilterAggPlan(500), slowPollCfg())
	returned := time.Now()
	if out == nil || out.Col("c").Ints[0] != 500 {
		t.Fatalf("result: %v", out)
	}
	if after := returned.Sub(rec.lastFlush); after > 100*time.Millisecond {
		t.Errorf("Run returned %v after the last task commit", after)
	}
	if hits := rep.Metrics["engine.wait.fallback_hits"]; hits != 0 {
		t.Errorf("%d waits were ended by a timer and then found work", hits)
	}

	goroutines := runtime.NumGoroutine()
	_, q, cancel := heldQuery(t, 4)
	time.Sleep(20 * time.Millisecond) // into the idle state: threads parked or queued
	cancel()
	cancelled := time.Now()
	if err := q.Wait(); err != context.Canceled {
		t.Fatalf("held query ended with %v", err)
	}
	if took := time.Since(cancelled); took > 100*time.Millisecond {
		t.Errorf("a cancelled query took %v to stop its task managers", took)
	}
	for i := 0; runtime.NumGoroutine() > goroutines && i < 100; i++ {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > goroutines {
		t.Errorf("%d goroutines 100 ms after the cancelled query, %d before it", n, goroutines)
	}
}
