package engine

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"quokka/internal/batch"
	"quokka/internal/cluster"
	"quokka/internal/expr"
	"quokka/internal/gcs"
	"quokka/internal/metrics"
	"quokka/internal/ops"
)

// Head-node throughput work: group-commit lineage, streaming cursors,
// admission queueing and the consolidated tuning API. Every test asserts
// the cardinal invariant first — none of these optimizations may change a
// single output byte — and then the mechanism-specific property (fewer
// transactions, bounded buffers, context plumbing).

// TestConcurrentAdmission8ByteIdentical: eight queries of four plan shapes
// run concurrently under an admission limit of 8; every one is
// byte-identical to its serial run and full teardown holds.
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
// concurrent queries (admission 8, tiny buffers forcing backpressure);
// each stream equals its Collect result.
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
		cfg.CursorBufferBytes = 2048 // force backpressure
		q := startPlan(t, cl, spillSortPlan(), cfg, ctx)
		cur := q.Cursor()
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var parts []*batch.Batch
			for {
				b, err := cur.NextContext(context.Background())
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
// through a tiny-buffer cursor (so output tasks wait on backpressure); an
// output-stage worker is killed mid-iteration. Recovery replays the
// channel's committed lineage, and the drained stream is still
// byte-identical — no lost rows, no duplicates past the read watermark.
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
		b, err := cur.NextContext(context.Background())
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

// firstFlushHold holds the first flush — the one Apply caller — after
// it committed and before it returns, keeping its entries unacknowledged and
// its requester busy, until min(3, readers − n) entries spanning at least
// queries queries are queued, n being the task commits it carried: every reader
// channel whose first task was not among them commits that task without
// waiting on any other commit, so that many are sure to queue. Every flush's
// task commits (cur/ puts), namespaces and goroutine are noted in order, and
// the queue at the release.
type firstFlushHold struct {
	gcs.Backend
	cl      *cluster.Cluster
	readers int // reader channels, each committing its first task unprompted
	queries int // distinct queries the entries queued at the release span
	mu      sync.Mutex
	commits []int
	nss     [][]string
	runs    []string // the goroutine that ran each flush
	want    int      // entries the release waits for
	queued  int      // the queue length the held flush was released at
	queueNS []string // the namespaces of the entries queued at the release
}

func (h *firstFlushHold) Apply(entries []gcs.Entry) ([]bool, error) {
	applied, err := h.Backend.Apply(entries)
	if err != nil || !slices.Contains(applied, true) {
		return applied, err
	}
	n := 0
	var nss []string
	for i, e := range entries {
		if !slices.Contains(nss, e.NS) {
			nss = append(nss, e.NS)
		}
		for _, p := range e.Puts {
			if _, rest, _ := strings.Cut(strings.TrimPrefix(p.Key, "q/"), "/"); applied[i] && strings.HasPrefix(rest, "cur/") {
				n++
			}
		}
	}
	h.mu.Lock()
	h.commits = append(h.commits, n)
	h.nss = append(h.nss, slices.Clone(nss))
	h.runs = append(h.runs, goroutineID())
	first := len(h.commits) == 1
	h.mu.Unlock()
	if first {
		g := &sharedFor(h.cl).gc
		want := min(3, h.readers-n)
		var queueNS []string
		// The deadline only keeps a broken committer from hanging the test:
		// the entries waited for arrive whatever the timing.
		for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(50 * time.Microsecond) {
			g.mu.Lock()
			queueNS = queueNS[:0]
			for _, req := range g.queue {
				queueNS = append(queueNS, req.r.keyNS())
			}
			g.mu.Unlock()
			if len(queueNS) >= want && len(distinct(queueNS)) >= h.queries {
				break
			}
		}
		h.mu.Lock()
		h.want, h.queued, h.queueNS = want, len(queueNS), queueNS
		h.mu.Unlock()
	}
	return applied, err
}

// distinct returns the sorted distinct strings of s.
func distinct(s []string) []string {
	return slices.Compact(slices.Sorted(slices.Values(s)))
}

// goroutineID is the running goroutine's number, read off its stack header.
func goroutineID() string {
	var buf [64]byte
	id, _, _ := strings.Cut(strings.TrimPrefix(string(buf[:runtime.Stack(buf[:], false)]), "goroutine "), " ")
	return id
}

// groupCommitPlan reads twelve splits on twelve reader channels into one
// aggregate, so twelve first commits queue unprompted.
func groupCommitPlan() *Plan {
	return MustPlan(
		&Stage{ID: 0, Name: "read", Parallelism: 12, Reader: &ReaderSpec{Table: "numbers"}},
		&Stage{ID: 1, Name: "agg", Parallelism: 1,
			Op:     ops.NewHashAggSpec(nil, ops.Sum("s", expr.C("v")), ops.CountStar("c")),
			Inputs: []StageInput{{Stage: 0, Part: Single()}}},
	)
}

// TestGroupCommitReducesTxns: commits queued while a flush is in flight fold
// into the next one. The first flush is held until the reader commits it did
// not carry — twelve reader channels each finish a split and queue — are
// queued behind it, up to three; the next flush carries every entry queued at
// the release. Every committed task is one flush entry, and the bytes are an
// unheld run's.
func TestGroupCommitReducesTxns(t *testing.T) {
	tables := map[string][]*batch.Batch{"numbers": numbersTable(3000, 24)}
	want, _ := runPlan(t, testCluster(t, 4, tables), groupCommitPlan(), DefaultConfig())

	cl := testCluster(t, 4, tables)
	hold := &firstFlushHold{Backend: cl.GCS, cl: cl, readers: 12, queries: 1}
	cl.GCS = hold
	out, rep := runPlan(t, cl, groupCommitPlan(), DefaultConfig())
	if string(batch.Encode(out)) != string(batch.Encode(want)) {
		t.Fatal("group commit changed query output")
	}
	hold.mu.Lock()
	defer hold.mu.Unlock()
	if hold.queued < hold.want || len(hold.commits) < 2 || hold.commits[1] < hold.queued {
		t.Errorf("the first flush was released with %d entries queued (waiting for %d), and the flushes carried %v task commits: want the second to carry every queued one",
			hold.queued, hold.want, hold.commits)
	}
	flushes := rep.Metrics[metrics.LineageFlushes]
	batched := rep.Metrics[metrics.GCSTxnBatched]
	if flushes+batched != rep.TasksExecuted {
		t.Errorf("flushes(%d) + batched(%d) = %d, want TasksExecuted = %d",
			flushes, batched, flushes+batched, rep.TasksExecuted)
	}
}

// TestGroupCommitFoldsQueries: the committer is the cluster's, so commits of
// different queries fold into one transaction, and the next flush is handed
// to a queued requester. Two queries run at once while the first flush is
// held until entries of both are queued; the next flush spans both
// namespaces, carries every entry queued at the release, and runs on a
// goroutine other than the held one's — the requester it was handed to. Both
// queries return the bytes of an unheld run.
func TestGroupCommitFoldsQueries(t *testing.T) {
	tables := map[string][]*batch.Batch{"numbers": numbersTable(3000, 24)}
	want, _ := runPlan(t, testCluster(t, 4, tables), groupCommitPlan(), DefaultConfig())

	cl := testCluster(t, 4, tables)
	hold := &firstFlushHold{Backend: cl.GCS, cl: cl, readers: 24, queries: 2}
	cl.GCS = hold
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	qs := []*Query{
		startPlan(t, cl, groupCommitPlan(), DefaultConfig(), ctx),
		startPlan(t, cl, groupCommitPlan(), DefaultConfig(), ctx),
	}
	for i, q := range qs {
		out, _, err := q.Result()
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if string(batch.Encode(out)) != string(batch.Encode(want)) {
			t.Errorf("query %d: group commit changed its output", i)
		}
	}
	hold.mu.Lock()
	defer hold.mu.Unlock()
	queued := distinct(hold.queueNS)
	t.Logf("released with %d entries of %v queued; the flushes carried %v task commits over %v",
		hold.queued, queued, hold.commits[:min(3, len(hold.commits))], hold.nss[:min(3, len(hold.nss))])
	if hold.queued < hold.want || len(queued) < 2 {
		t.Fatalf("the first flush was released with %d entries of namespaces %v queued: want %d of both queries",
			hold.queued, queued, hold.want)
	}
	if len(hold.commits) < 2 || hold.commits[1] < hold.queued {
		t.Errorf("the flushes carried %v task commits: want the second to carry the %d queued at the release", hold.commits, hold.queued)
	}
	if len(hold.nss) < 2 || !slices.Equal(distinct(hold.nss[1]), queued) {
		t.Errorf("the second flush spans namespaces %v, want %v", hold.nss[1:2], queued)
	}
	if len(hold.runs) < 2 || hold.runs[1] == hold.runs[0] {
		t.Errorf("flushes ran on goroutines %v: want the second handed to a queued requester", hold.runs[:min(2, len(hold.runs))])
	}
}

// TestOptionDefaultsResolve: a query's Config floors to the documented
// defaults, and tracing, the one setting a query inherits from the cluster
// options, comes from Configure.
func TestOptionDefaultsResolve(t *testing.T) {
	cl := testCluster(t, 2, map[string][]*batch.Batch{"numbers": numbersTable(100, 2)})
	s := sharedFor(cl)

	// res resolves a Config carrying just the cursor bound.
	res := func(cursor int64) Policy {
		t.Helper()
		cfg := DefaultConfig()
		cfg.CursorBufferBytes = cursor
		p, err := resolve(cfg, s.options())
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	if got := res(0).CursorBufferBytes; got != DefaultCursorBufferBytes {
		t.Errorf("built-in cursor default = %d", got)
	}
	if got := res(123).CursorBufferBytes; got != 123 {
		t.Errorf("per-query cursor override = %d, want 123", got)
	}
	if got := res(-1).CursorBufferBytes; got >= 0 {
		t.Errorf("negative per-query cursor = %d, want it kept negative (unbounded)", got)
	}
	Configure(cl, WithTracing(true))
	if !res(0).Tracing {
		t.Error("WithTracing(true) did not reach the resolved policy")
	}
	Configure(cl, WithTracing(false))
	if res(0).Tracing {
		t.Error("WithTracing(false) did not reach the resolved policy")
	}

	// A zero Config resolves to the documented defaults; MinTake alone
	// floors below its default (take whatever is committed).
	zero, err := resolve(Config{Dynamic: true}, clusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	d := DefaultConfig()
	if zero.MaxTake != d.MaxTake || zero.MinTake != 1 || zero.ThreadsPerWorker != d.ThreadsPerWorker ||
		zero.CPUPerWorker != d.CPUPerWorker ||
		zero.CheckpointEveryTasks != d.CheckpointEveryTasks ||
		zero.PollInterval != d.PollInterval || zero.HeartbeatInterval != d.HeartbeatInterval {
		t.Errorf("zero Config resolved to %+v", zero.Config)
	}
	if zero.Tracing {
		t.Error("zero options resolved to tracing on")
	}
	if _, err := resolve(Config{}, clusterOptions{}); err == nil {
		t.Error("static mode without StaticBatch resolved")
	}

	// The resolved values reach the runner.
	cfg := DefaultConfig()
	cfg.MaxTake = 5
	r, err := NewRunner(cl, scanFilterAggPlan(0), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.cfg.MaxTake != 5 || r.cfg.CursorBufferBytes != DefaultCursorBufferBytes {
		t.Errorf("runner resolved max take=%d cursor=%d", r.cfg.MaxTake, r.cfg.CursorBufferBytes)
	}

	// The admission option reaches shared state; 0 restores the default.
	Configure(cl, WithAdmissionLimit(2))
	if s.admit.limit != 2 {
		t.Error("the admission option did not reach shared state")
	}
	Configure(cl, WithAdmissionLimit(0))
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
		b, err := cur.NextContext(context.Background())
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
// come from the whole cluster.
func multiChannelOutputPlan() *Plan {
	return MustPlan(
		&Stage{ID: 0, Name: "read", Reader: &ReaderSpec{Table: "numbers"}},
		&Stage{ID: 1, Name: "filter",
			Op:     ops.NewFilterSpec(expr.Ge(expr.C("id"), expr.Int64(0))),
			Inputs: []StageInput{{Stage: 0, Part: Direct()}}},
	)
}
