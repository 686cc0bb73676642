package engine

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"quokka/internal/batch"
	"quokka/internal/cluster"
	"quokka/internal/gcs"
	"quokka/internal/lineage"
	"quokka/internal/metrics"
	"quokka/internal/storage"
	"quokka/internal/trace"
)

// ErrQueryFailed is returned when a worker failure cannot be recovered
// (fault tolerance disabled). Callers may restart the query from scratch —
// the paper's restart baseline.
var ErrQueryFailed = errors.New("engine: query failed due to worker failure (no fault tolerance)")

// ErrNoWorkers is returned when every worker has died.
var ErrNoWorkers = errors.New("engine: all workers failed")

// Report summarizes one query execution. All counters are per query, even
// when other queries ran concurrently on the same cluster: the runner
// counts its own events into a private collector alongside the cluster's.
type Report struct {
	QueryID       string
	Duration      time.Duration
	Recoveries    int
	TasksExecuted int64
	TasksReplayed int64
	Metrics       map[string]int64
	// Histograms snapshots the query's latency distributions (task latency,
	// admission wait, flush latency, cursor stall — see the metrics.*NS
	// names). Always populated; histograms are cheap enough to stay on.
	Histograms map[string]metrics.HistogramSnapshot
	// Stages carries per-stage actuals aggregated from the flight recorder;
	// nil unless the query ran with tracing enabled (WithTracing).
	Stages []StageStats
}

// Runner executes one plan on one cluster under one configuration. Any
// number of runners may execute concurrently on one cluster: every piece
// of a runner's state — GCS keys, flight mailbox slots, upstream backups,
// spill namespaces, metrics — is namespaced by its query id, and the
// cluster's admission controller bounds how many run at once.
type Runner struct {
	cl     *cluster.Cluster
	plan   *Plan
	cfg    Policy         // the query's resolved settings (see resolve)
	ft     ftCaps         // the policy's FT mode as capability bits; the only form read downstream
	qid    string         // cluster-unique query id; prefixes all per-query state
	shared *clusterShared // per-cluster admission + worker resource pools

	spool *storage.ObjectStore // durable target of the spool and checkpoint capabilities
	met   *metrics.Collector   // cluster-wide collector
	qmet  *metrics.Collector   // per-query collector (feeds the Report)
	tee   *metrics.Collector   // write-only fan-out to both of the above

	out     int    // output stage
	par     []int  // parallelism per stage
	spooled []bool // per stage: its outputs cross a wide edge, which capSpool persists

	// seededAlive is the live-worker count seed placed the channels over.
	seededAlive int

	collector *collector
	// sink receives the output stage's partitions from this runner's task
	// managers: the collector itself in-memory, a wire client to the head
	// inside a worker process.
	sink      ResultSink
	recovered int
	failCh    chan error

	// rec is the query's flight recorder, nil unless the policy enables
	// tracing (WithTracing(true) at submit time). Per-query like every other
	// piece of runner state; a nil recorder makes every span site a no-op.
	rec *trace.Recorder
	// Pre-resolved histogram pairs (per-query + cluster-wide): hot paths
	// observe into both handles directly, skipping the collector's
	// name-to-histogram map lookup — and its mutex — per event.
	hTask  histPair
	hAdmit histPair
	hFlush histPair
	hStall histPair

	// keys is the prebuilt per-channel GCS key table, [stage][channel]
	// (read-only after newRunner; see buildKeys).
	keys [][]chanKeys

	// snap is the published image of the query's namespace (snapshot.go),
	// shared by every task manager and the coordinator of this process;
	// snapLoad makes its reload single-flight.
	snap     atomic.Pointer[snapshot]
	snapLoad sync.Mutex
}

// histPair tees one latency histogram the way counters are teed: every
// observation lands in the query's private collector and the cluster-wide
// one. Resolved once at NewRunner; Observe is two lock-free atomic updates.
type histPair struct {
	q, c *metrics.Histogram
}

func (h histPair) observe(v int64) {
	h.q.Observe(v)
	h.c.Observe(v)
}

// NewRunner validates the plan against the cluster and prepares a runner,
// minting its query id and resolving its policy against the cluster-level
// options.
func NewRunner(cl *cluster.Cluster, plan *Plan, cfg Config) (*Runner, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	shared := sharedFor(cl)
	pol, err := resolve(cfg, shared.options())
	if err != nil {
		return nil, err
	}
	r, err := newRunner(cl, plan, pol, shared.newQueryID())
	if err != nil {
		return nil, err
	}
	// Credit the planner's zone-map pruning to this query's report: the
	// splits the reader stages will never even schedule.
	for _, st := range plan.Stages {
		if st.Reader != nil && st.Reader.Splits != nil && st.Reader.TotalSplits > 0 {
			if pruned := st.Reader.TotalSplits - len(st.Reader.Splits); pruned > 0 {
				r.count(metrics.ScanSplitsPruned, int64(pruned))
			}
		}
	}
	return r, nil
}

// newRunner is the one Runner constructor, shared by the head (NewRunner,
// which resolves the policy) and the worker process (newWorkerRunner, which
// received it in the spec): per-stage tables, collector, key table,
// recorder and histogram handles for query qid under policy pol.
func newRunner(cl *cluster.Cluster, plan *Plan, pol Policy, qid string) (*Runner, error) {
	out, err := plan.OutputStage()
	if err != nil {
		return nil, err
	}
	qmet := &metrics.Collector{}
	r := &Runner{
		cl:     cl,
		plan:   plan,
		cfg:    pol,
		ft:     ftTable[pol.FT],
		qid:    qid,
		shared: sharedFor(cl),
		met:    cl.Metrics,
		qmet:   qmet,
		tee:    metrics.Tee(cl.Metrics, qmet),
		out:    out,
		spool:  storage.NewObjectStore(cl.Cost, pol.SpoolProfile, cl.Metrics),
	}
	r.par = make([]int, len(plan.Stages))
	for i := range plan.Stages {
		r.par[i] = plan.Parallelism(i, len(cl.Workers))
	}
	// Spooling persists shuffle partitions: outputs that cross a wide
	// (exchange) edge. Narrow Direct edges are pipeline-fused, as in
	// Trino, and never materialize durably.
	r.spooled = make([]bool, len(plan.Stages))
	for i := range plan.Stages {
		for _, e := range plan.Consumers(i) {
			if e.Part.Kind != PartitionDirect {
				r.spooled[i] = true
			}
		}
	}
	r.collector = newCollector(out, r.par[out])
	r.sink = r.collector
	r.buildKeys()
	r.failCh = make(chan error, 1)
	if pol.Tracing {
		names := make([]string, len(plan.Stages))
		for i, st := range plan.Stages {
			names[i] = st.Name
		}
		r.rec = trace.New(len(cl.Workers), 0, names)
	}
	r.hTask = histPair{qmet.Hist(metrics.TaskLatencyNS), cl.Metrics.Hist(metrics.TaskLatencyNS)}
	r.hAdmit = histPair{qmet.Hist(metrics.AdmissionWaitNS), cl.Metrics.Hist(metrics.AdmissionWaitNS)}
	r.hFlush = histPair{qmet.Hist(metrics.FlushLatencyNS), cl.Metrics.Hist(metrics.FlushLatencyNS)}
	r.hStall = histPair{qmet.Hist(metrics.CursorStallNS), cl.Metrics.Hist(metrics.CursorStallNS)}
	return r, nil
}

// count records an engine event into both the cluster-wide collector and
// this query's private collector.
func (r *Runner) count(name string, delta int64) {
	r.met.Add(name, delta)
	r.qmet.Add(name, delta)
}

// gcsUpdate runs a read-write GCS transaction and attributes its traffic
// to this query: every engine transaction touches only the query's own
// namespace, so the attribution is exact. The store keeps counting the
// cluster totals itself.
func (r *Runner) gcsUpdate(fn func(tx *gcs.Txn) error) error {
	var bytes int64
	err := r.cl.GCS.UpdateNS(r.keyNS(), func(tx *gcs.Txn) error {
		if err := fn(tx); err != nil {
			return err
		}
		bytes = tx.WriteBytes()
		return nil
	})
	if err == nil {
		r.qmet.Add(metrics.GCSTxns, 1)
		r.qmet.Add(metrics.GCSBytes, bytes)
	}
	return err
}

// gcsAwait is the one wait of the control plane: it returns the commit counter
// of this query's GCS namespace once it exceeds after, or after itself when
// wait elapsed or ctx ended first (a backend's failed exchange reads as 0:
// nothing moved). wait 0 never parks: a probe. In memory it is a channel
// receive, in a worker process one frame parked on the head. The result is the
// snapshot's stamp; how each parked wait ended is counted, which gates nothing.
func (r *Runner) gcsAwait(ctx context.Context, after uint64, wait time.Duration) uint64 {
	ver := max(r.cl.GCS.AwaitNS(ctx, r.keyNS(), after, wait), after)
	if wait > 0 && ver > after {
		r.count(metrics.WaitWakes, 1)
	} else if wait > 0 && ctx.Err() == nil {
		r.count(metrics.WaitFallbacks, 1)
	}
	return ver
}

// gcsView runs a read-only GCS transaction, counted into the per-query
// transaction total (views carry no payload).
func (r *Runner) gcsView(fn func(tx *gcs.Txn) error) error {
	err := r.cl.GCS.ViewNS(r.keyNS(), fn)
	if err == nil {
		r.qmet.Add(metrics.GCSTxns, 1)
	}
	return err
}

// Run executes the query to completion, returning the concatenated output
// and a report. It blocks until the query finishes, fails, or ctx is
// cancelled. Run is sugar over Start + Query.Result — every caller that
// wants concurrent queries, streaming output or cancellation handles uses
// Start directly.
func (r *Runner) Run(ctx context.Context) (*batch.Batch, *Report, error) {
	return r.Start(ctx).Result()
}

// execute is the query lifecycle: admission, seed, task managers,
// coordination, teardown. It runs on the Query's goroutine and returns the
// terminal error (nil on success). Teardown happens on EVERY exit path —
// including cancellation and failure — and only after all of this query's
// task-manager threads have stopped, so a torn-down query leaves no spill
// files, mailbox slots, disk backups or GCS keys behind, without
// disturbing concurrent queries.
func (r *Runner) execute(ctx context.Context) error {
	admitStart := time.Now()
	if err := r.shared.admit.acquire(ctx); err != nil {
		return err
	}
	defer r.shared.admit.release()
	wait := time.Since(admitStart)
	r.hAdmit.observe(int64(wait))
	if r.rec != nil {
		r.rec.Record(trace.Span{Kind: trace.KindAdmission, Worker: -1, Stage: -1, Channel: -1, Seq: -1,
			Start: admitStart, Dur: wait})
	}
	if err := r.seed(); err != nil {
		r.cleanup()
		return err
	}
	stop, err := r.shared.executor().StartQuery(r)
	if err != nil {
		r.cleanup()
		return err
	}
	err = r.coordinate(ctx)
	// Synchronous: every task manager must have stopped — and swept its own
	// worker's disk — before cleanup deletes the query's namespace, or a
	// straggler commit would re-create keys behind the sweep.
	stop()
	r.cleanup()
	return err
}

// cleanup tears down what the head owns of the query: its flight mailbox
// slots and its whole GCS namespace. Worker-local disk state (spill runs,
// upstream backups) is swept by each worker's runTaskManager as its threads
// exit. Must only run after the query's task managers have stopped (they
// would otherwise re-create state behind the sweep).
func (r *Runner) cleanup() {
	for _, w := range r.cl.Workers {
		if w.Alive() {
			w.Peer.DropQuery(r.qid)
		}
	}
	ns := r.keyNS()
	r.gcsUpdate(func(tx *gcs.Txn) error {
		for _, k := range tx.List(ns) {
			tx.Delete(k)
		}
		return nil
	})
}

// seed writes the initial execution state into the query's GCS namespace:
// placement of every channel (a cursor and an epoch nobody wrote read as 0).
// Channel c of every
// stage starts on worker c mod W, so each worker hosts one channel of each
// data-parallel stage, as in §IV-A. Nothing outside q/<qid>/ is touched —
// concurrent queries' state is invisible from here.
func (r *Runner) seed() error {
	alive := r.cl.Alive()
	if len(alive) == 0 {
		return ErrNoWorkers
	}
	r.seededAlive = len(alive)
	return r.gcsUpdate(func(tx *gcs.Txn) error {
		for s := range r.plan.Stages {
			for c := 0; c < r.par[s]; c++ {
				id := lineage.ChannelID{Stage: s, Channel: c}
				w := alive[c%len(alive)]
				txPutInt(tx, r.keyPlacement(id), int(w))
			}
		}
		// Record the operator partition count: every TaskManager — including
		// ones that replay lineage onto fresh workers after a failure — must
		// split stateful operator state into the same hash partitions, or
		// replayed state would not match what the dead worker had built.
		txPutInt(tx, r.keyOpParallelism(), r.cfg.Parallelism)
		txPutInt(tx, r.keyGlobalEpoch(), 1)
		return nil
	})
}

// coordinate is the head-node loop: it watches worker liveness, triggers
// recovery, and detects query completion. Each in-flight query runs its
// own coordinator; a worker failure makes every one of them replay its own
// lineage independently. It runs on every commit in the namespace — the
// last one is completion — and each HeartbeatInterval: a death commits nothing.
func (r *Runner) coordinate(ctx context.Context) error {
	// Liveness is compared against the workers the channels were placed on:
	// a worker killed after seeding but before this loop first runs would
	// otherwise never be missed, and its channels never recovered.
	aliveBefore := r.seededAlive
	var seen uint64
	for {
		seen = r.gcsAwait(ctx, seen, r.cfg.HeartbeatInterval)
		select {
		case <-ctx.Done():
			return ctx.Err()
		case err := <-r.failCh:
			return err
		default:
		}
		aliveNow := r.cl.AliveCount()
		if aliveNow == 0 {
			return ErrNoWorkers
		}
		if aliveNow < aliveBefore {
			if !r.ft.has(capLineage) {
				return ErrQueryFailed
			}
			if err := r.recover(ctx); err != nil {
				return err
			}
			aliveBefore = aliveNow
			continue
		}
		done, err := r.queryDone(seen)
		if err != nil {
			return err
		}
		if done {
			return nil
		}
	}
}

// queryDone reports whether every output-stage channel has finished and
// the collector has received all of their partitions. As a side effect it
// records known per-channel task counts in the collector, which is what
// lets an attached Cursor advance past a channel's last partition. It reads
// the shared snapshot of version ver: a heartbeat that finds the namespace
// unchanged costs no transaction.
func (r *Runner) queryDone(ver uint64) (bool, error) {
	snap, err := r.snapshotAt(ver)
	if err != nil {
		return false, err
	}
	out := snap.chans[r.out]
	complete := true
	for c, m := range out {
		// The committed watermark releases delivered partitions to the cursor.
		r.collector.setCommitted(c, m.cursor)
		if m.done < 0 {
			complete = false
			continue
		}
		r.collector.setDoneCount(c, m.done)
	}
	if !complete {
		return false, nil
	}
	for c, m := range out {
		for q := 0; q < m.done; q++ {
			if !r.collector.has(lineage.TaskName{Stage: r.out, Channel: c, Seq: q}) {
				return false, nil
			}
		}
	}
	return true, nil
}

// assembleResult decodes and concatenates the output partitions still held
// by the collector in (channel, seq) order. Partitions already consumed
// through a Cursor have been released and are not re-assembled.
func (r *Runner) assembleResult() (*batch.Batch, error) {
	parts := r.collector.snapshot()
	names := make([]lineage.TaskName, 0, len(parts))
	for n := range parts {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		if names[i].Channel != names[j].Channel {
			return names[i].Channel < names[j].Channel
		}
		return names[i].Seq < names[j].Seq
	})
	var batches []*batch.Batch
	for _, n := range names {
		data := parts[n]
		if len(data) == 0 {
			continue
		}
		b, err := batch.Decode(data)
		if err != nil {
			return nil, fmt.Errorf("engine: corrupt result partition %s: %w", n, err)
		}
		if b.NumRows() > 0 {
			batches = append(batches, b)
		}
	}
	return batch.Concat(batches)
}

// reportFailure surfaces a fatal task error (bad plan, corrupt data) to
// the coordinator, failing the query instead of retrying forever.
// Transient conditions (dead consumers, missing replays) are never
// reported here.
func (r *Runner) reportFailure(err error) {
	select {
	case r.failCh <- err:
	default:
	}
}
