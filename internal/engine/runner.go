package engine

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
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

	placeMu sync.RWMutex
	place   map[lineage.ChannelID]int // cached placement
	gep     int

	// keys is the prebuilt per-channel GCS key table (read-only after
	// NewRunner; see buildKeys).
	keys map[lineage.ChannelID]*chanKeys

	// snap caches each poll round's GCS reads (barrier/epoch/recovery
	// counters plus every channel's coordination meta), stamped with the
	// namespace's shard version. It is shared by ALL of this query's task
	// managers: while nothing in the query's namespace changes, every
	// executor thread on every worker reuses one snapshot and issues zero
	// GCS transactions, and each committed write triggers exactly one
	// refetch per worker-channel subset — not one per worker per thread.
	snapMu    sync.Mutex
	snapVer   uint64
	snapValid bool
	snapBar   int
	snapGep   int
	snapRecn  int
	snapMetas map[lineage.ChannelID]*chanMeta
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

// pollHeader returns the poll round's barrier / global epoch / recovery
// generation from the shared version-stamped snapshot, refetching (one
// GCS view) only when the query's namespace changed since it was taken.
func (r *Runner) pollHeader(ver uint64) (bar, gep, recn int) {
	r.snapMu.Lock()
	defer r.snapMu.Unlock()
	if !r.snapValid || r.snapVer != ver {
		r.gcsView(func(tx *gcs.Txn) error {
			r.snapBar = txGetInt(tx, r.keyBarrier(), 0)
			r.snapGep = txGetInt(tx, r.keyGlobalEpoch(), 0)
			r.snapRecn = txGetInt(tx, r.keyRecoveries(), 0)
			return nil
		})
		r.snapMetas = nil
		r.snapVer, r.snapValid = ver, true
	}
	return r.snapBar, r.snapGep, r.snapRecn
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
	r.place = make(map[lineage.ChannelID]int)
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

// QueryID returns the runner's cluster-unique query id.
func (r *Runner) QueryID() string { return r.qid }

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

// gcsVersion is the commit counter of this query's GCS namespace — a local
// atomic read, not a modelled round trip. Pollers compare it across rounds
// to skip view transactions while the namespace is unchanged.
func (r *Runner) gcsVersion() uint64 {
	return r.cl.GCS.VersionNS(r.keyNS())
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
			w.Flight.DropQuery(r.qid)
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
// placement of every channel, zero cursors and epochs. Channel c of every
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
				txPutInt(tx, r.keyCursor(id), 0)
				txPutInt(tx, r.keyChanEpoch(id), 0)
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
// lineage independently.
func (r *Runner) coordinate(ctx context.Context) error {
	// Liveness is compared against the workers the channels were placed on:
	// a worker killed after seeding but before this loop first runs would
	// otherwise never be missed, and its channels never recovered.
	aliveBefore := r.seededAlive
	ticker := time.NewTicker(r.cfg.HeartbeatInterval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case err := <-r.failCh:
			return err
		case <-ticker.C:
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
		done, err := r.queryDone()
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
// lets an attached Cursor advance past a channel's last partition.
func (r *Runner) queryDone() (bool, error) {
	counts := make([]int, r.par[r.out])
	curs := make([]int, r.par[r.out])
	complete := true
	err := r.gcsView(func(tx *gcs.Txn) error {
		for c := 0; c < r.par[r.out]; c++ {
			id := lineage.ChannelID{Stage: r.out, Channel: c}
			curs[c] = txGetInt(tx, r.keyCursor(id), 0)
			n := txGetInt(tx, r.keyDone(id), -1)
			if n < 0 {
				complete = false
				counts[c] = -1
				continue
			}
			counts[c] = n
		}
		return nil
	})
	if err != nil {
		return false, err
	}
	for c, n := range counts {
		// The committed watermark releases delivered partitions to the
		// cursor; it lags commits by at most one heartbeat.
		r.collector.setCommitted(c, curs[c])
		if n >= 0 {
			r.collector.setDoneCount(c, n)
		}
	}
	if !complete {
		return false, nil
	}
	for c := 0; c < r.par[r.out]; c++ {
		for q := 0; q < counts[c]; q++ {
			if !r.collector.has(lineage.TaskName{Stage: r.out, Channel: c, Seq: q}) {
				return false, nil
			}
		}
	}
	// Every partition is accounted for, but some may still be spooled on
	// workers (only their manifests are at the head). Drain them now, while
	// the workers are still up — teardown drops the spools. A failed fetch
	// means a worker just died: report not-done and let the liveness check
	// run recovery, which re-executes the lost output channel.
	if err := r.drainSpooled(); err != nil {
		return false, nil
	}
	return true, nil
}

// drainSpooled pulls every spooled result payload still referenced by a
// head-node manifest into the collector. Runs once, at completion; a
// streaming cursor may be consuming concurrently, so entries that vanish
// mid-drain (just consumed) are skipped.
func (r *Runner) drainSpooled() error {
	for _, e := range r.collector.spooledRefs() {
		w := r.cl.Worker(cluster.WorkerID(e.worker))
		data, err := w.Flight.FetchResult(r.qid, e.task)
		if err != nil {
			if !r.collector.hasSpooledOn(e.task, e.worker) {
				continue // consumed or invalidated while we fetched
			}
			return err
		}
		if r.collector.materialize(e.task, e.worker, data) {
			w.Flight.DropResult(r.qid, e.task)
		}
	}
	if r.collector.spooledCount() != 0 {
		return fmt.Errorf("engine: spooled results changed during drain")
	}
	return nil
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

// placement returns the worker currently hosting a channel, from a cache
// refreshed whenever the global epoch changes.
func (r *Runner) placement(id lineage.ChannelID) (int, error) {
	r.placeMu.RLock()
	w, ok := r.place[id]
	r.placeMu.RUnlock()
	if ok {
		return w, nil
	}
	var got int
	err := r.gcsView(func(tx *gcs.Txn) error {
		got = txGetInt(tx, r.keyPlacement(id), -1)
		return nil
	})
	if err != nil {
		return -1, err
	}
	if got < 0 {
		return -1, fmt.Errorf("engine: no placement for channel %s", id)
	}
	r.placeMu.Lock()
	r.place[id] = got
	r.placeMu.Unlock()
	return got, nil
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

// invalidatePlacement clears the placement cache (after recovery).
func (r *Runner) invalidatePlacement() {
	r.placeMu.Lock()
	r.place = make(map[lineage.ChannelID]int)
	r.placeMu.Unlock()
}

// collector receives the output stage's partitions on the head node. It
// deduplicates retransmissions by task name, so recovery replays are
// harmless.
//
// With worker-side result spooling (the default) an entry is usually just
// a manifest — the payload stays on the producing worker and the entry
// records where; the cursor (or the completion drain) fetches the bytes on
// demand. The backpressure accounting always charges the real payload
// size, manifest or not, so the buffer bound means the same thing in both
// modes.
//
// When a Cursor is attached it doubles as the streaming buffer: partitions
// are released as the cursor consumes them (the consumed prefix is then
// tracked as a per-channel watermark so replayed retransmissions stay
// deduplicated), and deliveries beyond the configured buffer bound are
// rejected — the producing task then simply stays pending and retries,
// which turns the head-node buffer bound into end-to-end backpressure
// through the existing task-retry machinery.
type collector struct {
	mu   sync.Mutex
	cond *sync.Cond

	parts map[lineage.TaskName]resultPart
	bytes int64 // accounted payload bytes (spooled entries count their real size)

	outStage  int
	channels  int
	doneCount []int // committed task count per output channel; -1 = unknown
	committed []int // lineage-committed task count per channel (monotonic)
	read      []int // cursor watermark: partitions consumed + released

	streaming bool  // a cursor is attached
	limit     int64 // buffer bound while streaming; <=0 = unbounded
	needCh    int   // next partition the cursor will pull; always accepted
	needSeq   int

	term    bool // query reached a terminal state
	termErr error
}

// resultPart is one output partition at the head: either the payload
// itself (data non-nil or a consumed empty partition) or a manifest
// pointing at the worker spooling it.
type resultPart struct {
	data    []byte
	size    int64 // real payload size, accounted against the buffer bound
	epoch   int   // producing channel's rewind epoch at delivery
	spooled bool
	worker  int // spooling worker, when spooled
}

// spoolRef names a spooled entry for the completion drain.
type spoolRef struct {
	task   lineage.TaskName
	worker int
}

func newCollector(outStage, channels int) *collector {
	c := &collector{
		parts:     make(map[lineage.TaskName]resultPart),
		outStage:  outStage,
		channels:  channels,
		doneCount: make([]int, channels),
		committed: make([]int, channels),
		read:      make([]int, channels),
	}
	for i := range c.doneCount {
		c.doneCount[i] = -1
	}
	c.cond = sync.NewCond(&c.mu)
	return c
}

// Deliver offers a payload partition to the head node. It reports false
// only under cursor backpressure (buffer full); the producing task must
// then retry.
func (c *collector) Deliver(t lineage.TaskName, data []byte, epoch int) bool {
	return c.admit(t, resultPart{data: data, size: int64(len(data)), epoch: epoch})
}

// DeliverSpooled offers a manifest: the payload (size bytes) stays spooled
// on the given worker. Backpressure semantics are identical to Deliver.
func (c *collector) DeliverSpooled(t lineage.TaskName, worker int, size int64, epoch int) bool {
	return c.admit(t, resultPart{size: size, epoch: epoch, spooled: true, worker: worker})
}

func (c *collector) admit(t lineage.TaskName, p resultPart) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t.Channel < c.channels {
		if t.Seq < c.read[t.Channel] {
			return true // already consumed through the cursor; drop the rerun
		}
		if n := c.doneCount[t.Channel]; n >= 0 && t.Seq >= n {
			// The channel committed exactly n tasks; this is the leftover of
			// an aborted task from a pre-rewind incarnation. Accept-and-drop:
			// its commit is doomed to be fenced off anyway, and refusing would
			// put the producer into a pointless backpressure retry loop.
			return true
		}
	}
	if old, ok := c.parts[t]; ok {
		if old.epoch > p.epoch {
			// Zombie delivery: a worker declared dead (or a task of a since-
			// rewound channel) can still be mid-push and land after the new
			// incarnation re-delivered this seq, possibly with different
			// content. Accept-and-drop, mirroring the flight mailbox.
			return true
		}
		c.bytes -= old.size
	} else if c.streaming && c.limit > 0 && c.bytes+p.size > c.limit &&
		!(t.Channel == c.needCh && t.Seq == c.needSeq) {
		// Buffer full and this is not the partition the cursor is waiting
		// for: refuse, so the producer keeps it pending. The next-needed
		// partition is always accepted, which keeps the cursor livelock-free
		// even when out-of-order channels fill the buffer.
		return false
	}
	c.parts[t] = p
	c.bytes += p.size
	c.cond.Broadcast()
	return true
}

func (c *collector) has(t lineage.TaskName) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t.Channel < c.channels && t.Seq < c.read[t.Channel] {
		return true
	}
	_, ok := c.parts[t]
	return ok
}

// hasSpooledOn reports whether the entry for t is still a manifest
// pointing at the given worker.
func (c *collector) hasSpooledOn(t lineage.TaskName, worker int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	p, ok := c.parts[t]
	return ok && p.spooled && p.worker == worker
}

// spooledRefs snapshots the entries whose payloads are still on workers.
func (c *collector) spooledRefs() []spoolRef {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []spoolRef
	for t, p := range c.parts {
		if p.spooled {
			out = append(out, spoolRef{task: t, worker: p.worker})
		}
	}
	return out
}

func (c *collector) spooledCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, p := range c.parts {
		if p.spooled {
			n++
		}
	}
	return n
}

// materialize replaces a manifest with its fetched payload. It reports
// false when the entry changed while the fetch was in flight (consumed by
// the cursor, or re-delivered after a rewind) — the caller must then NOT
// drop the worker-side spool it fetched from.
func (c *collector) materialize(t lineage.TaskName, worker int, data []byte) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	p, ok := c.parts[t]
	if !ok || !p.spooled || p.worker != worker {
		return false
	}
	c.parts[t] = resultPart{data: data, size: p.size, epoch: p.epoch}
	c.cond.Broadcast()
	return true
}

// invalidateSpooledExcept drops manifests pointing at workers outside the
// alive set: their payloads died with the worker. Called after recovery
// reconciliation; the rewound output channels re-execute and re-deliver
// these partitions (deliveries below the cursor's read watermark stay
// deduplicated, so nothing is ever consumed twice).
func (c *collector) invalidateSpooledExcept(alive map[int]bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for t, p := range c.parts {
		if p.spooled && !alive[p.worker] {
			c.bytes -= p.size
			delete(c.parts, t)
		}
	}
}

// setDoneCount records the committed task count of a finished output
// channel (which commits all of its tasks by definition).
func (c *collector) setDoneCount(channel, n int) {
	c.mu.Lock()
	if c.doneCount[channel] != n {
		c.doneCount[channel] = n
		// Deliveries at seq >= n are leftovers of tasks whose commit was
		// aborted (a recovery barrier fences whole group-commit flushes) and
		// whose channel was then rewound and re-executed with different task
		// boundaries, finishing in fewer, coarser tasks. They are not part of
		// the committed output — drop them so Result never assembles them.
		for t, p := range c.parts {
			if t.Channel == channel && t.Seq >= n {
				c.bytes -= p.size
				delete(c.parts, t)
			}
		}
		c.cond.Broadcast()
	}
	if n > c.committed[channel] {
		c.committed[channel] = n
		c.cond.Broadcast()
	}
	c.mu.Unlock()
}

// setCommitted raises an output channel's lineage-committed task count.
// The cursor only ever consumes partitions below it: a delivered-but-
// uncommitted partition may still be aborted (its worker dying before the
// commit) and re-executed with different task boundaries, so releasing it
// to the consumer would break exactly-once streaming. Monotonic: recovery
// rewinds re-commit the same task prefix with identical contents (replay
// retraces committed lineage), so an observed commit never un-happens.
func (c *collector) setCommitted(channel, n int) {
	c.mu.Lock()
	if n > c.committed[channel] {
		c.committed[channel] = n
		c.cond.Broadcast()
	}
	c.mu.Unlock()
}

// terminate marks the query terminal (nil err = clean completion), waking
// any blocked cursor.
func (c *collector) terminate(err error) {
	c.mu.Lock()
	c.term = true
	c.termErr = err
	c.cond.Broadcast()
	c.mu.Unlock()
}

// stream switches the collector into cursor mode with the given buffer
// bound (<=0 = unbounded).
func (c *collector) stream(limit int64) {
	c.mu.Lock()
	c.streaming = true
	c.limit = limit
	c.mu.Unlock()
}

// wake broadcasts the collector's condition; context cancellation hooks
// use it to unblock a waiting cursor.
func (c *collector) wake() {
	c.mu.Lock()
	c.cond.Broadcast()
	c.mu.Unlock()
}

// next blocks until the next output partition in (channel, seq) order is
// available AND lineage-committed (the head node is a consumer, and
// consumers only ever consume committed inputs — an uncommitted delivery
// may still be aborted and re-executed with different boundaries), then
// consumes and releases it, returning its payload. Spooled partitions are
// fetched from their worker through the fetch callback (invoked without
// the collector lock held); a fetch failure means the worker died — the
// stale manifest is invalidated and next waits for recovery to re-deliver
// the partition. drop releases the worker-side spool once its entry has
// been consumed.
//
// It returns (nil, false, nil) at end of stream, ctx.Err() when ctx is
// cancelled, and the query's terminal error if it failed. Empty payloads
// (empty partitions) are returned like any other; the cursor skips them.
func (c *collector) next(ctx context.Context,
	fetch func(t lineage.TaskName, worker int) ([]byte, error),
	drop func(t lineage.TaskName, worker int)) (data []byte, ok bool, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		if err := ctx.Err(); err != nil {
			return nil, false, err
		}
		// Skip past exhausted channels.
		for c.needCh < c.channels && c.doneCount[c.needCh] >= 0 && c.needSeq >= c.doneCount[c.needCh] {
			c.needCh++
			c.needSeq = 0
		}
		if c.needCh >= c.channels {
			return nil, false, nil
		}
		t := lineage.TaskName{Stage: c.outStage, Channel: c.needCh, Seq: c.needSeq}
		if p, found := c.parts[t]; found && c.needSeq < c.committed[c.needCh] {
			if !p.spooled {
				delete(c.parts, t)
				c.bytes -= p.size
				c.read[c.needCh] = c.needSeq + 1
				c.needSeq++
				return p.data, true, nil
			}
			// Manifest: pull the payload from its worker, lock released.
			worker := p.worker
			c.mu.Unlock()
			fetched, ferr := fetch(t, worker)
			c.mu.Lock()
			if ferr != nil {
				// The worker died under us. Invalidate the stale manifest
				// (unless it was already replaced) and wait for the rewound
				// output channel to re-deliver the partition.
				if cur, ok := c.parts[t]; ok && cur.spooled && cur.worker == worker {
					c.bytes -= cur.size
					delete(c.parts, t)
				}
				continue
			}
			// Confirm the entry is unchanged before consuming: a rewind may
			// have re-delivered it (necessarily from a different, live
			// worker) while the fetch was in flight.
			if cur, ok := c.parts[t]; ok && cur.spooled && cur.worker == worker {
				delete(c.parts, t)
				c.bytes -= cur.size
				c.read[c.needCh] = c.needSeq + 1
				c.needSeq++
				drop(t, worker)
				return fetched, true, nil
			}
			continue
		}
		if c.term {
			if c.termErr != nil {
				return nil, false, c.termErr
			}
			return nil, false, fmt.Errorf("engine: result partition %d.%d missing after completion", c.needCh, c.needSeq)
		}
		c.cond.Wait()
	}
}

// snapshot returns the buffered payloads. Spooled entries have been
// drained to the head before the query reports completion, so after a
// successful Wait every remaining entry carries its payload.
func (c *collector) snapshot() map[lineage.TaskName][]byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[lineage.TaskName][]byte, len(c.parts))
	for k, v := range c.parts {
		if !v.spooled {
			out[k] = v.data
		}
	}
	return out
}
