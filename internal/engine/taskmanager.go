package engine

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"quokka/internal/batch"
	"quokka/internal/cluster"
	"quokka/internal/flight"
	"quokka/internal/gcs"
	"quokka/internal/lineage"
	"quokka/internal/metrics"
	"quokka/internal/ops"
	"quokka/internal/spill"
	"quokka/internal/trace"
)

// taskManager runs the channels placed on one worker. It is the paper's
// TaskManager (§IV-A): a stateless poller of the GCS executing Algorithm 1
// steps. All inter-component coordination flows through the GCS; the only
// state a TaskManager keeps in memory is the operator state of its
// channels, which is reconstructable from the lineage log.
type taskManager struct {
	r *Runner
	w *cluster.Worker
	// gc is the cluster's shared committer, held by runTaskManager for
	// exactly the lifetime of this task manager's threads.
	gc *groupCommitter

	mu       sync.Mutex
	channels map[lineage.ChannelID]*chanState
	gep      int // global epoch the channel set was loaded at
	ackedBar int // last barrier generation acknowledged
	opp      int // operator partition count, read from the GCS (opp key)

	// cpu bounds concurrently modelled kernel work on this worker: I/O
	// waits (S3 reads, shuffle pushes, disk writes) do not hold a slot,
	// so compute overlaps I/O exactly as in an engine with async reads.
	cpu chan struct{}

	// pool fans partitioned operator work (hash join build/probe, hash
	// aggregation) out across the cpu slots, so intra-operator parallelism
	// and inter-channel parallelism compete for the same modelled cores.
	pool *ops.Pool

	// spill is the worker's memory-governance context (nil when
	// Config.MemoryBudget is 0): one accountant shared by all channels on
	// this worker, spilling operator state to the worker's local disk.
	spill *spill.Context

	// doneIDs caches channels known to have finished so idle polls skip
	// their (and their upstreams') GCS reads. Cleared on epoch change.
	doneMu  sync.Mutex
	doneIDs map[lineage.ChannelID]bool

	// replayGen is the last recovery generation whose replay queue this
	// TaskManager has fully drained; prefix scans of the replay queue
	// only happen after a recovery, never in steady state. replayLock
	// ensures a single thread drains the queue at a time.
	replayGen  int
	replayLock sync.Mutex

	// takeScale coarsens dynamic task granularity under admission
	// pressure: when queries are queued behind the admission gate, each
	// task consumes a multiple of the configured Min/MaxTake, shrinking
	// head round-trips per query exactly when the head is the bottleneck.
	// Refreshed once per poll round; timing-only, never output-visible
	// (dynamic takes are already run-dependent).
	takeScale atomic.Int32
}

// chanState is the in-memory execution state of one channel: the operator
// instance (the paper's "state variable"), plus caches of the channel's
// GCS coordinates.
type chanState struct {
	// protocol serializes the Algorithm 1 task protocol (input choice,
	// lineage commit, cursor advance) — channel tasks stay sequential, as
	// the lineage log requires. It no longer implies single-threaded
	// compute: inside a task, partitioned operators fan build/probe/
	// accumulate work out across per-partition goroutines, each owning one
	// hash partition of the operator state.
	protocol sync.Mutex

	id    lineage.ChannelID
	stage *Stage

	cep      int // channel epoch this state is valid for
	cursor   int
	wm       lineage.Watermark
	done     bool
	op       ops.Operator
	splits   int // reader stages: total splits of the table
	pending  *pendingTask
	lastCkpt int
	stepGep  int // global epoch observed at step start; fences commits

	// spillOp is the operator's root spill handle (nil without memory
	// governance); spillBytes/spillRuns are its write totals at the last
	// task commit, so the flight recorder can attribute spill volume to
	// individual tasks as deltas.
	spillOp    *spill.Op
	spillBytes int64
	spillRuns  int64
}

// pendingTask is a task that executed but whose pushes failed (a consumer
// worker died, or the cursor buffer is full). Algorithm 1 returns without
// committing; the serialized output is kept so every retry re-pushes the
// same bytes without re-running the operator or the encoder, preserving
// exactly-once state mutation.
type pendingTask struct {
	seq      int
	rec      lineage.Record
	out      *batch.Batch // nil if the task produced no rows, and once encoded
	finalize bool

	// The task's one serialization, built by the first finishTask: the piece
	// set of a stage with consumers (pieces indexes it), the result frame of
	// an output-stage task. nil for an empty output. Pieces depend on channel
	// counts, never on placement, so they stay valid across a recovery.
	payload []byte
	pieces  pieceSet
	outRows int64

	// started stamps task creation; the task-latency histogram and trace
	// span measure creation -> successful commit, so backpressure retries
	// are included (a task stuck behind a full cursor buffer is honestly
	// slow). inRows/inBytes count the consumed input (wire bytes).
	started time.Time
	inRows  int64
	inBytes int64
}

func newTaskManager(r *Runner, w *cluster.Worker) *taskManager {
	t := &taskManager{
		r: r, w: w,
		channels: map[lineage.ChannelID]*chanState{},
		gep:      -1,
		opp:      1,
		// The CPU slot pool is a WORKER resource shared by every in-flight
		// query: concurrent queries' channels (and their partition lanes)
		// compete for the same modelled cores instead of each bringing
		// their own.
		cpu:     r.shared.cpuFor(w.ID, r.cfg.CPUPerWorker),
		doneIDs: map[lineage.ChannelID]bool{},
	}
	t.pool = ops.NewPool(t.cpu, func(n int) {
		r.count(metrics.PartitionTasks, int64(n))
	})
	if r.cfg.MemoryBudget > 0 {
		// The accountant is per query per worker (MemoryBudget is a query
		// knob); the worker's cross-query ledger tracks total accounted
		// state across queries and, when WithWorkerMemoryBudget configured a
		// cap, makes concurrent queries spill against the worker's total as
		// well. The tee collector routes spill metrics into both the
		// cluster-wide and the per-query counters.
		acct := spill.NewAccountant(r.cfg.MemoryBudget, r.tee)
		acct.AttachLedger(r.shared.ledgerFor(w.ID))
		t.spill = spill.NewContext(w.Disk, acct, r.tee, spill.DefaultPartitions)
		t.spill.SetCompression(r.cfg.SpillCompress)
	}
	return t
}

// loop is one executor thread. Multiple threads of the same TaskManager
// share the channel map; the per-channel claim lock keeps a channel's
// tasks sequential, as the execution model requires.
func (t *taskManager) loop(ctx context.Context) {
	idle := t.r.cfg.PollInterval
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.w.Killed():
			return
		default:
		}
		progressed, barrier := t.poll()
		if barrier {
			t.ackBarrier()
			time.Sleep(t.r.cfg.PollInterval)
			continue
		}
		if progressed {
			idle = t.r.cfg.PollInterval
			continue
		}
		// Exponential idle backoff keeps control-store pressure bounded
		// on wide clusters while staying responsive under load. The cap
		// scales with the number of admitted queries: at high admission
		// limits hundreds of executor threads idle concurrently, and their
		// aggregate wakeup rate — not any one thread's latency — is what
		// loads the head node's cores.
		time.Sleep(idle)
		cap := time.Duration(16) * t.r.cfg.PollInterval
		if n := t.r.shared.admit.activeNow(); n > 1 {
			cap *= time.Duration(n)
		}
		if idle < cap {
			idle *= 2
		}
	}
}

// poll runs one round over the worker's channels and replay queue. All
// channels' coordination state is read in a single GCS view per round —
// one head-node round trip, not one per channel — keeping the control
// plane cost per task negligible, as the paper reports for its optimized
// naming scheme (§IV-B).
func (t *taskManager) poll() (progressed, barrier bool) {
	ver := t.r.gcsVersion()
	bar, gep, recn := t.r.pollHeader(ver)
	if bar != 0 {
		return false, true
	}
	t.refreshChannels(gep)

	// Adaptive task granularity: scale takes by the live head-node load —
	// queries running concurrently plus queries queued behind the gate.
	// Every admitted query polls and commits against the same head, so
	// high admission limits need coarse tasks just as much as deep queues;
	// coarser tasks cut the per-query transaction and poll load exactly
	// when the head is the bottleneck.
	scale := int32(1)
	admit := t.r.shared.admit
	switch load := admit.queuedNow() + admit.activeNow() - 1; {
	case load >= 12:
		scale = 8
	case load >= 4:
		scale = 4
	case load >= 1:
		scale = 2
	}
	t.takeScale.Store(scale)

	// Replay queues are only populated by recovery; skip the prefix scans
	// entirely in steady state and once this generation's queue drained.
	t.mu.Lock()
	needReplays := recn > 0 && t.replayGen < recn
	t.mu.Unlock()
	if needReplays && t.replayLock.TryLock() {
		ran, drained := t.runReplays()
		t.replayLock.Unlock()
		if ran {
			progressed = true
		}
		if drained && !ran {
			t.mu.Lock()
			if recn > t.replayGen {
				t.replayGen = recn
			}
			t.mu.Unlock()
		}
	}
	t.mu.Lock()
	states := make([]*chanState, 0, len(t.channels))
	for _, cs := range t.channels {
		if !t.isDone(cs.id) {
			states = append(states, cs)
		}
	}
	t.mu.Unlock()
	if len(states) == 0 {
		return progressed, false
	}
	metas, err := t.cachedMetas(states, ver)
	if err != nil {
		if t.w.Alive() {
			t.r.reportFailure(err)
		}
		return false, false
	}
	for i, cs := range states {
		if !cs.protocol.TryLock() {
			continue
		}
		cs.stepGep = gep
		ok, err := t.step(cs, metas[i])
		cs.protocol.Unlock()
		if err != nil {
			// Errors from a dying worker are expected; anything else is a
			// fatal plan or data error that retrying cannot fix.
			if t.w.Alive() {
				t.r.reportFailure(err)
			}
			continue
		}
		if ok {
			progressed = true
		}
	}
	return progressed, false
}

// ackBarrier records that this TaskManager has quiesced under the current
// barrier generation, implementing the GCS-level lock of §IV-B.
func (t *taskManager) ackBarrier() {
	var gen int
	t.r.gcsView(func(tx *gcs.Txn) error {
		gen = txGetInt(tx, t.r.keyBarrier(), 0)
		return nil
	})
	t.mu.Lock()
	already := gen == 0 || gen == t.ackedBar
	if !already {
		t.ackedBar = gen
	}
	t.mu.Unlock()
	if already {
		return
	}
	t.r.gcsUpdate(func(tx *gcs.Txn) error {
		txPutInt(tx, t.r.keyAck(int(t.w.ID)), gen)
		return nil
	})
}

// refreshChannels reloads the set of channels placed on this worker when
// the global epoch changes (initially and after each recovery).
func (t *taskManager) refreshChannels(gep int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if gep == t.gep {
		return
	}
	// The epoch changed because recovery re-placed channels: drop the
	// runner's placement cache so pushes re-resolve destinations. On the
	// head, recovery already invalidated it; inside a worker process this
	// is the only site that observes the change.
	t.r.invalidatePlacement()
	mine := make(map[lineage.ChannelID]bool)
	t.r.gcsView(func(tx *gcs.Txn) error {
		t.opp = txGetInt(tx, t.r.keyOpParallelism(), t.r.cfg.Parallelism)
		for s := range t.r.plan.Stages {
			for c := 0; c < t.r.par[s]; c++ {
				id := lineage.ChannelID{Stage: s, Channel: c}
				if txGetInt(tx, t.r.keyPlacement(id), -1) == int(t.w.ID) {
					mine[id] = true
				}
			}
		}
		return nil
	})
	for id := range t.channels {
		if !mine[id] {
			delete(t.channels, id)
		}
	}
	for id := range mine {
		if _, ok := t.channels[id]; !ok {
			t.channels[id] = &chanState{id: id, stage: t.r.plan.Stages[id.Stage], cep: -1}
		}
	}
	t.doneMu.Lock()
	t.doneIDs = map[lineage.ChannelID]bool{}
	t.doneMu.Unlock()
	t.gep = gep
}

func (t *taskManager) markDone(id lineage.ChannelID) {
	t.doneMu.Lock()
	t.doneIDs[id] = true
	t.doneMu.Unlock()
}

func (t *taskManager) isDone(id lineage.ChannelID) bool {
	t.doneMu.Lock()
	defer t.doneMu.Unlock()
	return t.doneIDs[id]
}

// chanMeta is the per-step snapshot of a channel's GCS coordinates plus
// everything needed to pick inputs.
type chanMeta struct {
	cep        int
	cursor     int
	replayRec  *lineage.Record
	upCursor   map[lineage.EdgeChannel]int // committed task count per upstream channel
	upDone     map[lineage.EdgeChannel]int // done marker (-1 if absent)
	stageDone  map[int]bool                // upstream stage fully done (stagewise gating)
	checkpoint *checkpointMark
}

// step attempts one Algorithm 1 task step for a channel. It returns
// whether progress was made.
func (t *taskManager) step(cs *chanState, meta *chanMeta) (bool, error) {
	// A meta is a snapshot; this channel may have moved since it was read
	// (another executor thread committed a task, or recovery rewound the
	// channel, between the snapshot and our TryLock). Epochs and cursors
	// only grow, so staleness is detectable — and acting on a stale meta is
	// not just wasted work: meta.replayRec is "the lineage record at
	// meta.cursor", which for a stale cursor is the PREVIOUS task's record;
	// replaying it at the current seq would duplicate that task's output
	// and commit the seq without lineage. Skip instead — whatever moved the
	// channel also bumped the namespace version, so the next poll round
	// refetches a fresh snapshot.
	if meta.cep < cs.cep {
		return false, nil
	}
	if meta.cep > cs.cep {
		if err := t.resetChannel(cs, meta); err != nil {
			return false, err
		}
	}
	if cs.done {
		return false, nil
	}
	if meta.cursor != cs.cursor {
		return false, nil
	}
	if cs.op == nil && cs.stage.Op != nil {
		cs.op = t.newOperator(cs)
		if meta.checkpoint != nil && meta.checkpoint.Seq == cs.cursor && cs.cursor > 0 {
			if err := t.restoreCheckpoint(cs, meta.checkpoint); err != nil {
				return false, err
			}
		}
	}
	// Retry a pending task whose pushes previously failed.
	if p := cs.pending; p != nil {
		if p.seq != cs.cursor {
			cs.pending = nil
		} else {
			return t.finishTask(cs, p, meta.replayRec != nil)
		}
	}
	if meta.replayRec != nil {
		return t.replayStep(cs, *meta.replayRec)
	}
	return t.normalStep(cs, meta)
}

// newOperator instantiates the channel's operator. When the query's
// recorded partition count is > 1 and the spec supports it, the operator is
// created partition-parallel: its state split into hash partitions that
// execute on this worker's CPU-slot pool. The partition count comes from
// the GCS (seeded once per query), not the local config, so replacement
// TaskManagers replaying lineage rebuild identically partitioned state.
func (t *taskManager) newOperator(cs *chanState) ops.Operator {
	t.mu.Lock()
	p := t.opp
	t.mu.Unlock()
	var op ops.Operator
	if p > 1 {
		if ps, ok := cs.stage.Op.(ops.ParallelSpec); ok {
			op = ps.NewParallel(cs.id.Channel, t.r.par[cs.id.Stage], p, t.pool)
		}
	}
	if op == nil {
		op = cs.stage.Op.New(cs.id.Channel, t.r.par[cs.id.Stage])
	}
	// Memory governance: spill-capable operators get a handle namespaced
	// by query, channel AND channel epoch, so a rewound channel's
	// replacement operator never collides with (or reads) stale
	// pre-failure run files — and concurrent queries' spill files never
	// collide with each other.
	if t.spill != nil {
		if sb, ok := op.(ops.Spillable); ok {
			so := t.spill.NewOp(spillNS(t.r.qid, cs.id, cs.cep))
			sb.SetSpill(so)
			cs.spillOp, cs.spillBytes, cs.spillRuns = so, 0, 0
		}
	}
	return op
}

// cachedMetas returns every state's chanMeta from the query's shared
// version-stamped poll snapshot, refetching (one GCS view) when the
// namespace changed since the snapshot was taken or a channel is missing
// from it. Metas are immutable after load, so sharing one snapshot across
// rounds, threads AND workers observes exactly the state an unconditional
// per-round view would have read; per-worker loads at the same version
// merge into the shared map, so each version change costs one scan per
// worker-channel subset, not one per polling thread.
func (t *taskManager) cachedMetas(states []*chanState, ver uint64) ([]*chanMeta, error) {
	r := t.r
	r.snapMu.Lock()
	if r.snapValid && r.snapVer == ver && r.snapMetas != nil {
		out := make([]*chanMeta, len(states))
		hit := true
		for i, cs := range states {
			m, ok := r.snapMetas[cs.id]
			if !ok {
				hit = false
				break
			}
			out[i] = m
		}
		if hit {
			r.snapMu.Unlock()
			return out, nil
		}
	}
	r.snapMu.Unlock()
	metas, err := t.loadMetas(states)
	if err != nil {
		return nil, err
	}
	r.snapMu.Lock()
	if r.snapValid && r.snapVer == ver {
		if r.snapMetas == nil {
			r.snapMetas = make(map[lineage.ChannelID]*chanMeta, len(states))
		}
		for i, cs := range states {
			r.snapMetas[cs.id] = metas[i]
		}
	}
	r.snapMu.Unlock()
	return metas, nil
}

// loadMetas reads every channel's coordination state in one GCS view.
func (t *taskManager) loadMetas(states []*chanState) ([]*chanMeta, error) {
	out := make([]*chanMeta, len(states))
	err := t.r.gcsView(func(tx *gcs.Txn) error {
		for i, cs := range states {
			m := &chanMeta{
				upCursor:  make(map[lineage.EdgeChannel]int),
				upDone:    make(map[lineage.EdgeChannel]int),
				stageDone: make(map[int]bool),
			}
			m.cep = txGetInt(tx, t.r.keyChanEpoch(cs.id), 0)
			m.cursor = txGetInt(tx, t.r.keyCursor(cs.id), 0)
			tn := lineage.TaskName{Stage: cs.id.Stage, Channel: cs.id.Channel, Seq: m.cursor}
			if v, ok := tx.Get(t.r.keyLineage(tn)); ok {
				rec, err := lineage.DecodeRecord(v)
				if err != nil {
					return err
				}
				m.replayRec = &rec
			}
			for e, in := range cs.stage.Inputs {
				up := in.Stage
				allDone := true
				for uc := 0; uc < t.r.par[up]; uc++ {
					ec := lineage.EdgeChannel{Input: e, UpChannel: uc}
					uid := lineage.ChannelID{Stage: up, Channel: uc}
					m.upCursor[ec] = txGetInt(tx, t.r.keyCursor(uid), 0)
					d := txGetInt(tx, t.r.keyDone(uid), -1)
					m.upDone[ec] = d
					if d < 0 {
						allDone = false
					}
				}
				m.stageDone[up] = allDone
			}
			if t.r.ft.has(capCheckpoint) {
				if v, ok := tx.Get(t.r.keyCheckpoint(cs.id)); ok {
					ck, err := decodeCheckpoint(v)
					if err != nil {
						return err
					}
					m.checkpoint = &ck
				}
			}
			out[i] = m
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// resetChannel synchronizes in-memory state with the GCS after a rewind
// (or on first touch): fresh operator, cursor and watermark from the GCS.
func (t *taskManager) resetChannel(cs *chanState, meta *chanMeta) error {
	// Rewind cleanup: release the dead operator's accounted memory and
	// delete its spill runs, then sweep stale run files of ANY earlier
	// incarnation of this channel from the local disk (recovery restart
	// must not leak pre-failure spill files).
	if sb, ok := cs.op.(ops.Spillable); ok {
		sb.DropSpill()
	}
	if t.spill != nil {
		t.w.Disk.DeletePrefix(spillChanPrefix(t.r.qid, cs.id))
	}
	cs.cep = meta.cep
	cs.cursor = meta.cursor
	cs.op = nil
	cs.pending = nil
	cs.done = false
	cs.lastCkpt = meta.cursor
	cs.spillOp, cs.spillBytes, cs.spillRuns = nil, 0, 0
	var wmErr error
	var done int
	t.r.gcsView(func(tx *gcs.Txn) error {
		cs.wm, wmErr = txGetWatermark(tx, t.r.keyWatermark(cs.id))
		done = txGetInt(tx, t.r.keyDone(cs.id), -1)
		return nil
	})
	if wmErr != nil {
		return wmErr
	}
	cs.done = done >= 0 && done == cs.cursor && cs.cursor > 0
	if cs.done {
		t.markDone(cs.id)
	}
	if cs.stage.Reader != nil {
		if cs.stage.Reader.Splits != nil {
			// The planner pruned: the cursor walks the survivor list, not
			// the physical split range.
			cs.splits = len(cs.stage.Reader.Splits)
		} else {
			n, err := TableSplits(t.r.cl.ObjStore, cs.stage.Reader.Table)
			if err != nil {
				return err
			}
			cs.splits = n
		}
	}
	return nil
}

// normalStep executes a task whose lineage is not yet determined: pick
// inputs dynamically (or per the static policy), then run the task the
// chosen record describes.
func (t *taskManager) normalStep(cs *chanState, meta *chanMeta) (bool, error) {
	if cs.stage.Reader != nil {
		return t.readerStep(cs)
	}
	choice, exhausted := t.chooseInput(cs, meta)
	switch {
	case choice != nil:
		return t.runTask(cs, lineage.Consume(choice.ec.Input, choice.ec.UpChannel, choice.from, choice.count), false)
	case exhausted:
		return t.runTask(cs, lineage.Finalize(), false) // the channel's final task
	}
	return false, nil // nothing consumable yet; task "exits without executing"
}

// runTask executes the task a lineage record describes — read a split, run
// the operator over a range of one upstream channel's outputs, or finalize —
// and finishes it (push, back up, commit). A record just chosen and a
// record retraced from the log run through here alike, which is what makes
// a replayed task's output the original's.
func (t *taskManager) runTask(cs *chanState, rec lineage.Record, isReplay bool) (bool, error) {
	p := &pendingTask{seq: cs.cursor, rec: rec, started: time.Now()}
	var err error
	switch rec.Kind {
	case lineage.KindRead:
		// rec.Split is physical, and every read of it uses the plan's column
		// projection: a replayed read is byte-identical.
		p.out, err = t.readSplit(cs.stage.Reader, rec.Split)
	case lineage.KindConsume:
		p.out, p.inRows, p.inBytes, err = t.consume(cs, rec)
	case lineage.KindFinalize:
		p.finalize = true
		if cs.op != nil { // a reader channel has no operator: it finalizes empty
			var outs []*batch.Batch
			if outs, err = cs.op.Finalize(); err != nil {
				return false, fmt.Errorf("engine: finalize %s: %w", cs.id, err)
			}
			if p.out, err = batch.Concat(outs); p.out != nil {
				t.chargeCompute(cs.op, p.out)
			}
		}
	default:
		err = fmt.Errorf("engine: %s: lineage record of unknown kind %d", cs.id, rec.Kind)
	}
	if err != nil {
		return false, err
	}
	cs.pending = p
	if isReplay {
		t.r.count(metrics.TasksReplayed, 1)
	}
	return t.finishTask(cs, p, isReplay)
}

// inputChoice is the selected upstream range for one task.
type inputChoice struct {
	ec    lineage.EdgeChannel
	from  int
	count int
}

// chooseInput implements the consumption policy. It returns nil with
// exhausted=true when every input edge is fully consumed (time to
// finalize), or nil with exhausted=false when the task should wait.
func (t *taskManager) chooseInput(cs *chanState, meta *chanMeta) (*inputChoice, bool) {
	// Establish the current phase: the smallest phase with an unexhausted
	// edge. Later-phase inputs are not consumable yet (build before probe).
	curPhase := -1
	allExhausted := true
	for e, in := range cs.stage.Inputs {
		done := true
		for uc := 0; uc < t.r.par[in.Stage]; uc++ {
			ec := lineage.EdgeChannel{Input: e, UpChannel: uc}
			if meta.upDone[ec] < 0 || cs.wm[ec] < meta.upDone[ec] {
				done = false
				break
			}
		}
		if !done {
			allExhausted = false
			if curPhase == -1 || in.Phase < curPhase {
				curPhase = in.Phase
			}
		}
	}
	if allExhausted {
		return nil, true
	}

	// The current phase's edges that could yield a task — upstream committed
	// cursor past this channel's watermark — go into ONE mailbox probe (which
	// also clears retransmissions below each watermark); none, no probe.
	var probes []flight.Edge
	for e, in := range cs.stage.Inputs {
		if in.Phase != curPhase {
			continue
		}
		// Stagewise execution: Spark-style barrier at shuffle boundaries —
		// consume nothing across a wide edge until the entire upstream
		// stage has finished. Narrow (Direct) edges fuse into the same
		// Spark stage and keep streaming, the way Spark fuses chains of
		// narrow dependencies.
		if t.r.cfg.Execution == Stagewise && in.Part.Kind != PartitionDirect && !meta.stageDone[in.Stage] {
			continue
		}
		for uc := 0; uc < t.r.par[in.Stage]; uc++ {
			ec := lineage.EdgeChannel{Input: e, UpChannel: uc}
			if meta.upCursor[ec] > cs.wm[ec] {
				probes = append(probes, flight.Edge{Input: e, UpChannel: uc, Watermark: cs.wm[ec]})
			}
		}
	}
	if len(probes) == 0 {
		return nil, false
	}

	var best *inputChoice
	for i, avail := range t.w.Flight.Probe(t.r.qid, cs.id, probes) {
		ec := lineage.EdgeChannel{Input: probes[i].Input, UpChannel: probes[i].UpChannel}
		wm := probes[i].Watermark
		avail = min(avail, meta.upCursor[ec]-wm) // only lineage-committed inputs count
		if avail <= 0 {
			continue
		}
		upFinished := meta.upDone[ec] >= 0
		var take int
		if t.r.cfg.Dynamic {
			// Consume as much as is available, but don't wake up for
			// dribbles while the producer is still running: tiny tasks
			// would drown the pipeline in per-task overhead. Once the
			// producer finishes, any remainder is consumed. Under
			// admission pressure takeScale coarsens both bounds, so each
			// committed task covers more rows and the head node sees
			// fewer transactions per query.
			scale := max(int(t.takeScale.Load()), 1)
			if !upFinished && avail < t.r.cfg.MinTake*scale {
				continue
			}
			take = min(avail, t.r.cfg.MaxTake*scale)
		} else {
			k := t.r.cfg.StaticBatch
			switch {
			case avail >= k:
				take = k
			case upFinished && wm+avail == meta.upDone[ec]:
				take = avail // final short batch
			default:
				continue // static policy: wait for a full batch
			}
		}
		if best == nil || take > best.count {
			best = &inputChoice{ec: ec, from: wm, count: take}
		}
	}
	return best, false
}

// consume runs the operator over the chosen inputs and returns the
// concatenated output (nil if no rows) plus the consumed input volume
// (rows and wire bytes, for the task's trace span).
func (t *taskManager) consume(cs *chanState, rec lineage.Record) (out *batch.Batch, inRows, inBytes int64, err error) {
	datas, err := t.w.Flight.Take(t.r.qid, cs.id, rec.Input, rec.UpChannel, rec.FromSeq, rec.Count)
	if err != nil {
		return nil, 0, 0, err
	}
	var outs []*batch.Batch
	for _, d := range datas {
		if len(d) == 0 {
			continue // empty partition: counts for the watermark only
		}
		b, err := batch.Decode(d)
		if err != nil {
			return nil, 0, 0, fmt.Errorf("engine: corrupt partition for %s: %w", cs.id, err)
		}
		if b.NumRows() == 0 {
			continue
		}
		inRows += int64(b.NumRows())
		inBytes += int64(len(d))
		t.chargeCompute(cs.op, b)
		o, err := cs.op.Consume(rec.Input, b)
		if err != nil {
			return nil, 0, 0, fmt.Errorf("engine: %s consume: %w", cs.id, err)
		}
		outs = append(outs, o...)
	}
	out, err = batch.Concat(outs)
	return out, inRows, inBytes, err
}

// chargeCompute applies the modelled operator-kernel cost of op processing
// b, adjusted by the configured kernel efficiency. The operator's share
// count is how many partitions execute the work concurrently: each share
// holds its own CPU slot for 1/shares of the payload, so partitioned
// operators finish in ~1/shares the modelled wall time when slots are free
// — the cost-model analogue of the real morsel parallelism in internal/ops.
func (t *taskManager) chargeCompute(op ops.Operator, b *batch.Batch) {
	if t.r.cl.Cost.TimeScale <= 0 {
		// Real time: nothing would be slept, so neither the operator nor a
		// CPU slot — the channel ops.Pool runs real partition lanes on — is
		// touched.
		return
	}
	// Shares are the CPU slots the operator really fans a batch of this many
	// rows out over: row-wise morsel operators run small batches on one lane,
	// and the model must not claim parallelism the kernels don't deliver.
	// (Finalize passes its output's row count; hash-partitioned operators,
	// the only ones with real finalize fan-out, ignore it.)
	bytes, shares := b.ByteSize(), 1
	if p, ok := op.(ops.Partitioned); ok {
		shares = p.SharesFor(b.NumRows())
	}
	link := t.r.cl.Cost.Compute
	if s := t.r.cfg.ComputeScale; s > 0 && s != 1 {
		link.BytesPerS *= s
		link.Latency = time.Duration(float64(link.Latency) / s)
	}
	if shares <= 1 {
		// Hold a CPU slot for the duration of the modelled kernel work.
		t.cpu <- struct{}{}
		t.r.cl.Cost.Apply(link, bytes)
		<-t.cpu
		return
	}
	share := bytes / int64(shares)
	var wg sync.WaitGroup
	for i := 0; i < shares; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t.cpu <- struct{}{}
			t.r.cl.Cost.Apply(link, share)
			<-t.cpu
		}()
	}
	wg.Wait()
}

// readerStep executes one input-reader task: read the channel's next
// split from the object store. With zone-map pruning the cursor walk
// indexes the survivor list, which is mapped to the physical split number
// before the read — and it is the PHYSICAL number that lineage records, so
// a replay never needs the survivor list to find the same bytes.
func (t *taskManager) readerStep(cs *chanState) (bool, error) {
	split := cs.id.Channel + cs.cursor*t.r.par[cs.id.Stage]
	if split >= cs.splits {
		return t.runTask(cs, lineage.Finalize(), false)
	}
	if spec := cs.stage.Reader; spec.Splits != nil {
		split = spec.Splits[split]
	}
	return t.runTask(cs, lineage.Read(split), false)
}

// readSplit reads one physical split for a reader spec, decoding only the
// columns the plan consumes and crediting the skipped column bytes.
func (t *taskManager) readSplit(spec *ReaderSpec, split int) (*batch.Batch, error) {
	b, skipped, err := ReadSplitCols(t.r.cl.ObjStore, spec.Table, split, spec.Cols)
	if err != nil {
		return nil, err
	}
	if skipped > 0 {
		t.r.count(metrics.ScanBytesSkipped, skipped)
	}
	return b, nil
}

// replayStep re-executes a task under its committed lineage: the task is
// "retracing its footsteps" (§IV-C) and may not choose inputs dynamically.
func (t *taskManager) replayStep(cs *chanState, rec lineage.Record) (bool, error) {
	// All replayed inputs must be present; if replays are still in flight,
	// wait.
	edge := flight.Edge{Input: rec.Input, UpChannel: rec.UpChannel, Watermark: rec.FromSeq}
	if rec.Kind == lineage.KindConsume && t.w.Flight.Probe(t.r.qid, cs.id, []flight.Edge{edge})[0] < rec.Count {
		return false, nil
	}
	return t.runTask(cs, rec, true)
}

// finishTask is the core of Algorithm 1, a straight line: encode the task's
// output once, persist what the FT policy wants durable before a consumer
// can see it, push, persist the producer-local backup, commit the
// write-ahead lineage in one flush, then the post-commit bookkeeping. The
// three persist steps (persist.go) each ask the policy for their capability
// and are no-ops without it. isReplay skips re-writing lineage that is
// already committed.
func (t *taskManager) finishTask(cs *chanState, p *pendingTask, isReplay bool) (bool, error) {
	task := lineage.TaskName{Stage: cs.id.Stage, Channel: cs.id.Channel, Seq: p.seq}
	// One serialization serves the push, the spool and the upstream backup,
	// under every FT mode; the modes differ only in where else the bytes go.
	// A retry of a pending task finds it built. The codec choice is invisible
	// downstream (frames are self-describing and decode to identical bytes),
	// so compressed backups and spools replay exactly like raw ones.
	edges := t.r.plan.Consumers(cs.id.Stage)
	if p.out != nil {
		if err := t.encodeOutput(p, edges, cs.id.Channel); err != nil {
			return false, err
		}
	}

	if err := t.persistBeforePush(cs, task, p, isReplay); err != nil {
		return false, err
	}

	// Push results downstream. Per Algorithm 1, a failed push (dead
	// consumer) aborts the task without committing; the pending outputs
	// are retried after recovery re-places the consumer. Push failures
	// are transient by construction, never fatal.
	var pushStart time.Time
	if t.r.rec != nil {
		pushStart = time.Now()
	}
	if err := t.pushOutputs(cs, task, p, edges); err != nil {
		return false, nil
	}
	if t.r.rec != nil {
		t.r.rec.Record(trace.Span{Kind: trace.KindPush, Replay: isReplay, Worker: int(t.w.ID),
			Stage: cs.id.Stage, Channel: cs.id.Channel, Seq: p.seq, Epoch: cs.cep,
			Start: pushStart, Dur: time.Since(pushStart), OutBytes: int64(len(p.payload))})
	}

	if err := t.persistAfterPush(task, p); err != nil {
		return false, err
	}

	// Commit: lineage + cursor + watermark (+ done marker) atomically. The
	// write set is handed to the cluster's shared committer, whose flush
	// folds commits from many channels — across every admitted query — into
	// one GCS transaction (or, with batching off, carries this one alone);
	// commit-before-ack ordering is preserved because this call blocks until
	// the flush containing it has been applied.
	wmAfter := cs.wm
	if p.rec.Kind == lineage.KindConsume {
		wmAfter = cs.wm.Clone()
		wmAfter[lineage.EdgeChannel{Input: p.rec.Input, UpChannel: p.rec.UpChannel}] += p.rec.Count
	}
	err := t.gc.commit(&commitReq{
		r:        t.r,
		alive:    t.w.Alive,
		workerID: int(t.w.ID),
		id:       cs.id,
		cep:      cs.cep,
		stepGep:  cs.stepGep,
		task:     task,
		rec:      p.rec,
		wmAfter:  wmAfter,
		finalize: p.finalize,
		isReplay: isReplay,
	})
	if err != nil {
		if err == gcs.ErrAborted {
			return false, nil // keep pending; retried after barrier/rewind
		}
		return false, err
	}

	// Post-commit bookkeeping.
	if p.rec.Kind == lineage.KindConsume {
		t.w.Flight.Drop(t.r.qid, cs.id, p.rec.Input, p.rec.UpChannel, p.rec.FromSeq, p.rec.Count)
	}
	cs.wm = wmAfter
	cs.cursor = p.seq + 1
	cs.pending = nil
	if p.finalize {
		cs.done = true
		t.markDone(cs.id)
		// The channel is complete: its spill runs (if any survive the
		// operator's own finalize cleanup) are garbage now.
		if sb, ok := cs.op.(ops.Spillable); ok {
			sb.DropSpill()
		}
	}
	t.r.count(metrics.TasksExecuted, 1)
	lat := time.Since(p.started)
	t.r.hTask.observe(int64(lat))
	if t.r.rec != nil {
		var spillB, spillR int64
		if cs.spillOp != nil {
			wb, wr := cs.spillOp.WrittenBytes(), cs.spillOp.WrittenRuns()
			spillB, spillR = wb-cs.spillBytes, wr-cs.spillRuns
			cs.spillBytes, cs.spillRuns = wb, wr
		}
		t.r.rec.Record(trace.Span{Kind: trace.KindTask, Replay: isReplay, Worker: int(t.w.ID),
			Stage: cs.id.Stage, Channel: cs.id.Channel, Seq: p.seq, Epoch: cs.cep,
			Start: p.started, Dur: lat,
			InRows: p.inRows, InBytes: p.inBytes,
			OutRows: p.outRows, OutBytes: int64(len(p.payload)),
			SpillBytes: spillB, SpillRuns: spillR})
	}

	t.persistAfterCommit(cs, p)
	return true, nil
}

// encodeOutput serializes a pending task's output, once: with consumer
// edges it becomes a piece set, without (the output stage) the whole-output
// frame that is the result partition. The batch is released; retries, the
// backup and the spool all use the bytes.
func (t *taskManager) encodeOutput(p *pendingTask, edges []Edge, prodChannel int) error {
	if p.out.NumRows() > 0 {
		p.outRows = int64(p.out.NumRows())
		if len(edges) == 0 {
			if t.r.cfg.ShuffleCompress {
				p.payload = batch.EncodeCompressed(p.out)
			} else {
				p.payload = batch.Encode(p.out)
			}
		} else {
			var err error
			if p.payload, p.pieces, err = t.encodePieces(p.out, edges, prodChannel); err != nil {
				return err
			}
		}
	}
	p.out = nil
	return nil
}

// pieceBufs recycles the buffers piece sets are built in: a set is
// assembled in a pooled buffer that has already grown to a typical task's
// size, then copied once into the exactly sized container that mailboxes,
// the backup and the spool hold on to.
var pieceBufs = sync.Pool{New: func() any { return new([]byte) }}

// encodePieces serializes a non-empty output for every consumer edge of
// its stage into one piece set and indexes it. prodChannel is the producing
// channel (used by direct edges).
func (t *taskManager) encodePieces(out *batch.Batch, edges []Edge, prodChannel int) ([]byte, pieceSet, error) {
	bp := pieceBufs.Get().(*[]byte)
	w := beginPieceSet((*bp)[:0], edges, t.r.par)
	var err error
	for _, e := range edges {
		if err = t.partitionFor(&w, out, e, prodChannel); err != nil {
			break
		}
	}
	set := bytes.Clone(w.buf)
	*bp = w.buf
	pieceBufs.Put(bp)
	if err != nil {
		return nil, nil, err
	}
	ps, err := parsePieceSet(set)
	return set, ps, err
}

// pushOutputs pushes a task's pieces to the Flight servers of the consuming
// channels' workers. Output-stage tasks deliver to the head-node collector
// instead. Empty partitions are still pushed: watermarks count them.
func (t *taskManager) pushOutputs(cs *chanState, task lineage.TaskName, p *pendingTask, edges []Edge) error {
	if len(edges) == 0 {
		// Result spooling (default): keep the payload on this worker and
		// hand the head only a manifest, so N concurrent queries' result
		// traffic doesn't serialize through the head-node link. Empty
		// partitions carry no bytes and are delivered directly — a fetch
		// round-trip for them would be pure overhead.
		if t.r.cfg.DisableResultSpool || len(p.payload) == 0 {
			if !t.r.sink.Deliver(task, p.payload, cs.cep) {
				// Cursor backpressure: the head-node buffer is full. Keep the
				// task pending (uncommitted) and retry once the consumer pulls.
				return errCollectorFull
			}
			t.r.count(metrics.HeadResultBytes, int64(len(p.payload)))
			return nil
		}
		if err := t.w.Flight.SpoolResult(t.r.qid, task, p.payload, cs.cep); err != nil {
			return err // worker dying: transient, like a failed push
		}
		if !t.r.sink.DeliverSpooled(task, int(t.w.ID), int64(len(p.payload)), cs.cep) {
			return errCollectorFull
		}
		t.r.count(metrics.HeadResultBytes, resultManifestBytes)
		return nil
	}
	for ei, e := range edges {
		for cc := 0; cc < t.r.par[e.To]; cc++ {
			data, _ := p.pieces.piece(ei, cc)
			dest := lineage.ChannelID{Stage: e.To, Channel: cc}
			if err := t.pushPiece(task, dest, e.Input, data, cs.cep); err != nil {
				return err
			}
			t.r.count(metrics.PartitionsMoved, 1)
		}
	}
	return nil
}

// pushPiece delivers one piece to the worker hosting its consumer channel.
func (t *taskManager) pushPiece(from lineage.TaskName, dest lineage.ChannelID, input int, data []byte, epoch int) error {
	wid, err := t.r.placement(dest)
	if err != nil {
		return err
	}
	dw := t.r.cl.Worker(cluster.WorkerID(wid))
	local := dw.ID == t.w.ID || len(data) == 0
	if err := dw.Flight.Push(flight.Partition{
		Query: t.r.qid, From: from, Dest: dest, Input: input, Data: data,
		Epoch: epoch, Local: local,
	}); err != nil {
		return err
	}
	if !local {
		// The flight server counts network traffic into the cluster
		// collector; attribute it to this query as well.
		t.r.qmet.Add(metrics.NetworkBytes, int64(len(data)))
		t.r.qmet.Add(metrics.NetworkPushes, 1)
	}
	return nil
}

// errCollectorFull is the transient push failure raised when the streaming
// cursor's head-node buffer is full; like a dead-consumer push failure it
// keeps the task pending instead of failing the query.
var errCollectorFull = fmt.Errorf("engine: head-node cursor buffer full")

// resultManifestBytes is the modelled wire size of a spooled-result
// manifest (task name + worker + size) — what the head receives instead of
// the payload when result spooling is on.
const resultManifestBytes = 48

// partitionFor splits a non-empty output batch for one consumer edge and
// appends one encoded piece per consumer channel to the piece set (an empty
// partition is a zero-length piece; a broadcast edge is one shared piece).
// prodChannel is the producing channel (used by direct edges). Routing
// (HashPartition over the key encoding) happens on the decoded batch and
// is untouched by the codec choice — compression only changes the bytes a
// partition travels as, never which partition a row lands in.
func (t *taskManager) partitionFor(w *pieceSetWriter, out *batch.Batch, e Edge, prodChannel int) error {
	n := t.r.par[e.To]
	encode := func(b *batch.Batch) {
		if t.r.cfg.ShuffleCompress {
			w.buf = batch.AppendCompressed(w.buf, b)
		} else {
			w.buf = batch.AppendRaw(w.buf, b)
		}
		t.r.count(metrics.ShuffleRawBytes, int64(batch.RawEncodedSize(b)))
		t.r.count(metrics.ShuffleWireBytes, int64(len(w.buf)-w.mark))
	}
	// only sends the whole output to one channel of n.
	only := func(target int) {
		for i := 0; i < n; i++ {
			if i == target {
				encode(out)
			}
			w.add()
		}
	}
	switch e.Part.Kind {
	case PartitionSingle:
		only(0)
	case PartitionDirect:
		only(prodChannel % n)
	case PartitionBroadcast:
		encode(out)
		w.add()
	case PartitionHash:
		for _, k := range e.Part.Keys {
			if out.Schema.Index(k) < 0 {
				return fmt.Errorf("engine: partition key %q missing from output schema %s", k, out.Schema)
			}
		}
		for _, pb := range out.HashPartition(e.Part.Keys, n) {
			if pb.NumRows() > 0 {
				encode(pb)
			}
			w.add()
		}
	}
	return nil
}

// runReplays drains this worker's replay queue: re-pushing backed-up
// partitions (rp/) and re-reading input splits (rpi/) for rewound
// consumers. These are the light-blue recovery tasks of Figure 5.
func (t *taskManager) runReplays() (ran, drained bool) {
	prefixRp := fmt.Sprintf("%srp/%d/", t.r.keyNS(), t.w.ID)
	prefixRpi := fmt.Sprintf("%srpi/%d/", t.r.keyNS(), t.w.ID)
	var rp, rpi []string
	dests := make(map[string][]byte)
	var gep int
	t.r.gcsView(func(tx *gcs.Txn) error {
		gep = txGetInt(tx, t.r.keyGlobalEpoch(), 0)
		rp = tx.List(prefixRp)
		rpi = tx.List(prefixRpi)
		for _, k := range append(append([]string(nil), rp...), rpi...) {
			if v, ok := tx.Get(k); ok {
				dests[k] = v
			}
		}
		return nil
	})
	for _, k := range rp {
		if t.runOneReplay(k, strings.TrimPrefix(k, prefixRp), dests[k], false, gep) {
			ran = true
		}
	}
	for _, k := range rpi {
		if t.runOneReplay(k, strings.TrimPrefix(k, prefixRpi), dests[k], true, gep) {
			ran = true
		}
	}
	return ran, len(rp)+len(rpi) == 0
}

// runOneReplay executes a single replay entry and removes it from the GCS.
func (t *taskManager) runOneReplay(fullKey, rest string, destsRaw []byte, fromSource bool, gep int) bool {
	task, err := lineage.ParseTaskName(rest)
	if err != nil {
		return false
	}
	var replayStart time.Time
	if t.r.rec != nil {
		replayStart = time.Now()
	}
	dests, err := parseReplayDests(destsRaw)
	if err != nil || len(dests) == 0 {
		return false
	}
	// The pieces to re-push: stored ones, exactly as first pushed, wherever a
	// backup or spool object exists; only an input re-read has to rebuild
	// them from the source split.
	edges := t.r.plan.Consumers(task.Stage)
	var pieces pieceSet
	if fromSource {
		// Re-read the split named by the committed lineage.
		var rec lineage.Record
		found := false
		t.r.gcsView(func(tx *gcs.Txn) error {
			if v, ok := tx.Get(t.r.keyLineage(task)); ok {
				if r2, err := lineage.DecodeRecord(v); err == nil {
					rec, found = r2, true
				}
			}
			return nil
		})
		if !found {
			return false
		}
		switch rec.Kind {
		case lineage.KindRead:
			st := t.r.plan.Stages[task.Stage]
			if st.Reader == nil {
				return false
			}
			// Same physical split, same column projection as the original
			// read — the replayed output is byte-identical.
			out, err := t.readSplit(st.Reader, rec.Split)
			if err != nil {
				return false
			}
			if out.NumRows() > 0 {
				if _, pieces, err = t.encodePieces(out, edges, task.Channel); err != nil {
					return false
				}
			}
		case lineage.KindFinalize:
			// A reader's final task produced an empty partition; re-push
			// the emptiness so the consumer's watermark can pass it.
		default:
			return false
		}
	} else {
		stored, err := t.storedPieceSet(task)
		if err != nil {
			return false // disk lost; the next recovery pass reroutes
		}
		if pieces, err = parsePieceSet(stored); err != nil {
			return false
		}
	}

	// Push only the pieces destined for the rewound consumers (one per
	// input edge feeding each destination stage), re-reading the backup
	// once for all of them.
	pushed := false
	for _, dest := range dests {
		for ei, e := range edges {
			if e.To != dest.Stage {
				continue
			}
			data, ok := pieces.piece(ei, dest.Channel)
			if !ok {
				return false
			}
			if err := t.pushPiece(task, dest, e.Input, data, flight.EpochCommitted); err != nil {
				return false
			}
			pushed = true
		}
	}
	if !pushed {
		return false
	}
	t.r.count(metrics.RecoveryReplays, 1)
	if t.r.rec != nil {
		// The recovery re-push of a backed-up partition (Figure 5's light-
		// blue recovery task), stamped with the recovery's global epoch.
		t.r.rec.Record(trace.Span{Kind: trace.KindPush, Replay: true, Worker: int(t.w.ID),
			Stage: task.Stage, Channel: task.Channel, Seq: task.Seq, Epoch: gep,
			Start: replayStart, Dur: time.Since(replayStart)})
	}
	err = t.r.gcsUpdate(func(tx *gcs.Txn) error {
		if txGetInt(tx, t.r.keyGlobalEpoch(), 0) != gep {
			return gcs.ErrAborted // placement changed; redo with a fresh view
		}
		tx.Delete(fullKey)
		return nil
	})
	return err == nil
}
