package engine

import (
	"context"
	"sync"
	"time"

	"quokka/internal/batch"
	"quokka/internal/cluster"
	"quokka/internal/gcs"
	"quokka/internal/lineage"
	"quokka/internal/metrics"
	"quokka/internal/ops"
	"quokka/internal/spill"
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

	// replayGen is the last recovery generation whose replay queue this
	// TaskManager has fully drained; prefix scans of the replay queue
	// only happen after a recovery, never in steady state. replayLock
	// ensures a single thread drains the queue at a time.
	replayGen  int
	replayLock sync.Mutex
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
	// snap is the image the current step runs under: where its pushes go and
	// the global epoch that fences its commit come from this one read.
	snap *snapshot

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
		// The CPU slot pool is a WORKER resource shared by every in-flight
		// query: concurrent queries' channels (and their partition lanes)
		// compete for the same modelled cores instead of each bringing
		// their own.
		cpu: r.shared.cpuFor(w.ID, r.cfg.CPUPerWorker),
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
		if barrier != 0 {
			t.ackBarrier(barrier)
			time.Sleep(t.r.cfg.PollInterval)
			continue
		}
		if progressed {
			idle = t.r.cfg.PollInterval
			continue
		}
		// Exponential idle backoff keeps control-store pressure bounded
		// on wide clusters while staying responsive under load.
		time.Sleep(idle)
		if idle < 16*t.r.cfg.PollInterval {
			idle *= 2
		}
	}
}

// poll runs one round over the worker's channels and replay queue under one
// snapshot of the query's namespace — the round's only read of the control
// store, and none at all while the namespace version has not moved — keeping
// the control plane cost per task negligible, as the paper reports for its
// optimized naming scheme (§IV-B). A raised barrier ends the round: its
// generation is returned for the caller to acknowledge.
func (t *taskManager) poll() (progressed bool, barrier int) {
	snap, err := t.r.snapshot()
	if err != nil {
		if t.w.Alive() {
			t.r.reportFailure(err)
		}
		return false, 0
	}
	if snap.bar != 0 {
		return false, snap.bar
	}
	t.refreshChannels(snap)

	// Replay queues are only populated by recovery; skip the prefix scans
	// entirely in steady state and once this generation's queue drained.
	t.mu.Lock()
	needReplays := snap.recn > 0 && t.replayGen < snap.recn
	t.mu.Unlock()
	if needReplays && t.replayLock.TryLock() {
		ran, drained := t.runReplays(snap)
		t.replayLock.Unlock()
		if ran {
			progressed = true
		}
		if drained && !ran {
			t.mu.Lock()
			if snap.recn > t.replayGen {
				t.replayGen = snap.recn
			}
			t.mu.Unlock()
		}
	}
	t.mu.Lock()
	states := make([]*chanState, 0, len(t.channels))
	for _, cs := range t.channels {
		states = append(states, cs)
	}
	t.mu.Unlock()
	for _, cs := range states {
		if !cs.protocol.TryLock() {
			continue
		}
		ok, err := t.step(cs, snap)
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
	return progressed, 0
}

// ackBarrier records that this TaskManager has quiesced under barrier
// generation gen, implementing the GCS-level lock of §IV-B. gen is the
// barrier the round's snapshot showed; should it have dropped since, the
// acknowledgment is harmless (recover waits for the generation it raised).
func (t *taskManager) ackBarrier(gen int) {
	t.mu.Lock()
	already := gen == t.ackedBar
	t.ackedBar = gen
	t.mu.Unlock()
	if already {
		return
	}
	t.r.gcsUpdate(func(tx *gcs.Txn) error {
		txPutInt(tx, t.r.keyAck(int(t.w.ID)), gen)
		return nil
	})
}

// refreshChannels re-derives the set of channels placed on this worker when
// the global epoch moves (initially and after each recovery): the rows of
// the snapshot whose placement is this worker. The epoch only grows, so an
// older image held by a slow thread never moves the set backwards.
func (t *taskManager) refreshChannels(snap *snapshot) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if snap.gep <= t.gep {
		return
	}
	mine := make(map[lineage.ChannelID]bool)
	for s, row := range snap.chans {
		for c := range row {
			if row[c].place == int(t.w.ID) {
				mine[lineage.ChannelID{Stage: s, Channel: c}] = true
			}
		}
	}
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
	t.gep = snap.gep
}
