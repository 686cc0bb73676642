package engine

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"quokka/internal/batch"
	"quokka/internal/cluster"
	"quokka/internal/flight"
	"quokka/internal/lineage"
	"quokka/internal/metrics"
	"quokka/internal/ops"
	"quokka/internal/spill"
	"quokka/internal/storage"
)

// taskManager runs the channels placed on one worker. It is the paper's
// TaskManager (§IV-A): a stateless reader of the GCS executing Algorithm 1
// steps when the query's namespace moves. All inter-component coordination
// flows through the GCS; the only state a TaskManager keeps in memory is the
// operator state of its channels, reconstructable from the lineage log.
type taskManager struct {
	r *Runner
	w *cluster.Worker
	// mb and disk are the owner's view of w — the consuming side of its
	// mailbox, its local disk — which only the process hosting w has.
	mb   flight.Mailbox
	disk storage.Disk

	mu       sync.Mutex
	channels map[lineage.ChannelID]*chanState
	gep      int // global epoch the channel set was loaded at

	// cpu bounds concurrently modelled kernel work on this worker: I/O
	// waits (S3 reads, shuffle pushes, disk writes) do not hold a slot,
	// so compute overlaps I/O exactly as in an engine with async reads.
	cpu chan struct{}

	// spill is the worker's memory-governance context (nil when
	// Config.MemoryBudget is 0): one accountant shared by all channels on
	// this worker, spilling operator state to the worker's local disk.
	spill *spill.Context

	// replayLock lets one thread at a time drain the worker's replay queue;
	// retired maps each entry it retired to the fencing global epoch, so an
	// older image still listing it does not run it again (a later recovery
	// may queue the key anew).
	replayLock sync.Mutex
	retired    map[string]int

	// watch holds the worker's one watcher token (loop): an idle thread parks on
	// the namespace version only while it has taken it; queued wait for it.
	watch  chan struct{}
	queued atomic.Int32
}

// chanState is the in-memory execution state of one channel: the operator
// instance (the paper's "state variable"), plus caches of the channel's
// GCS coordinates.
type chanState struct {
	// protocol serializes the Algorithm 1 task protocol (input choice,
	// lineage commit, cursor advance) — channel tasks stay sequential, as
	// the lineage log requires, and so does the operator they run.
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
	// the global epoch that fences its commit come from this one read. yield,
	// set beside it, hands the stepping thread's watcher token on (loop).
	snap  *snapshot
	yield func()
	// idle is the image of the channel's last step when that step found
	// nothing to do; nil after one that made progress, left a task pending or
	// failed. poll steps the channel again only under an image that changes
	// something the step read (snapshot.changesFor).
	idle *snapshot

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
	rec      *lineage.Record // the consumed range; nil for a read or a last task
	gens     []uint64        // the generation of each slot of rec's take, for Drop
	outs     []*batch.Batch  // the operator's output batches, in order; nil once encoded
	finalize bool
	replay   bool // a retrace of rec, which is committed already

	// The task's one serialization, built by the first finishTask: the piece
	// set of a stage with consumers (pieces indexes it), the result frame of
	// an output-stage task. nil for an empty output. Pieces depend on channel
	// counts and on which consumers sat on this worker when they were built
	// (elided slots); a consumer leaves a live worker never, so they stay
	// valid across a recovery. They keep the batch behind each piece, for
	// same-worker pushes, until commit.
	payload []byte
	pieces  pieceSet
	outRows int64
	// mark is the checkpoint mark the commit carries, once its snapshot is
	// stored (persistBeforeCommit); nil when none is due.
	mark []byte

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
		r: r, w: w, mb: w.Mailbox, disk: w.Disk,
		channels: map[lineage.ChannelID]*chanState{},
		gep:      -1,
		retired:  map[string]int{},
		// The CPU slot pool is a WORKER resource shared by every in-flight
		// query: concurrent queries' channels compete for the same modelled
		// cores instead of each bringing their own.
		cpu:   r.shared.cpuFor(w.ID, r.cfg.CPUPerWorker),
		watch: make(chan struct{}, 1),
	}
	t.watch <- struct{}{}
	if r.cfg.MemoryBudget > 0 {
		// The accountant is per query per worker (MemoryBudget is a query
		// knob). The tee collector routes spill metrics into both the
		// cluster-wide and the per-query counters.
		acct := spill.NewAccountant(r.cfg.MemoryBudget, r.tee)
		t.spill = spill.NewContext(t.disk, acct, r.tee, spill.DefaultPartitions)
	}
	return t
}

// loop is one executor thread. Multiple threads of the same TaskManager
// share the channel map; the per-channel claim lock keeps a channel's
// tasks sequential, as the execution model requires.
//
// A thread scans (poll) under the image of the version it last saw, again
// while that makes progress. Only a commit makes a channel runnable — inputs
// count once their lineage is persisted, a recovery is one, a replay entry is
// written by one — so with nothing to do it waits for the version to pass the
// one it scanned under; a commit of this process's own moves it without a
// load, its committer having published the image the flush produced. A
// round steps only the channels the new image changed (poll), so a commit
// costs the channels that read the committed row, not the worker's all. One
// thread per worker waits, the holder of the watcher token, and the rest
// queue for it: every idle thread
// waiting is a herd, each re-reading the image and re-probing every mailbox
// per commit. The watcher hands the token on before it does work
// (chanState.yield, poll), so while something runs, something watches. A
// fruitless scan does not wait if a newer image was published meanwhile:
// another thread may have skipped, on TryLock, the channel this one held under
// the older image. What is no commit — a cursor draining the collector — is
// retried at the next commit or after the fallback, 16 poll intervals.
func (t *taskManager) loop(ctx context.Context) {
	var seen uint64        // the version of the image last scanned under
	var wait time.Duration // how long the next gcsAwait may park
	watching := false      // this thread holds the watcher token
	yield := func() {
		if watching {
			watching = false
			t.watch <- struct{}{}
		}
	}
	for ctx.Err() == nil {
		ver := t.r.gcsAwait(ctx, seen, wait)
		alone := wait > 0 && int(t.queued.Load()) == t.r.cfg.ThreadsPerWorker-1
		progressed, scanned := t.poll(ver, yield)
		if progressed && alone && scanned == seen {
			// A timer ended the wait, every other thread was queued, and under
			// the same image there is work: nothing was going to wake this worker.
			t.r.count(metrics.WaitFallbackHits, 1)
		}
		seen, wait = scanned, 0
		if s := t.r.snap.Load(); progressed || s != nil && s.ver > seen {
			continue
		}
		if !watching {
			t.queued.Add(1)
			select {
			case <-t.watch:
				watching = true
			case <-ctx.Done():
				return
			}
			t.queued.Add(-1)
		}
		wait = 16 * t.r.cfg.PollInterval
	}
}

// poll runs one round over the worker's channels and replay queue under the
// image of namespace version ver — the round's only read of the control store,
// and none at all while the version has not moved, or moved only by flushes
// of this process's own that the committer advanced the image past — keeping
// the control plane cost per task negligible, as the paper reports for its
// optimized naming scheme (§IV-B). yield is called before any work is done;
// scanned is the version of the image the round ran under, ver or newer.
//
// A channel whose last step found nothing to do keeps the image of that step
// (chanState.idle) and is skipped, neither stepped nor probed, until an image
// changes what the step read: the global epoch, a replay entry that names the
// channel, its own row, the row of a stage it consumes (snapshot.changesFor).
// No wake-up is lost to this. A step reads the mailbox besides the image, and
// a piece reaches it only before a commit that moves a row: its producer
// pushes before it commits, and a replay entry that names the channel is
// retired after its re-push. A step that made progress, left a task pending — a push refused,
// the collector full: retried every round, as no commit need follow — or
// failed keeps no record.
func (t *taskManager) poll(ver uint64, yield func()) (progressed bool, scanned uint64) {
	snap, err := t.r.snapshotAt(ver)
	if err != nil {
		if t.w.Alive() {
			t.r.reportFailure(err)
		}
		return false, ver
	}
	if !t.refreshChannels(snap) {
		// A slow thread's image from before the recovery that made the channel
		// set: a fresh channel would take its pre-rewind row for news and run
		// the dead incarnation's round — its replay retrace or its choice of
		// inputs — as its own.
		return false, snap.ver
	}

	// Replay queues exist only after a recovery; in steady state the image
	// holds none and this costs nothing.
	if len(snap.replays) > 0 && t.replayLock.TryLock() {
		progressed = t.runReplays(snap, yield)
		t.replayLock.Unlock()
	}
	t.mu.Lock()
	states := make([]*chanState, 0, len(t.channels))
	for _, cs := range t.channels {
		states = append(states, cs)
	}
	t.mu.Unlock()
	var run, skipped int64
	for _, cs := range states {
		if !cs.protocol.TryLock() {
			continue
		}
		if cs.idle != nil && !cs.idle.changesFor(snap, cs.id, cs.stage.Inputs) {
			cs.idle = snap // equal in all the step read, and more likely shared with the next
			cs.protocol.Unlock()
			skipped++
			continue
		}
		cs.yield = yield
		ok, err := t.step(cs, snap)
		run++
		cs.idle = nil
		if !ok && err == nil && cs.pending == nil {
			cs.idle = snap
		}
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
	if run > 0 {
		t.r.cStepsRun.add(run)
	}
	if skipped > 0 {
		t.r.cStepsSkipped.add(skipped)
	}
	return progressed, snap.ver
}

// refreshChannels re-derives the set of channels placed on this worker when
// the global epoch moves (initially and after each recovery): the rows of
// the snapshot whose placement is this worker. The epoch only grows, so an
// older image held by a slow thread never moves the set backwards; it reports
// whether snap is of the set's epoch, the only images a round may run under.
func (t *taskManager) refreshChannels(snap *snapshot) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if snap.gep <= t.gep {
		return snap.gep == t.gep
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
			t.channels[id] = &chanState{id: id, stage: t.r.plan.Stages[id.Stage], cep: -1, yield: func() {}}
		}
	}
	t.gep = snap.gep
	return true
}
