package engine

import (
	"context"
	"time"

	"quokka/internal/gcs"
	"quokka/internal/lineage"
	"quokka/internal/metrics"
	"quokka/internal/trace"
)

// groupCommitter batches per-task lineage commits into shared GCS
// transactions — the write-ahead lineage analogue of database group
// commit. ONE committer serves the whole cluster: commits from EVERY
// admitted query fold into the same flush transaction (gcs.UpdateMulti
// spans their namespaces), so batch width grows with the admission level
// at exactly the point where one-transaction-per-task would knee the head
// node over. Task managers enqueue a commit request and block until their
// flush transaction commits (or their entry is fenced off), so the
// protocol ordering of Algorithm 1 is unchanged per query: a task's
// outputs become consumable only after its lineage is durable in the GCS,
// and the task is acknowledged only after that.
//
// Batching arises naturally: while one flush transaction is in flight
// (paying the GCS round-trip cost), commits from every in-flight query's
// executor threads queue up and fold into the next transaction. Nothing
// holds a flush open, so batching adds no latency.
//
// flush is the only GCS write a worker makes: a task commit (with its
// checkpoint mark, when one is due) and the retirement of a replay entry are
// both entries of it, each under its own fences. A flush moves each of its
// queries' namespace version; where it was the only write since the image
// the query's rounds run under, the committer publishes the image it
// produced before acking (advanceImage), so no round reloads it.
//
// The committer is started by the first task manager to come up and
// stopped when the last one exits (see clusterShared, runTaskManager).
type groupCommitter struct {
	store  gcs.Backend
	reqs   chan *commitReq
	stopCh chan struct{}
	done   chan struct{}
}

// commitReq carries everything one flush entry writes, plus the fences
// guarding it. Values are copied in by the requester (which holds the
// channel's protocol lock), so the flusher never touches chanState. The
// runner pointer scopes every key to the request's own query namespace and
// carries its policy (whether lineage is logged, whether there is a backup).
// An entry is a task commit, or — retire set — a replay entry's retirement,
// which writes nothing else and is fenced on no channel.
type commitReq struct {
	r        *Runner
	alive    func() bool // requester worker's liveness
	workerID int
	id       lineage.ChannelID
	cep      int
	gep      int // global epoch of the snapshot the task's pushes were placed by
	task     lineage.TaskName
	rec      lineage.Record
	finalize bool
	isReplay bool
	mark     []byte // encoded checkpoint mark written beside the cursor, or nil
	retire   string // the rp/ key a drained replay entry deletes
	resp     chan error
}

// logsLineage reports whether this commit writes a lineage record: a replay
// retraces a record that is already committed, a retirement commits no task,
// and a query without the lineage capability logs none.
func (q *commitReq) logsLineage() bool {
	return !q.isReplay && q.retire == "" && q.r.ft.has(capLineage)
}

func newGroupCommitter(store gcs.Backend) *groupCommitter {
	g := &groupCommitter{
		store:  store,
		reqs:   make(chan *commitReq, 1024),
		stopCh: make(chan struct{}),
		done:   make(chan struct{}),
	}
	go g.loop()
	return g
}

// commit queues an entry for the flusher and blocks until its flush resolves.
// Returns gcs.ErrAborted when the entry was fenced off (channel rewound,
// epoch changed, worker died) — a task then stays pending and is retried, a
// replay entry stays queued.
// The enqueue-to-resolve time is the requesting query's flush latency.
func (g *groupCommitter) commit(req *commitReq) error {
	req.resp = make(chan error, 1)
	start := time.Now()
	g.reqs <- req
	err := <-req.resp
	req.r.hFlush.observe(int64(time.Since(start)))
	return err
}

// stop shuts the flusher down. Must only be called once no
// acquirer remains (clusterShared refcounts them, and runTaskManager only
// releases after its task-manager threads exited), so no requester can be
// left waiting; any residue in the queue is refused.
func (g *groupCommitter) stop() {
	close(g.stopCh)
	<-g.done
}

func (g *groupCommitter) loop() {
	defer close(g.done)
	for {
		var first *commitReq
		select {
		case first = <-g.reqs:
		case <-g.stopCh:
			g.drainAbort()
			return
		}
		batch := []*commitReq{first}
		// Opportunistic drain: everything queued while we were flushing joins
		// this transaction.
	drain:
		for {
			select {
			case r2 := <-g.reqs:
				batch = append(batch, r2)
			default:
				break drain
			}
		}
		g.flush(batch)
	}
}

// drainAbort refuses whatever is left in the queue at shutdown.
func (g *groupCommitter) drainAbort() {
	for {
		select {
		case req := <-g.reqs:
			req.resp <- gcs.ErrAborted
		default:
			return
		}
	}
}

// flush commits a batch of entries — possibly spanning several queries — in
// ONE GCS transaction over their namespaces' shards. Each entry keeps its
// own fences: entries whose worker died, whose placement epoch moved, or —
// a task commit — whose channel was rewound are refused individually while
// the rest commit — identical outcomes to flushing each entry alone, just
// amortized onto one head-node round trip. (A query's recovery is one
// transaction on its namespace shard that moves the epoch, so this
// transaction serializes against it: before it, and recovery sees the
// entry; after it, and the entry is refused. From a worker process the
// fences are its read set, which the head validates.)
func (g *groupCommitter) flush(batch []*commitReq) {
	errs := make([]error, len(batch))
	geps := make(map[*Runner]int, 4)        // each query's live global epoch
	prevs := make(map[*Runner]*snapshot, 4) // each query's image before the commit
	nss := make([]string, 0, 4)
	for _, req := range batch {
		if _, ok := geps[req.r]; !ok {
			geps[req.r] = 0
			prevs[req.r] = req.r.snap.Load()
			nss = append(nss, req.r.keyNS())
		}
	}
	var bytes int64
	flushStart := time.Now()
	err := g.store.UpdateMulti(nss, func(tx *gcs.Txn) error {
		clear(errs) // a remote backend re-runs a body whose fences moved under it
		for r := range geps {
			geps[r] = txGetInt(tx, r.keyGlobalEpoch(), 0)
		}
		applied := 0
		for i, req := range batch {
			r := req.r
			// Fenced: the worker died, placement moved since the entry's
			// image (a retry under a fresh view keeps pieces off a stale
			// worker), or the channel was rewound under the task.
			if !req.alive() || geps[r] != req.gep ||
				req.retire == "" && txGetInt(tx, r.keyChanEpoch(req.id), 0) != req.cep {
				errs[i] = gcs.ErrAborted
				continue
			}
			applied++
			if req.retire != "" {
				tx.Delete(req.retire)
				continue
			}
			if req.logsLineage() {
				tx.Put(r.keyLineage(req.task), req.rec.Encode())
			}
			txPutInt(tx, r.keyCursor(req.id), req.task.Seq+1)
			if r.ft.has(capCheckpoint) {
				// A restart from a mark keeps owners below it that may have
				// died; under WAL the owner is the channel's pl/ (reconcile).
				txPutInt(tx, r.keyPartDir(req.task), req.workerID)
			}
			if req.finalize {
				txPutInt(tx, r.keyDone(req.id), req.task.Seq+1)
			}
			if req.mark != nil {
				tx.Put(r.keyCheckpoint(req.id), req.mark)
			}
		}
		if applied == 0 {
			return gcs.ErrAborted // nothing to commit; no empty round trip
		}
		bytes = tx.WriteBytes()
		return nil
	})
	if err != nil {
		for i := range errs {
			errs[i] = err
		}
	} else {
		// First, so that a round woken by this commit finds the image published.
		for r, prev := range prevs {
			g.advanceImage(r, prev, geps[r], batch, errs)
		}
		applied := 0
		for i, req := range batch {
			if errs[i] != nil {
				continue
			}
			applied++
			if req.logsLineage() {
				req.r.count(metrics.LineageRecords, 1)
			}
		}
		// The flush transaction — and the transactions it saved — is
		// attributed to the triggering query, so sums over concurrent
		// queries' reports equal the cluster totals exactly.
		lead := batch[0].r
		lead.qmet.Add(metrics.GCSTxns, 1)
		lead.qmet.Add(metrics.GCSBytes, bytes)
		lead.count(metrics.LineageFlushes, 1)
		if applied > 1 {
			lead.count(metrics.GCSTxnBatched, int64(applied-1))
		}
		if lead.rec != nil {
			// One flush span on the lead query's recorder (same attribution
			// as the flush counters): InRows doubles as entries applied.
			lead.rec.Record(trace.Span{Kind: trace.KindFlush, Worker: -1, Stage: -1, Channel: -1, Seq: -1,
				Start: flushStart, Dur: time.Since(flushStart),
				InRows: int64(applied), OutBytes: bytes})
		}
	}
	for i, req := range batch {
		req.resp <- errs[i]
	}
}

// advanceImage publishes the image of r's namespace this committed flush
// produced, so that no round reloads it: prev, r's image as published before
// the commit, with the flush's applied entries of r folded in. That is the
// image at the commit's version only if nothing else wrote the namespace in
// between, which the probe shows as the version exactly one past prev's stamp
// (the commit moved it by one; over the wire the client's own commit moved
// its replica, so the probe costs no frame). prev must be the image from
// before the commit: one published after it may be stamped with the commit's
// version, and pass the check while missing a write that landed just after.
// Otherwise nothing is published, and the next round loads.
func (g *groupCommitter) advanceImage(r *Runner, prev *snapshot, gep int, batch []*commitReq, errs []error) {
	if prev == nil {
		return
	}
	ver := g.store.AwaitNS(context.Background(), r.keyNS(), prev.ver, 0)
	if ver != prev.ver+1 {
		return
	}
	var applied []*commitReq
	for i, req := range batch {
		if req.r == r && errs[i] == nil {
			applied = append(applied, req)
		}
	}
	if s := prev.advance(ver, gep, applied); s != nil && r.publish(s) {
		r.count(metrics.ImageAdvances, 1)
	}
}
