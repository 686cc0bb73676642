package engine

import (
	"context"
	"errors"
	"strconv"
	"sync"
	"time"

	"quokka/internal/gcs"
	"quokka/internal/lineage"
	"quokka/internal/metrics"
	"quokka/internal/trace"
)

// groupCommitter batches per-task lineage commits into shared GCS
// transactions — the write-ahead lineage analogue of database group
// commit. ONE committer serves the whole cluster: commits from EVERY
// admitted query fold into the same flush transaction (gcs.Backend.Apply
// spans their namespaces), so batch width grows with the admission level
// at exactly the point where one-transaction-per-task would knee the head
// node over. Task managers queue a commit request and block until their
// flush transaction commits (or their entry is fenced off), so the
// protocol ordering of Algorithm 1 is unchanged per query: a task's
// outputs become consumable only after its lineage is durable in the GCS,
// and the task is acknowledged only after that.
//
// Batching arises naturally, and no goroutine of its own serves it: the
// requester that finds no flush running takes the queue — its own entry and
// whatever queued before it — and runs the flush on its own thread. Commits
// from every in-flight query's executor threads queue meanwhile (while the
// flush pays the GCS round trip), and when it is done it hands the next
// flush to the oldest of them. Nothing holds a flush open, so batching adds
// no latency.
//
// flush is the only GCS write a worker makes: a task commit (with its
// checkpoint mark, when one is due) and the retirement of a replay round's
// entries are both entries of it, each under its own fences. A flush moves
// each of its queries' namespace version; where it was the only write since
// the image the query's rounds run under, the flush publishes the image it
// produced before acking (advanceImage), so no round reloads it.
type groupCommitter struct {
	mu       sync.Mutex
	queue    []*commitReq // entries waiting for the next flush
	flushing bool         // a requester runs the flush, or was handed it
}

// errRunFlush, sent on a queued requester's answer channel, hands it the next
// flush.
var errRunFlush = errors.New("engine: run the next flush")

// commitReq carries everything one flush entry writes, plus the fences
// guarding it. Values are copied in by the requester (which holds the
// channel's protocol lock), so the flush never touches chanState. The
// runner pointer scopes every key to the request's own query namespace and
// carries its policy (whether lineage is logged, whether there is a backup)
// and its cluster's GCS, which the flush writes through.
// An entry is a task commit, or — retire set — the retirement of the replay
// entries one round re-pushed, which writes nothing else and is fenced on no
// channel.
type commitReq struct {
	r        *Runner
	alive    func() bool // requester worker's liveness
	id       lineage.ChannelID
	cep      int
	gep      int // global epoch of the snapshot the task's pushes were placed by
	task     lineage.TaskName
	rec      *lineage.Record // a consume task's range, the one thing logged
	finalize bool
	isReplay bool
	mark     []byte   // encoded checkpoint mark written beside the cursor, or nil
	retire   []string // the rp/ keys of the replay entries a round drained
	resp     chan error
}

// logsLineage reports whether this commit writes a lineage record: only a
// consume task's first execution does — a replay retraces a record that is
// already committed, a read or a last task (and a retirement) has none, and
// a query without the lineage capability logs none.
func (q *commitReq) logsLineage() bool {
	return q.rec != nil && !q.isReplay && q.r.ft.has(capLineage)
}

// commit queues an entry for the next flush and blocks until that flush
// resolves it, running the flush itself when no other requester is.
// Returns gcs.ErrAborted when the entry was fenced off (channel rewound,
// epoch changed, worker died) — a task then stays pending and is retried, a
// replay entry stays queued.
// The enqueue-to-resolve time is the requesting query's flush latency.
func (g *groupCommitter) commit(req *commitReq) error {
	req.resp = make(chan error, 1)
	start := time.Now()
	g.mu.Lock()
	g.queue = append(g.queue, req)
	run := !g.flushing
	g.flushing = true
	g.mu.Unlock()
	var err error
	if !run {
		err = <-req.resp
		run = err == errRunFlush
	}
	if run {
		g.mu.Lock()
		batch := g.queue
		g.queue = nil
		g.mu.Unlock()
		g.flush(batch)
		g.mu.Lock()
		if len(g.queue) > 0 {
			g.queue[0].resp <- errRunFlush // never blocks: a queued entry has no answer yet
		} else {
			g.flushing = false
		}
		g.mu.Unlock()
		err = <-req.resp // the flush just answered it
	}
	req.r.hFlush.observe(int64(time.Since(start)))
	return err
}

// entry is the flush entry the request writes, its fences as its guards: a
// task commit, guarded on its channel's epoch and its query's global epoch,
// or a round's retirement of its replay entries, guarded on the global epoch
// alone. Worker liveness is no key: flush checks it before the call.
func (q *commitReq) entry() gcs.Entry {
	r := q.r
	gep := gcs.Guard{Key: r.keyGlobalEpoch(), Want: int64(q.gep)}
	if q.retire != nil {
		return gcs.Entry{NS: r.keyNS(), Guards: []gcs.Guard{gep}, Deletes: q.retire}
	}
	e := gcs.Entry{NS: r.keyNS(), Guards: []gcs.Guard{gep, {Key: r.keyChanEpoch(q.id), Want: int64(q.cep)}},
		Puts: make([]gcs.KV, 0, 4)}
	seq := []byte(strconv.Itoa(q.task.Seq + 1))
	if q.logsLineage() {
		e.Puts = append(e.Puts, gcs.KV{Key: r.keyLineage(q.task), Val: q.rec.Encode()})
	}
	e.Puts = append(e.Puts, gcs.KV{Key: r.keyCursor(q.id), Val: seq})
	if q.finalize {
		e.Puts = append(e.Puts, gcs.KV{Key: r.keyDone(q.id), Val: seq})
	}
	if q.mark != nil {
		e.Puts = append(e.Puts, gcs.KV{Key: r.keyCheckpoint(q.id), Val: q.mark})
	}
	return e
}

// flush commits a batch of entries — possibly spanning several queries — in
// ONE GCS Apply over their namespaces' shards. Each entry keeps its own
// fences: one whose worker died is refused before the call, and one whose
// placement epoch moved or — a task commit — whose channel was rewound is
// refused by its guards, while the rest commit — identical outcomes to
// flushing each entry alone, just amortized onto one head-node round trip. (A
// query's recovery is one transaction on its namespace shard that moves the
// epoch, so this transaction serializes against it: before it, and recovery
// sees the entry; after it, and the entry is refused.)
func (g *groupCommitter) flush(batch []*commitReq) {
	errs := make([]error, len(batch))
	entries, at := make([]gcs.Entry, 0, len(batch)), make([]int, 0, len(batch)) // at: each entry's batch index
	prevs := make(map[*Runner]*snapshot, 4)                                     // each query's image before the commit
	for i, req := range batch {
		if !req.alive() {
			errs[i] = gcs.ErrAborted
			req.r.count(metrics.EntriesFenced, 1)
			continue
		}
		if _, ok := prevs[req.r]; !ok {
			prevs[req.r] = req.r.snap.Load()
		}
		entries, at = append(entries, req.entry()), append(at, i)
	}
	flushStart := time.Now()
	var applied []bool
	var err error
	if len(entries) > 0 {
		applied, err = batch[0].r.cl.GCS.Apply(entries)
	}
	var bytes int64
	n := 0                                             // entries applied
	done := make(map[*Runner][]*commitReq, len(prevs)) // each query's applied entries
	for j, i := range at {
		switch req := batch[i]; {
		case err != nil:
			errs[i] = err
		case !applied[j]:
			errs[i] = gcs.ErrAborted
			req.r.count(metrics.EntriesFenced, 1)
		default:
			n++
			done[req.r] = append(done[req.r], req)
			bytes += entries[j].Bytes()
			if req.logsLineage() {
				req.r.count(metrics.LineageRecords, 1)
			}
		}
	}
	if n > 0 {
		// First, so that a round woken by this commit finds the image published.
		for r, reqs := range done {
			g.advanceImage(r, prevs[r], reqs)
		}
		// The flush transaction — and the transactions it saved — is
		// attributed to the triggering query, so sums over concurrent
		// queries' reports equal the cluster totals exactly.
		lead := batch[0].r
		lead.qmet.Add(metrics.GCSTxns, 1)
		lead.qmet.Add(metrics.GCSBytes, bytes)
		lead.count(metrics.LineageFlushes, 1)
		if n > 1 {
			lead.count(metrics.GCSTxnBatched, int64(n-1))
		}
		if lead.rec != nil {
			// One flush span on the lead query's recorder (same attribution
			// as the flush counters): InRows doubles as entries applied.
			lead.rec.Record(trace.Span{Kind: trace.KindFlush, Worker: -1, Stage: -1, Channel: -1, Seq: -1,
				Start: flushStart, Dur: time.Since(flushStart),
				InRows: int64(n), OutBytes: bytes})
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
// Otherwise nothing is published, and the next round loads. The entries that
// applied were all guarded on the live global epoch.
func (g *groupCommitter) advanceImage(r *Runner, prev *snapshot, applied []*commitReq) {
	if prev == nil {
		return
	}
	ver := r.cl.GCS.AwaitNS(context.Background(), r.keyNS(), prev.ver, 0)
	if ver != prev.ver+1 {
		return
	}
	if s := prev.advance(ver, applied[0].gep, applied); s != nil && r.publish(s) {
		r.count(metrics.ImageAdvances, 1)
	}
}
