package engine

import (
	"errors"
	"fmt"
	"maps"
	"runtime"
	"slices"
	"strconv"
	"strings"

	"quokka/internal/gcs"
	"quokka/internal/lineage"
	"quokka/internal/metrics"
)

// snapshot is one immutable image of the query's control-plane namespace:
// everything a round of Algorithm 1 reads — the global epoch, every
// channel's coordinates and every worker's replay queue — taken in ONE GCS
// view and stamped with the namespace version probed before that view, or
// advanced by the group committer past a flush that was the only write since
// the image it started from (advance). It is the only thing a poll round, a
// task step, a push, a replay and the coordinator's completion check know
// about the control store; "is this stale" is one comparison of ver with the
// live version. A channel may have
// moved since the image was taken, so step still checks it against the live
// chanState and every commit is fenced in its own transaction.
type snapshot struct {
	ver uint64

	gep int // global placement epoch: seeded 1, one more per recovery

	chans   [][]chanMeta  // [stage][channel]
	replays []replayEntry // every worker's replay queue, in key order
}

// replayEntry is one rp/ entry: worker re-pushes task's stored pieces to dests.
type replayEntry struct {
	key    string // what the entry's retirement deletes
	worker int
	task   lineage.TaskName
	dests  []lineage.ChannelID
}

// chanMeta is one channel's row of a snapshot.
type chanMeta struct {
	place  int // hosting worker; -1 = unplaced
	cep    int
	cursor int
	done   int // task count of the finished channel; -1 = still running
	// replayRec is the committed lineage record at cursor, if there is one: a
	// rewound channel retraces it instead of choosing inputs.
	replayRec  *lineage.Record
	checkpoint *checkpointMark
}

// equal reports whether two rows hold the same coordinates: the lineage
// record and checkpoint mark by value, as a load decodes them afresh.
func (m *chanMeta) equal(o *chanMeta) bool {
	if m == o {
		return true
	}
	if m.place != o.place || m.cep != o.cep || m.cursor != o.cursor || m.done != o.done ||
		(m.replayRec == nil) != (o.replayRec == nil) || (m.checkpoint == nil) != (o.checkpoint == nil) {
		return false
	}
	if m.replayRec != nil && *m.replayRec != *o.replayRec {
		return false
	}
	a, b := m.checkpoint, o.checkpoint
	return a == nil || a.Seq == b.Seq && a.ObjKey == b.ObjKey && maps.Equal(a.WM, b.WM)
}

// changesFor reports whether n holds anything a step of channel id, whose
// stage consumes inputs, read under s and n does not: the global epoch, the
// replay queues — any entry in either image counts, since a retirement that
// empties a queue is what tells a retracing consumer its piece has arrived —
// the channel's own row, or the row of a stage it consumes. A row an advance
// did not touch is shared between its images, so that is a pointer compare;
// a loaded image compares element by element.
func (s *snapshot) changesFor(n *snapshot, id lineage.ChannelID, inputs []StageInput) bool {
	if s == n {
		return false
	}
	if s.gep != n.gep || len(s.replays) > 0 || len(n.replays) > 0 {
		return true
	}
	if !s.chans[id.Stage][id.Channel].equal(&n.chans[id.Stage][id.Channel]) {
		return true
	}
	for _, in := range inputs {
		if a, b := s.chans[in.Stage], n.chans[in.Stage]; &a[0] != &b[0] {
			for c := range a {
				if !a[c].equal(&b[c]) {
					return true
				}
			}
		}
	}
	return false
}

// snapshotAt returns the image of the namespace at ver, a version the caller's
// gcsAwait just returned: the published one while it is that new — loaded, or
// advanced by the committer past its own flush — else a fresh load. Loads are
// single-flight, so a version change costs one view however many threads and
// workers of this process scan.
func (r *Runner) snapshotAt(ver uint64) (*snapshot, error) {
	if s := r.snap.Load(); s != nil && s.ver >= ver {
		return s, nil
	}
	r.snapLoad.Lock()
	defer r.snapLoad.Unlock()
	// Whoever held the lock may have published what this thread came for. No
	// second probe: in a worker process the version is a round trip. A version
	// one past the image's is most often this process's own flush, woken on
	// before its committer published the image it produced (advanceImage), so
	// the committer gets a few chances at the processor before a load is paid
	// for. Only the cost of a load rides on this; either image is correct.
	s := r.snap.Load()
	for i := 0; i < 3 && s != nil && s.ver+1 == ver; i++ {
		runtime.Gosched()
		s = r.snap.Load()
	}
	if s != nil && s.ver >= ver {
		return s, nil
	}
	// The stamp is the version probed BEFORE the view, so it is never newer
	// than the content: a commit that raced the view shows as a version past
	// the stamp, and the next round loads again.
	s, err := r.loadSnapshot(ver, s)
	if err != nil {
		return nil, err
	}
	r.publish(s)
	return s, nil
}

// publish makes s the image of the namespace unless one at least as new is
// published already: a slow load never replaces the committer's advance.
func (r *Runner) publish(s *snapshot) bool {
	for cur := r.snap.Load(); cur == nil || cur.ver < s.ver; cur = r.snap.Load() {
		if r.snap.CompareAndSwap(cur, s) {
			return true
		}
	}
	return false
}

// advance returns the image at ver = s.ver+1 that a flush which was the only
// write since s's stamp leaves: s with the flush's applied entries folded in
// — a task commit moves its channel's cursor, and done on finalize; a
// retirement drops its replay entry — sharing every row it does not touch.
// gep is the global epoch the flush read. It returns nil when the new image
// would need a read: an entry on a rewound channel, whose row carries the
// lineage record and checkpoint mark at its cursor.
func (s *snapshot) advance(ver uint64, gep int, applied []*commitReq) *snapshot {
	if s.gep != gep {
		return nil
	}
	n := &snapshot{ver: ver, gep: s.gep, chans: slices.Clone(s.chans), replays: s.replays}
	copied := make([]bool, len(n.chans))
	for _, req := range applied {
		if req.retire != "" {
			n.replays = slices.DeleteFunc(slices.Clone(n.replays), func(e replayEntry) bool { return e.key == req.retire })
			continue
		}
		st, c := req.id.Stage, req.id.Channel
		if n.chans[st][c].cep != 0 {
			return nil
		}
		if !copied[st] {
			n.chans[st], copied[st] = slices.Clone(n.chans[st]), true
		}
		m := &n.chans[st][c]
		m.cursor = req.task.Seq + 1
		if req.finalize {
			m.done = req.task.Seq + 1
		}
	}
	return n
}

// loadSnapshot reads the whole image in one view, a worker's only read of the
// control store; a body may run more than once remotely, so it builds the image.
// Channel keys are known from the plan. Replay entries are written only by
// recover, which moves the global epoch, and only deleted after: none at the
// seeded epoch, listed at the first image of a later one, and at prev's epoch
// those of prev's still there.
func (r *Runner) loadSnapshot(ver uint64, prev *snapshot) (*snapshot, error) {
	var s *snapshot
	err := r.cl.GCS.ViewNS(r.keyNS(), func(tx *gcs.Txn) error {
		s = &snapshot{
			ver:   ver,
			gep:   txGetInt(tx, r.keyGlobalEpoch(), 0),
			chans: make([][]chanMeta, len(r.par)),
		}
		if prev != nil && prev.gep == s.gep {
			for _, e := range prev.replays {
				if _, ok := tx.Get(e.key); ok {
					s.replays = append(s.replays, e)
				}
			}
		} else if s.gep > 1 {
			if err := r.loadReplays(tx, s); err != nil {
				return err
			}
		}
		for st, n := range r.par {
			s.chans[st] = make([]chanMeta, n)
			for c := range s.chans[st] {
				id := lineage.ChannelID{Stage: st, Channel: c}
				m := &s.chans[st][c]
				m.place = txGetInt(tx, r.keyPlacement(id), -1)
				m.cep = txGetInt(tx, r.keyChanEpoch(id), 0)
				m.cursor = txGetInt(tx, r.keyCursor(id), 0)
				m.done = txGetInt(tx, r.keyDone(id), -1)
				// A finished channel has no task at its cursor. Equality, not
				// presence: a rewound channel keeps its done/ key while its
				// cursor starts over. A record at the cursor, or a mark step
				// would restore, exists only for a channel reconcile rewound,
				// and reconcile raises the epoch of each: one never rewound
				// (epoch 0) has neither.
				if m.done == m.cursor || m.cep == 0 {
					continue
				}
				if v, ok := tx.Get(r.keyLineage(lineage.TaskName{Stage: st, Channel: c, Seq: m.cursor})); ok {
					rec, err := lineage.DecodeRecord(v)
					if err != nil {
						return err
					}
					m.replayRec = &rec
				}
				if !r.ft.has(capCheckpoint) {
					continue
				}
				if v, ok := tx.Get(r.keyCheckpoint(id)); ok {
					ck, err := decodeCheckpoint(v)
					if err != nil {
						return err
					}
					m.checkpoint = &ck
				}
			}
		}
		return nil
	})
	if err == nil {
		r.qmet.Add(metrics.GCSTxns, 1) // a view carries no payload
		r.count(metrics.ImageLoads, 1)
	}
	return s, err
}

// loadReplays lists every worker's replay queue into s, each entry with its
// destinations.
func (r *Runner) loadReplays(tx *gcs.Txn, s *snapshot) error {
	prefix := r.keyNS() + "rp/"
	for _, k := range tx.List(prefix) {
		w, name, _ := strings.Cut(strings.TrimPrefix(k, prefix), "/")
		dests, _ := tx.Get(k)
		e := replayEntry{key: k}
		var errs [3]error
		e.worker, errs[0] = strconv.Atoi(w)
		e.task, errs[1] = lineage.ParseTaskName(name)
		e.dests, errs[2] = parseReplayDests(dests)
		if err := errors.Join(errs[:]...); err != nil {
			return fmt.Errorf("engine: replay entry %s: %w", k, err)
		}
		s.replays = append(s.replays, e)
	}
	return nil
}
