package engine

import (
	"errors"
	"fmt"
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
// channel's row and every worker's replay queue — taken in ONE GCS view and
// stamped with the namespace version probed before that view, or advanced by
// the group committer past a flush that was the only write since the image it
// started from (advance). It is the only thing a poll round, a task step, a
// push, a replay and the coordinator's completion check know about the
// control store; "is this stale" is one comparison of ver with the live
// version. A channel may have moved since the image was taken, so step still
// checks it against the live chanState and every commit is fenced in its own
// transaction.
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

// chanMeta is one channel's row of a snapshot: its coordinates, and the
// retrace every image at the snapshot's global epoch shares (loadSnapshot).
type chanMeta struct {
	place  int // hosting worker; -1 = unplaced
	cep    int
	cursor int
	done   int // task count of the finished channel; -1 = still running
	rt     *retrace
}

// retrace is what a rewound channel of a stage with inputs re-runs under one
// global epoch: its committed lineage records from a cursor up to the first
// missing one, and under capCheckpoint its restart mark — all a rewound
// reader with an operator has. Nothing the epoch commits changes it: a
// retraced task writes no record, a first execution writes one only past the
// first missing, and every rewind moves the epoch.
type retrace struct {
	from int              // the cursor of recs[0]
	recs []lineage.Record // the records at from, from+1, ...
	mark *checkpointMark  // the mark a restart at its Seq restores; nil if none
}

// record is the committed lineage record at the row's cursor, which a rewound
// channel retraces instead of choosing inputs; nil when there is none.
func (m *chanMeta) record() *lineage.Record {
	if m.rt == nil || m.cursor < m.rt.from || m.cursor-m.rt.from >= len(m.rt.recs) {
		return nil
	}
	return &m.rt.recs[m.cursor-m.rt.from]
}

// equal reports whether two rows hold the same coordinates. Rows of one
// global epoch share their retrace, and changesFor compares the epochs first.
func (m *chanMeta) equal(o *chanMeta) bool {
	return m.place == o.place && m.cep == o.cep && m.cursor == o.cursor && m.done == o.done
}

// changesFor reports whether n holds anything a step of channel id, whose
// stage consumes inputs, read under s and n does not: the global epoch, a
// replay entry that re-pushes to the channel — any in either image counts,
// since its retirement is what tells the retracing consumer its piece has
// arrived — the channel's own row, or the row of a stage it consumes. A row
// an advance did not touch is shared between its images, so that is a
// pointer compare; a loaded image compares element by element.
func (s *snapshot) changesFor(n *snapshot, id lineage.ChannelID, inputs []StageInput) bool {
	if s == n {
		return false
	}
	if s.gep != n.gep || names(s.replays, id) || names(n.replays, id) {
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

// names reports whether any of the replay entries re-pushes to channel id.
func names(replays []replayEntry, id lineage.ChannelID) bool {
	return slices.ContainsFunc(replays, func(e replayEntry) bool { return slices.Contains(e.dests, id) })
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
	// before the thread running it published the image it produced
	// (advanceImage), so that thread gets a few chances at the processor
	// before a load is paid for. Only the cost of a load rides on this; either image is correct.
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
// retirement drops its replay entries — sharing every row it does not touch.
// gep is the global epoch the applied entries were guarded on; an image of
// another epoch has no advance, as a new epoch's first image reads its
// retraces.
func (s *snapshot) advance(ver uint64, gep int, applied []*commitReq) *snapshot {
	if s.gep != gep {
		return nil
	}
	n := &snapshot{ver: ver, gep: s.gep, chans: slices.Clone(s.chans), replays: s.replays}
	copied := make([]bool, len(n.chans))
	for _, req := range applied {
		if req.retire != nil {
			n.replays = slices.DeleteFunc(slices.Clone(n.replays), func(e replayEntry) bool { return slices.Contains(req.retire, e.key) })
			continue
		}
		st, c := req.id.Stage, req.id.Channel
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
// control store. Channel keys are known from the plan. What moves only with the global epoch
// is read by the first image at each epoch and carried by later ones, prev
// being the image before this one: replay entries — written only by recover,
// and only deleted after; none at the seeded epoch — while each still exists,
// and each row's retrace.
func (r *Runner) loadSnapshot(ver uint64, prev *snapshot) (*snapshot, error) {
	var s *snapshot
	err := r.cl.GCS.ViewNS(r.keyNS(), func(tx *gcs.Txn) error {
		s = &snapshot{
			ver:   ver,
			gep:   txGetInt(tx, r.keyGlobalEpoch(), 0),
			chans: make([][]chanMeta, len(r.par)),
		}
		carried := prev != nil && prev.gep == s.gep
		if carried {
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
				if carried {
					m.rt = prev.chans[st][c].rt
					continue
				}
				// A finished channel (equality, not presence: a rewound one
				// keeps its done/ key while its cursor starts over), one never
				// rewound (epoch 0: only reconcile leaves a record at a
				// cursor) and a bare reader, whose runs are re-derived, have
				// no retrace. A reader with an operator has one under
				// capCheckpoint: its restart mark, and no records.
				reader := r.plan.Stages[st].Reader != nil
				if m.done == m.cursor || m.cep == 0 || reader && (r.plan.Stages[st].Op == nil || !r.ft.has(capCheckpoint)) {
					continue
				}
				var err error
				if m.rt, err = r.loadRetrace(tx, id, m.cursor); err != nil {
					return err
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

// loadRetrace reads rewound channel id's retrace from cursor from on.
func (r *Runner) loadRetrace(tx *gcs.Txn, id lineage.ChannelID, from int) (*retrace, error) {
	rt := &retrace{from: from}
	for q := from; ; q++ {
		v, ok := tx.Get(r.keyLineage(lineage.TaskName{Stage: id.Stage, Channel: id.Channel, Seq: q}))
		if !ok {
			break
		}
		rec, err := lineage.DecodeRecord(v)
		if err != nil {
			return nil, err
		}
		rt.recs = append(rt.recs, rec)
	}
	if r.ft.has(capCheckpoint) {
		if v, ok := tx.Get(r.keyCheckpoint(id)); ok {
			ck, err := decodeCheckpoint(v)
			if err != nil {
				return nil, err
			}
			rt.mark = &ck
		}
	}
	return rt, nil
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
