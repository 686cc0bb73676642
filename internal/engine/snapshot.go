package engine

import (
	"quokka/internal/gcs"
	"quokka/internal/lineage"
)

// snapshot is one immutable image of the query's control-plane namespace:
// everything a round of Algorithm 1 reads — the global epoch and every
// channel's coordinates — taken in ONE GCS view and stamped with the
// namespace version probed before that view. It is the only thing a poll
// round, a task step, a push, a replay and the coordinator's completion check
// know about the control store; "is this stale" is one comparison of ver with
// the live version. A channel may have moved since the image was taken, so
// step still checks it against the live chanState and every commit is fenced
// in its own transaction.
type snapshot struct {
	ver uint64

	gep int // global placement epoch: seeded 1, one more per recovery
	opp int // operator partition count seeded for the query

	chans [][]chanMeta // [stage][channel]
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

// snapshotAt returns the image of the namespace at ver, a version the caller's
// gcsAwait just returned: the published one while the version has not moved,
// else a fresh load. Loads are single-flight, so a version change costs one
// view however many threads and workers of this process scan.
func (r *Runner) snapshotAt(ver uint64) (*snapshot, error) {
	if s := r.snap.Load(); s != nil && s.ver == ver {
		return s, nil
	}
	r.snapLoad.Lock()
	defer r.snapLoad.Unlock()
	// Whoever held the lock may have loaded what this thread came for. No
	// second probe: in a worker process the version is a round trip.
	if s := r.snap.Load(); s != nil && s.ver >= ver {
		return s, nil
	}
	// The stamp is the version probed BEFORE the view, so it is never newer
	// than the content: a commit that raced the view shows as a version past
	// the stamp, and the next round loads again.
	s, err := r.loadSnapshot(ver)
	if err != nil {
		return nil, err
	}
	r.snap.Store(s)
	return s, nil
}

// loadSnapshot reads the whole image in one view. It never lists: every key
// is known from the plan. The image is built inside the body, because a body
// may run more than once on a remote backend.
func (r *Runner) loadSnapshot(ver uint64) (*snapshot, error) {
	var s *snapshot
	err := r.gcsView(func(tx *gcs.Txn) error {
		s = &snapshot{
			ver:   ver,
			gep:   txGetInt(tx, r.keyGlobalEpoch(), 0),
			opp:   txGetInt(tx, r.keyOpParallelism(), r.cfg.Parallelism),
			chans: make([][]chanMeta, len(r.par)),
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
	return s, err
}
