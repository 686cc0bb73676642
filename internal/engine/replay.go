package engine

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"quokka/internal/flight"
	"quokka/internal/gcs"
	"quokka/internal/lineage"
	"quokka/internal/metrics"
	"quokka/internal/trace"
)

// runReplays drains this worker's replay queue: re-pushing backed-up
// partitions (rp/) and re-reading input splits (rpi/) for rewound
// consumers. These are the light-blue recovery tasks of Figure 5. The queue
// is the one thing a round lists, so it is a view of its own; where the
// pieces go is snap's placement, and snap's global epoch fences each entry's
// retirement.
func (t *taskManager) runReplays(snap *snapshot) (ran, drained bool) {
	prefixRp := fmt.Sprintf("%srp/%d/", t.r.keyNS(), t.w.ID)
	prefixRpi := fmt.Sprintf("%srpi/%d/", t.r.keyNS(), t.w.ID)
	var rp, rpi []string
	var dests map[string][]byte
	t.r.gcsView(func(tx *gcs.Txn) error {
		dests = make(map[string][]byte)
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
		if t.runOneReplay(snap, k, strings.TrimPrefix(k, prefixRp), dests[k], false) {
			ran = true
		}
	}
	for _, k := range rpi {
		if t.runOneReplay(snap, k, strings.TrimPrefix(k, prefixRpi), dests[k], true) {
			ran = true
		}
	}
	return ran, len(rp)+len(rpi) == 0
}

// runOneReplay executes a single replay entry and retires it.
func (t *taskManager) runOneReplay(snap *snapshot, fullKey, rest string, destsRaw []byte, fromSource bool) bool {
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
				if _, pieces, err = t.encodePieces(out, edges, task.Channel, nil); err != nil {
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
			data, _, err := pieces.piece(ei, dest.Channel)
			if errors.Is(err, errElidedPiece) {
				// A survivor was asked for a piece whose consumer shared its
				// worker: the write-ahead lineage argument is broken.
				t.r.reportFailure(fmt.Errorf("engine: replay %s -> %s: %w", task, dest, err))
				return false
			}
			if err != nil {
				return false
			}
			if err := t.pushPiece(snap, task, dest, e.Input, data, nil, flight.EpochCommitted); err != nil {
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
			Stage: task.Stage, Channel: task.Channel, Seq: task.Seq, Epoch: snap.gep,
			Start: replayStart, Dur: time.Since(replayStart)})
	}
	// Retire the entry: an entry of the committer's flush, fenced on the
	// worker's liveness and on the global epoch its pushes were placed by (a
	// refused one is redone under a fresh snapshot). One entry per replay:
	// each retirement moves the namespace version, which wakes the rewound
	// consumer to take its piece.
	return t.gc.commit(&commitReq{r: t.r, alive: t.w.Alive, gep: snap.gep, retire: fullKey}) == nil
}
