package engine

import (
	"errors"
	"fmt"
	"time"

	"quokka/internal/flight"
	"quokka/internal/metrics"
	"quokka/internal/trace"
)

// runReplays drains this worker's replay queue as snap holds it, under
// replayLock: the light-blue recovery tasks of Figure 5, pieces placed by snap
// and the retirement fenced on its global epoch. An entry already retired is
// skipped; a failed one is tried again next round. yield runs before any does.
// Every entry the round re-pushed retires in one flush entry, fenced on the
// worker's liveness and on that epoch (a refused one leaves them all to be
// redone under a fresh snapshot): one version bump per round, which wakes the
// rewound consumers the entries name (snapshot.changesFor) to take their pieces.
func (t *taskManager) runReplays(snap *snapshot, yield func()) (ran bool) {
	var pushed []string
	for _, e := range snap.replays {
		if e.worker != int(t.w.ID) || t.retired[e.key] >= snap.gep {
			continue
		}
		yield()
		if t.runOneReplay(snap, e) {
			pushed = append(pushed, e.key)
		}
	}
	if pushed == nil || t.r.shared.gc.commit(&commitReq{r: t.r, alive: t.w.Alive, gep: snap.gep, retire: pushed}) != nil {
		return false
	}
	for _, k := range pushed {
		t.retired[k] = snap.gep
	}
	return true
}

// runOneReplay re-pushes a single replay entry's pieces; it reports whether
// they all went out.
func (t *taskManager) runOneReplay(snap *snapshot, entry replayEntry) bool {
	task, replayStart := entry.task, time.Time{}
	if t.r.rec != nil {
		replayStart = time.Now()
	}
	// The pieces to re-push are the stored ones, exactly as first pushed.
	stored, err := t.storedPieceSet(task)
	if err != nil {
		return false // disk lost; the next recovery pass reroutes
	}
	pieces, err := parsePieceSet(stored)
	if err != nil {
		return false
	}
	edges := t.r.plan.Consumers(task.Stage)

	// Push only the pieces destined for the rewound consumers (one per
	// input edge feeding each destination stage), re-reading the backup
	// once for all of them.
	pushed := false
	for _, dest := range entry.dests {
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
	return true
}
