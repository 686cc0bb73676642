package engine

import (
	"sort"
	"time"

	"quokka/internal/gcs"
	"quokka/internal/lineage"
	"quokka/internal/metrics"
	"quokka/internal/trace"
)

// recover implements Algorithm 2 of the paper: reconcile the GCS to a
// consistent state after worker failures. In ONE transaction it
//
//  1. computes the rewind set by walking stages in reverse topological
//     order, scheduling replay tasks for surviving backups and spooled
//     partitions, and cascading rewinds to the producers of the rest,
//  2. re-places rewound channels — pipeline-parallel (different stages to
//     different workers, Figure 3 bottom) or data-parallel — and resets
//     their cursors, and
//  3. bumps the global epoch.
//
// The paper takes a GCS-level lock so that TaskManagers cannot write while
// the coordinator reconciles (§IV-B). Here the transaction is that lock:
// a worker's only write is an entry of groupCommitter.flush, fenced on what
// this transaction moves — a task commit, with its checkpoint mark, on its
// worker's liveness, the channel epoch and the global epoch; a replay
// entry's retirement on its worker's liveness and the global epoch — so a
// write prepared under the pre-recovery image either lands before this
// transaction, which then sees it, or is refused after it and retried under
// the new image.
//
// The coordinator only ever writes the GCS; it never talks to a
// TaskManager directly, which is what makes nested failures easy to
// handle (§IV-B): if another worker dies mid-recovery, the next pass
// simply reconciles again.
func (r *Runner) recover() error {
	started := time.Now()
	r.recovered++
	r.count(metrics.RecoveryTasks, 1)
	// The epoch moves with the placements it names, so TaskManagers reload
	// them, and every commit prepared under the old image is refused.
	err := r.gcsUpdate(func(tx *gcs.Txn) error {
		if err := r.reconcile(tx); err != nil {
			return err
		}
		txPutInt(tx, r.keyGlobalEpoch(), txGetInt(tx, r.keyGlobalEpoch(), 0)+1)
		return nil
	})
	if err != nil {
		return err
	}
	if r.rec != nil {
		// One span for the whole pass (reconcile and epoch bump), stamped with
		// the recovery generation.
		r.rec.Record(trace.Span{Kind: trace.KindRecovery, Worker: -1, Stage: -1, Channel: -1, Seq: -1,
			Epoch: r.recovered, Start: started, Dur: time.Since(started)})
	}
	return nil
}

// reconcile is the body of Algorithm 2, run inside recover's transaction.
func (r *Runner) reconcile(tx *gcs.Txn) error {
	aliveIDs := r.cl.Alive()
	if len(aliveIDs) == 0 {
		return ErrNoWorkers
	}
	aliveSet := make(map[int]bool, len(aliveIDs))
	for _, w := range aliveIDs {
		aliveSet[int(w)] = true
	}

	// A <- all tasks assigned to failed workers; R <- their channels.
	rewind := make(map[lineage.ChannelID]bool)
	for s := range r.plan.Stages {
		for c := 0; c < r.par[s]; c++ {
			id := lineage.ChannelID{Stage: s, Channel: c}
			if !aliveSet[txGetInt(tx, r.keyPlacement(id), -1)] {
				rewind[id] = true
			}
		}
	}

	// Walk stages in reverse topological order (IDs descend: plans list
	// stages topologically), scheduling the inputs each rewound channel
	// will need and cascading rewinds for unrecoverable partitions.
	// reproduce marks the producers that must re-execute to regenerate lost
	// partitions: they restart from scratch, because a checkpoint restart
	// would skip the tasks — and so the partitions — below the checkpoint.
	reproduce := make(map[lineage.ChannelID]bool)
	rrSpool := 0 // round-robin cursor for spool replay placement
	for s := len(r.plan.Stages) - 1; s >= 0; s-- {
		stage := r.plan.Stages[s]
		for c := 0; c < r.par[s]; c++ {
			id := lineage.ChannelID{Stage: s, Channel: c}
			if !rewind[id] {
				continue
			}
			// Rewound channels restart from their checkpoint (if any) or
			// from scratch; they need every committed partition of every
			// upstream channel re-delivered.
			for _, in := range stage.Inputs {
				up := in.Stage
				for uc := 0; uc < r.par[up]; uc++ {
					uid := lineage.ChannelID{Stage: up, Channel: uc}
					committed := txGetInt(tx, r.keyCursor(uid), 0)
					// The owner rule: a channel leaves its worker only when
					// that worker dies, and then its cursor starts over, so
					// every task below the cursor was committed by its host.
					// A checkpoint restart keeps tasks below its mark, whose
					// owners its commits recorded in pd/.
					host := txGetInt(tx, r.keyPlacement(uid), -1)
					for q := 0; q < committed; q++ {
						utask := lineage.TaskName{Stage: up, Channel: uc, Seq: q}
						owner := host
						if r.ft.has(capCheckpoint) {
							owner = txGetInt(tx, r.keyPartDir(utask), -1)
						}
						switch {
						case r.ft.has(capSpool) && r.spooled[up]:
							// Spooled partitions are durable: fetch them
							// from the object store on any live worker.
							// No cascade — the whole point of spooling.
							w := int(aliveIDs[rrSpool%len(aliveIDs)])
							rrSpool++
							addReplayDest(tx, r.keyReplay(w, utask), id)
						case r.ft.has(capBackup) && aliveSet[owner]:
							// Replay from the owner's local backup — the
							// cheap, common case of Figure 5.
							addReplayDest(tx, r.keyReplay(owner, utask), id)
						default:
							// Backup lost with its worker (or spool mode
							// with an unspooled narrow stage): rewind the
							// producer channel too (Figure 5's (0,2,*)). A
							// reader is no exception: its retrace re-reads
							// the split. (With a backup a reader's owner is
							// its host, so it is rewound already.)
							rewind[uid] = true
							reproduce[uid] = true
						}
					}
				}
			}
		}
	}

	// Re-place and reset every rewound channel.
	ids := make([]lineage.ChannelID, 0, len(rewind))
	for id := range rewind {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		if ids[i].Stage != ids[j].Stage {
			return ids[i].Stage < ids[j].Stage
		}
		return ids[i].Channel < ids[j].Channel
	})

	// Stage rank assigns rewound channels of different stages to different
	// workers (pipeline-parallel); data-parallel ignores the stage.
	stageRank := make(map[int]int)
	for _, id := range ids {
		if _, ok := stageRank[id.Stage]; !ok {
			stageRank[id.Stage] = len(stageRank)
		}
	}
	for i, id := range ids {
		var w int
		if r.cfg.Recovery == RecoveryPipelineParallel && r.plan.Stages[id.Stage].Reader == nil {
			// Stateful channels: one worker per stage (recovery
			// parallelism tracks pipeline depth, §III-B).
			w = int(aliveIDs[stageRank[id.Stage]%len(aliveIDs)])
		} else {
			// Readers always recover data-parallel; Spark mode spreads
			// everything data-parallel.
			w = int(aliveIDs[i%len(aliveIDs)])
		}
		txPutInt(tx, r.keyPlacement(id), w)
		newCep := txGetInt(tx, r.keyChanEpoch(id), 0) + 1
		txPutInt(tx, r.keyChanEpoch(id), newCep)
		if r.rec != nil {
			// Rewind mark: the channel restarts on worker w under epoch
			// newCep; replayed tasks then carry that epoch in their spans.
			r.rec.Record(trace.Span{Kind: trace.KindRewind, Worker: w,
				Stage: id.Stage, Channel: id.Channel, Seq: -1, Epoch: newCep,
				Start: time.Now()})
		}

		// A channel restarts from scratch, or at its checkpoint mark: the
		// mark carries the watermark that goes with the operator state.
		restart := 0
		if r.ft.has(capCheckpoint) && !reproduce[id] {
			if v, ok := tx.Get(r.keyCheckpoint(id)); ok {
				if ck, err := decodeCheckpoint(v); err == nil {
					restart = ck.Seq
				}
			}
		}
		txPutInt(tx, r.keyCursor(id), restart)
		r.count(metrics.RecoveryRewinds, 1)

		// Any partitions this channel had buffered on other live workers
		// remain valid (idempotent re-pushes overwrite them); partitions
		// on the dead worker are gone and will be re-pushed by replays.
	}
	return nil
}
