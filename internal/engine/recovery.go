package engine

import (
	"context"
	"fmt"
	"sort"
	"time"

	"quokka/internal/gcs"
	"quokka/internal/lineage"
	"quokka/internal/metrics"
	"quokka/internal/trace"
)

// recover implements Algorithm 2 of the paper: reconcile the GCS to a
// consistent state after worker failures. It
//
//  1. raises the GCS barrier and waits for live TaskManagers to quiesce,
//  2. computes the rewind set by walking stages in reverse topological
//     order, scheduling replay tasks for surviving backups, input re-reads
//     for lost reader partitions, and cascading rewinds when a partition
//     is unrecoverable,
//  3. re-places rewound channels — pipeline-parallel (different stages to
//     different workers, Figure 3 bottom) or data-parallel — and resets
//     their cursors, and
//  4. drops the barrier and bumps the global epoch.
//
// The coordinator only ever writes the GCS; it never talks to a
// TaskManager directly, which is what makes nested failures easy to
// handle (§IV-B): if another worker dies mid-recovery, the next pass
// simply reconciles again.
//
// Recovery is agnostic to intra-operator parallelism: a rewound channel's
// operator — partitioned or serial — is rebuilt purely by replaying the
// channel's logged inputs, and partition assignment is a pure function of
// key hash and the query's seeded partition count (the GCS "opp" key), so
// the replacement worker reconstructs the same per-partition state the
// dead worker held.
func (r *Runner) recover(ctx context.Context) error {
	started := time.Now()
	r.recovered++
	r.count(metrics.RecoveryTasks, 1)

	// Raise the barrier.
	gen := r.recovered
	if err := r.gcsUpdate(func(tx *gcs.Txn) error {
		txPutInt(tx, r.keyBarrier(), gen)
		return nil
	}); err != nil {
		return err
	}

	// Wait for every live TaskManager to acknowledge: an ack is a commit, so
	// the wait is for the version to pass the one observed before the view
	// that found an ack missing. Workers that die while we wait commit
	// nothing; a heartbeat later they are dropped from the wait set.
	deadline := time.Now().Add(5 * time.Second)
	for before, wait := uint64(0), time.Duration(0); ; wait = r.cfg.HeartbeatInterval {
		before = r.gcsAwait(ctx, before, wait)
		if ctx.Err() != nil {
			return ctx.Err()
		}
		allAcked := true
		err := r.gcsView(func(tx *gcs.Txn) error {
			for _, w := range r.cl.Workers {
				if !w.Alive() {
					continue
				}
				if txGetInt(tx, r.keyAck(int(w.ID)), 0) != gen {
					allAcked = false
					return nil
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		if allAcked {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("engine: recovery barrier timed out")
		}
	}

	// With the barrier held the coordinator has exclusive access; plan and
	// apply the whole reconciliation in one transaction.
	err := r.gcsUpdate(func(tx *gcs.Txn) error {
		return r.reconcile(tx)
	})
	if err != nil {
		return err
	}

	// Drop the barrier; bump the global epoch so TaskManagers reload
	// placements.
	if err := r.gcsUpdate(func(tx *gcs.Txn) error {
		tx.Delete(r.keyBarrier())
		txPutInt(tx, r.keyGlobalEpoch(), txGetInt(tx, r.keyGlobalEpoch(), 0)+1)
		return nil
	}); err != nil {
		return err
	}
	if r.rec != nil {
		// One span for the whole pass (barrier -> reconcile -> epoch bump),
		// stamped with the recovery generation.
		r.rec.Record(trace.Span{Kind: trace.KindRecovery, Worker: -1, Stage: -1, Channel: -1, Seq: -1,
			Epoch: gen, Start: started, Dur: time.Since(started)})
	}
	return nil
}

// reconcile is the body of Algorithm 2, run under the barrier.
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
	rrInput := 0 // round-robin cursor for input re-read placement
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
					for q := 0; q < committed; q++ {
						utask := lineage.TaskName{Stage: up, Channel: uc, Seq: q}
						owner := txGetInt(tx, r.keyPartDir(utask), -1)
						switch {
						case r.ft.has(capSpool) && r.spooled[up]:
							// Spooled partitions are durable: fetch them
							// from the object store on any live worker.
							// No cascade — the whole point of spooling.
							w := int(aliveIDs[rrInput%len(aliveIDs)])
							rrInput++
							addReplayDest(tx, r.keyReplay(w, utask), id)
						case r.ft.has(capBackup) && aliveSet[owner]:
							// Replay from the owner's local backup — the
							// cheap, common case of Figure 5.
							addReplayDest(tx, r.keyReplay(owner, utask), id)
						case r.plan.Stages[up].Reader != nil:
							// Input task: re-read the lost split anywhere
							// (data-parallel, like Spark, §III-B).
							w := int(aliveIDs[rrInput%len(aliveIDs)])
							rrInput++
							addReplayDest(tx, r.keyInputReplay(w, utask), id)
						default:
							// Backup lost with its worker (or spool mode
							// with an unspooled narrow stage): rewind the
							// producer channel too (Figure 5's (0,2,*)).
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
