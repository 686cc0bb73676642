package engine

import (
	"fmt"

	"quokka/internal/gcs"
	"quokka/internal/lineage"
	"quokka/internal/metrics"
	"quokka/internal/ops"
)

// This file is everything the fault-tolerance policy persists besides the
// lineage record itself, and how recovery finds it again: finishTask's three
// persist steps, the stored piece set a replay re-pushes, and the checkpoint
// restore. Each asks the runner's capability bits (config.go) and does
// nothing without its capability; none of them knows the FT mode.

// spoolKey names a task's spooled piece set in the runner's durable store.
func spoolKey(task lineage.TaskName) string { return "spool/" + task.String() }

// persistBeforePush (capSpool) makes the task's piece set durable before
// any consumer can see it. Only exchange (wide-edge) outputs spool; fused
// narrow pipelines don't materialize, which is why the paper's category I
// queries see little spooling after aggregation pushdown (§V-C). A replayed
// task's object is already there.
func (t *taskManager) persistBeforePush(cs *chanState, task lineage.TaskName, p *pendingTask, isReplay bool) error {
	if !t.r.ft.has(capSpool) || !t.r.spooled[cs.id.Stage] || isReplay {
		return nil
	}
	key := spoolKey(task)
	if t.r.spool.Has(key) {
		return nil // a retry of a pending task: same bytes, already stored
	}
	if err := t.r.spool.Put(key, p.payload); err != nil {
		return err
	}
	t.r.count(metrics.SpoolWriteBytes, int64(len(p.payload)))
	return nil
}

// persistAfterPush (capBackup) is the upstream backup: the pushed bytes go
// to the producer's local disk so consumers can be re-fed after someone
// else's failure. Reader outputs are backed up too (Figure 5 shows stage-0
// partitions replayed from TaskManagers); only partitions whose backup died
// with its worker fall back to Algorithm 2's "input task" S3 re-read.
func (t *taskManager) persistAfterPush(task lineage.TaskName, p *pendingTask) error {
	if !t.r.ft.has(capBackup) {
		return nil
	}
	if err := t.disk.Write(backupKey(t.r.qid, task), p.payload); err != nil {
		return err
	}
	t.r.count(metrics.BackupWriteBytes, int64(len(p.payload)))
	return nil
}

// storedPieceSet reads back the piece set of a committed task for a replay
// scheduled by reconcile's rp/ queue: from the durable spool when the
// policy spools (reconcile only queues spooled stages then), else from this
// worker's upstream backup.
func (t *taskManager) storedPieceSet(task lineage.TaskName) ([]byte, error) {
	if t.r.ft.has(capSpool) {
		return t.r.spool.Get(spoolKey(task))
	}
	return t.disk.Read(backupKey(t.r.qid, task))
}

// persistAfterCommit (capCheckpoint) snapshots the channel's operator state
// every CheckpointEveryTasks committed tasks; a finished channel has no
// state worth keeping. The snapshot goes to durable storage — this is
// exactly the growing-state cost §V-C measures.
func (t *taskManager) persistAfterCommit(cs *chanState, p *pendingTask) {
	if !t.r.ft.has(capCheckpoint) || p.finalize || cs.op == nil {
		return
	}
	sn, ok := cs.op.(ops.Snapshotter)
	if !ok {
		return
	}
	if cs.cursor-cs.lastCkpt < t.r.cfg.CheckpointEveryTasks {
		return
	}
	data, err := sn.Snapshot()
	if err != nil || len(data) == 0 {
		return
	}
	objKey := fmt.Sprintf("ckpt/%s/%s/%d", t.r.qid, cs.id, cs.cursor)
	if err := t.r.spool.Put(objKey, data); err != nil {
		return
	}
	t.r.count(metrics.CheckpointBytes, int64(len(data)))
	mark := checkpointMark{Seq: cs.cursor, ObjKey: objKey, WM: cs.wm}
	t.r.gcsUpdate(func(tx *gcs.Txn) error {
		if txGetInt(tx, t.r.keyChanEpoch(cs.id), 0) != cs.cep {
			return gcs.ErrAborted
		}
		tx.Put(t.r.keyCheckpoint(cs.id), encodeCheckpoint(mark))
		return nil
	})
	cs.lastCkpt = cs.cursor
}

// restoreCheckpoint loads the operator state snapshot referenced by the
// checkpoint marker.
func (t *taskManager) restoreCheckpoint(cs *chanState, ck *checkpointMark) error {
	sn, ok := cs.op.(ops.Snapshotter)
	if !ok {
		return fmt.Errorf("engine: channel %s has checkpoint but operator cannot restore", cs.id)
	}
	data, err := t.r.spool.Get(ck.ObjKey)
	if err != nil {
		return err
	}
	if err := sn.Restore(data); err != nil {
		return err
	}
	cs.wm = ck.WM.Clone()
	cs.lastCkpt = ck.Seq
	return nil
}
