package engine

import (
	"fmt"

	"quokka/internal/lineage"
	"quokka/internal/metrics"
	"quokka/internal/ops"
)

// This file is everything the fault-tolerance policy persists besides the
// lineage record itself, and how recovery finds it again: finishTask's three
// persist steps, the stored piece set a replay re-pushes, and the checkpoint
// restore. Each asks the runner's capability bits (config.go) and does
// nothing without its capability; none of them knows the FT mode.

// persistBeforePush (capSpool) makes the task's piece set durable before
// any consumer can see it. Only exchange (wide-edge) outputs spool; fused
// narrow pipelines don't materialize, which is why the paper's category I
// queries see little spooling after aggregation pushdown (§V-C). A replayed
// task's object is the committed one, already there. A first execution
// always writes its own: an object under its key may be a refused
// incarnation's, which pushed other inputs' output and never committed.
func (t *taskManager) persistBeforePush(cs *chanState, task lineage.TaskName, p *pendingTask) error {
	if !t.r.ft.has(capSpool) || !t.r.spooled[cs.id.Stage] || p.replay {
		return nil
	}
	if err := t.r.cl.ObjStore.Put(spoolKey(t.r.qid, task), p.payload); err != nil {
		return err
	}
	t.r.count(metrics.SpoolWriteBytes, int64(len(p.payload)))
	return nil
}

// persistAfterPush (capBackup) is the upstream backup: the pushed bytes go
// to the producer's local disk so consumers can be re-fed after someone
// else's failure. Reader outputs are backed up too (Figure 5 shows stage-0
// partitions replayed from TaskManagers); a partition whose backup died with
// its worker comes back from its rewound producer, a reader's from its split.
// An output-stage task has no consumer to re-feed: the head holds its result.
func (t *taskManager) persistAfterPush(task lineage.TaskName, p *pendingTask, edges []Edge) error {
	if !t.r.ft.has(capBackup) || len(edges) == 0 {
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
		return t.r.cl.ObjStore.Get(spoolKey(t.r.qid, task))
	}
	return t.disk.Read(backupKey(t.r.qid, task))
}

// persistBeforeCommit (capCheckpoint) snapshots the channel's operator state
// every CheckpointEveryTasks tasks and returns the encoded mark the task's
// commit writes beside its cursor, or nil; a finished channel has no state
// worth keeping. The snapshot goes to durable storage — this is exactly the
// growing-state cost §V-C measures — before the commit, so the mark lands
// with the task it follows, under the same fences, or not at all. The state
// already holds this task's input, so the mark's watermark does too.
func (t *taskManager) persistBeforeCommit(cs *chanState, p *pendingTask) []byte {
	if !t.r.ft.has(capCheckpoint) || p.finalize || cs.op == nil {
		return nil
	}
	sn, ok := cs.op.(ops.Snapshotter)
	seq := p.seq + 1
	if !ok || seq-cs.lastCkpt < t.r.cfg.CheckpointEveryTasks {
		return nil
	}
	data, err := sn.Snapshot()
	if err != nil || len(data) == 0 {
		return nil
	}
	objKey := checkpointKey(t.r.qid, cs.id, cs.cep, seq)
	if err := t.r.cl.ObjStore.Put(objKey, data); err != nil {
		return nil
	}
	t.r.count(metrics.CheckpointBytes, int64(len(data)))
	wm := cs.wm.Clone()
	if p.rec != nil {
		wm[lineage.EdgeChannel{Input: p.rec.Input, UpChannel: p.rec.UpChannel}] += p.rec.Count
	}
	return encodeCheckpoint(checkpointMark{Seq: seq, ObjKey: objKey, WM: wm})
}

// restoreCheckpoint loads the operator state snapshot referenced by the
// checkpoint marker.
func (t *taskManager) restoreCheckpoint(cs *chanState, ck *checkpointMark) error {
	sn, ok := cs.op.(ops.Snapshotter)
	if !ok {
		return fmt.Errorf("engine: channel %s has checkpoint but operator cannot restore", cs.id)
	}
	data, err := t.r.cl.ObjStore.Get(ck.ObjKey)
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
