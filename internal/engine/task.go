package engine

import (
	"errors"
	"fmt"
	"time"

	"quokka/internal/batch"
	"quokka/internal/gcs"
	"quokka/internal/lineage"
	"quokka/internal/metrics"
	"quokka/internal/ops"
	"quokka/internal/trace"
)

// runTask executes the task a lineage record describes — read a split, run
// the operator over a range of one upstream channel's outputs, or finalize —
// and finishes it (push, back up, commit). A record just chosen and a
// record retraced from the log run through here alike, which is what makes
// a replayed task's output the original's.
func (t *taskManager) runTask(cs *chanState, rec lineage.Record, isReplay bool) (bool, error) {
	cs.yield()
	p := &pendingTask{seq: cs.cursor, rec: rec, started: time.Now()}
	var err error
	switch rec.Kind {
	case lineage.KindRead:
		// rec.Split is physical, and every read of it uses the plan's column
		// projection: a replayed read is byte-identical.
		var b *batch.Batch
		if b, err = t.readSplit(cs.stage.Reader, rec.Split); b != nil {
			p.outs = []*batch.Batch{b}
		}
	case lineage.KindConsume:
		p.outs, p.inRows, p.inBytes, err = t.consume(cs, rec)
	case lineage.KindFinalize:
		p.finalize = true
		if cs.op != nil { // a reader channel has no operator: it finalizes empty
			if p.outs, err = cs.op.Finalize(); err != nil {
				return false, fmt.Errorf("engine: finalize %s: %w", cs.id, err)
			}
			if len(p.outs) > 0 {
				t.chargeCompute(p.outs...)
			}
		}
	default:
		err = fmt.Errorf("engine: %s: lineage record of unknown kind %d", cs.id, rec.Kind)
	}
	if err != nil {
		return false, err
	}
	cs.pending = p
	if isReplay {
		t.r.count(metrics.TasksReplayed, 1)
	}
	return t.finishTask(cs, p, isReplay)
}

// consume runs the operator over the chosen inputs and returns its output
// batches, in order and unconcatenated, plus the consumed input volume
// (rows and wire bytes, for the task's trace span). A piece pushed from
// this worker comes with its producer's batch — an elided one with nothing
// else; only the others are decoded.
func (t *taskManager) consume(cs *chanState, rec lineage.Record) (outs []*batch.Batch, inRows, inBytes int64, err error) {
	pieces, err := t.mb.Take(t.r.qid, cs.id, rec.Input, rec.UpChannel, rec.FromSeq, rec.Count)
	if err != nil {
		return nil, 0, 0, err
	}
	for _, pc := range pieces {
		if len(pc.Data) == 0 && pc.Batch == nil {
			continue // empty partition: counts for the watermark only
		}
		b, how := pc.Batch, metrics.PiecesHanded
		if b == nil {
			if b, err = batch.Decode(pc.Data); err != nil {
				return nil, 0, 0, fmt.Errorf("engine: corrupt partition for %s: %w", cs.id, err)
			}
			how = metrics.PiecesDecoded
		}
		t.r.count(how, 1)
		if b.NumRows() == 0 {
			continue
		}
		inRows += int64(b.NumRows())
		inBytes += int64(len(pc.Data))
		t.chargeCompute(b)
		o, err := cs.op.Consume(rec.Input, b)
		if err != nil {
			return nil, 0, 0, fmt.Errorf("engine: %s consume: %w", cs.id, err)
		}
		outs = append(outs, o...)
	}
	return outs, inRows, inBytes, nil
}

// chargeCompute applies the modelled operator-kernel cost of processing bs
// (their payload together, as one batch), adjusted by the configured kernel
// efficiency, holding one of the worker's CPU slots for its duration.
func (t *taskManager) chargeCompute(bs ...*batch.Batch) {
	if t.r.cl.Cost.TimeScale <= 0 {
		return // real time: nothing would be slept, so no slot is taken
	}
	var bytes int64
	for _, b := range bs {
		bytes += b.ByteSize()
	}
	link := t.r.cl.Cost.Compute
	if s := t.r.cfg.ComputeScale; s > 0 && s != 1 {
		link.BytesPerS *= s
		link.Latency = time.Duration(float64(link.Latency) / s)
	}
	t.cpu <- struct{}{}
	t.r.cl.Cost.Apply(link, bytes)
	<-t.cpu
}

// readSplit reads one physical split for a reader spec, decoding only the
// columns the plan consumes and crediting the skipped column bytes.
func (t *taskManager) readSplit(spec *ReaderSpec, split int) (*batch.Batch, error) {
	b, skipped, err := ReadSplitCols(t.r.cl.ObjStore, spec.Table, split, spec.Cols)
	if err != nil {
		return nil, err
	}
	if skipped > 0 {
		t.r.count(metrics.ScanBytesSkipped, skipped)
	}
	return b, nil
}

// finishTask is the core of Algorithm 1, a straight line: encode the task's
// output once, persist what the FT policy wants durable before a consumer
// can see it, push, persist the producer-local backup and any checkpoint due,
// commit the write-ahead lineage in one flush, then the post-commit
// bookkeeping. The three persist steps (persist.go) each ask the policy for
// their capability and are no-ops without it. isReplay skips re-writing
// lineage that is already committed.
func (t *taskManager) finishTask(cs *chanState, p *pendingTask, isReplay bool) (bool, error) {
	task := lineage.TaskName{Stage: cs.id.Stage, Channel: cs.id.Channel, Seq: p.seq}
	// One serialization serves the push, the spool and the upstream backup,
	// under every FT mode; the modes differ only in where else the bytes go.
	// A retry of a pending task finds it built. The codec choice is invisible
	// downstream (frames are self-describing and decode to identical bytes),
	// so compressed backups and spools replay exactly like raw ones.
	edges := t.r.plan.Consumers(cs.id.Stage)
	if p.outs != nil {
		if err := t.encodeOutput(cs, p, edges); err != nil {
			// Not a transient failure: the next step runs the task afresh and
			// fails again, where a retry of p would commit the output that
			// encodeOutput already let go of.
			cs.pending = nil
			return false, err
		}
	}

	if err := t.persistBeforePush(cs, task, p, isReplay); err != nil {
		return false, err
	}

	// Push results downstream. Per Algorithm 1, a failed push (dead
	// consumer) aborts the task without committing; the pending outputs
	// are retried after recovery re-places the consumer. Push failures
	// are transient by construction, never fatal — but for an elided piece
	// whose consumer left this live worker, which no retry can give bytes.
	var pushStart time.Time
	if t.r.rec != nil {
		pushStart = time.Now()
	}
	if err := t.pushOutputs(cs, task, p, edges); err != nil {
		if errors.Is(err, errElidedPiece) {
			return false, err
		}
		return false, nil
	}
	if t.r.rec != nil {
		t.r.rec.Record(trace.Span{Kind: trace.KindPush, Replay: isReplay, Worker: int(t.w.ID),
			Stage: cs.id.Stage, Channel: cs.id.Channel, Seq: p.seq, Epoch: cs.cep,
			Start: pushStart, Dur: time.Since(pushStart), OutBytes: int64(len(p.payload))})
	}

	if err := t.persistAfterPush(task, p, edges); err != nil {
		return false, err
	}

	// Commit: lineage + cursor (+ done marker, + checkpoint mark) atomically.
	// The write set is handed to the cluster's shared committer, whose flush
	// folds commits from many channels — across every admitted query — into
	// one GCS transaction; commit-before-ack ordering is preserved because
	// this call blocks until the flush containing it has been applied. A
	// retry offers the mark its first attempt stored.
	if p.mark == nil {
		p.mark = t.persistBeforeCommit(cs, p)
	}
	err := t.gc.commit(&commitReq{
		r:        t.r,
		alive:    t.w.Alive,
		workerID: int(t.w.ID),
		id:       cs.id,
		cep:      cs.cep,
		gep:      cs.snap.gep,
		task:     task,
		rec:      p.rec,
		finalize: p.finalize,
		isReplay: isReplay,
		mark:     p.mark,
	})
	if err != nil {
		if err == gcs.ErrAborted {
			return false, nil // keep pending; retried under the next image
		}
		return false, err
	}

	// Post-commit bookkeeping. The watermark lives here, with the operator
	// state it describes, and nowhere in the control store.
	if p.rec.Kind == lineage.KindConsume {
		t.mb.Drop(t.r.qid, cs.id, p.rec.Input, p.rec.UpChannel, p.rec.FromSeq, p.rec.Count)
		cs.wm[lineage.EdgeChannel{Input: p.rec.Input, UpChannel: p.rec.UpChannel}] += p.rec.Count
	}
	cs.cursor = p.seq + 1
	if p.mark != nil {
		cs.lastCkpt = cs.cursor
	}
	cs.pending = nil
	if p.finalize {
		cs.done = true
		// The channel is complete: its spill runs (if any survive the
		// operator's own finalize cleanup) are garbage now.
		if sb, ok := cs.op.(ops.Spillable); ok {
			sb.DropSpill()
		}
	}
	t.r.count(metrics.TasksExecuted, 1)
	lat := time.Since(p.started)
	t.r.hTask.observe(int64(lat))
	if t.r.rec != nil {
		var spillB, spillR int64
		if cs.spillOp != nil {
			wb, wr := cs.spillOp.WrittenBytes(), cs.spillOp.WrittenRuns()
			spillB, spillR = wb-cs.spillBytes, wr-cs.spillRuns
			cs.spillBytes, cs.spillRuns = wb, wr
		}
		t.r.rec.Record(trace.Span{Kind: trace.KindTask, Replay: isReplay, Worker: int(t.w.ID),
			Stage: cs.id.Stage, Channel: cs.id.Channel, Seq: p.seq, Epoch: cs.cep,
			Start: p.started, Dur: lat,
			InRows: p.inRows, InBytes: p.inBytes,
			OutRows: p.outRows, OutBytes: int64(len(p.payload)),
			SpillBytes: spillB, SpillRuns: spillR})
	}
	return true, nil
}
