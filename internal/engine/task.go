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

// runTask executes one task and finishes it (push, back up, commit): with
// rec set, the consume of its range; else the read of run, the physical
// splits readerStep computed, or — run nil — the channel's last task. A
// range just chosen and one retraced from the log run through here alike,
// which is what makes a replayed task's output the original's.
func (t *taskManager) runTask(cs *chanState, rec *lineage.Record, run []int, isReplay bool) (bool, error) {
	cs.yield()
	p := &pendingTask{seq: cs.cursor, rec: rec, replay: isReplay, started: time.Now()}
	var err error
	switch {
	case rec != nil:
		err = t.consume(cs, p)
	case run != nil:
		p.outs, p.inRows, err = t.readRun(cs, run)
	default:
		p.finalize = true
		if cs.op != nil { // a bare reader has no operator: it finalizes empty
			if p.outs, err = cs.op.Finalize(); err != nil {
				return false, fmt.Errorf("engine: finalize %s: %w", cs.id, err)
			}
			if len(p.outs) > 0 {
				t.chargeCompute(p.outs...)
			}
		}
	}
	if err != nil {
		return false, err
	}
	cs.pending = p
	if isReplay {
		t.r.count(metrics.TasksReplayed, 1)
	}
	return t.finishTask(cs, p)
}

// consume runs the operator over p's range and sets p's output batches, in
// order and unconcatenated, the consumed input volume (rows and wire bytes,
// for the task's trace span) and the generations of the slots it took, which
// the commit's Drop frees. A piece pushed from this worker comes with its
// producer's batch — an elided one with nothing else; only the others are
// decoded.
func (t *taskManager) consume(cs *chanState, p *pendingTask) error {
	rec := p.rec
	pieces, err := t.mb.Take(t.r.qid, cs.id, rec.Input, rec.UpChannel, rec.FromSeq, rec.Count)
	if err != nil {
		return err
	}
	p.gens = make([]uint64, len(pieces))
	for i, pc := range pieces {
		p.gens[i] = pc.Gen
		if len(pc.Data) == 0 && pc.Batch == nil {
			continue // empty partition: counts for the watermark only
		}
		b, how := pc.Batch, t.r.cHanded
		if b == nil {
			if b, err = batch.Decode(pc.Data); err != nil {
				return fmt.Errorf("engine: corrupt partition for %s: %w", cs.id, err)
			}
			how = t.r.cDecoded
		}
		how.add(1)
		p.inRows += int64(b.NumRows())
		p.inBytes += int64(len(pc.Data))
		if p.outs, err = t.feed(cs, rec.Input, b, p.outs); err != nil {
			return err
		}
	}
	return nil
}

// feed runs one input batch through the stage's operator, charging its
// modelled compute, and appends what it emits to outs: a reader's split and
// a shuffled piece go through the operator alike. A bare reader emits what
// it read.
func (t *taskManager) feed(cs *chanState, input int, b *batch.Batch, outs []*batch.Batch) ([]*batch.Batch, error) {
	if cs.op == nil {
		return append(outs, b), nil
	}
	if b.NumRows() == 0 {
		return outs, nil
	}
	t.chargeCompute(b)
	o, err := cs.op.Consume(input, b)
	if err != nil {
		return nil, fmt.Errorf("engine: %s consume: %w", cs.id, err)
	}
	return append(outs, o...), nil
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

// readRun reads a reader task's splits, fetched in one request, and decodes
// each with the plan's column projection, prepared once for the run, so a
// retraced read is byte-identical, feeding it to the stage's operator. It
// returns the outputs and the rows read, the stage's rows in.
func (t *taskManager) readRun(cs *chanState, run []int) (outs []*batch.Batch, rows int64, err error) {
	spec := cs.stage.Reader
	vals, err := readSplits(t.r.cl.ObjStore, spec.Table, run)
	if err != nil {
		return nil, 0, err
	}
	proj := batch.NewProjection(spec.Cols)
	for _, v := range vals {
		b, skipped, err := proj.Decode(v)
		if err != nil {
			return nil, 0, err
		}
		if skipped > 0 {
			t.r.count(metrics.ScanBytesSkipped, skipped)
		}
		rows += int64(b.NumRows())
		if outs, err = t.feed(cs, 0, b, outs); err != nil {
			return nil, 0, err
		}
	}
	return outs, rows, nil
}

// finishTask is the core of Algorithm 1, a straight line: encode the task's
// output once, persist what the FT policy wants durable before a consumer
// can see it, push, persist the producer-local backup and any checkpoint due,
// commit the write-ahead lineage in one flush, then the post-commit
// bookkeeping. The three persist steps (persist.go) each ask the policy for
// their capability and are no-ops without it. A retrace (p.replay) re-writes
// no lineage: its record is committed already.
func (t *taskManager) finishTask(cs *chanState, p *pendingTask) (bool, error) {
	task := lineage.TaskName{Stage: cs.id.Stage, Channel: cs.id.Channel, Seq: p.seq}
	// One serialization serves the push, the spool and the upstream backup,
	// under every FT mode; the modes differ only in where else the bytes go.
	// A retry of a pending task finds it built.
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

	if err := t.persistBeforePush(cs, task, p); err != nil {
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
		t.r.rec.Record(trace.Span{Kind: trace.KindPush, Replay: p.replay, Worker: int(t.w.ID),
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
	err := t.r.shared.gc.commit(&commitReq{
		r:        t.r,
		alive:    t.w.Alive,
		id:       cs.id,
		cep:      cs.cep,
		gep:      cs.snap.gep,
		task:     task,
		rec:      p.rec,
		finalize: p.finalize,
		isReplay: p.replay,
		mark:     p.mark,
	})
	if err != nil {
		if err == gcs.ErrAborted {
			return false, nil // keep pending; retried under the next image
		}
		return false, err
	}

	// Post-commit bookkeeping. The watermark lives here, with the operator
	// state it describes, and nowhere in the control store. The Drop frees
	// only the slots this task took: one a replay refilled since is a rewound
	// incarnation's.
	if p.rec != nil {
		t.mb.Drop(t.r.qid, cs.id, p.rec.Input, p.rec.UpChannel, p.rec.FromSeq, p.gens)
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
	t.r.cTasks.add(1)
	lat := time.Since(p.started)
	t.r.hTask.observe(int64(lat))
	if t.r.rec != nil {
		var spillB, spillR int64
		if cs.spillOp != nil {
			wb, wr := cs.spillOp.WrittenBytes(), cs.spillOp.WrittenRuns()
			spillB, spillR = wb-cs.spillBytes, wr-cs.spillRuns
			cs.spillBytes, cs.spillRuns = wb, wr
		}
		t.r.rec.Record(trace.Span{Kind: trace.KindTask, Replay: p.replay, Worker: int(t.w.ID),
			Stage: cs.id.Stage, Channel: cs.id.Channel, Seq: p.seq, Epoch: cs.cep,
			Start: p.started, Dur: lat,
			InRows: p.inRows, InBytes: p.inBytes,
			OutRows: p.outRows, OutBytes: int64(len(p.payload)),
			SpillBytes: spillB, SpillRuns: spillR})
	}
	return true, nil
}
