package engine

import (
	"slices"

	"quokka/internal/flight"
	"quokka/internal/lineage"
	"quokka/internal/ops"
)

// step attempts one Algorithm 1 task step for a channel under snap, the
// caller's image of the namespace; the caller holds cs.protocol. It returns
// whether progress was made.
func (t *taskManager) step(cs *chanState, snap *snapshot) (bool, error) {
	meta := &snap.chans[cs.id.Stage][cs.id.Channel]
	// A meta is a snapshot; this channel may have moved since it was read
	// (another executor thread committed a task, or recovery rewound the
	// channel, between the snapshot and our TryLock). Epochs and cursors
	// only grow, so staleness is detectable — and acting on a stale meta is
	// not just wasted work: meta.record() is "the lineage record at
	// meta.cursor", which for a stale cursor is the PREVIOUS task's record;
	// replaying it at the current seq would duplicate that task's output
	// and commit the seq without lineage. Skip instead — whatever moved the
	// channel also moved the namespace version, so the next poll round runs
	// under a newer image: loaded, or advanced past the committer's flush.
	if meta.cep < cs.cep {
		return false, nil
	}
	if meta.cep > cs.cep {
		if err := t.resetChannel(cs, meta); err != nil {
			return false, err
		}
	}
	if cs.done {
		return false, nil
	}
	if meta.cursor != cs.cursor {
		return false, nil
	}
	// snap is current for this channel: the step's pushes are placed by it
	// and its commit — a pending task's retry included — is fenced on its
	// global epoch.
	cs.snap = snap
	if cs.op == nil && cs.stage.Op != nil {
		cs.op = t.newOperator(cs)
		if rt := meta.rt; rt != nil && rt.mark != nil && rt.mark.Seq == cs.cursor {
			if err := t.restoreCheckpoint(cs, rt.mark); err != nil {
				return false, err
			}
		}
	}
	// Retry a pending task whose pushes previously failed.
	if p := cs.pending; p != nil {
		if p.seq != cs.cursor {
			cs.pending = nil
		} else {
			cs.yield()
			return t.finishTask(cs, p)
		}
	}
	if rec := meta.record(); rec != nil {
		return t.replayStep(cs, *rec)
	}
	return t.normalStep(cs)
}

// newOperator instantiates the channel's operator, which runs serially on
// the channel's thread: a stage's parallelism is its channel count.
func (t *taskManager) newOperator(cs *chanState) ops.Operator {
	op := cs.stage.Op.New(cs.id.Channel, t.r.par[cs.id.Stage])
	// Memory governance: spill-capable operators get a handle namespaced
	// by query, channel AND channel epoch, so a rewound channel's
	// replacement operator never collides with (or reads) stale
	// pre-failure run files — and concurrent queries' spill files never
	// collide with each other.
	if t.spill != nil {
		if sb, ok := op.(ops.Spillable); ok {
			so := t.spill.NewOp(spillNS(t.r.qid, cs.id, cs.cep))
			sb.SetSpill(so)
			cs.spillOp, cs.spillBytes, cs.spillRuns = so, 0, 0
		}
	}
	return op
}

// resetChannel synchronizes in-memory state with the GCS after a rewind
// (or on first touch): epoch, cursor and done mark all from the one
// transaction meta was read in, a fresh operator, and an empty watermark — a
// channel restarting at a checkpoint mark takes the mark's, with the state it
// restores (step).
func (t *taskManager) resetChannel(cs *chanState, meta *chanMeta) error {
	// Rewind cleanup: release the dead operator's accounted memory and
	// delete its spill runs, then sweep stale run files of ANY earlier
	// incarnation of this channel from the local disk (recovery restart
	// must not leak pre-failure spill files).
	if sb, ok := cs.op.(ops.Spillable); ok {
		sb.DropSpill()
	}
	if t.spill != nil {
		t.disk.DeletePrefix(spillChanPrefix(t.r.qid, cs.id))
	}
	cs.cep = meta.cep
	cs.cursor = meta.cursor
	cs.op = nil
	cs.pending = nil
	cs.lastCkpt = meta.cursor
	cs.spillOp, cs.spillBytes, cs.spillRuns = nil, 0, 0
	cs.wm = lineage.Watermark{}
	cs.done = meta.done == cs.cursor && cs.cursor > 0
	if cs.stage.Reader != nil {
		if cs.stage.Reader.Splits != nil {
			// The planner pruned: the cursor walks the survivor list, not
			// the physical split range.
			cs.splits = len(cs.stage.Reader.Splits)
		} else {
			n, err := TableSplits(t.r.cl.ObjStore, cs.stage.Reader.Table)
			if err != nil {
				return err
			}
			cs.splits = n
		}
	}
	return nil
}

// normalStep executes a task whose lineage is not yet determined: pick
// inputs dynamically (or per the static policy), then run the task the
// chosen record describes.
func (t *taskManager) normalStep(cs *chanState) (bool, error) {
	if cs.stage.Reader != nil {
		return t.readerStep(cs)
	}
	choice, exhausted := t.chooseInput(cs)
	switch {
	case choice != nil:
		rec := lineage.Consume(choice.ec.Input, choice.ec.UpChannel, choice.from, choice.count)
		return t.runTask(cs, &rec, nil, false)
	case exhausted:
		return t.runTask(cs, nil, nil, false) // the channel's final task
	}
	return false, nil // nothing consumable yet; task "exits without executing"
}

// inputChoice is the selected upstream range for one task.
type inputChoice struct {
	ec    lineage.EdgeChannel
	from  int
	count int
}

// chooseInput implements the consumption policy. It returns nil with
// exhausted=true when every input edge is fully consumed (time to
// finalize), or nil with exhausted=false when the task should wait.
func (t *taskManager) chooseInput(cs *chanState) (*inputChoice, bool) {
	// Establish the current phase: the smallest phase with an unexhausted
	// edge. Later-phase inputs are not consumable yet (build before probe).
	// What is known of an upstream channel — its committed task count and,
	// once finished, its done mark — is its row of the step's snapshot.
	curPhase := -1
	allExhausted := true
	for e, in := range cs.stage.Inputs {
		done := true
		for uc, up := range cs.snap.chans[in.Stage] {
			if up.done < 0 || cs.wm[lineage.EdgeChannel{Input: e, UpChannel: uc}] < up.done {
				done = false
				break
			}
		}
		if !done {
			allExhausted = false
			if curPhase == -1 || in.Phase < curPhase {
				curPhase = in.Phase
			}
		}
	}
	if allExhausted {
		return nil, true
	}

	// The current phase's edges that could yield a task go into ONE mailbox
	// probe; none, no probe. An edge can yield one only when its committed, unconsumed outputs
	// — upstream cursor past this channel's watermark — make a take: while the
	// producer runs, at least MinTake of them (a full StaticBatch under the
	// static policy); once it has finished, any.
	least := t.r.cfg.runLen()
	var probes []flight.Edge
	for e, in := range cs.stage.Inputs {
		if in.Phase != curPhase {
			continue
		}
		// Stagewise execution: Spark-style barrier at shuffle boundaries —
		// consume nothing across a wide edge until the entire upstream
		// stage has finished. Narrow (Direct) edges fuse into the same
		// Spark stage and keep streaming, the way Spark fuses chains of
		// narrow dependencies.
		ups := cs.snap.chans[in.Stage]
		if t.r.cfg.Execution == Stagewise && in.Part.Kind != PartitionDirect &&
			slices.ContainsFunc(ups, func(up chanMeta) bool { return up.done < 0 }) {
			continue
		}
		for uc, up := range ups {
			wm := cs.wm[lineage.EdgeChannel{Input: e, UpChannel: uc}]
			if up.cursor > wm && (up.done >= 0 || up.cursor-wm >= least) {
				probes = append(probes, flight.Edge{Input: e, UpChannel: uc, Watermark: wm})
			}
		}
	}
	if len(probes) == 0 {
		return nil, false
	}

	var best *inputChoice
	for i, avail := range t.mb.Probe(t.r.qid, cs.id, probes) {
		ec := lineage.EdgeChannel{Input: probes[i].Input, UpChannel: probes[i].UpChannel}
		up := &cs.snap.chans[cs.stage.Inputs[ec.Input].Stage][ec.UpChannel]
		wm := probes[i].Watermark
		avail = min(avail, up.cursor-wm) // only lineage-committed inputs count
		if avail <= 0 {
			continue
		}
		upFinished := up.done >= 0
		var take int
		if t.r.cfg.Dynamic {
			// Consume as much as is available, but don't wake up for
			// dribbles while the producer is still running: tiny tasks
			// would drown the pipeline in per-task overhead. Once the
			// producer finishes, any remainder is consumed.
			if !upFinished && avail < least {
				continue
			}
			take = min(avail, t.r.cfg.MaxTake)
		} else {
			switch {
			case avail >= least:
				take = least
			case upFinished && wm+avail == up.done:
				take = avail // final short batch
			default:
				continue // static policy: wait for a full batch
			}
		}
		if best == nil || take > best.count {
			best = &inputChoice{ec: ec, from: wm, count: take}
		}
	}
	return best, false
}

// readerStep executes one input-reader task: read the channel's next run
// of splits from the object store (ReaderSpec). With zone-map pruning the
// run indexes the survivor list, which is mapped to physical split numbers
// before the read. The run follows from the cursor and the plan alone, so
// nothing is logged: a rewound reader re-reads its runs through here, as its
// first run did. A channel whose next run is empty finalizes.
func (t *taskManager) readerStep(cs *chanState) (bool, error) {
	run := readerRun(cs.stage.Reader, cs.id.Channel, t.r.par[cs.id.Stage], t.r.cfg.runLen(), cs.cursor, cs.splits)
	return t.runTask(cs, nil, run, false)
}

// readerRun returns the physical splits of run k of reader channel c, at
// parallelism par and run length n over a split list of splits entries:
// entries c + (kn+i)·par, i < n, that exist; nil past the last.
func readerRun(spec *ReaderSpec, c, par, n, k, splits int) []int {
	var run []int
	for i := range n {
		e := c + (k*n+i)*par
		if e >= splits {
			break
		}
		if spec.Splits != nil {
			e = spec.Splits[e]
		}
		run = append(run, e)
	}
	return run
}

// replayStep re-executes a consume task under its committed lineage: the
// task is "retracing its footsteps" (§IV-C) and may not choose inputs
// dynamically.
func (t *taskManager) replayStep(cs *chanState, rec lineage.Record) (bool, error) {
	// All replayed inputs must be present; if replays are still in flight,
	// wait.
	edge := flight.Edge{Input: rec.Input, UpChannel: rec.UpChannel, Watermark: rec.FromSeq}
	if t.mb.Probe(t.r.qid, cs.id, []flight.Edge{edge})[0] < rec.Count {
		return false, nil
	}
	return t.runTask(cs, &rec, nil, true)
}
