package engine

import (
	"context"
	"fmt"
	"sync"
	"time"

	"quokka/internal/cluster"
	"quokka/internal/lineage"
	"quokka/internal/trace"
)

// This file is the worker-process side of process mode: a Runner built
// from a wire-shipped WorkerQuerySpec instead of NewRunner, executing ONE
// worker's task-manager threads against the head's remote GCS, flight
// mailboxes, object store and result sink. Coordination, recovery, the
// collector and teardown stay on the head; the worker's only jobs are the
// Algorithm 1 task protocol and the replay queue.

// minWorkerPollInterval floors the task-manager poll interval inside a
// worker process. In-memory polls are nanosecond map reads; over the wire
// each version probe is a head round trip, and sub-millisecond polling
// from W workers x ThreadsPerWorker threads would saturate the head with
// no-progress probes.
const minWorkerPollInterval = 2 * time.Millisecond

// newWorkerRunner builds the worker-process twin of the head's Runner for
// one query. It deliberately does NOT mint a query id, pass admission, or
// attach a collector-backed sink: the id, the admission slot and the
// collector live on the head; the spec carries the id and the sink relays
// deliveries to it.
func newWorkerRunner(cl *cluster.Cluster, spec *WorkerQuerySpec, sink ResultSink) (*Runner, error) {
	if ft := spec.Cfg.FT; ft != FTNone && ft != FTWriteAheadLineage {
		return nil, fmt.Errorf("engine: process mode supports FTNone and FTWriteAheadLineage only")
	}
	if sink == nil {
		return nil, fmt.Errorf("engine: worker runner needs a result sink")
	}
	r, err := newRunner(cl, spec.Plan, spec.Cfg, spec.QueryID)
	if err != nil {
		return nil, err
	}
	if r.cfg.PollInterval < minWorkerPollInterval {
		r.cfg.PollInterval = minWorkerPollInterval
	}
	r.sink = sink // the runner's own collector stays inert
	r.flushEvery = spec.FlushEvery
	r.shuffleCompress = spec.ShuffleCompress
	r.spillCompress = spec.SpillCompress
	if spec.Tracing {
		r.startTrace()
	}
	return r, nil
}

// RunWorkerQuery executes one worker's share of a query inside a worker
// process: it spawns the task-manager threads for worker self on cl (whose
// GCS, flight transports and object store are the wire clients the caller
// assembled) and blocks until ctx is cancelled — the wire layer cancels it
// on the head's STOP_QUERY. It returns the worker's recorded trace spans
// (nil when the spec did not enable tracing) for ship-back to the head.
//
// Fatal task errors (bad plan, corrupt data) are forwarded through onFail
// while the loops keep running — the head's coordinator owns the query's
// fate, exactly as with the in-memory failCh. Transient errors (dead
// consumers, fenced commits) never reach onFail.
func RunWorkerQuery(ctx context.Context, cl *cluster.Cluster, spec *WorkerQuerySpec, self cluster.WorkerID, sink ResultSink, onFail func(error)) ([]trace.Span, error) {
	if int(self) < 0 || int(self) >= len(cl.Workers) {
		return nil, fmt.Errorf("engine: no worker %d in a %d-worker cluster", self, len(cl.Workers))
	}
	r, err := newWorkerRunner(cl, spec, sink)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	// Same ordering contract as execute(): the committer must outlive every
	// task-manager thread. This process's committer folds its channels'
	// commits into shared remote transactions — the group-commit batching
	// now also amortizes wire round trips.
	if r.flushEvery >= 0 {
		r.gc = r.shared.committer(r.cl.GCS)
	}
	failDone := make(chan struct{})
	go func() {
		defer close(failDone)
		for {
			select {
			case <-ctx.Done():
				return
			case err := <-r.failCh:
				if onFail != nil {
					onFail(err)
				}
			}
		}
	}()
	w := cl.Worker(self)
	t := newTaskManager(r, w)
	var wg sync.WaitGroup
	for i := 0; i < r.cfg.ThreadsPerWorker; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t.loop(ctx)
		}()
	}
	<-ctx.Done()
	wg.Wait()
	cancel()
	<-failDone
	if r.gc != nil {
		r.shared.committerDone()
		r.gc = nil
	}
	// Local teardown only: spill runs and backups of this query on THIS
	// worker's disk. GCS and mailbox cleanup is the head's job.
	if w.Alive() {
		w.Disk.DeletePrefix(spillQueryPrefix(r.qid))
		w.Disk.DeletePrefix(backupQueryPrefix(r.qid))
	}
	if r.rec != nil {
		return r.rec.Snapshot(), nil
	}
	return nil, nil
}

// The head-side counterparts the wire server needs to relay worker
// messages into a running query.

// DeliverResult feeds a worker-relayed output partition into this runner's
// head-node collector, with the collector's usual backpressure semantics.
func (r *Runner) DeliverResult(t lineage.TaskName, data []byte, epoch int) bool {
	return r.collector.deliver(t, data, epoch)
}

// DeliverSpooledResult feeds a worker-relayed spool manifest into this
// runner's head-node collector.
func (r *Runner) DeliverSpooledResult(t lineage.TaskName, worker int, size int64, epoch int) bool {
	return r.collector.deliverSpooled(t, worker, size, epoch)
}

// ReportWorkerFailure surfaces a worker process's fatal task error to the
// coordinator, failing the query like a local reportFailure would.
func (r *Runner) ReportWorkerFailure(err error) { r.reportFailure(err) }

// MergeWorkerSpans folds a worker process's shipped trace spans into the
// query's head-side recorder; no-op when tracing is off.
func (r *Runner) MergeWorkerSpans(spans []trace.Span) {
	if r.rec == nil {
		return
	}
	for _, s := range spans {
		r.rec.Record(s)
	}
}
