package engine

import (
	"context"
	"fmt"
	"sync"

	"quokka/internal/cluster"
	"quokka/internal/trace"
)

// This file is the launch of one worker's task manager — the same function
// for goroutines in the head's process and for a quokka-worker process —
// and the worker-process side of process mode: a Runner built from a
// wire-shipped WorkerQuerySpec instead of NewRunner, executing ONE worker's
// threads against its own mailbox, its peers' over the wire, and the head's
// remote GCS, object store and result sink. Coordination, recovery, the collector and teardown stay on the
// head; the worker's only jobs are the Algorithm 1 task protocol and the
// replay queue.

// runTaskManager is the one launch: it runs worker w's ThreadsPerWorker
// executor threads for this query until ctx is cancelled or w is killed —
// either ends every wait a thread is parked in — then sweeps the query's
// state off w's disk. The in-memory executor calls it for every live worker
// on the head's Runner; RunWorkerQuery calls it for the one worker its
// process is.
func (r *Runner) runTaskManager(ctx context.Context, w *cluster.Worker) {
	t := newTaskManager(r, w)
	// The committer is held for exactly the threads' lifetime: a thread
	// blocks inside finishTask until its flush resolves, so the flusher must
	// outlive them all. It is cluster-shared and refcounted: commits fold
	// across every worker and admitted query of this process, which in a
	// worker process also amortizes wire round trips.
	t.gc = r.shared.committer(r.cl.GCS)
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	go func() {
		select {
		case <-w.Killed():
		case <-ctx.Done():
		}
		cancel()
	}()
	var wg sync.WaitGroup
	for i := 0; i < r.cfg.ThreadsPerWorker; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t.loop(ctx)
		}()
	}
	wg.Wait()
	r.shared.committerDone()
	// Worker-local teardown on every exit path — completion, failure and
	// cancellation: this query's spill runs and upstream backups on THIS
	// worker's disk, the no-leak guarantee the tests assert on. Only w's own
	// threads write its disk, and they have exited; a killed worker's disk
	// was wiped with it. Mailbox and GCS cleanup is the head's (cleanup).
	if w.Alive() {
		t.disk.DeletePrefix(spillQueryPrefix(r.qid))
		t.disk.DeletePrefix(backupQueryPrefix(r.qid))
	}
}

// newWorkerRunner builds the worker-process twin of the head's Runner for
// one query. It deliberately does NOT mint a query id, resolve a policy,
// pass admission, or attach a collector-backed sink: the id, the policy,
// the admission slot and the collector are the head's; the spec carries
// the first two and the sink relays deliveries to the last. Only what is
// local to this process is set here.
func newWorkerRunner(cl *cluster.Cluster, spec *WorkerQuerySpec, sink ResultSink) (*Runner, error) {
	if sink == nil {
		return nil, fmt.Errorf("engine: worker runner needs a result sink")
	}
	r, err := newRunner(cl, spec.Plan, spec.Cfg, spec.QueryID)
	if err != nil {
		return nil, err
	}
	r.sink = sink // the runner's own collector stays inert
	return r, nil
}

// RunWorkerQuery executes one worker's share of a query inside a worker
// process: it runs the task manager of worker self on cl (whose GCS, object
// store and peers are the wire clients the caller assembled, and whose worker
// self carries the owner's view: the mailbox and disk the process hosts) and
// blocks until ctx is cancelled — the wire layer cancels it
// on the head's STOP_QUERY. It returns the worker's recorded trace spans
// (nil when the spec did not enable tracing) for ship-back to the head.
//
// Fatal task errors (bad plan, corrupt data) are forwarded through onFail
// while the loops keep running — the head's coordinator owns the query's
// fate, exactly as with the in-memory failCh. Transient errors (dead
// consumers, fenced commits) never reach onFail.
func RunWorkerQuery(ctx context.Context, cl *cluster.Cluster, spec *WorkerQuerySpec, self cluster.WorkerID, sink ResultSink, onFail func(error)) ([]trace.Span, error) {
	if int(self) < 0 || int(self) >= len(cl.Workers) || cl.Worker(self).Mailbox == nil {
		return nil, fmt.Errorf("engine: this process hosts no worker %d of the %d-worker cluster", self, len(cl.Workers))
	}
	r, err := newWorkerRunner(cl, spec, sink)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
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
	r.runTaskManager(ctx, cl.Worker(self))
	cancel()
	<-failDone
	if r.rec != nil {
		return r.rec.Snapshot(), nil
	}
	return nil, nil
}

// The head-side counterparts the wire server needs to relay worker
// messages into a running query.

// HeadSink is this runner's head-node collector as a ResultSink: the wire
// server feeds worker-relayed output partitions into it, with the
// collector's usual backpressure semantics.
func (r *Runner) HeadSink() ResultSink { return r.collector }

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
