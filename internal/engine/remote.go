package engine

import (
	"context"
	"sync"

	"quokka/internal/cluster"
)

// RemoteExec is where a query's task managers run. Runner.execute hands
// every query to the cluster's executor and keeps everything else —
// admission, seeding, coordination, recovery, the collector, and teardown.
// The default runs each live worker's task manager in this process
// (localExec); the wire server, installed with SetRemoteExec, ships each
// live worker process the query's WorkerQuerySpec, and the process runs the
// same runTaskManager against the head's wire-served backends.
type RemoteExec interface {
	// StartQuery starts the task-manager threads of every live worker. stop
	// tells them to stop and blocks until each live one has (a worker
	// process also ships its trace spans back); it is called exactly once.
	StartQuery(r *Runner) (stop func(), err error)
}

// SetRemoteExec installs the cluster's executor; nil restores the
// in-memory default. Queries submitted afterwards observe it.
func SetRemoteExec(cl *cluster.Cluster, rx RemoteExec) {
	if rx == nil {
		rx = localExec{}
	}
	s := sharedFor(cl)
	s.mu.Lock()
	s.exec = rx
	s.mu.Unlock()
}

// executor returns where the next query's task managers will run.
func (s *clusterShared) executor() RemoteExec {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.exec
}

// localExec is the in-memory cluster as an executor: every live worker's
// task manager runs in this process on the head's own Runner — which is
// what lets them share one poll snapshot and one set of per-query metrics.
type localExec struct{}

func (localExec) StartQuery(r *Runner) (func(), error) {
	// Background, not the query's context: the threads' lifetime is owned by
	// stop, which execute calls on every path once coordination has ended.
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for _, w := range r.cl.Workers {
		if !w.Alive() {
			continue
		}
		wg.Add(1)
		go func(w *cluster.Worker) {
			defer wg.Done()
			r.runTaskManager(ctx, w)
		}(w)
	}
	return func() {
		cancel()
		wg.Wait()
	}, nil
}
