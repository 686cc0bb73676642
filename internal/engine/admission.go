package engine

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"quokka/internal/cluster"
	"quokka/internal/metrics"
)

// This file holds the cluster's cross-query execution state: the admission
// controller that bounds how many queries execute at once (FIFO queueing
// beyond the bound), the per-worker CPU slot pools shared by every
// in-flight query, and the group committer (groupcommit.go) that folds
// every query's lineage commits into shared flushes.
//
// Admission touches no per-query GCS namespace: it is a purely head-node
// concern, and a queued query has no execution state at all (its
// namespace is seeded only once it is admitted).

// DefaultAdmissionLimit is the default bound on concurrently admitted
// queries per cluster. Submissions beyond it queue FIFO.
const DefaultAdmissionLimit = 4

// clusterShared is the engine state shared by all queries on one cluster.
type clusterShared struct {
	nextQID atomic.Int64
	admit   *admission

	mu   sync.Mutex
	cpus map[cluster.WorkerID]chan struct{}

	// opts is what the Configure options set and resolve reads: the
	// cluster-level half of every query's Policy.
	opts clusterOptions

	// listenAddr is the TCP address the head serves its control plane on in
	// process mode ("" = in-memory only; experimental). exec is where a
	// query's task managers run: the in-memory workers (localExec) until the
	// wire layer installs its server with SetRemoteExec.
	listenAddr string
	exec       RemoteExec

	// gc is the cluster's shared group committer: concurrent queries'
	// lineage commits fold into the same GCS transactions.
	gc groupCommitter
}

// sharedFor returns (creating on first use) the cluster's shared engine
// state.
func sharedFor(cl *cluster.Cluster) *clusterShared {
	return cl.SharedExec(func() any {
		return &clusterShared{
			admit: newAdmission(DefaultAdmissionLimit, cl.Metrics),
			cpus:  make(map[cluster.WorkerID]chan struct{}),
			exec:  localExec{},
		}
	}).(*clusterShared)
}

// newQueryID mints a cluster-unique query id. Every piece of per-query
// state — GCS keys, flight mailbox slots, disk backups, spill namespaces —
// is prefixed with it, which is what lets N runners coexist on one cluster.
func (s *clusterShared) newQueryID() string {
	return fmt.Sprintf("q%d", s.nextQID.Add(1))
}

// cpuFor returns the worker's shared CPU slot pool, creating it with the
// given capacity on first use. Every concurrent query's modelled kernel
// work competes for the same slots, so admission of a second query never
// doubles the modelled cores of the machine.
//
// The pool models the worker's CORES, which are hardware, not a query
// knob: the first query to execute on a cluster sizes each worker's pool
// from its Config.CPUPerWorker, and later queries share that pool
// regardless of their own setting (documented on Config.CPUPerWorker).
// Capacity only shapes modelled timing — task outputs never depend on it.
func (s *clusterShared) cpuFor(w cluster.WorkerID, capacity int) chan struct{} {
	s.mu.Lock()
	defer s.mu.Unlock()
	ch, ok := s.cpus[w]
	if !ok {
		if capacity <= 0 {
			capacity = 1
		}
		ch = make(chan struct{}, capacity)
		s.cpus[w] = ch
	}
	return ch
}

// admission is a FIFO bounded-concurrency gate.
type admission struct {
	mu      sync.Mutex
	limit   int
	active  int
	waiters []chan struct{} // FIFO; closed slot == admitted
	met     *metrics.Collector
}

func newAdmission(limit int, met *metrics.Collector) *admission {
	return &admission{limit: limit, met: met}
}

func (a *admission) setLimit(n int) {
	a.mu.Lock()
	a.limit = n
	a.grantLocked()
	a.mu.Unlock()
}

// grantLocked admits queued waiters while capacity remains.
func (a *admission) grantLocked() {
	for len(a.waiters) > 0 && a.active < a.limit {
		w := a.waiters[0]
		a.waiters = a.waiters[1:]
		a.active++
		close(w)
	}
}

// acquire blocks until the query is admitted or ctx is done. Admission is
// strictly FIFO: a submission never overtakes an earlier one.
func (a *admission) acquire(ctx context.Context) error {
	a.mu.Lock()
	if len(a.waiters) == 0 && a.active < a.limit {
		a.active++
		a.recordActiveLocked()
		a.mu.Unlock()
		return nil
	}
	w := make(chan struct{})
	a.waiters = append(a.waiters, w)
	a.mu.Unlock()
	a.met.Add(metrics.QueriesQueued, 1)

	select {
	case <-w:
		a.mu.Lock()
		a.recordActiveLocked()
		a.mu.Unlock()
		return nil
	case <-ctx.Done():
		a.mu.Lock()
		admitted := false
		for i, q := range a.waiters {
			if q == w {
				a.waiters = append(a.waiters[:i], a.waiters[i+1:]...)
				admitted = false
				goto out
			}
		}
		// Not found in the queue: we were granted concurrently with the
		// cancellation. Give the slot back.
		admitted = true
	out:
		if admitted {
			a.active--
			a.grantLocked()
		}
		a.mu.Unlock()
		return ctx.Err()
	}
}

func (a *admission) recordActiveLocked() {
	a.met.Add(metrics.QueriesAdmitted, 1)
	a.met.Add(metrics.QueriesActive, 1)
	a.met.Max(metrics.QueriesPeak, int64(a.active))
}

// release frees an admission slot and admits the next queued query.
func (a *admission) release() {
	a.mu.Lock()
	a.active--
	a.met.Add(metrics.QueriesActive, -1)
	a.grantLocked()
	a.mu.Unlock()
}
