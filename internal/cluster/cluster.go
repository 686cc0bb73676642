// Package cluster simulates the worker fleet the engine runs on: each
// worker owns a Flight mailbox and a local NVMe disk and can be killed at
// any time, losing both — the failure model of spot pre-emptions and pod
// evictions the paper targets. The head node (GCS, coordinator, result
// collection) is assumed reliable, as in the paper.
package cluster

import (
	"fmt"
	"sync"
	"sync/atomic"

	"quokka/internal/flight"
	"quokka/internal/gcs"
	"quokka/internal/metrics"
	"quokka/internal/storage"
)

// WorkerID identifies a worker.
type WorkerID int

// Worker is one machine: simulated (goroutines against in-memory
// backends) or real (an OS process attached in process mode — then the
// head's Peer is its handle on the mailbox that process hosts, whose
// Fail severs the process's control connection, and killFn delivers a
// real SIGKILL).
type Worker struct {
	ID WorkerID
	// Peer is the worker's mailbox as every process may call it. Mailbox and
	// Disk are the owner's view, set only in the process that hosts the
	// worker — the one there is in memory, the quokka-worker itself in
	// process mode — and nil in every other.
	Peer    flight.Peer
	Mailbox flight.Mailbox
	Disk    storage.Disk

	alive  atomic.Bool
	kill   chan struct{} // closed on Kill; task loops select on it
	once   sync.Once
	killFn func() // optional: kill the real process behind this worker
}

// NewWorker builds a live worker this process hosts from its parts.
func NewWorker(id WorkerID, mb flight.Mailbox, disk storage.Disk) *Worker {
	w := NewPeer(id, mb)
	w.Mailbox, w.Disk = mb, disk
	return w
}

// NewPeer builds a live worker another process hosts: all there is of it
// here is a handle on its mailbox.
func NewPeer(id WorkerID, p flight.Peer) *Worker {
	w := &Worker{ID: id, Peer: p, kill: make(chan struct{})}
	w.alive.Store(true)
	return w
}

// SetKillFn installs the hook Kill runs for a process-backed worker
// (typically syscall.SIGKILL of its pid). Must be set before Kill.
func (w *Worker) SetKillFn(fn func()) { w.killFn = fn }

// Alive reports whether the worker is still up.
func (w *Worker) Alive() bool { return w.alive.Load() }

// Killed returns a channel closed when the worker dies.
func (w *Worker) Killed() <-chan struct{} { return w.kill }

// Kill fails the machine: its mailbox and disk are destroyed, any
// in-flight tasks observe the closed Killed channel, and a process-backed
// worker's process is killed for real. Idempotent.
func (w *Worker) Kill() {
	w.once.Do(func() {
		w.alive.Store(false)
		if w.killFn != nil {
			w.killFn()
		}
		w.Peer.Fail()
		if w.Disk != nil {
			w.Disk.Wipe()
		}
		close(w.kill)
	})
}

// Cluster is the set of workers plus the shared services: the GCS on the
// head node and the durable object store. Head is the head's own write path
// on the GCS (seed, recovery, cleanup) and HeadObjs its own object store
// (table loads, catalog reads, the per-query sweep); both are nil in a worker
// process's view of the cluster.
type Cluster struct {
	Workers  []*Worker
	GCS      gcs.Backend
	Head     gcs.Head
	ObjStore storage.Objects
	HeadObjs *storage.ObjectStore
	Cost     storage.CostModel
	Metrics  *metrics.Collector

	sharedMu sync.Mutex
	shared   any
}

// SharedExec returns the cluster's cross-query execution state, creating
// it with init on first use. The engine stores its per-cluster admission
// controller and per-worker resource pools here; the cluster package keeps
// the slot opaque so it does not depend on the engine.
func (c *Cluster) SharedExec(init func() any) any {
	c.sharedMu.Lock()
	defer c.sharedMu.Unlock()
	if c.shared == nil {
		c.shared = init()
	}
	return c.shared
}

// Options configures cluster construction.
type Options struct {
	Workers  int
	Cost     storage.CostModel
	Profile  storage.Profile // object store profile (default S3)
	Metrics  *metrics.Collector
	ObjStore *storage.ObjectStore // optional: share a pre-loaded store
}

// New builds a cluster of n live workers.
func New(opt Options) (*Cluster, error) {
	if opt.Workers <= 0 {
		return nil, fmt.Errorf("cluster: need at least 1 worker, got %d", opt.Workers)
	}
	met := opt.Metrics
	if met == nil {
		met = &metrics.Collector{}
	}
	store := gcs.New(opt.Cost, met)
	c := &Cluster{
		GCS:     store,
		Head:    store,
		Cost:    opt.Cost,
		Metrics: met,
	}
	c.HeadObjs = opt.ObjStore
	if c.HeadObjs == nil {
		c.HeadObjs = storage.NewObjectStore(opt.Cost, opt.Profile, met)
	}
	c.ObjStore = c.HeadObjs
	for i := 0; i < opt.Workers; i++ {
		c.Workers = append(c.Workers, NewWorker(
			WorkerID(i),
			flight.NewServer(opt.Cost, met),
			storage.NewLocalDisk(opt.Cost, met),
		))
	}
	return c, nil
}

// Worker returns the worker with the given id.
func (c *Cluster) Worker(id WorkerID) *Worker { return c.Workers[id] }

// Alive returns the ids of live workers, in order.
func (c *Cluster) Alive() []WorkerID {
	var out []WorkerID
	for _, w := range c.Workers {
		if w.Alive() {
			out = append(out, w.ID)
		}
	}
	return out
}

// AliveCount returns the number of live workers.
func (c *Cluster) AliveCount() int { return len(c.Alive()) }
