// Package gcs implements the Global Control Store: the transactional
// key-value store at the heart of the paper's design (§IV-B). In the paper
// it is a Redis server on the head node; here it is an in-memory store
// with serializable multi-key transactions, prefix scans and a version
// counter that lets pollers wait efficiently for changes.
//
// Everything coordinated in Quokka — committed lineage, outstanding tasks,
// channel placement, done markers, the recovery barrier flag — lives here.
// The head node (and hence the GCS) is assumed not to fail, as in the
// paper; workers may fail at any time without corrupting it.
//
// The keyspace is sharded by namespace — the "q/<qid>/" prefix every
// engine key carries — so concurrent queries' transactions (UpdateNS,
// ViewNS) lock only their own shard and never contend on one global
// mutex. Whole-store transactions (Update, View) exist on Store only, for
// in-process callers that scan everything — tests and leak probes; they
// take every shard lock in order, preserving full serializability against
// the single-shard path.
package gcs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"quokka/internal/batch"
	"quokka/internal/metrics"
	"quokka/internal/storage"
)

// Backend is the GCS surface the engine runs against — exactly the methods
// it calls, specified in docs/contracts/gcs-backend.md. Store is the
// in-memory default (the head node's real store); process-mode workers
// use a wire client that runs each transaction interactively against the
// head — reads are served over the connection while the head holds the
// shard lock, writes are buffered locally and shipped at commit. Every
// transaction names its namespaces: the whole-store Update and View are
// Store methods only, so no remote peer can hold every query's shard lock.
type Backend interface {
	UpdateNS(ns string, fn func(tx *Txn) error) error
	UpdateMulti(nss []string, fn func(tx *Txn) error) error
	ViewNS(ns string, fn func(tx *Txn) error) error
	VersionNS(ns string) uint64
	// Version and WaitChange are reserved: nothing calls them through the
	// interface today. ROADMAP item 1(a) names them as the wake-up source
	// that replaces the poll sleep; the PR that closes that item removes
	// them if it does not use them.
	Version() uint64
	WaitChange(since uint64, timeout time.Duration) uint64
}

// numShards is the fixed shard count of the keyspace. Namespaces hash onto
// shards; 16 is comfortably above any realistic admission limit, so
// concurrent queries almost never share a shard lock.
const numShards = 16

// shard is one lock domain of the keyspace.
type shard struct {
	mu   sync.Mutex
	data map[string][]byte

	// ver counts committed write transactions that touched this shard.
	// Pollers snapshot it (VersionNS) to skip read transactions entirely
	// while their namespace is unchanged.
	ver atomic.Uint64
}

// Store is the Global Control Store. It is safe for concurrent use.
// Transactions are serializable: single-namespace transactions hold their
// shard's lock; cross-namespace transactions hold every shard lock.
type Store struct {
	cost storage.CostModel
	met  *metrics.Collector

	shards [numShards]shard

	// version is the store-wide commit counter, maintained under its own
	// tiny lock so WaitChange pollers never block data-plane commits.
	verMu   sync.Mutex
	version uint64
	cond    *sync.Cond
}

// New creates an empty store with the given cost model; each transaction
// is charged one head-node round trip plus payload transfer.
func New(cost storage.CostModel, met *metrics.Collector) *Store {
	s := &Store{cost: cost, met: met}
	for i := range s.shards {
		s.shards[i].data = make(map[string][]byte)
	}
	s.cond = sync.NewCond(&s.verMu)
	return s
}

// nsOf extracts the shard namespace of a key: the "q/<qid>/" prefix for
// engine keys, "" for anything else. Every key of one query maps to the
// same shard by construction.
func nsOf(key string) string {
	if strings.HasPrefix(key, "q/") {
		if i := strings.IndexByte(key[2:], '/'); i >= 0 {
			return key[:2+i+1]
		}
	}
	return ""
}

// shardOf hashes a namespace onto its shard. The mapping is transient
// process-local striping (lock + version granularity), but it still goes
// through the module's single blessed hash (batch.HashString) — the
// hashonce analyzer forbids hand-rolled fnv anywhere outside
// internal/batch.
func shardOf(ns string) int {
	return int(batch.HashString(ns) % numShards)
}

// Txn is the handle passed to transaction bodies. All reads observe the
// state as of transaction start; all writes apply atomically at commit.
// Txn methods must only be used inside the transaction body.
type Txn struct {
	s      *Store
	si     int               // locked shard index; -1 = all, -2 = multi (see multi)
	multi  *[numShards]bool  // locked-shard mask when si == -2
	writes map[string][]byte // nil value means delete
	bytes  int64

	// remote, when set, makes this a wire-client transaction: reads
	// delegate to the remote head (which holds the shard lock for the
	// transaction's duration) and writes stay buffered for shipment at
	// commit. rerr latches the first remote read failure — Get/List have
	// no error slot, so the client surfaces it after the body returns.
	remote TxnOps
	rerr   error
}

// TxnOps serves the read half of a remote transaction: Get and List
// executed on the head inside the open transaction's lock scope.
type TxnOps interface {
	Get(key string) ([]byte, bool, error)
	List(prefix string) ([]string, error)
}

// RemoteTxn builds the client half of a wire transaction. Reads go to
// ops; writes (unless readOnly) buffer locally — the caller ships
// Writes() to the head at commit, where they are applied through a real
// Txn so the namespace-shard discipline is still enforced.
func RemoteTxn(ops TxnOps, readOnly bool) *Txn {
	tx := &Txn{si: -1, remote: ops}
	if !readOnly {
		tx.writes = make(map[string][]byte)
	}
	return tx
}

// Writes exposes a remote transaction's buffered write set (key -> value,
// nil meaning delete) for shipment at commit.
func (tx *Txn) Writes() map[string][]byte { return tx.writes }

// RemoteErr returns the first remote read failure observed by this
// transaction, if any.
func (tx *Txn) RemoteErr() error { return tx.rerr }

// ErrAborted is returned when a transaction body asks to abort.
var ErrAborted = fmt.Errorf("gcs: transaction aborted")

// shardFor returns the shard holding key, enforcing the single-shard
// discipline: a namespaced transaction must only touch keys of its own
// namespace (all engine keys under one "q/<qid>/" prefix satisfy this).
func (tx *Txn) shardFor(key string) *shard {
	si := shardOf(nsOf(key))
	switch {
	case tx.si == -1:
	case tx.si == -2:
		if !tx.multi[si] {
			panic(fmt.Sprintf("gcs: key %q outside the transaction's namespace shards", key))
		}
	case si != tx.si:
		panic(fmt.Sprintf("gcs: key %q outside the transaction's namespace shard", key))
	}
	return &tx.s.shards[si]
}

// UpdateNS runs fn as a serializable read-write transaction confined to
// one namespace ("q/<qid>/"): only that namespace's shard is locked, so
// concurrent queries' transactions proceed in parallel. If fn returns an
// error the transaction is discarded and the error returned. Each
// committed transaction is charged one GCS round trip.
func (s *Store) UpdateNS(ns string, fn func(tx *Txn) error) error {
	si := shardOf(ns)
	sh := &s.shards[si]
	sh.mu.Lock()
	tx := &Txn{s: s, si: si, writes: make(map[string][]byte)}
	err := fn(tx)
	if err != nil {
		sh.mu.Unlock()
		return err
	}
	for k, v := range tx.writes {
		if v == nil {
			delete(sh.data, k)
		} else {
			sh.data[k] = v
		}
	}
	sh.ver.Add(1)
	sh.mu.Unlock()
	s.bumpVersion()

	s.met.Add(metrics.GCSTxns, 1)
	s.met.Add(metrics.GCSBytes, tx.bytes)
	s.cost.Apply(s.cost.GCS, tx.bytes)
	return nil
}

// UpdateMulti runs fn as one serializable read-write transaction spanning
// the shards of the given namespaces — the group committer's path for
// folding several queries' lineage commits into a single head-node round
// trip. The shards are locked in index order (deadlock-free against every
// other path), only their version counters are bumped, and the whole batch
// is still charged as ONE transaction: that amortization is the point.
func (s *Store) UpdateMulti(nss []string, fn func(tx *Txn) error) error {
	var mask [numShards]bool
	var order []int
	for _, ns := range nss {
		if si := shardOf(ns); !mask[si] {
			mask[si] = true
			order = append(order, si)
		}
	}
	sort.Ints(order)
	for _, si := range order {
		s.shards[si].mu.Lock()
	}
	tx := &Txn{s: s, si: -2, multi: &mask, writes: make(map[string][]byte)}
	err := fn(tx)
	if err != nil {
		for _, si := range order {
			s.shards[si].mu.Unlock()
		}
		return err
	}
	for k, v := range tx.writes {
		sh := &s.shards[shardOf(nsOf(k))]
		if v == nil {
			delete(sh.data, k)
		} else {
			sh.data[k] = v
		}
	}
	for _, si := range order {
		s.shards[si].ver.Add(1)
		s.shards[si].mu.Unlock()
	}
	s.bumpVersion()

	s.met.Add(metrics.GCSTxns, 1)
	s.met.Add(metrics.GCSBytes, tx.bytes)
	s.cost.Apply(s.cost.GCS, tx.bytes)
	return nil
}

// VersionNS returns the commit counter of the shard holding ns. It is a
// local atomic read — no transaction, no modelled round trip — so pollers
// can cheaply detect "nothing in my namespace changed" and skip their read
// transaction. A committed update to ns is always visible to a ViewNS that
// follows a VersionNS observing its increment.
func (s *Store) VersionNS(ns string) uint64 {
	return s.shards[shardOf(ns)].ver.Load()
}

// ViewNS runs fn as a read-only transaction confined to one namespace
// (one round trip, no payload).
func (s *Store) ViewNS(ns string, fn func(tx *Txn) error) error {
	si := shardOf(ns)
	sh := &s.shards[si]
	sh.mu.Lock()
	tx := &Txn{s: s, si: si}
	err := fn(tx)
	sh.mu.Unlock()
	if err != nil {
		return err
	}
	s.met.Add(metrics.GCSTxns, 1)
	s.cost.Apply(s.cost.GCS, 0)
	return err
}

// Update runs fn as a serializable read-write transaction over the whole
// keyspace. It takes every shard lock (in order), so it serializes against
// all namespaced transactions; use UpdateNS when the keys touched live
// under one query namespace.
func (s *Store) Update(fn func(tx *Txn) error) error {
	s.lockAll()
	tx := &Txn{s: s, si: -1, writes: make(map[string][]byte)}
	err := fn(tx)
	if err != nil {
		s.unlockAll()
		return err
	}
	for k, v := range tx.writes {
		sh := &s.shards[shardOf(nsOf(k))]
		if v == nil {
			delete(sh.data, k)
		} else {
			sh.data[k] = v
		}
	}
	for i := range s.shards {
		s.shards[i].ver.Add(1)
	}
	s.unlockAll()
	s.bumpVersion()

	s.met.Add(metrics.GCSTxns, 1)
	s.met.Add(metrics.GCSBytes, tx.bytes)
	s.cost.Apply(s.cost.GCS, tx.bytes)
	return nil
}

// View runs fn as a read-only transaction over the whole keyspace (one
// round trip, no payload).
func (s *Store) View(fn func(tx *Txn) error) error {
	s.lockAll()
	tx := &Txn{s: s, si: -1}
	err := fn(tx)
	s.unlockAll()
	if err != nil {
		return err
	}
	s.met.Add(metrics.GCSTxns, 1)
	s.cost.Apply(s.cost.GCS, 0)
	return err
}

func (s *Store) lockAll() {
	for i := range s.shards {
		s.shards[i].mu.Lock()
	}
}

func (s *Store) unlockAll() {
	for i := range s.shards {
		s.shards[i].mu.Unlock()
	}
}

func (s *Store) bumpVersion() {
	s.verMu.Lock()
	s.version++
	s.cond.Broadcast()
	s.verMu.Unlock()
}

// WriteBytes returns the transaction's accumulated write payload (keys +
// values). The engine reads it to attribute GCS traffic to the query the
// transaction belongs to; the store itself keeps counting cluster totals.
func (tx *Txn) WriteBytes() int64 { return tx.bytes }

// Get returns the value for key, observing earlier writes in the same
// transaction. ok is false when the key is absent.
func (tx *Txn) Get(key string) (val []byte, ok bool) {
	if tx.writes != nil {
		if v, written := tx.writes[key]; written {
			if v == nil {
				return nil, false
			}
			return v, true
		}
	}
	if tx.remote != nil {
		v, ok, err := tx.remote.Get(key)
		if err != nil {
			if tx.rerr == nil {
				tx.rerr = err
			}
			return nil, false
		}
		return v, ok
	}
	v, ok := tx.shardFor(key).data[key]
	return v, ok
}

// Put stores value under key at commit.
func (tx *Txn) Put(key string, value []byte) {
	if tx.writes == nil {
		panic("gcs: Put inside read-only transaction")
	}
	if tx.remote == nil {
		tx.shardFor(key) // enforce the namespace discipline at write time
	}
	cp := make([]byte, len(value))
	copy(cp, value)
	tx.writes[key] = cp
	tx.bytes += int64(len(key) + len(value))
}

// Delete removes key at commit.
func (tx *Txn) Delete(key string) {
	if tx.writes == nil {
		panic("gcs: Delete inside read-only transaction")
	}
	if tx.remote == nil {
		tx.shardFor(key)
	}
	tx.writes[key] = nil
	tx.bytes += int64(len(key))
}

// List returns the sorted keys having the given prefix, reflecting
// uncommitted writes of this transaction. In a namespaced transaction the
// prefix must lie within the transaction's namespace.
func (tx *Txn) List(prefix string) []string {
	seen := make(map[string]bool)
	var out []string
	if tx.remote != nil {
		keys, err := tx.remote.List(prefix)
		if err != nil {
			if tx.rerr == nil {
				tx.rerr = err
			}
			return nil
		}
		for _, k := range keys {
			if tx.writes != nil {
				if v, written := tx.writes[k]; written && v == nil {
					continue
				}
			}
			seen[k] = true
			out = append(out, k)
		}
		if tx.writes != nil {
			for k, v := range tx.writes {
				if v != nil && strings.HasPrefix(k, prefix) && !seen[k] {
					out = append(out, k)
				}
			}
		}
		sort.Strings(out)
		return out
	}
	scan := func(sh *shard) {
		for k := range sh.data {
			if strings.HasPrefix(k, prefix) {
				if tx.writes != nil {
					if v, written := tx.writes[k]; written && v == nil {
						continue
					}
				}
				seen[k] = true
				out = append(out, k)
			}
		}
	}
	if tx.si >= 0 {
		scan(&tx.s.shards[tx.si])
	} else {
		for i := range tx.s.shards {
			scan(&tx.s.shards[i])
		}
	}
	if tx.writes != nil {
		for k, v := range tx.writes {
			if v != nil && strings.HasPrefix(k, prefix) && !seen[k] {
				out = append(out, k)
			}
		}
	}
	sort.Strings(out)
	return out
}

// Version returns the store's commit counter. It increases on every
// committed update; pollers use it with WaitChange.
func (s *Store) Version() uint64 {
	s.verMu.Lock()
	defer s.verMu.Unlock()
	return s.version
}

// WaitChange blocks until the store version exceeds since or the timeout
// elapses, returning the current version. TaskManagers use it to poll the
// GCS without busy-waiting, preserving the paper's "stateless pollers"
// design at reasonable CPU cost.
func (s *Store) WaitChange(since uint64, timeout time.Duration) uint64 {
	deadline := time.Now().Add(timeout)
	s.verMu.Lock()
	defer s.verMu.Unlock()
	for s.version <= since {
		remain := time.Until(deadline)
		if remain <= 0 {
			break
		}
		// Wake the waiter when the deadline passes even if no commit
		// happens; sync.Cond has no timed wait, so arm a timer.
		done := make(chan struct{})
		t := time.AfterFunc(remain, func() {
			s.verMu.Lock()
			s.cond.Broadcast()
			s.verMu.Unlock()
			close(done)
		})
		s.cond.Wait()
		t.Stop()
		select {
		case <-done:
		default:
		}
	}
	return s.version
}
