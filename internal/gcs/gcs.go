// Package gcs implements the Global Control Store: the transactional
// key-value store at the heart of the paper's design (§IV-B). In the paper
// it is a Redis server on the head node; here it is an in-memory store
// with serializable multi-key transactions, prefix scans and per-namespace
// version counters on which a reader waits (AwaitNS) until something changed.
//
// Everything coordinated in Quokka — committed lineage, outstanding tasks,
// channel placement, done markers, the epochs recovery moves — lives here.
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
	"context"
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
// in-memory default (the head node's real store); a process-mode worker's
// wire client runs each transaction body locally against a Replica of the
// namespace (replica.go): a view at no frame — it sees what its client
// observed — an update at one, a wait at one whose answer brings the replica up
// to what it woke for. A body is a pure function of its reads, run again when
// the head finds them stale. Update and View are Store methods only: no remote
// peer can lock — or enumerate — every query's shard.
type Backend interface {
	UpdateNS(ns string, fn func(tx *Txn) error) error
	UpdateMulti(nss []string, fn func(tx *Txn) error) error
	ViewNS(ns string, fn func(tx *Txn) error) error
	AwaitNS(ctx context.Context, ns string, after uint64, max time.Duration) uint64
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
	// Readers wait on it (AwaitNS) and skip read transactions entirely
	// while their namespace is unchanged.
	ver atomic.Uint64

	// moved exists while waiters AwaitNS callers are parked; the commit that
	// bumps ver closes and nils it. A commit nobody awaits pays one nil check.
	moved   chan struct{}
	waiters int

	// logs records, per namespace some remote replica follows, which keys
	// changed at which version (replica.go); empty in an in-memory run.
	logs map[string]*nsLog
}

// apply installs one committed write (a nil value deletes) at version ver.
// The caller holds the shard lock.
func (sh *shard) apply(k string, v []byte, ver uint64) {
	if len(sh.logs) > 0 {
		sh.record(k, ver)
	}
	if v == nil {
		delete(sh.data, k)
	} else {
		sh.data[k] = v
	}
}

// drop deletes every key of namespace ns in one pass over the shard, and its
// change log with them: a replica that asks again is sent the empty namespace
// in full. The caller holds the shard lock.
func (sh *shard) drop(ns string) {
	for k := range sh.data {
		if strings.HasPrefix(k, ns) {
			delete(sh.data, k)
		}
	}
	delete(sh.logs, ns)
}

// Store is the Global Control Store. It is safe for concurrent use.
// Transactions are serializable: single-namespace transactions hold their
// shard's lock; cross-namespace transactions hold every shard lock.
type Store struct {
	cost storage.CostModel
	met  *metrics.Collector

	shards [numShards]shard

	// version is the store-wide commit counter (Version).
	version atomic.Uint64
}

// New creates an empty store with the given cost model; each transaction
// is charged one head-node round trip plus payload transfer.
func New(cost storage.CostModel, met *metrics.Collector) *Store {
	s := &Store{cost: cost, met: met}
	for i := range s.shards {
		s.shards[i].data = make(map[string][]byte)
		s.shards[i].logs = make(map[string]*nsLog)
	}
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
	locked []int             // the shards this transaction holds, ascending
	one    [1]int            // backs locked for a one-namespace transaction
	writes map[string][]byte // nil value means delete
	drops  []string          // namespaces dropped at commit, before writes apply
	bytes  int64

	// rep, when set, makes this a replica transaction (ReplicaTxn): reads are
	// served from worker-side Replicas and recorded, so the head can check at
	// commit that they are still current.
	rep *replicaReads
}

// ErrAborted is returned when a transaction body asks to abort.
var ErrAborted = fmt.Errorf("gcs: transaction aborted")

// shardFor returns the shard holding key, enforcing the shard discipline: a
// namespaced transaction must only touch keys of its own namespaces (all
// engine keys under one "q/<qid>/" prefix satisfy this).
func (tx *Txn) shardFor(key string) *shard {
	si := shardOf(nsOf(key))
	for _, held := range tx.locked {
		if held == si {
			return &tx.s.shards[si]
		}
	}
	panic(fmt.Sprintf("gcs: key %q outside the transaction's namespace shards", key))
}

// run executes fn as one serializable transaction over the shards tx holds,
// locked in ascending order (deadlock-free against every other path). If tx
// buffers writes and the body returns nil they are applied and each held
// shard's version bumped once; a body's error discards the transaction and
// is returned. Whatever it spans, a transaction is charged as ONE head-node
// round trip: for the group committer's batches that is the point.
func (s *Store) run(tx *Txn, fn func(tx *Txn) error) error {
	for _, si := range tx.locked {
		s.shards[si].mu.Lock()
	}
	err := fn(tx)
	if err == nil && tx.writes != nil {
		for _, ns := range tx.drops {
			s.shards[shardOf(ns)].drop(ns)
		}
		for k, v := range tx.writes {
			sh := &s.shards[tx.locked[0]]
			if len(tx.locked) > 1 {
				sh = &s.shards[shardOf(nsOf(k))]
			}
			sh.apply(k, v, sh.ver.Load()+1)
		}
		for _, si := range tx.locked {
			sh := &s.shards[si]
			sh.ver.Add(1)
			if sh.moved != nil {
				close(sh.moved)
				sh.moved, sh.waiters = nil, 0
			}
		}
	}
	for _, si := range tx.locked {
		s.shards[si].mu.Unlock()
	}
	if err != nil {
		return err
	}
	if tx.writes != nil {
		s.version.Add(1)
		s.met.Add(metrics.GCSBytes, tx.bytes)
	}
	s.met.Add(metrics.GCSTxns, 1)
	s.cost.Apply(s.cost.GCS, tx.bytes)
	return nil
}

// UpdateNS runs fn as a read-write transaction confined to one namespace
// ("q/<qid>/"): only that namespace's shard is locked, so concurrent
// queries' transactions proceed in parallel.
func (s *Store) UpdateNS(ns string, fn func(tx *Txn) error) error {
	return s.run(s.txnNS(ns, make(map[string][]byte)), fn)
}

// txnNS builds a transaction holding the one shard of ns.
func (s *Store) txnNS(ns string, writes map[string][]byte) *Txn {
	tx := &Txn{s: s, one: [1]int{shardOf(ns)}, writes: writes}
	tx.locked = tx.one[:]
	return tx
}

// UpdateMulti runs fn as one read-write transaction spanning the shards of
// the given namespaces — the group committer's path for folding several
// queries' lineage commits into a single head-node round trip.
func (s *Store) UpdateMulti(nss []string, fn func(tx *Txn) error) error {
	var seen [numShards]bool
	var locked []int
	for _, ns := range nss {
		if si := shardOf(ns); !seen[si] {
			seen[si] = true
			locked = append(locked, si)
		}
	}
	sort.Ints(locked)
	return s.run(&Txn{s: s, locked: locked, writes: make(map[string][]byte)}, fn)
}

// VersionNS is the commit counter of the shard holding ns: an atomic read.
func (s *Store) VersionNS(ns string) uint64 {
	return s.shards[shardOf(ns)].ver.Load()
}

// AwaitNS returns that counter as soon as it exceeds after, when max elapses
// or when ctx is done; max <= 0 never parks. Shards are shared, so a return
// with the version unchanged may come early; a commit is never slept through,
// and is visible to a ViewNS that follows the AwaitNS observing it.
func (s *Store) AwaitNS(ctx context.Context, ns string, after uint64, max time.Duration) uint64 {
	sh := &s.shards[shardOf(ns)]
	if v := sh.ver.Load(); v > after || max <= 0 {
		return v
	}
	sh.mu.Lock()
	if v := sh.ver.Load(); v > after {
		sh.mu.Unlock()
		return v
	}
	if sh.moved == nil {
		sh.moved = make(chan struct{})
	}
	moved := sh.moved
	sh.waiters++
	sh.mu.Unlock()
	timer := time.NewTimer(max)
	defer timer.Stop()
	select {
	case <-moved:
		return sh.ver.Load()
	case <-timer.C:
	case <-ctx.Done():
	}
	// Gave up: the last waiter to leave takes the channel with it.
	sh.mu.Lock()
	if sh.moved == moved {
		if sh.waiters--; sh.waiters == 0 {
			sh.moved = nil
		}
	}
	sh.mu.Unlock()
	return sh.ver.Load()
}

// ViewNS runs fn as a read-only transaction confined to one namespace.
func (s *Store) ViewNS(ns string, fn func(tx *Txn) error) error {
	return s.run(s.txnNS(ns, nil), fn)
}

// Update runs fn as a read-write transaction over the whole keyspace. It
// takes every shard lock, so it serializes against all namespaced
// transactions; use UpdateNS when the keys touched live under one query
// namespace.
func (s *Store) Update(fn func(tx *Txn) error) error {
	return s.run(&Txn{s: s, locked: allShards(), writes: make(map[string][]byte)}, fn)
}

// View runs fn as a read-only transaction over the whole keyspace.
func (s *Store) View(fn func(tx *Txn) error) error {
	return s.run(&Txn{s: s, locked: allShards()}, fn)
}

func allShards() (all []int) {
	for i := 0; i < numShards; i++ {
		all = append(all, i)
	}
	return all
}

// WriteBytes returns the transaction's accumulated write payload (keys +
// values). The engine reads it to attribute GCS traffic to the query the
// transaction belongs to; the store itself keeps counting cluster totals.
func (tx *Txn) WriteBytes() int64 { return tx.bytes }

// Get returns the value for key, observing earlier writes in the same
// transaction. ok is false when the key is absent.
func (tx *Txn) Get(key string) (val []byte, ok bool) {
	if v, written := tx.writes[key]; written {
		return v, v != nil
	}
	if tx.rep != nil {
		return tx.rep.get(key)
	}
	v, ok := tx.shardFor(key).data[key]
	return v, ok
}

// write buffers one write (nil value: delete), enforcing the namespace
// discipline at write time.
func (tx *Txn) write(op, key string, value []byte) {
	if tx.writes == nil {
		panic("gcs: " + op + " inside read-only transaction")
	}
	if tx.rep != nil {
		tx.rep.replicaFor(key)
	} else {
		tx.shardFor(key)
	}
	tx.writes[key] = value
	tx.bytes += int64(len(key) + len(value))
}

// Put stores value under key at commit.
func (tx *Txn) Put(key string, value []byte) {
	tx.write("Put", key, append(make([]byte, 0, len(value)), value...))
}

// Delete removes key at commit.
func (tx *Txn) Delete(key string) { tx.write("Delete", key, nil) }

// DeleteNS drops namespace ns at commit: every key of it committed before the
// transaction goes, in one pass over its shard, with no per-key write. The
// body's own writes apply after the drop, so they survive it, and its reads
// still see the committed keys. Only the head drops a namespace: in a replica
// or read-only transaction, or on anything but one query's namespace, it
// panics.
func (tx *Txn) DeleteNS(ns string) {
	if tx.rep != nil || tx.writes == nil || !IsNamespace(ns) {
		panic(fmt.Sprintf("gcs: DeleteNS(%q) outside a head update, or not a namespace", ns))
	}
	tx.shardFor(ns)
	tx.drops = append(tx.drops, ns)
}

// List returns the sorted keys having the given prefix, reflecting
// uncommitted writes of this transaction. In a namespaced transaction the
// prefix must lie within the transaction's namespace.
func (tx *Txn) List(prefix string) []string {
	var out []string
	scan := func(data map[string][]byte) { // committed keys this transaction has not rewritten
		for k := range data {
			if _, written := tx.writes[k]; !written && strings.HasPrefix(k, prefix) {
				out = append(out, k)
			}
		}
	}
	if tx.rep != nil {
		scan(tx.rep.list(prefix))
	}
	for _, si := range tx.locked {
		scan(tx.s.shards[si].data)
	}
	for k, v := range tx.writes { // and its own puts
		if v != nil && strings.HasPrefix(k, prefix) {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// Version returns the store-wide commit counter: it increases on every
// committed update of any namespace. Not part of Backend — in-process
// callers (tests) read it as their "nothing changed anywhere" probe.
func (s *Store) Version() uint64 { return s.version.Load() }
