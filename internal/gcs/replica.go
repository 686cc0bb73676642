package gcs

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
)

// The store's remote form (docs/contracts/gcs-backend.md): a worker process
// keeps a Replica of each namespace it runs and runs transaction bodies
// against it. The head answers, under the shard lock and waiting on no peer,
// Sync — what changed since version v (a wait that woke, a first contact) —
// and Commit — apply this write set if these reads are still current (an
// update) — from a per-namespace change log that starts at the namespace's
// first Sync and goes with its last key, or with the namespace (Txn.DeleteNS):
// a namespace no replica follows costs a commit one empty-map check.

// IsNamespace reports whether ns is exactly one query's "q/<qid>/" prefix.
// Sync and Commit enumerate what they are given: "" would list a shard.
func IsNamespace(ns string) bool { return ns != "" && nsOf(ns) == ns }

// nsLog is one namespace's change log: every key written or deleted after
// version start, in version order; live counts the namespace's present keys.
type nsLog struct {
	start uint64
	live  int
	recs  []change
}

type change struct {
	ver uint64
	key string
}

// record logs one write about to be applied, if its namespace is followed.
func (sh *shard) record(k string, v []byte, ver uint64) {
	ns := nsOf(k)
	l := sh.logs[ns]
	if l == nil {
		return
	}
	l.recs = append(l.recs, change{ver, k})
	if _, had := sh.data[k]; had && v == nil {
		l.live--
	} else if !had && v != nil {
		l.live++
	}
	if l.live == 0 {
		delete(sh.logs, ns) // nothing left to follow
	}
}

// Delta brings a replica of one namespace from the version it named to
// Version: in Set, the keys written or deleted in between with their current
// values (nil: deleted) or — Full — every key of the namespace, replacing
// what the replica held. Never a key of another namespace on the shard.
type Delta struct {
	Version uint64
	Full    bool
	Set     map[string][]byte
}

// delta computes the Delta for a replica of ns at version v, starting the
// namespace's change log on first contact. The caller holds the shard lock.
func (sh *shard) delta(ns string, v uint64) Delta {
	d := Delta{Version: sh.ver.Load(), Set: make(map[string][]byte)}
	l := sh.logs[ns]
	if l == nil || v < l.start {
		d.Full = true
		for k, val := range sh.data {
			if strings.HasPrefix(k, ns) {
				d.Set[k] = val
			}
		}
		if l == nil && len(d.Set) > 0 {
			sh.logs[ns] = &nsLog{start: d.Version, live: len(d.Set)}
		}
		return d
	}
	i := sort.Search(len(l.recs), func(i int) bool { return l.recs[i].ver > v })
	for _, c := range l.recs[i:] {
		d.Set[c.key] = sh.data[c.key]
	}
	return d
}

// Sync answers a remote wait that woke, or a first contact — it is a view —
// with the Delta for a replica of ns at version since (0: it holds nothing).
func (s *Store) Sync(ns string, since uint64) (d Delta) {
	s.ViewNS(ns, func(*Txn) error {
		d = s.shards[shardOf(ns)].delta(ns, since)
		return nil
	})
	return d
}

// ReadSet is one namespace's share of a replica transaction: the version of
// the replica the body ran against, the keys it asked Get for and the
// prefixes it asked List for.
type ReadSet struct {
	NS       string
	Version  uint64
	Keys     []string
	Prefixes []string
}

// staleAfter reports whether something rs read is among d's changes.
func (rs *ReadSet) staleAfter(d Delta) bool {
	if d.Full {
		return d.Version != rs.Version // cannot tell what changed, if anything did
	}
	for k := range d.Set {
		under := func(prefix string) bool { return strings.HasPrefix(k, prefix) }
		if slices.Contains(rs.Keys, k) || slices.ContainsFunc(rs.Prefixes, under) {
			return true
		}
	}
	return false
}

var errStale = errors.New("gcs: read set stale")

// Commit answers a remote UpdateNS / UpdateMulti: if nothing the body read
// changed after the version it read it at, writes (nil value: delete) are
// applied as one real transaction over the namespaces in reads — shard
// discipline enforced, versions bumped, counted like any update, serialised
// now. Otherwise nothing is applied and the caller runs its body again.
// Either way deltas[i] brings a replica of reads[i].NS to the shard's
// version after the call — not including writes, which the caller has.
func (s *Store) Commit(reads []ReadSet, writes map[string][]byte) (committed bool, deltas []Delta, err error) {
	nss := make([]string, len(reads))
	for i := range reads {
		nss[i] = reads[i].NS
	}
	deltas = make([]Delta, len(reads))
	err = s.UpdateMulti(nss, func(tx *Txn) (err error) {
		// A write outside the named namespaces' shards panics in tx.Put, as
		// for any local body; from a peer it must fail the call, not the head.
		defer func() {
			if p := recover(); p != nil {
				err = fmt.Errorf("gcs: commit: %v", p)
			}
		}()
		for i := range reads {
			deltas[i] = s.shards[shardOf(reads[i].NS)].delta(reads[i].NS, reads[i].Version)
			if reads[i].staleAfter(deltas[i]) {
				err = errStale
			}
		}
		if err != nil {
			return err
		}
		for k, v := range writes {
			if v == nil {
				tx.Delete(k)
			} else {
				tx.Put(k, v)
			}
		}
		for i := range deltas {
			deltas[i].Version++ // the version this transaction installs
		}
		return nil
	})
	if err == errStale {
		return false, deltas, nil
	}
	return err == nil, deltas, err
}

// Replica is a worker-side copy of one namespace as of shard version
// Version: what replica transactions read. Empty at version 0 until its
// first Delta. Not safe for concurrent use; the wire client guards it.
type Replica struct {
	NS      string
	Version uint64
	data    map[string][]byte
}

// Apply brings the replica to d.Version: d's changes, then own — the write
// set the caller's transaction committed at d.Version, if any — of which the
// replica takes its namespace's keys. A delta no newer than the replica is
// skipped whole: answers arrive out of order, and a later one covered it.
func (r *Replica) Apply(d Delta, own map[string][]byte) {
	if d.Version <= r.Version {
		return
	}
	if d.Full || r.data == nil {
		r.data = make(map[string][]byte, len(d.Set))
	}
	for _, set := range []map[string][]byte{d.Set, own} {
		for k, v := range set {
			if v == nil {
				delete(r.data, k)
			} else if strings.HasPrefix(k, r.NS) {
				r.data[k] = v
			}
		}
	}
	r.Version = d.Version
}

// replicaReads is the read side of a replica transaction: the replicas it
// runs over, one per namespace it names, and what the body read in each.
type replicaReads struct {
	reps  []*Replica
	reads []ReadSet
}

// ReplicaTxn builds a transaction whose reads are served from reps — one per
// namespace it names — and recorded; writes (unless readOnly) buffer. The
// caller keeps reps unchanged while the body runs, then ships ReadSets and
// Writes to the head's Commit.
func ReplicaTxn(reps []*Replica, readOnly bool) *Txn {
	rr := &replicaReads{reps: reps, reads: make([]ReadSet, len(reps))}
	for i, r := range reps {
		rr.reads[i] = ReadSet{NS: r.NS, Version: r.Version}
	}
	tx := &Txn{rep: rr}
	if !readOnly {
		tx.writes = make(map[string][]byte)
	}
	return tx
}

// replicaFor returns the index of the replica of key's namespace; a key of a
// namespace the transaction did not name panics, as outside a local one's shards.
func (rr *replicaReads) replicaFor(key string) int {
	for i, r := range rr.reps {
		if r.NS == nsOf(key) {
			return i
		}
	}
	panic(fmt.Sprintf("gcs: key %q outside the transaction's namespaces", key))
}

func (rr *replicaReads) get(key string) ([]byte, bool) {
	i := rr.replicaFor(key)
	rr.reads[i].Keys = append(rr.reads[i].Keys, key)
	v, ok := rr.reps[i].data[key]
	return v, ok
}

// list records a List of prefix and returns the data to scan for it.
func (rr *replicaReads) list(prefix string) map[string][]byte {
	i := rr.replicaFor(prefix)
	rr.reads[i].Prefixes = append(rr.reads[i].Prefixes, prefix)
	return rr.reps[i].data
}

// ReadSets is what a replica transaction's body read, per namespace.
func (tx *Txn) ReadSets() []ReadSet { return tx.rep.reads }

// Writes is a replica transaction's buffered write set (nil value: delete).
func (tx *Txn) Writes() map[string][]byte { return tx.writes }
