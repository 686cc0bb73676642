package gcs

import (
	"fmt"
	"sort"
	"strings"
)

// The store's remote form (docs/contracts/gcs-backend.md): a worker process
// keeps a Replica of each namespace it runs and runs view bodies against it.
// The head answers, under the shard lock and waiting on no peer, Sync — what
// changed since version v (a wait that woke, a first contact) — and ApplySync
// — these guarded entries, and what changed besides — from a per-namespace
// change log that starts at the namespace's first Sync and goes with the
// namespace (Txn.DeleteNS): a namespace no replica follows costs a commit one
// empty-map check.

// IsNamespace reports whether ns is exactly one query's "q/<qid>/" prefix.
// Sync and ApplySync enumerate what they are given: "" would list a shard.
func IsNamespace(ns string) bool { return ns != "" && nsOf(ns) == ns }

// nsLog is one namespace's change log: every key written or deleted after
// version start, in version order.
type nsLog struct {
	start uint64
	recs  []change
}

type change struct {
	ver uint64
	key string
}

// record logs one write about to be applied, if its namespace is followed.
func (sh *shard) record(k string, ver uint64) {
	if l := sh.logs[nsOf(k)]; l != nil {
		l.recs = append(l.recs, change{ver, k})
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
			sh.logs[ns] = &nsLog{start: d.Version}
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

// Replica is a worker-side copy of one namespace as of shard version
// Version: what replica transactions read. Empty at version 0 until its
// first Delta. Not safe for concurrent use; the wire client guards it.
type Replica struct {
	NS      string
	Version uint64
	data    map[string][]byte
}

// Fold brings the replica to d.Version: d's changes, then the writes of own —
// the entries the caller's Apply had applied at d.Version, if any — of its
// namespace. A delta no newer than the replica is skipped whole: answers
// arrive out of order, and a later one covered it.
func (r *Replica) Fold(d Delta, own []Entry) {
	if d.Version <= r.Version {
		return
	}
	if d.Full || r.data == nil {
		r.data = make(map[string][]byte, len(d.Set))
	}
	for k, v := range d.Set {
		if v == nil {
			delete(r.data, k)
		} else if nsOf(k) == r.NS {
			r.data[k] = v
		}
	}
	for _, e := range own {
		for _, p := range e.Puts {
			if e.NS == r.NS {
				r.data[p.Key] = p.Val
			}
		}
		for _, k := range e.Deletes {
			delete(r.data, k)
		}
	}
	r.Version = d.Version
}

// ReplicaTxn builds a read-only transaction whose reads are served from rep;
// the caller keeps rep unchanged while the body runs.
func ReplicaTxn(rep *Replica) *Txn { return &Txn{rep: rep} }

// read returns the data a read of key scans; a key of another namespace
// panics, as one outside a local transaction's shards does.
func (r *Replica) read(key string) map[string][]byte {
	if nsOf(key) != r.NS {
		panic(fmt.Sprintf("gcs: key %q outside the transaction's namespace %q", key, r.NS))
	}
	return r.data
}
