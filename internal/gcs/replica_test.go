package gcs

import (
	"fmt"
	"reflect"
	"sort"
	"testing"
)

// The store's remote form: change tracking that starts with the first Sync
// of a namespace and ends with its last key, deltas that carry exactly what
// changed, and Commit's validation of a shipped read set.

func putKeys(t *testing.T, s *Store, ns string, kv ...string) {
	t.Helper()
	if err := s.UpdateNS(ns, func(tx *Txn) error {
		for i := 0; i < len(kv); i += 2 {
			tx.Put(ns+kv[i], []byte(kv[i+1]))
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func deltaMap(d Delta) map[string]string {
	m := make(map[string]string, len(d.Set))
	for k, v := range d.Set {
		if v == nil {
			m[k] = "<deleted>"
		} else {
			m[k] = string(v)
		}
	}
	return m
}

// followed counts the namespaces with a change log.
func followed(s *Store) int {
	n := 0
	for i := range s.shards {
		n += len(s.shards[i].logs)
	}
	return n
}

func TestIsNamespace(t *testing.T) {
	for ns, want := range map[string]bool{
		"q/q1/": true, "q/a-b.c/": true,
		"": false, "q/": false, "q/q1": false, "q/q1/lin/": false, "x/q1/": false, "q/q1/k": false,
	} {
		if got := IsNamespace(ns); got != want {
			t.Errorf("IsNamespace(%q) = %v, want %v", ns, got, want)
		}
	}
}

// TestChangeTrackingLifecycle: no namespace is tracked until a replica syncs
// it; from then on a Sync returns exactly the keys written or deleted since
// the version named; and when the namespace's last key is deleted, or the
// namespace is dropped (what Runner.cleanup does), the log goes with it —
// nothing of the query is left.
func TestChangeTrackingLifecycle(t *testing.T) {
	s, _ := newStore()
	ns := "q/life/"
	putKeys(t, s, ns, "a", "1", "b", "2")
	if n := followed(s); n != 0 {
		t.Fatalf("%d namespaces tracked before any sync", n)
	}

	first := s.Sync(ns, 0)
	if !first.Full || !reflect.DeepEqual(deltaMap(first), map[string]string{ns + "a": "1", ns + "b": "2"}) {
		t.Fatalf("first contact: full=%v %v", first.Full, deltaMap(first))
	}
	if first.Version != s.VersionNS(ns) || followed(s) != 1 {
		t.Fatalf("first contact: version %d (shard %d), %d tracked", first.Version, s.VersionNS(ns), followed(s))
	}

	// Nothing changed: an empty delta at the same version.
	if d := s.Sync(ns, first.Version); d.Full || len(d.Set) != 0 || d.Version != first.Version {
		t.Fatalf("idle sync: %+v", d)
	}

	// A rewrite, a delete and a new key — and a key rewritten twice is sent
	// once, with its current value.
	putKeys(t, s, ns, "a", "1b", "c", "3")
	putKeys(t, s, ns, "a", "1c")
	s.UpdateNS(ns, func(tx *Txn) error { tx.Delete(ns + "b"); return nil })
	d := s.Sync(ns, first.Version)
	want := map[string]string{ns + "a": "1c", ns + "b": "<deleted>", ns + "c": "3"}
	if d.Full || len(d.Set) != 3 || !reflect.DeepEqual(deltaMap(d), want) {
		t.Fatalf("delta: full=%v %v, want %v", d.Full, deltaMap(d), want)
	}
	// From a version in between, only what came after it.
	if d := s.Sync(ns, d.Version-1); !reflect.DeepEqual(deltaMap(d), map[string]string{ns + "b": "<deleted>"}) {
		t.Fatalf("tail delta: %v", deltaMap(d))
	}

	// A replica applies what it is sent and ends where the store is.
	rep := &Replica{NS: ns}
	rep.Apply(first, nil)
	rep.Apply(d, nil)
	rep.Apply(first, nil) // an answer arriving late changes nothing
	tx := ReplicaTxn([]*Replica{rep}, true)
	if got := tx.List(ns); !reflect.DeepEqual(got, []string{ns + "a", ns + "c"}) || rep.Version != d.Version {
		t.Fatalf("replica holds %v at %d, want a and c at %d", got, rep.Version, d.Version)
	}
	if v, _ := tx.Get(ns + "a"); string(v) != "1c" {
		t.Fatalf("replica a = %q", v)
	}

	// The drop: the namespace goes in one step with no per-key write, and its
	// log with it; a replica that still asks is told the namespace is empty,
	// and asking does not start tracking again.
	s.UpdateNS(ns, func(tx *Txn) error { tx.DeleteNS(ns); return nil })
	if n := followed(s); n != 0 {
		t.Fatalf("%d namespaces tracked after the drop", n)
	}
	for i := 0; i < 2; i++ { // the second sync finds what the first left: nothing
		if d := s.Sync(ns, d.Version); !d.Full || len(d.Set) != 0 || followed(s) != 0 {
			t.Fatalf("sync after drop: %+v, %d tracked", d, followed(s))
		}
	}
}

// sameShardNamespaces returns two namespaces that hash onto one shard.
func sameShardNamespaces() (a, b string) {
	a = "q/iso-0/"
	for i := 1; ; i++ {
		if b = fmt.Sprintf("q/iso-%d/", i); shardOf(b) == shardOf(a) {
			return a, b
		}
	}
}

// TestDeltaCarriesOneNamespace: two namespaces on one shard share its version
// counter and nothing else — neither's delta, full or incremental, holds a
// key of the other, and tracking one does not track the other.
func TestDeltaCarriesOneNamespace(t *testing.T) {
	s, _ := newStore()
	a, b := sameShardNamespaces()
	putKeys(t, s, a, "k", "a1")
	putKeys(t, s, b, "k", "b1")
	da := s.Sync(a, 0)
	if !reflect.DeepEqual(deltaMap(da), map[string]string{a + "k": "a1"}) {
		t.Fatalf("full delta of %s: %v", a, deltaMap(da))
	}
	if followed(s) != 1 {
		t.Fatalf("%d namespaces tracked, want only %s", followed(s), a)
	}
	putKeys(t, s, b, "k", "b2", "k2", "b3")
	d := s.Sync(a, da.Version)
	if len(d.Set) != 0 || d.Full || d.Version != s.VersionNS(a) || d.Version == da.Version {
		t.Fatalf("a commit to %s reached %s's replica: %+v", b, a, d)
	}
	// One transaction writing both: each log gets its own keys.
	db := s.Sync(b, 0)
	s.UpdateMulti([]string{a, b}, func(tx *Txn) error {
		tx.Put(a+"m", []byte("am"))
		tx.Put(b+"m", []byte("bm"))
		return nil
	})
	if got := deltaMap(s.Sync(a, d.Version)); !reflect.DeepEqual(got, map[string]string{a + "m": "am"}) {
		t.Fatalf("%s after a two-namespace commit: %v", a, got)
	}
	if got := deltaMap(s.Sync(b, db.Version)); !reflect.DeepEqual(got, map[string]string{b + "m": "bm"}) {
		t.Fatalf("%s after a two-namespace commit: %v", b, got)
	}
}

// TestCommitValidatesReadSet: a shipped transaction is applied only if what
// it read is still current — per key and per listed prefix, not per shard —
// and otherwise answered stale with the delta that makes a re-run current.
func TestCommitValidatesReadSet(t *testing.T) {
	s, met := newStore()
	ns := "q/val/"
	putKeys(t, s, ns, "fence", "0", "n", "1", "rp/0/x", "d")
	at := s.Sync(ns, 0).Version
	reads := func(keys, prefixes []string) []ReadSet {
		return []ReadSet{{NS: ns, Version: at, Keys: keys, Prefixes: prefixes}}
	}

	// An unrelated key moved: still current, applied, and the delta is what
	// others changed — not the write set.
	putKeys(t, s, ns, "other", "x")
	txns := met.Get("gcs.txns")
	ok, deltas, err := s.Commit(reads([]string{ns + "fence", ns + "n"}, nil), map[string][]byte{ns + "n": []byte("2")})
	if err != nil || !ok {
		t.Fatalf("commit with current reads: %v, %v", ok, err)
	}
	if !reflect.DeepEqual(deltaMap(deltas[0]), map[string]string{ns + "other": "x"}) || deltas[0].Version != s.VersionNS(ns) {
		t.Fatalf("committed delta %v at %d (shard %d)", deltaMap(deltas[0]), deltas[0].Version, s.VersionNS(ns))
	}
	if got := met.Get("gcs.txns") - txns; got != 1 {
		t.Fatalf("a commit counted %d transactions", got)
	}

	// The same read set again is stale now: n moved (we moved it). Nothing is
	// applied, nothing counted, and the delta names n.
	version, txns := s.VersionNS(ns), met.Get("gcs.txns")
	ok, deltas, err = s.Commit(reads([]string{ns + "n"}, nil), map[string][]byte{ns + "n": []byte("lost")})
	if err != nil || ok || s.VersionNS(ns) != version || met.Get("gcs.txns") != txns {
		t.Fatalf("stale commit: %v, %v, version %d -> %d", ok, err, version, s.VersionNS(ns))
	}
	if got := deltaMap(deltas[0]); got[ns+"n"] != "2" {
		t.Fatalf("stale delta %v, want n = 2", got)
	}

	// A listed prefix is stale when a key under it appears or goes; a delete
	// in the write set deletes.
	at = s.VersionNS(ns)
	s.UpdateNS(ns, func(tx *Txn) error { tx.Delete(ns + "rp/0/x"); return nil })
	if ok, _, _ := s.Commit(reads(nil, []string{ns + "rp/1/"}), map[string][]byte{ns + "other": nil}); !ok {
		t.Fatalf("a delete under rp/0/ made a list of rp/1/ stale")
	}
	if ok, _, _ := s.Commit(reads(nil, []string{ns + "rp/0/"}), nil); ok {
		t.Fatalf("a delete under a listed prefix went unnoticed")
	}
	if got := deltaMap(s.Sync(ns, at)); got[ns+"other"] != "<deleted>" {
		t.Fatalf("shipped delete not applied: %v", got)
	}

	// A replica older than the log cannot be validated: stale, with the
	// whole namespace.
	other := "q/val-untracked/"
	putKeys(t, s, other, "k", "v")
	ok, deltas, _ = s.Commit([]ReadSet{{NS: other, Version: 0, Keys: []string{other + "k"}}}, nil)
	if ok || !deltas[0].Full || len(deltas[0].Set) != 1 {
		t.Fatalf("commit from a replica holding nothing: %v, %+v", ok, deltas[0])
	}

	// A write outside the named namespaces' shards fails the call and applies
	// nothing.
	var foreign string
	for i := 0; ; i++ {
		if foreign = fmt.Sprintf("q/val-foreign-%d/", i); shardOf(foreign) != shardOf(ns) {
			break
		}
	}
	version = s.Version()
	at = s.VersionNS(ns)
	_, _, err = s.Commit(reads(nil, nil), map[string][]byte{ns + "n": []byte("x"), foreign + "k": []byte("x")})
	if err == nil || s.Version() != version {
		t.Fatalf("foreign write: err %v, version %d -> %d", err, version, s.Version())
	}
}

// TestReplicaTxnRecordsReads: a replica transaction serves reads from the
// replica, records them — not the ones its own writes answered — and refuses
// keys of a namespace it did not name.
func TestReplicaTxnRecordsReads(t *testing.T) {
	a, b := &Replica{NS: "q/a/"}, &Replica{NS: "q/b/"}
	a.Apply(Delta{Version: 3, Full: true, Set: map[string][]byte{"q/a/x": []byte("1"), "q/a/rp/1": []byte("d")}}, nil)
	b.Apply(Delta{Version: 7, Full: true}, nil)
	tx := ReplicaTxn([]*Replica{a, b}, false)
	tx.Put("q/b/new", []byte("n"))
	tx.Get("q/b/new") // own write: not a read of the replica
	tx.Get("q/a/x")
	tx.Get("q/b/absent")
	if got := tx.List("q/a/rp/"); !reflect.DeepEqual(got, []string{"q/a/rp/1"}) {
		t.Fatalf("list = %v", got)
	}
	want := []ReadSet{
		{NS: "q/a/", Version: 3, Keys: []string{"q/a/x"}, Prefixes: []string{"q/a/rp/"}},
		{NS: "q/b/", Version: 7, Keys: []string{"q/b/absent"}},
	}
	if got := tx.ReadSets(); !reflect.DeepEqual(got, want) {
		t.Fatalf("read sets %+v, want %+v", got, want)
	}
	keys := make([]string, 0, 1)
	for k := range tx.Writes() {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if !reflect.DeepEqual(keys, []string{"q/b/new"}) {
		t.Fatalf("writes = %v", keys)
	}
	// The committed write set is overlaid by namespace.
	b.Apply(Delta{Version: 8}, tx.Writes())
	a.Apply(Delta{Version: 4}, tx.Writes())
	if v, ok := ReplicaTxn([]*Replica{b}, true).Get("q/b/new"); !ok || string(v) != "n" {
		t.Fatalf("own write missing from its namespace's replica")
	}
	if got := ReplicaTxn([]*Replica{a}, true).List("q/a/"); len(got) != 2 {
		t.Fatalf("own write leaked into another namespace's replica: %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a key of an unnamed namespace was readable")
		}
	}()
	ReplicaTxn([]*Replica{a}, true).Get("q/c/x")
}

// BenchmarkUpdateNS is the in-memory commit path with no replica attached —
// every in-memory run. The change-log hook must cost it nothing measurable:
// run on the commit before and after and compare (the benchmark's
// gcs.update.ns_per_txn layer row is the cross-check).
func BenchmarkUpdateNS(b *testing.B) {
	s, _ := newStore()
	ns := "q/bench/"
	keys := make([]string, 8)
	for i := range keys {
		keys[i] = fmt.Sprintf("%sk/%d", ns, i)
	}
	val := []byte("0123456789abcdef")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.UpdateNS(ns, func(tx *Txn) error {
			tx.Get(keys[i&7])
			tx.Put(keys[i&7], val)
			tx.Put(keys[(i+1)&7], val)
			return nil
		})
	}
}
