package gcs

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"quokka/internal/metrics"
)

// The store's remote form: change tracking that starts with the first Sync
// of a namespace and ends with its last key, deltas that carry exactly what
// changed, and Apply's guarded entries.

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
	if first.Version != s.AwaitNS(context.Background(), ns, 0, 0) || followed(s) != 1 {
		t.Fatalf("first contact: version %d (shard %d), %d tracked", first.Version, s.AwaitNS(context.Background(), ns, 0, 0), followed(s))
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
	rep.Fold(first, nil)
	rep.Fold(d, nil)
	rep.Fold(first, nil) // an answer arriving late changes nothing
	tx := ReplicaTxn(rep)
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
	if len(d.Set) != 0 || d.Full || d.Version != s.AwaitNS(context.Background(), a, 0, 0) || d.Version == da.Version {
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

// TestApplyChecksGuards: Apply applies, in one transaction and in entry
// order, every entry whose guards hold — an absent key holding 0, a guard
// seeing what an entry before it wrote — and answers one bit per entry; with
// none applied it writes nothing, moves no version and counts nothing; an
// entry with a key outside its namespace fails the call with no effect; and
// ApplySync's delta is what others changed, not the entries applied.
func TestApplyChecksGuards(t *testing.T) {
	s, met := newStore()
	ns := "q/val/"
	putKeys(t, s, ns, "gep", "2", "cep/1", "x", "other", "o")
	at := s.Sync(ns, 0).Version
	putKeys(t, s, ns, "theirs", "y")
	kv := func(k, v string) KV { return KV{Key: ns + k, Val: []byte(v)} }
	entries := []Entry{
		{NS: ns, Guards: []Guard{{ns + "gep", 2}, {ns + "cep/0", 0}}, Puts: []KV{kv("cur/0", "1"), kv("lin/0", "r")}},
		{NS: ns, Guards: []Guard{{ns + "gep", 1}}, Puts: []KV{kv("cur/1", "1")}},                     // the epoch moved
		{NS: ns, Guards: []Guard{{ns + "cep/1", 0}}, Puts: []KV{kv("cur/2", "1")}},                   // no integer
		{NS: ns, Guards: []Guard{{ns + "cur/0", 1}}, Deletes: []string{ns + "other"}},                // sees entry 0
		{NS: ns, Guards: []Guard{{ns + "gep", 2}, {ns + "absent", 1}}, Puts: []KV{kv("cur/3", "1")}}, // absent reads 0
	}
	ctx := context.Background()
	version, txns, bytes := s.AwaitNS(ctx, ns, 0, 0), met.Get(metrics.GCSTxns), met.Get(metrics.GCSBytes)
	applied, deltas, err := s.ApplySync(entries, []string{ns}, []uint64{at})
	if err != nil || !reflect.DeepEqual(applied, []bool{true, false, false, true, false}) {
		t.Fatalf("applied %v, %v", applied, err)
	}
	if got := s.AwaitNS(ctx, ns, 0, 0); got != version+1 || met.Get(metrics.GCSTxns) != txns+1 {
		t.Fatalf("version %d -> %d, %d transactions: want one", version, got, met.Get(metrics.GCSTxns)-txns)
	}
	if got, want := met.Get(metrics.GCSBytes)-bytes, entries[0].Bytes()+entries[3].Bytes(); got != want {
		t.Fatalf("gcs.bytes moved %d, want the applied entries' %d", got, want)
	}
	if got := deltaMap(deltas[0]); !reflect.DeepEqual(got, map[string]string{ns + "theirs": "y"}) || deltas[0].Version != version+1 {
		t.Fatalf("delta %v at %d, want theirs alone at %d", got, deltas[0].Version, version+1)
	}
	s.ViewNS(ns, func(tx *Txn) error {
		if got := tx.List(ns); !reflect.DeepEqual(got, []string{ns + "cep/1", ns + "cur/0", ns + "gep", ns + "lin/0", ns + "theirs"}) {
			t.Errorf("store holds %v", got)
		}
		return nil
	})

	// None applied: nothing written, the version unmoved, nothing counted.
	version, txns = s.AwaitNS(ctx, ns, 0, 0), met.Get(metrics.GCSTxns)
	applied, err = s.Apply([]Entry{{NS: ns, Guards: []Guard{{ns + "gep", 7}}, Puts: []KV{kv("lost", "x")}}})
	if err != nil || !reflect.DeepEqual(applied, []bool{false}) || s.AwaitNS(ctx, ns, 0, 0) != version || met.Get(metrics.GCSTxns) != txns {
		t.Fatalf("a refused Apply: %v, %v, version %d -> %d, %d transactions", applied, err, version, s.AwaitNS(ctx, ns, 0, 0), met.Get(metrics.GCSTxns)-txns)
	}

	// A key outside its entry's namespace, or a namespace that is not one
	// query's, fails the call: no entry applies, not even a good one.
	var foreign string
	for i := 0; ; i++ {
		if foreign = fmt.Sprintf("q/val-foreign-%d/", i); shardOf(foreign) != shardOf(ns) {
			break
		}
	}
	good := Entry{NS: ns, Puts: []KV{kv("good", "x")}}
	for name, bad := range map[string]Entry{
		"put":       {NS: ns, Puts: []KV{{foreign + "k", []byte("x")}}},
		"guard":     {NS: ns, Guards: []Guard{{foreign + "gep", 0}}},
		"delete":    {NS: ns, Deletes: []string{"bare"}},
		"namespace": {NS: "", Puts: []KV{{"k", []byte("x")}}},
	} {
		store := s.versionSum()
		if _, err := s.Apply([]Entry{good, bad}); err == nil || s.versionSum() != store {
			t.Errorf("a foreign %s: err %v, version %d -> %d", name, err, store, s.versionSum())
		}
	}
}

// TestReplicaFoldsAppliedEntries: a replica transaction is a view — reads
// from the replica, a write panics, a key of another namespace is refused — and
// a fold takes the delta, then the applied entries of the replica's own
// namespace; an answer older than the replica changes nothing.
func TestReplicaFoldsAppliedEntries(t *testing.T) {
	a, b := &Replica{NS: "q/a/"}, &Replica{NS: "q/b/"}
	a.Fold(Delta{Version: 3, Full: true, Set: map[string][]byte{"q/a/x": []byte("1"), "q/a/rp/1": []byte("d")}}, nil)
	b.Fold(Delta{Version: 7, Full: true}, nil)
	own := []Entry{
		{NS: "q/b/", Puts: []KV{{"q/b/new", []byte("n")}}},
		{NS: "q/a/", Deletes: []string{"q/a/rp/1"}},
	}
	b.Fold(Delta{Version: 8}, own)
	a.Fold(Delta{Version: 4, Set: map[string][]byte{"q/a/y": []byte("2")}}, own)
	a.Fold(Delta{Version: 4, Set: map[string][]byte{"q/a/late": []byte("3")}}, nil)
	if v, ok := ReplicaTxn(b).Get("q/b/new"); !ok || string(v) != "n" || b.Version != 8 {
		t.Fatalf("own put missing from its namespace's replica (version %d)", b.Version)
	}
	if got := ReplicaTxn(a).List("q/a/"); !reflect.DeepEqual(got, []string{"q/a/x", "q/a/y"}) || a.Version != 4 {
		t.Fatalf("replica of q/a/ holds %v at %d, want x and y at 4", got, a.Version)
	}
	panics := func(what string, body func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", what)
			}
		}()
		body()
	}
	panics("a put in a replica transaction", func() { ReplicaTxn(a).Put("q/a/x", []byte("2")) })
	panics("a read of another namespace", func() { ReplicaTxn(a).Get("q/c/x") })
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
