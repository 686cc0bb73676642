package gcs

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"
)

// The sharded keyspace: per-query-namespace transactions (UpdateNS/ViewNS)
// lock a single shard, so concurrent queries' transactions proceed in
// parallel, while legacy whole-store transactions still see a serializable
// view across every namespace.

func TestNamespaceTxnsAreSerializablePerNamespace(t *testing.T) {
	s, _ := newStore()
	const queries, workers, iters = 4, 4, 25
	var wg sync.WaitGroup
	for q := 0; q < queries; q++ {
		ns := fmt.Sprintf("q/q%d/", q)
		s.UpdateNS(ns, func(tx *Txn) error { tx.Put(ns+"n", []byte("0")); return nil })
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(ns string) {
				defer wg.Done()
				for i := 0; i < iters; i++ {
					s.UpdateNS(ns, func(tx *Txn) error {
						v, _ := tx.Get(ns + "n")
						var n int
						fmt.Sscanf(string(v), "%d", &n)
						tx.Put(ns+"n", []byte(fmt.Sprintf("%d", n+1)))
						return nil
					})
				}
			}(ns)
		}
	}
	wg.Wait()
	// Legacy whole-store view sees every namespace's final count.
	s.View(func(tx *Txn) error {
		for q := 0; q < queries; q++ {
			ns := fmt.Sprintf("q/q%d/", q)
			v, _ := tx.Get(ns + "n")
			if string(v) != fmt.Sprintf("%d", workers*iters) {
				t.Errorf("%s: lost updates: n = %s, want %d", ns, v, workers*iters)
			}
		}
		return nil
	})
}

func TestNamespaceTxnRejectsForeignKeys(t *testing.T) {
	s, _ := newStore()
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on out-of-namespace key in NS txn")
		}
	}()
	s.UpdateNS("q/q1/", func(tx *Txn) error {
		tx.Put("q/q2/evil", nil) // different query's namespace
		return nil
	})
}

func TestLegacyListSpansShards(t *testing.T) {
	s, _ := newStore()
	// Namespaces chosen to land on multiple shards.
	for q := 0; q < 32; q++ {
		ns := fmt.Sprintf("q/q%d/", q)
		s.UpdateNS(ns, func(tx *Txn) error { tx.Put(ns+"k", nil); return nil })
	}
	s.View(func(tx *Txn) error {
		if got := len(tx.List("q/")); got != 32 {
			t.Errorf("List(q/) across shards = %d keys, want 32", got)
		}
		return nil
	})
	// NS-scoped List stays within its shard and sees its own keys.
	s.ViewNS("q/q7/", func(tx *Txn) error {
		if got := len(tx.List("q/q7/")); got != 1 {
			t.Errorf("ViewNS List = %d keys, want 1", got)
		}
		return nil
	})
}

func TestNamespaceTxnMetricsAndVersion(t *testing.T) {
	s, met := newStore()
	v0 := s.versionSum()
	s.UpdateNS("q/q1/", func(tx *Txn) error { tx.Put("q/q1/a", []byte("xyz")); return nil })
	if got := met.Get("gcs.txns"); got != 1 {
		t.Errorf("gcs.txns = %d, want 1", got)
	}
	if got := met.Get("gcs.bytes"); got != int64(len("q/q1/a")+3) {
		t.Errorf("gcs.bytes = %d", got)
	}
	if s.versionSum() <= v0 {
		t.Error("NS update did not bump the store version")
	}
}

// TestAwaitNS: a wait for a version already passed returns at once; a parked
// one returns on a commit in its shard and on nothing else that happens to the
// store — a view, an aborted update, a commit in another shard; max and ctx
// each end it with the version unchanged; and a waiter that left, however it
// left, leaves no goroutine and no channel behind.
func TestAwaitNS(t *testing.T) {
	s, _ := newStore()
	ctx := context.Background()
	ns, other := "q/q1/", ""
	for i := 0; other == ""; i++ {
		if o := fmt.Sprintf("q/o%d/", i); shardOf(o) != shardOf(ns) {
			other = o
		}
	}
	sh := &s.shards[shardOf(ns)]
	commit := func(ns string) {
		t.Helper()
		if err := s.UpdateNS(ns, func(tx *Txn) error { tx.Put(ns+"k", []byte("v")); return nil }); err != nil {
			t.Fatal(err)
		}
	}
	// park starts n waiters on ns and returns once all are parked.
	park := func(ctx context.Context, n int, after uint64, max time.Duration) <-chan uint64 {
		got := make(chan uint64, n)
		for i := 0; i < n; i++ {
			go func() { got <- s.AwaitNS(ctx, ns, after, max) }()
		}
		for parked := 0; parked < n; {
			runtime.Gosched()
			sh.mu.Lock()
			parked = sh.waiters
			sh.mu.Unlock()
		}
		return got
	}
	goroutines := runtime.NumGoroutine()

	commit(ns)
	v := s.AwaitNS(context.Background(), ns, 0, 0)
	if got := s.AwaitNS(ctx, ns, v-1, time.Hour); got != v {
		t.Fatalf("waiting for a passed version returned %d, want %d at once", got, v)
	}
	if got := s.AwaitNS(ctx, ns, v, 0); got != v {
		t.Fatalf("max 0 returned %d, want %d at once", got, v)
	}

	got := park(ctx, 3, v, time.Hour)
	s.ViewNS(ns, func(*Txn) error { return nil })
	s.UpdateNS(ns, func(*Txn) error { return ErrAborted })
	commit(other)
	select {
	case woke := <-got:
		t.Fatalf("a view, an abort or another shard's commit woke a waiter (version %d)", woke)
	case <-time.After(20 * time.Millisecond):
	}
	commit(ns)
	for i := 0; i < 3; i++ {
		if woke := <-got; woke != v+1 {
			t.Errorf("woken at version %d, want %d", woke, v+1)
		}
	}

	if got := <-park(ctx, 1, v+1, 5*time.Millisecond); got != v+1 {
		t.Errorf("max elapsed: version %d, want %d unchanged", got, v+1)
	}
	cctx, cancel := context.WithCancel(ctx)
	got = park(cctx, 2, v+1, time.Hour)
	cancel()
	for i := 0; i < 2; i++ {
		if woke := <-got; woke != v+1 {
			t.Errorf("ctx done: version %d, want %d unchanged", woke, v+1)
		}
	}

	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		if sh.moved != nil || sh.waiters != 0 {
			t.Errorf("shard %d: %d waiters and a channel left behind", i, sh.waiters)
		}
		sh.mu.Unlock()
	}
	for i := 0; runtime.NumGoroutine() > goroutines && i < 1000; i++ {
		time.Sleep(time.Millisecond) // a woken waiter's goroutine exits after its send
	}
	if n := runtime.NumGoroutine(); n > goroutines {
		t.Errorf("%d goroutines, %d before the waits", n, goroutines)
	}
}

// TestDeleteNSDropsTheNamespace: a drop deletes every key of its namespace in
// one committed update — one version bump, a parked waiter woken — and
// nothing of another namespace on the same shard; the body's own writes land
// after it, and its reads still see the committed keys; and only a head
// update may make it.
func TestDeleteNSDropsTheNamespace(t *testing.T) {
	s, _ := newStore()
	ns, other := sameShardNamespaces()
	keys := []string{"pl/0.0", "cur/0.0", "lin/0.0.0", "lin/0.0.1", "rp/1/0.0.0", "gep"}
	for _, k := range keys {
		putKeys(t, s, ns, k, "x")
		putKeys(t, s, other, k, "y")
	}
	listNS := func(ns string) (got []string) {
		s.ViewNS(ns, func(tx *Txn) error { got = tx.List(ns); return nil })
		return got
	}
	sh := &s.shards[shardOf(ns)]
	v, store := s.AwaitNS(context.Background(), ns, 0, 0), s.versionSum()
	woke := make(chan uint64, 1)
	go func() { woke <- s.AwaitNS(context.Background(), ns, v, time.Hour) }()
	for parked := 0; parked == 0; {
		runtime.Gosched()
		sh.mu.Lock()
		parked = sh.waiters
		sh.mu.Unlock()
	}

	err := s.UpdateNS(ns, func(tx *Txn) error {
		tx.Put(ns+"early", []byte("1"))
		tx.DeleteNS(ns)
		if _, ok := tx.Get(ns + "gep"); !ok {
			t.Error("a committed key reads absent before the commit that drops it")
		}
		tx.Put(ns+"late", []byte("2"))
		if len(tx.writes) != 2 {
			t.Errorf("%d buffered writes, want the body's two puts and nothing for the drop", len(tx.writes))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := <-woke; got != v+1 || s.AwaitNS(context.Background(), ns, 0, 0) != v+1 || s.versionSum() != store+1 {
		t.Errorf("the drop woke a waiter at %d, shard at %d, store at %d; want %d, %d, %d", got, s.AwaitNS(context.Background(), ns, 0, 0), s.versionSum(), v+1, v+1, store+1)
	}
	if got := listNS(ns); !reflect.DeepEqual(got, []string{ns + "early", ns + "late"}) {
		t.Errorf("dropped namespace holds %v, want the body's own writes alone", got)
	}
	if got := listNS(other); len(got) != len(keys) {
		t.Errorf("the namespace sharing the shard holds %v, want its %d keys", got, len(keys))
	}

	refused := func(what string, body func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("DeleteNS %s did not panic", what)
			}
		}()
		body()
	}
	refused("in a replica transaction", func() { ReplicaTxn(&Replica{NS: other}).DeleteNS(other) })
	refused("in a view", func() { s.txnNS(other, nil).DeleteNS(other) })
	refused("of a key prefix", func() {
		s.txnNS(other, map[string][]byte{}).DeleteNS(other + "lin/")
	})
	if got := listNS(other); len(got) != len(keys) {
		t.Errorf("a refused drop changed %v", got)
	}
}
