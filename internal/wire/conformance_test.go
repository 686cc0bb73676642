package wire

// The backend conformance suite: the SAME assertions run against the
// in-memory backends (gcs.Store, flight.Server, storage.ObjectStore) and
// against the wire clients talking to a head server — and, for the mailbox,
// to a worker-hosted flight.Server behind its own listener — over loopback TCP.
// Process mode is only sound if both implementations agree on the
// semantics recovery leans on — idempotent pushes, zombie-epoch fencing,
// ErrServerDown after failure, transactional read-your-writes, abort
// identity — so the suite is the contract and both must pass it.

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"
	"weak"

	"quokka/internal/batch"
	"quokka/internal/cluster"
	"quokka/internal/engine"
	"quokka/internal/flight"
	"quokka/internal/gcs"
	"quokka/internal/lineage"
	"quokka/internal/metrics"
	"quokka/internal/storage"
)

// backends is one implementation under test.
type backends struct {
	gcs gcs.Backend
	// fl is worker i's mailbox as another process reaches it: the in-memory
	// server itself, or a client of the worker-hosted server's listener.
	fl  func(i int) flight.Peer
	obj storage.Objects
	// server is worker i's mailbox at its authoritative end (the in-memory
	// server itself, or the worker-hosted server behind its listener): the
	// owner's view, where a mailbox is failed and where the suite probes what
	// it buffers.
	server func(i int) *flight.Server
	// remote marks handles that proxy to another process.
	remote bool
	// store is the authoritative store behind gcs (the same value in memory);
	// peer, over the wire, is a second worker process's client of it; met
	// counts the head's op frames, mboxMet what the mailbox listeners serve.
	store   *gcs.Store
	peer    gcs.Backend
	met     *metrics.Collector
	mboxMet *metrics.Collector
}

func memBackends(t *testing.T) *backends {
	t.Helper()
	met := &metrics.Collector{}
	cost := storage.CostModel{}
	servers := []*flight.Server{flight.NewServer(cost, met), flight.NewServer(cost, met)}
	store := gcs.New(cost, met)
	return &backends{
		gcs:    store,
		store:  store,
		peer:   store,
		fl:     func(i int) flight.Peer { return servers[i] },
		obj:    storage.NewObjectStore(cost, storage.ProfileS3, met),
		server: func(i int) *flight.Server { return servers[i] },
	}
}

func wireBackends(t *testing.T) *backends {
	t.Helper()
	cl, err := cluster.New(cluster.Options{Workers: 2, Cost: storage.CostModel{}})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(cl, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	p := newPool(srv.Addr())
	t.Cleanup(p.close)
	mboxMet := &metrics.Collector{}
	var mailboxes []*mailbox
	var clients []*flightClient
	for i := range 2 {
		m := opMailbox(t, uint32(i), mboxMet)
		peer := newPeerPool(context.Background())
		peer.setAddr(m.ln.Addr().String())
		t.Cleanup(peer.close)
		mailboxes, clients = append(mailboxes, m), append(clients, &flightClient{p: peer, worker: uint32(i)})
	}
	return &backends{
		gcs:     &gcsClient{p: p},
		fl:      func(i int) flight.Peer { return clients[i] },
		obj:     &objClient{p: p, max: objCacheMax},
		server:  func(i int) *flight.Server { return mailboxes[i].fl },
		remote:  true,
		store:   cl.GCS.(*gcs.Store),
		peer:    &gcsClient{p: p},
		met:     cl.Metrics,
		mboxMet: mboxMet,
	}
}

// TestConformance runs every case against both implementations. The case
// names (TestConformance/<impl>/<contract>/<case>) are what the contract
// pages under docs/contracts/ cite, clause by clause.
func TestConformance(t *testing.T) {
	impls := []struct {
		name string
		mk   func(*testing.T) *backends
	}{
		{"memory", memBackends},
		{"wire", wireBackends},
	}
	for _, impl := range impls {
		t.Run(impl.name, func(t *testing.T) {
			t.Run("gcs", func(t *testing.T) {
				b := impl.mk(t)
				gcsConformance(t, b)
				replicaConformance(t, b)
			})
			t.Run("flight", func(t *testing.T) { flightConformance(t, impl.mk(t)) })
			t.Run("objstore", func(t *testing.T) { objConformance(t, impl.mk(t)) })
			t.Run("failure", func(t *testing.T) { failureConformance(t, impl.mk(t)) })
		})
	}
}

// confNS is the suite's namespace: a query namespace like any other, built
// by the engine's blessed helper (a remote backend serves nothing else).
var confNS = engine.QueryNamespace("conf")

// nsKey builds a test key inside confNS.
func nsKey(part string) string { return confNS + "conf-" + part }

// gcsConformance's cases share one store and run in order: later cases
// read what earlier ones committed.
func gcsConformance(t *testing.T, b *backends) {
	g := b.gcs
	ns := confNS

	// Write, read-your-writes inside the txn, then visibility after commit.
	t.Run("read-your-writes", func(t *testing.T) {
		err := g.UpdateNS(ns, func(tx *gcs.Txn) error {
			tx.Put(nsKey("a"), []byte("1"))
			tx.Put(nsKey("b"), []byte("2"))
			if v, ok := tx.Get(nsKey("a")); !ok || string(v) != "1" {
				return fmt.Errorf("read-your-writes: got %q ok=%v", v, ok)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("update: %v", err)
		}
		err = g.ViewNS(ns, func(tx *gcs.Txn) error {
			if v, ok := tx.Get(nsKey("a")); !ok || string(v) != "1" {
				return fmt.Errorf("committed value: got %q ok=%v", v, ok)
			}
			if _, ok := tx.Get(nsKey("missing")); ok {
				return fmt.Errorf("absent key reported present")
			}
			return nil
		})
		if err != nil {
			t.Fatalf("view: %v", err)
		}
	})

	// List reflects committed state merged with uncommitted writes and
	// deletes, sorted; the delete commits.
	t.Run("list-merge", func(t *testing.T) {
		err := g.UpdateNS(ns, func(tx *gcs.Txn) error {
			tx.Put(nsKey("c"), []byte("3"))
			tx.Delete(nsKey("a"))
			got := tx.List(nsKey(""))
			want := []string{nsKey("b"), nsKey("c")}
			if !reflect.DeepEqual(got, want) {
				return fmt.Errorf("list = %v, want %v", got, want)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("list txn: %v", err)
		}
		g.ViewNS(ns, func(tx *gcs.Txn) error {
			if _, ok := tx.Get(nsKey("a")); ok {
				t.Errorf("deleted key still present")
			}
			return nil
		})
	})

	// A body error aborts: no effects, and the error comes back with its
	// identity intact (the engine compares against gcs.ErrAborted).
	t.Run("abort-identity", func(t *testing.T) {
		err := g.UpdateNS(ns, func(tx *gcs.Txn) error {
			tx.Put(nsKey("doomed"), []byte("x"))
			return gcs.ErrAborted
		})
		if !errors.Is(err, gcs.ErrAborted) {
			t.Fatalf("abort error identity lost: %v", err)
		}
		g.ViewNS(ns, func(tx *gcs.Txn) error {
			if _, ok := tx.Get(nsKey("doomed")); ok {
				t.Errorf("aborted write visible")
			}
			return nil
		})
	})

	// UpdateMulti commits over the namespaces it names, atomically, and an
	// abort discards the whole write set.
	t.Run("multi", func(t *testing.T) {
		err := g.UpdateMulti([]string{ns}, func(tx *gcs.Txn) error {
			tx.Put(nsKey("m1"), []byte("x"))
			tx.Put(nsKey("m2"), []byte("y"))
			return nil
		})
		if err != nil {
			t.Fatalf("multi: %v", err)
		}
		err = g.UpdateMulti([]string{ns}, func(tx *gcs.Txn) error {
			tx.Put(nsKey("m3"), []byte("z"))
			return gcs.ErrAborted
		})
		if !errors.Is(err, gcs.ErrAborted) {
			t.Fatalf("multi abort identity lost: %v", err)
		}
		g.ViewNS(ns, func(tx *gcs.Txn) error {
			_, ok1 := tx.Get(nsKey("m1"))
			_, ok2 := tx.Get(nsKey("m2"))
			_, ok3 := tx.Get(nsKey("m3"))
			if !ok1 || !ok2 || ok3 {
				t.Errorf("multi visibility: m1=%v m2=%v m3(aborted)=%v", ok1, ok2, ok3)
			}
			return nil
		})
	})

	// AwaitNS returns the namespace's shard version: at once when it is past
	// after or max is 0, else when a commit — not a view, not an aborted update
	// — moves it, when max elapses or when ctx ends. Over the wire a wait the
	// client's own commits already answered costs no frame and any other one,
	// and a view after a wake costs none and sees what the wait woke for.
	t.Run("await", func(t *testing.T) {
		ctx := context.Background()
		b.peer.AwaitNS(ctx, ns, 0, 0) // the peer's first contact, before the count
		frames := b.opFrames("gcs_follow")
		follows := func(want int64, what string) {
			t.Helper()
			if n := b.opFrames("gcs_follow") - frames; b.remote && n != want {
				t.Errorf("%s: %d follow frames, want %d", what, n, want)
			}
			frames = b.opFrames("gcs_follow")
		}
		v0 := g.AwaitNS(ctx, ns, 0, 0)
		if v0 == 0 || g.AwaitNS(ctx, ns, v0-1, 5*time.Second) != v0 {
			t.Fatalf("version %d, or a wait for a version already passed parked", v0)
		}
		follows(0, "two waits the client's own commits answered")
		g.ViewNS(ns, func(tx *gcs.Txn) error { return nil })
		g.UpdateNS(ns, func(tx *gcs.Txn) error { return gcs.ErrAborted })
		if v := g.AwaitNS(ctx, ns, v0, 20*time.Millisecond); v != v0 {
			t.Errorf("version moved without a commit: %d -> %d", v0, v)
		}
		follows(1, "a wait that times out")
		// Parked with max = 5 s (the pause only lets it park: a commit that beat
		// it would return it at once), woken by a second client's commit.
		parked := func(ctx context.Context, after uint64) <-chan uint64 {
			got := make(chan uint64, 1)
			go func() { got <- g.AwaitNS(ctx, ns, after, 5*time.Second) }()
			time.Sleep(10 * time.Millisecond)
			return got
		}
		start, got := time.Now(), parked(ctx, v0)
		if err := b.peer.UpdateNS(ns, func(tx *gcs.Txn) error { tx.Put(nsKey("v"), []byte("1")); return nil }); err != nil {
			t.Fatal(err)
		}
		v1 := <-got
		if woke := time.Since(start); v1 <= v0 || woke > time.Second {
			t.Errorf("a peer's commit: version %d -> %d after %v, want a wake-up", v0, v1, woke)
		}
		follows(1, "a wait a peer's commit ended")
		seesV := func(what string) {
			t.Helper()
			if err := g.ViewNS(ns, func(tx *gcs.Txn) error {
				if v, _ := tx.Get(nsKey("v")); string(v) != "1" {
					return fmt.Errorf("the peer's write reads %q", v)
				}
				return nil
			}); err != nil {
				t.Errorf("view %s: %v", what, err)
			}
		}
		seesV("after the wake")
		follows(0, "a view after the wake")
		// Cancelled while parked: it returns nothing newer, and what it was
		// parked on is not handed to the next exchange.
		cctx, cancel := context.WithCancel(ctx)
		got = parked(cctx, v1)
		cancel()
		if v := <-got; v > v1 {
			t.Errorf("cancelled wait returned %d, namespace at %d", v, v1)
		}
		if v := g.AwaitNS(ctx, ns, 0, 0); v != v1 {
			t.Errorf("after a cancelled wait the version reads %d, want %d", v, v1)
		}
		seesV("after a cancelled wait")
	})

	// A committed update moves the version by exactly one. After a client's
	// own commit with no other writer, the probe (max 0) answers exactly the
	// version before the commit plus one, without parking and — over the wire —
	// without a frame: the commit's answer moved the replica. Another client's
	// commit in between shows as more than one. (The group committer advances
	// its image on exactly that answer.)
	t.Run("version-after-commit", func(t *testing.T) {
		ctx := context.Background()
		commit := func(be gcs.Backend) {
			t.Helper()
			if err := be.UpdateNS(ns, func(tx *gcs.Txn) error { tx.Put(nsKey("vac"), []byte("x")); return nil }); err != nil {
				t.Fatal(err)
			}
		}
		frames := func() int64 { return b.opFrames("gcs_follow") + b.opFrames("gcs_commit") }
		commit(g) // its answer brings the client up to the namespace's version
		v := g.AwaitNS(ctx, ns, 0, 0)
		if now := b.store.VersionNS(ns); v != now {
			t.Fatalf("after an own commit the probe answered %d, namespace at %d", v, now)
		}
		commit(g)
		before := frames()
		if got := g.AwaitNS(ctx, ns, v, 0); got != v+1 {
			t.Errorf("after an own commit with no other writer the probe answered %d, want %d", got, v+1)
		}
		if n := frames() - before; b.remote && n != 0 {
			t.Errorf("the probe after an own commit cost %d frames, want 0", n)
		}
		v++
		commit(b.peer)
		commit(g)
		if got := g.AwaitNS(ctx, ns, v, 0); got <= v+1 {
			t.Errorf("with a second client's commit before an own one the probe answered %d, want more than %d", got, v+1)
		}
	})
}

// opFrames reads the head's request-frame counter of one op type (0 in
// memory: nothing crosses a socket).
func (b *backends) opFrames(op string) int64 { return b.met.Get(metrics.WireFrames + op) }

// mailboxFrames is every request frame the mailbox listeners have served.
func (b *backends) mailboxFrames() (n int64) {
	for _, v := range flFrames(b.mboxMet) {
		n += v
	}
	return n
}

// namespaceKeys is what a replica of ns at version since is sent — every key
// a worker would receive — and whether it was the whole namespace: in memory
// the store's own answer, over the wire the decoded answer to a raw follow
// frame that parks for nothing, a first contact's.
func namespaceKeys(t *testing.T, b *backends, ns string, since uint64) (keys []string, full bool) {
	t.Helper()
	d := gcs.Delta{}
	if !b.remote {
		d = b.store.Sync(ns, since)
	} else {
		var w wbuf
		w.str(ns)
		w.u64(since)
		w.u64(0)
		w.u32(0)
		rp, err := b.gcs.(*gcsClient).p.expect(context.Background(), mtGCSFollow, w.b, mtGCSResult)
		if err != nil {
			t.Fatal(err)
		}
		r := rbuf{b: rp}
		r.boolean("committed")
		if n := r.u32("delta count"); n != 1 {
			t.Fatalf("follow answered %d deltas", n)
		}
		d = gcs.Delta{Version: r.u64("version"), Full: r.boolean("full"), Set: r.kvs("entry")}
		if err := r.err(); err != nil {
			t.Fatal(err)
		}
	}
	for k := range d.Set {
		keys = append(keys, k)
	}
	return keys, d.Full
}

// replicaConformance is the part of the control-store contract that exists
// because a remote backend runs bodies against a replica: no frame for a view,
// one for an update, re-run on a stale read, deletes and nothing foreign in a
// delta, no residue after the query. The assertions on outcomes hold in
// memory too; the frame counts are checked where there are frames.
func replicaConformance(t *testing.T, b *backends) {
	g, ns := b.gcs, confNS
	// sees has be observe every commit the store holds, as the engine's wait
	// does before it loads an image: a view promises what its client observed.
	sees := func(be gcs.Backend) {
		be.AwaitNS(context.Background(), ns, b.store.VersionNS(ns)-1, time.Second)
	}
	put := func(be gcs.Backend, ns, key, val string) {
		t.Helper()
		if err := be.UpdateNS(ns, func(tx *gcs.Txn) error { tx.Put(key, []byte(val)); return nil }); err != nil {
			t.Fatal(err)
		}
	}
	counter := nsKey("n")
	bump := func(be gcs.Backend, body func()) error {
		return be.UpdateNS(ns, func(tx *gcs.Txn) error {
			if body != nil {
				body()
			}
			v, _ := tx.Get(counter)
			var n int
			fmt.Sscanf(string(v), "%d", &n)
			tx.Put(counter, []byte(fmt.Sprint(n+1)))
			return nil
		})
	}
	read := func(be gcs.Backend, key string) (val string, ok bool) {
		t.Helper()
		sees(be)
		if err := be.ViewNS(ns, func(tx *gcs.Txn) error {
			v, present := tx.Get(key)
			val, ok = string(v), present
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return val, ok
	}

	// A view runs against the replica, however much its body reads: no frame
	// after the client's own commits, or after a wait that observed a peer's,
	// and it sees them. Only a first contact — a namespace the client never
	// followed — costs one frame.
	t.Run("view-one-frame", func(t *testing.T) {
		put(g, ns, nsKey("one-1"), "1")
		put(g, ns, nsKey("one-2"), "2")
		follows, commits := b.opFrames("gcs_follow"), b.opFrames("gcs_commit")
		frames := func(want int64, what string) {
			t.Helper()
			f, c := b.opFrames("gcs_follow")-follows, b.opFrames("gcs_commit")-commits
			if b.remote && (f != want || c != 0) {
				t.Errorf("%s cost %d follow + %d commit frames, want %d + 0", what, f, c, want)
			}
			follows, commits = b.opFrames("gcs_follow"), b.opFrames("gcs_commit")
		}
		view := func(be gcs.Backend, n int) error {
			return be.ViewNS(ns, func(tx *gcs.Txn) error {
				for i := 1; i <= n; i++ {
					k := fmt.Sprintf("one-%d", i)
					if v, ok := tx.Get(nsKey(k)); !ok || string(v) != fmt.Sprint(i) {
						return fmt.Errorf("%s = %q, %v", k, v, ok)
					}
				}
				if got := tx.List(nsKey("one-")); len(got) != n {
					return fmt.Errorf("list = %v", got)
				}
				return nil
			})
		}
		if err := view(g, 2); err != nil {
			t.Fatalf("after its own commits: %v", err)
		}
		frames(0, "a view of 2 reads and a list after the client's own commits")
		ctx := context.Background()
		v := g.AwaitNS(ctx, ns, 0, 0)
		put(b.peer, ns, nsKey("one-3"), "3")
		follows, commits = b.opFrames("gcs_follow"), b.opFrames("gcs_commit") // the peer's frames
		if g.AwaitNS(ctx, ns, v, time.Second) <= v {
			t.Fatal("a wait did not observe the peer's commit")
		}
		frames(1, "the wait that observed a peer's commit")
		if err := view(g, 3); err != nil {
			t.Fatalf("after the wait: %v", err)
		}
		frames(0, "a view of 3 reads and a list after the wait")
		fresh := gcs.Backend(b.store)
		if c, ok := g.(*gcsClient); ok {
			fresh = &gcsClient{p: c.p}
		}
		if err := view(fresh, 3); err != nil {
			t.Fatalf("a first contact: %v", err)
		}
		frames(1, "a first-contact view")
	})

	// An update whose reads are current is one request frame: read set,
	// write set and verdict.
	t.Run("update-one-frame", func(t *testing.T) {
		put(g, ns, counter, "0")
		read(g, counter) // the replica is current
		follows, commits := b.opFrames("gcs_follow"), b.opFrames("gcs_commit")
		runs := 0
		if err := bump(g, func() { runs++ }); err != nil {
			t.Fatal(err)
		}
		if b.remote {
			if f, c := b.opFrames("gcs_follow")-follows, b.opFrames("gcs_commit")-commits; f != 0 || c != 1 {
				t.Fatalf("a read-modify-write cost %d follow + %d commit frames, want 0 + 1", f, c)
			}
		}
		if v, _ := read(b.peer, counter); v != "1" || runs != 1 {
			t.Fatalf("counter = %q after %d body runs, want 1 after 1", v, runs)
		}
	})

	// A peer's commit to a key the body read lands between the body and its
	// commit: nothing is applied, the body runs again on the fresh value, and
	// the result is the serial order's — no lost update. (In memory the shard
	// lock makes that interleaving impossible; the peer goes first.)
	t.Run("conflict-rerun", func(t *testing.T) {
		start, _ := read(g, counter)
		version := b.store.VersionNS(ns)
		runs := 0
		if !b.remote {
			bump(b.peer, nil)
		}
		err := bump(g, func() {
			if runs++; runs == 1 && b.remote {
				if err := bump(b.peer, nil); err != nil {
					t.Error(err)
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		var from int
		fmt.Sscanf(start, "%d", &from)
		if v, _ := read(b.peer, counter); v != fmt.Sprint(from+2) {
			t.Fatalf("counter = %q, want %d: an update was lost", v, from+2)
		}
		if want := map[bool]int{false: 1, true: 2}[b.remote]; runs != want {
			t.Fatalf("body ran %d times, want %d", runs, want)
		}
		if got := b.store.VersionNS(ns); got != version+2 {
			t.Fatalf("version moved %d -> %d, want two commits: the stale attempt must apply nothing", version, got)
		}
	})

	// A peer's delete reaches the replica: the key is gone from Get and List.
	t.Run("delta-delete", func(t *testing.T) {
		put(g, ns, nsKey("d1"), "x")
		put(g, ns, nsKey("d2"), "y")
		if _, ok := read(g, nsKey("d1")); !ok {
			t.Fatal("d1 missing before the delete")
		}
		if err := b.peer.UpdateNS(ns, func(tx *gcs.Txn) error { tx.Delete(nsKey("d1")); return nil }); err != nil {
			t.Fatal(err)
		}
		sees(g)
		err := g.ViewNS(ns, func(tx *gcs.Txn) error {
			if _, ok := tx.Get(nsKey("d1")); ok {
				return fmt.Errorf("deleted key still readable")
			}
			if got := tx.List(nsKey("d")); !reflect.DeepEqual(got, []string{nsKey("d2")}) {
				return fmt.Errorf("list = %v", got)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})

	// Two namespaces on one shard share a lock and a version counter and
	// nothing else: a worker syncing one is never sent a key of the other,
	// and a commit to the other does not make its reads stale.
	t.Run("sync-namespace-isolation", func(t *testing.T) {
		var other string
		for i := 0; other == ""; i++ {
			cand := engine.QueryNamespace(fmt.Sprintf("conf-%d", i))
			before := b.store.VersionNS(ns)
			put(b.peer, cand, cand+"k", "theirs")
			if b.store.VersionNS(ns) != before {
				other = cand // same shard: its commit moved our version
			}
		}
		keys, full := namespaceKeys(t, b, ns, 0)
		if !full || len(keys) == 0 {
			t.Fatalf("first contact: full=%v, %d keys", full, len(keys))
		}
		for _, k := range keys {
			if len(k) < len(ns) || k[:len(ns)] != ns {
				t.Fatalf("syncing %s delivered %q", ns, k)
			}
		}
		if got, _ := namespaceKeys(t, b, other, 0); !reflect.DeepEqual(got, []string{other + "k"}) {
			t.Fatalf("syncing %s delivered %v", other, got)
		}
		read(g, counter)
		runs := 0
		if err := bump(g, func() {
			if runs++; runs == 1 && b.remote {
				put(b.peer, other, other+"k2", "theirs") // moves the shard version mid-transaction
			}
		}); err != nil {
			t.Fatal(err)
		}
		if runs != 1 {
			t.Fatalf("a commit to another namespace on the shard re-ran the body (%d runs)", runs)
		}
		// Reading the other query's key inside this namespace's transaction is
		// refused outright over the wire (in memory the shard is shared).
		if b.remote {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("a foreign namespace's key was readable")
					}
				}()
				g.ViewNS(ns, func(tx *gcs.Txn) error { tx.Get(other + "k"); return nil })
			}()
		}
	})

	// When the query is over — its namespace dropped at the head, the
	// worker's replica forgotten — neither end keeps anything of it: the head
	// no longer knows what changed since any version (it answers with the
	// whole, empty, namespace; gcs.TestChangeTrackingLifecycle looks inside),
	// and the client holds no replica.
	t.Run("replica-dropped-with-query", func(t *testing.T) {
		version := b.store.VersionNS(ns)
		if _, full := namespaceKeys(t, b, ns, version); full {
			t.Fatalf("a followed namespace answered a current replica with the whole namespace")
		}
		if err := b.store.UpdateNS(ns, func(tx *gcs.Txn) error { tx.DeleteNS(ns); return nil }); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ { // the second sync finds what the first left: nothing
			if keys, full := namespaceKeys(t, b, ns, version); !full || len(keys) != 0 {
				t.Fatalf("dropped namespace: full=%v, keys %v; want the whole, empty namespace", full, keys)
			}
		}
		if c, ok := g.(*gcsClient); ok {
			c.forget(ns)
			if _, held := c.reps[ns]; held {
				t.Fatalf("client still holds a replica of %s", ns)
			}
		}
	})
}

// contig is the one-edge probe: how many partitions are buffered in sequence
// from `from` on (and, like every probe, a drop of what lies below it).
func contig(fl flight.Mailbox, q string, dest lineage.ChannelID, input, up, from int) int {
	return fl.Probe(q, dest, []flight.Edge{{Input: input, UpChannel: up, Watermark: from}})[0]
}

// oneRowBatch is a batch for a same-worker push to hand over.
func oneRowBatch() *batch.Batch {
	return batch.MustNew(batch.NewSchema(batch.F("x", batch.Int64)), []*batch.Column{batch.NewIntColumn([]int64{1})})
}

// released reports whether nothing holds the batch w points to any more.
func released(w weak.Pointer[batch.Batch]) bool {
	runtime.GC()
	return w.Value() == nil
}

// flightConformance's cases share worker 0's mailbox and run in order: fl is
// anybody's handle on it, own its owner's view in the hosting process.
func flightConformance(t *testing.T, b *backends) {
	fl := b.fl(0)
	var own flight.Mailbox = b.server(0)
	q := "q-conf"
	dest := lineage.ChannelID{Stage: 1, Channel: 0}
	push := func(seq, epoch int, data string) error {
		return fl.Push(flight.Partition{
			Query: q,
			From:  lineage.TaskName{Stage: 0, Channel: 2, Seq: seq},
			Dest:  dest, Input: 0, Data: []byte(data), Epoch: epoch,
		})
	}

	// Contiguity tracks pushes in order, tolerates gaps.
	t.Run("push-contiguous-take", func(t *testing.T) {
		for seq, d := range []string{"p0", "p1"} {
			if err := push(seq, 0, d); err != nil {
				t.Fatalf("push %d: %v", seq, err)
			}
		}
		if err := push(3, 0, "p3"); err != nil {
			t.Fatal(err)
		}
		if n := contig(own, q, dest, 0, 2, 0); n != 2 {
			t.Fatalf("contiguous = %d, want 2 (gap at 2)", n)
		}
		got, err := own.Take(q, dest, 0, 2, 0, 2)
		if err != nil {
			t.Fatalf("take: %v", err)
		}
		if string(got[0].Data) != "p0" || string(got[1].Data) != "p1" {
			t.Fatalf("take content: %q %q", got[0].Data, got[1].Data)
		}
		// Take of a missing partition errors.
		if _, err := own.Take(q, dest, 0, 2, 0, 3); err == nil {
			t.Fatalf("take across gap succeeded")
		}
	})

	// Idempotent re-push replaces within an epoch; zombie (lower-epoch)
	// pushes are dropped; higher epochs replace.
	t.Run("push-epoch-fence", func(t *testing.T) {
		if err := push(0, 1, "p0-epoch1"); err != nil {
			t.Fatal(err)
		}
		if err := push(0, 0, "p0-zombie"); err != nil {
			t.Fatal(err)
		}
		got, _ := own.Take(q, dest, 0, 2, 0, 1)
		if string(got[0].Data) != "p0-epoch1" {
			t.Fatalf("after zombie push: %q, want the epoch-1 content", got[0].Data)
		}
		// EpochCommitted re-feeds are always accepted.
		if err := push(0, flight.EpochCommitted, "p0-committed"); err != nil {
			t.Fatal(err)
		}
		got, _ = own.Take(q, dest, 0, 2, 0, 1)
		if string(got[0].Data) != "p0-committed" {
			t.Fatalf("committed re-feed rejected: %q", got[0].Data)
		}
	})

	// The mailbox holds payloads until Drop frees them.
	t.Run("drop", func(t *testing.T) {
		if bb := b.server(0).BufferedBytes(); bb <= 0 {
			t.Fatalf("buffered = %d, want > 0", bb)
		}
		own.Drop(q, dest, 0, 2, 0, 2)
		if n := contig(own, q, dest, 0, 2, 0); n != 0 {
			t.Fatalf("after drop contiguous = %d, want 0", n)
		}
	})

	// A probe clears retransmissions under its watermark and nothing at or
	// above it (seq 3 from the gap push above is still buffered and must
	// survive).
	t.Run("drop-below", func(t *testing.T) {
		push(1, 0, "r1")
		push(2, 0, "r2")
		before := b.server(0).BufferedBytes()
		if n := contig(own, q, dest, 0, 2, 2); n != 2 {
			t.Fatalf("contiguous from 2 = %d, want 2", n)
		}
		if got := b.server(0).BufferedBytes(); got != before-int64(len("r1")) {
			t.Fatalf("buffered %d -> %d, want exactly seq 1 dropped", before, got)
		}
		if _, err := own.Take(q, dest, 0, 2, 1, 1); err == nil {
			t.Fatalf("a partition below the watermark survived the probe")
		}
	})

	// One probe answers every edge it names, each from its own watermark, in
	// the order asked — the owner's question of its own mailbox: no frame.
	t.Run("probe-batch", func(t *testing.T) {
		other := func(seq int) error {
			return fl.Push(flight.Partition{
				Query: q, From: lineage.TaskName{Stage: 0, Channel: 5, Seq: seq},
				Dest: dest, Input: 1, Data: []byte("o"), Epoch: 0,
			})
		}
		for _, seq := range []int{0, 1, 2} {
			if err := other(seq); err != nil {
				t.Fatal(err)
			}
		}
		frames := b.mailboxFrames()
		got := own.Probe(q, dest, []flight.Edge{
			{Input: 1, UpChannel: 5, Watermark: 1},
			{Input: 0, UpChannel: 2, Watermark: 2}, // seqs 2 and 3 from the cases above
			{Input: 1, UpChannel: 9, Watermark: 0}, // never pushed to
		})
		if !reflect.DeepEqual(got, []int{2, 2, 0}) {
			t.Fatalf("probe = %v, want [2 2 0]", got)
		}
		if n := b.mailboxFrames() - frames; n != 0 {
			t.Fatalf("a three-edge probe of one's own mailbox cost %d request frames", n)
		}
		if len(own.Probe(q, dest, nil)) != 0 {
			t.Fatalf("empty probe answered edges")
		}
	})

	// A same-worker push — the owner's, by function call — leaves its batch
	// for Take; any other accepted push replaces the slot's batch with none;
	// a zombie cannot swap its own in; and a batch never crosses the wire.
	t.Run("handed-batch", func(t *testing.T) {
		hb := oneRowBatch()
		at := func(h flight.Peer, seq, epoch int, local bool, with *batch.Batch) *batch.Batch {
			t.Helper()
			if err := h.Push(flight.Partition{
				Query: q, From: lineage.TaskName{Stage: 0, Channel: 3, Seq: seq}, Dest: dest, Input: 2,
				Data: []byte("h"), Epoch: epoch, Local: local, Batch: with,
			}); err != nil {
				t.Fatal(err)
			}
			got, err := own.Take(q, dest, 2, 3, seq, 1)
			if err != nil {
				t.Fatal(err)
			}
			return got[0].Batch
		}
		if at(own, 0, 1, true, hb) != hb {
			t.Fatal("a same-worker push's batch did not come back")
		}
		if at(own, 0, 0, true, oneRowBatch()) != hb {
			t.Fatal("a lower-epoch push swapped in its batch")
		}
		if at(own, 0, flight.EpochCommitted, true, nil) != nil {
			t.Fatal("a replay without a batch left the old one")
		}
		if at(own, 1, 1, false, hb) != nil {
			t.Fatal("a push not marked Local kept its batch")
		}
		// Anybody's handle: the mailbox itself in memory, a client over the
		// wire, whose frame carries the bytes only.
		want := hb
		if b.remote {
			want = nil
		}
		if got := at(fl, 2, 1, true, hb); got != want {
			t.Fatalf("a Local push through anybody's handle left %p, want %p", got, want)
		}
	})

	// Whatever frees a slot frees its batch: Drop, a probe past it, DropQuery.
	t.Run("handed-batch-released", func(t *testing.T) {
		hq := q + "-handed"
		handed := func(seq int) weak.Pointer[batch.Batch] {
			hb := oneRowBatch()
			if err := own.Push(flight.Partition{Query: hq, From: lineage.TaskName{Seq: seq}, Dest: dest,
				Data: []byte("h"), Local: true, Batch: hb}); err != nil {
				t.Fatal(err)
			}
			return weak.Make(hb)
		}
		dropped, below, swept := handed(0), handed(1), handed(2)
		own.Drop(hq, dest, 0, 0, 0, 1)
		contig(own, hq, dest, 0, 0, 2)
		if !released(dropped) || !released(below) {
			t.Fatalf("batch held after Drop: %v, after a probe past it: %v", !released(dropped), !released(below))
		}
		if released(swept) {
			t.Fatal("a batch still in its slot was collected")
		}
		fl.DropQuery(hq)
		if !released(swept) {
			t.Fatal("batch held after DropQuery")
		}
	})

	// A same-worker push may carry no bytes — a piece its producer never
	// encoded travels as its batch alone — and the mailbox counts the slot at
	// the batch's size until whatever frees it does.
	t.Run("handed-batch-elided", func(t *testing.T) {
		eq := q + "-elided"
		hb := oneRowBatch()
		before := b.server(0).BufferedBytes()
		if err := own.Push(flight.Partition{Query: eq, From: lineage.TaskName{Seq: 0}, Dest: dest, Local: true, Batch: hb}); err != nil {
			t.Fatal(err)
		}
		if got := b.server(0).BufferedBytes() - before; got != hb.ByteSize() {
			t.Fatalf("a bytes-less slot counts %d buffered bytes, want its batch's %d", got, hb.ByteSize())
		}
		got, err := own.Take(eq, dest, 0, 0, 0, 1)
		if err != nil || got[0].Data != nil || got[0].Batch != hb {
			t.Fatalf("take of a bytes-less slot: %+v, %v", got, err)
		}
		own.Drop(eq, dest, 0, 0, 0, 1)
		if got := b.server(0).BufferedBytes(); got != before {
			t.Fatalf("buffered %d after the drop, want %d", got, before)
		}
	})

	// DropQuery clears the query's partitions and leaves another query's
	// alone.
	t.Run("drop-query", func(t *testing.T) {
		push(5, 0, "x")
		other := flight.Partition{Query: "q-other", From: lineage.TaskName{Stage: 1, Seq: 7}, Dest: dest, Data: []byte("keep")}
		if err := fl.Push(other); err != nil {
			t.Fatal(err)
		}
		fl.DropQuery(q)
		if n := contig(own, q, dest, 0, 2, 5); n != 0 {
			t.Fatalf("after DropQuery contiguous = %d", n)
		}
		if bb := b.server(0).BufferedBytes(); bb != int64(len(other.Data)) {
			t.Fatalf("buffered after DropQuery = %d, want the other query's %d", bb, len(other.Data))
		}
	})

	// Mailboxes are isolated per worker.
	t.Run("worker-isolation", func(t *testing.T) {
		push(0, 0, "w0-only")
		if n := contig(b.server(1), q, dest, 0, 2, 0); n != 0 {
			t.Fatalf("worker 1 sees worker 0's partition")
		}
	})
}

func objConformance(t *testing.T, b *backends) {
	o := b.obj
	o.PutFree("tbl-x/0", []byte("split0"))
	o.PutFree("tbl-x/1", []byte("split1"))
	v, err := o.Get("tbl-x/0")
	if err != nil || string(v) != "split0" {
		t.Fatalf("get = %q, %v", v, err)
	}
	v, err = o.GetFree("tbl-x/1")
	if err != nil || string(v) != "split1" {
		t.Fatalf("getfree = %q, %v", v, err)
	}
	// A put replaces: last writer wins.
	o.PutFree("tbl-x/0", []byte("split0-v2"))
	if v, err = o.Get("tbl-x/0"); err != nil || string(v) != "split0-v2" {
		t.Fatalf("get after overwrite = %q, %v", v, err)
	}
	if _, err := o.Get("absent"); err == nil {
		t.Fatalf("get of absent key succeeded")
	}
	if _, err := o.GetFree("absent"); err == nil {
		t.Fatalf("getfree of absent key succeeded")
	}
}

// failureConformance checks the one semantics recovery depends on most: a
// failed worker's mailbox errors every operation with ErrServerDown — so
// a producer pushing to it aborts without committing (Algorithm 1).
func failureConformance(t *testing.T, b *backends) {
	fl, own := b.fl(1), flight.Mailbox(b.server(1))
	q := "q-fail"
	task := lineage.TaskName{Stage: 0, Channel: 0, Seq: 0}
	if err := fl.Push(flight.Partition{Query: q, From: task, Dest: lineage.ChannelID{Stage: 1}, Data: []byte("x")}); err != nil {
		t.Fatalf("pre-failure push: %v", err)
	}
	if b.remote {
		// A worker process never fails a mailbox itself: Fail through a
		// remote handle is a no-op, only the head declares failure.
		fl.Fail()
		if err := fl.Push(flight.Partition{Query: q, From: task, Dest: lineage.ChannelID{Stage: 1}, Data: []byte("x")}); err != nil {
			t.Fatalf("push after a remote handle's Fail: %v", err)
		}
	}
	// Fail, through the contract, at the authoritative end; it frees the
	// batches the slots held with them.
	hb := oneRowBatch()
	if err := own.Push(flight.Partition{Query: q, From: task, Dest: lineage.ChannelID{Stage: 2}, Data: []byte("h"), Local: true, Batch: hb}); err != nil {
		t.Fatal(err)
	}
	handed := weak.Make(hb)
	own.Fail()
	if !released(handed) {
		t.Fatal("a failed mailbox still holds a batch")
	}
	err := fl.Push(flight.Partition{Query: q, From: task, Dest: lineage.ChannelID{Stage: 1}, Data: []byte("y")})
	if !errors.Is(err, flight.ErrServerDown) {
		t.Fatalf("push to failed worker: %v, want ErrServerDown", err)
	}
	if _, err := own.Take(q, lineage.ChannelID{Stage: 1}, 0, 0, 0, 1); !errors.Is(err, flight.ErrServerDown) {
		t.Fatalf("take on failed worker: %v, want ErrServerDown", err)
	}
	// The healthy worker is unaffected.
	if err := b.fl(0).Push(flight.Partition{Query: q, From: task, Dest: lineage.ChannelID{Stage: 1}, Data: []byte("ok")}); err != nil {
		t.Fatalf("healthy worker push: %v", err)
	}
}
