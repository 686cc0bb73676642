package wire

// What process mode costs in round trips, checked rather than assumed: the
// request frames a query's tasks pay, that concurrent one-frame transactions
// from several clients stay serializable, and that op conns really run
// without Nagle's delay.

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"syscall"
	"testing"

	"quokka/internal/cluster"
	"quokka/internal/engine"
	"quokka/internal/gcs"
	"quokka/internal/metrics"
	"quokka/internal/storage"
	"quokka/internal/trace"
)

// framesPerTaskBudget bounds op request frames per committed task on
// TestRoundTripsPerTask's query. The protocol this one replaced — a frame per
// transaction read, two mailbox frames per upstream channel per round —
// measured 54.1 to 56.3 here (8,930 to 9,283 frames for the same 165 tasks,
// counted in handleOp and serveTxn of a scratch copy of the parent commit);
// the budget is under a tenth of that. One frame per transaction measured 7.9
// to 8.4; with every poll read served from one snapshot — a sync only when the
// namespace version moved — 6.8 to 7.1; with each worker hosting its own
// mailbox (probe, take, drop and spool are function calls, a same-worker push
// too) 3.4 to 3.8, of which a worker's listener serves about one; with a wake
// one frame that carries its delta and a view none, about 3.2.
const framesPerTaskBudget = 4

// TestRoundTripsPerTask runs one TPC-H query on two wire-attached workers and
// divides the op request frames the fleet served — the head's and, reported
// when the query stopped, each worker's mailbox listener's — by the tasks
// committed: a transaction is one frame, a piece pushed to a peer one frame and
// reading one's own inbox none, so the quotient stays within a small multiple
// of the paper's "one write per task".
func TestRoundTripsPerTask(t *testing.T) {
	if testing.Short() {
		t.Skip("process-mode e2e is not short")
	}
	const workers, q = 2, 3
	cl, _ := distCluster(t, workers, engine.WithTracing(true))
	want := memRun(t, q, workers, staticCfg())
	got, rep, spans, err := distRun(t, cl, q, staticCfg())
	if err != nil {
		t.Fatalf("Q%d over the wire: %v", q, err)
	}
	sameResult(t, q, want, got)
	// Tasks run in the worker processes; what reaches the head of them is
	// their spans, shipped on the control conn (no op frame).
	var tasks int64
	for _, s := range spans {
		if s.Kind == trace.KindTask {
			tasks++
		}
	}

	var frames int64
	var table []string
	for name, n := range cl.Metrics.Snapshot() {
		op, ok := strings.CutPrefix(name, metrics.WireFrames)
		if !ok {
			continue
		}
		if !knownOp(op) {
			t.Errorf("%d frames counted under %q: not a request type of this protocol", n, name)
		}
		frames += n
		table = append(table, fmt.Sprintf("%s=%d", op, n))
	}
	if tasks == 0 || frames == 0 {
		t.Fatalf("%d frames for %d tasks: nothing was counted", frames, tasks)
	}
	perTask := float64(frames) / float64(tasks)
	t.Logf("Q%d: %d request frames / %d tasks = %.1f per task %v", q, frames, tasks, perTask, table)
	// A worker advances its image past its own commits and loads one, with
	// no frame, after anyone else's: a peer's commit, the head's seed. The
	// head's coordinator commits nothing a worker writes, so it loads after
	// every commit it wakes for.
	head := rep.Metrics[metrics.ImageLoads]
	loads := cl.Metrics.Get(metrics.ImageLoads) - head
	t.Logf("image loads per task: %.2f in the workers (%d advances), %.2f at the head",
		float64(loads)/float64(tasks), cl.Metrics.Get(metrics.ImageAdvances), float64(head)/float64(tasks))
	if perTask > framesPerTaskBudget {
		t.Errorf("%.1f request frames per committed task, budget %d", perTask, framesPerTaskBudget)
	}
	if n := cl.Metrics.Get(metrics.WireFramesRefused); n != 0 {
		t.Errorf("%d frames of a retired or unknown type reached a listener", n)
	}
	// A push crosses a socket only between workers, once: never more frames
	// than pieces whose consumer is placed elsewhere (counted by the mailboxes
	// that stored them; an empty piece is pushed but not counted there).
	pushes, cross, moved := cl.Metrics.Get(metrics.WireFrames+"fl_push"), cl.Metrics.Get(metrics.NetworkPushes), cl.Metrics.Get(metrics.PartitionsMoved)
	if pushes == 0 || cross == 0 || cross > pushes {
		t.Errorf("%d push frames, %d non-empty cross-worker pieces stored", pushes, cross)
	}
	if pushes >= moved {
		t.Errorf("%d push frames for %d pieces: a same-worker piece crossed a socket", pushes, moved)
	}
	// A flush is one frame: never more apply frames than the workers' flushes
	// (each a transaction unless every entry was refused).
	commits := cl.Metrics.Get(metrics.WireFrames + "gcs_apply")
	if flushes := cl.Metrics.Get(metrics.LineageFlushes) + cl.Metrics.Get(metrics.EntriesFenced); commits > flushes {
		t.Errorf("%d apply frames for %d flushes", commits, flushes)
	}
	// A worker reads the store only by following it: no sync or version-only
	// await frame (retired, so refused and counted as such above), and a view
	// costs none. One thread per worker watches, a commit ends its wait once,
	// and the wake's answer carries the delta: at most a follow per commit
	// plus each worker's first contact and last wait. Every idle thread
	// watching — the herd — would multiply them.
	if n := cl.Metrics.Get(metrics.WireFrames+"gcs_sync") + cl.Metrics.Get(metrics.WireFrames+"gcs_await_ns"); n != 0 {
		t.Errorf("%d sync or await frames of the retired kinds", n)
	}
	if follows := cl.Metrics.Get(metrics.WireFrames + "gcs_follow"); follows > commits+2*workers {
		t.Errorf("%d follow frames for %d apply frames on %d workers", follows, commits, workers)
	}
}

func knownOp(op string) bool {
	for _, ops := range []map[byte]string{headOps, mailboxOps} {
		for _, name := range ops {
			if name == op {
				return true
			}
		}
	}
	return false
}

// TestConcurrentClientsSerialize is the -race stress of the one-frame
// protocol: N wire clients — N worker processes' worth of replicas — each
// increment one shared counter k times by read-modify-write, the value read
// from the replica being the guard of the put. Every increment must land
// exactly once (a stale read is refused, and the refusal's answer brings the
// replica up for the next try), and once a fence key is raised, every later
// increment — guarded on the fence being down — is refused instead of
// committing past it.
func TestConcurrentClientsSerialize(t *testing.T) {
	cl, err := cluster.New(cluster.Options{Workers: 1, Cost: storage.CostModel{}})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(cl, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	store := cl.GCS.(*gcs.Store)
	ns := engine.QueryNamespace("stress")
	counter, fence := ns+"n", ns+"fence"
	store.UpdateNS(ns, func(tx *gcs.Txn) error { tx.Put(counter, []byte("0")); return nil })

	const clients, each = 6, 40
	// increment is the engine's commit in miniature: an entry guarded on the
	// fence and on what its image read. A refusal with the fence up is final.
	increment := func(g gcs.Backend) error {
		for {
			var n int
			fenced := false
			g.ViewNS(ns, func(tx *gcs.Txn) error {
				v, _ := tx.Get(counter)
				fmt.Sscanf(string(v), "%d", &n)
				_, fenced = tx.Get(fence)
				return nil
			})
			if fenced {
				return gcs.ErrAborted
			}
			applied, err := g.Apply([]gcs.Entry{{NS: ns,
				Guards: []gcs.Guard{{Key: fence, Want: 0}, {Key: counter, Want: int64(n)}},
				Puts:   []gcs.KV{{Key: counter, Val: []byte(fmt.Sprint(n + 1))}}}})
			if err != nil || applied[0] {
				return err
			}
		}
	}
	var wg, phaseOne sync.WaitGroup
	var afterFence [clients]int
	for c := 0; c < clients; c++ {
		wg.Add(1)
		phaseOne.Add(1)
		go func() {
			defer wg.Done()
			p := newPool(srv.Addr())
			defer p.close()
			g := &gcsClient{p: p}
			for i := 0; i < each; i++ {
				if err := increment(g); err != nil {
					t.Errorf("client %d increment %d: %v", c, i, err)
					break
				}
			}
			phaseOne.Done()
			// Phase two: keep incrementing until the fence stops this client.
			for {
				if err := increment(g); err == gcs.ErrAborted {
					return
				} else if err != nil {
					t.Errorf("client %d: %v", c, err)
					return
				}
				afterFence[c]++
			}
		}()
	}
	// Raise the fence once every client is through phase one, while they are
	// all mid-increment in phase two.
	phaseOne.Wait()
	var atFence int
	store.UpdateNS(ns, func(tx *gcs.Txn) error {
		v, _ := tx.Get(counter)
		fmt.Sscanf(string(v), "%d", &atFence)
		tx.Put(fence, []byte("1"))
		return nil
	})
	wg.Wait()

	var final int
	store.ViewNS(ns, func(tx *gcs.Txn) error {
		v, _ := tx.Get(counter)
		fmt.Sscanf(string(v), "%d", &final)
		return nil
	})
	committed := clients * each
	for _, n := range afterFence {
		committed += n
	}
	if final != committed {
		t.Errorf("counter = %d, clients saw %d increments commit: lost or doubled update", final, committed)
	}
	if final != atFence {
		t.Errorf("counter = %d but was %d when the fence went up: an increment committed past the fence", final, atFence)
	}
}

// TestNoDelayOnOpConns reads TCP_NODELAY back from the kernel on both ends of
// all three kinds of conn: worker to head (the pool's end and the head's
// accepted end), and to a worker's mailbox from a peer and from the head (the
// dialling pool's end and the mailbox's accepted end).
func TestNoDelayOnOpConns(t *testing.T) {
	cl, err := cluster.New(cluster.Options{Workers: 1, Cost: storage.CostModel{}})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(cl, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	noDelayOf := func(c net.Conn) int {
		t.Helper()
		raw, err := c.(*net.TCPConn).SyscallConn()
		if err != nil {
			t.Fatal(err)
		}
		var v int
		var serr error
		raw.Control(func(fd uintptr) {
			v, serr = syscall.GetsockoptInt(int(fd), syscall.IPPROTO_TCP, syscall.TCP_NODELAY)
		})
		if serr != nil {
			t.Fatal(serr)
		}
		return v
	}

	p := newPool(srv.Addr())
	defer p.close()
	dialled, err := p.get()
	if err != nil {
		t.Fatal(err)
	}
	defer dialled.Close()
	if noDelayOf(dialled) == 0 {
		t.Error("TCP_NODELAY is off on a conn the pool dialled")
	}

	// The accepted end: attach as worker 0 over that conn, naming a mailbox,
	// and look at the conn the head filed under it — every accepted conn takes
	// the same path.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	mailboxEnd := make(chan net.Conn, 1) // the one conn dialled to it below
	mbox := openMailbox(recordingListener{ln, mailboxEnd}, 0, nil)
	defer mbox.stopListening()
	var hello wbuf
	hello.u32(0)
	hello.str(mbox.ln.Addr().String())
	if err := writeFrame(dialled, mtHello, hello.b); err != nil {
		t.Fatal(err)
	}
	if typ, _, err := readFrame(dialled); err != nil || typ != mtHelloResp {
		t.Fatalf("hello: 0x%02x, %v", typ, err)
	}
	srv.mu.Lock()
	accepted := srv.ctrl[0].c.(*countingConn).Conn
	srv.mu.Unlock()
	if noDelayOf(accepted) == 0 {
		t.Error("TCP_NODELAY is off on a conn the head accepted")
	}

	// A mailbox conn, dialled by the head's handle on worker 0 (a peer's pool is
	// the same constructor) and held open by an exchange on it.
	cl.Workers[0].Peer.DropQuery("q")
	peer, err := srv.peers[0].get()
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	if noDelayOf(peer) == 0 {
		t.Error("TCP_NODELAY is off on a conn dialled to a mailbox")
	}
	select {
	case c := <-mailboxEnd:
		if noDelayOf(c) == 0 {
			t.Error("TCP_NODELAY is off on a conn a mailbox accepted")
		}
	default:
		t.Fatal("the mailbox accepted no conn")
	}
}

// recordingListener hands a test the conns its listener accepted.
type recordingListener struct {
	net.Listener
	conns chan net.Conn
}

func (l recordingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.conns <- c
	}
	return c, err
}
