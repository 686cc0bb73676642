package wire

// Workers own their mailboxes: what that buys (a same-worker edge and a read of
// one's own inbox cost no frame, a table object is fetched once), what it must
// not cost (a peer that cannot be reached is a retry, never a verdict; a
// stopped worker answers nobody), and the start fan-out that rides along.

import (
	"context"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"quokka/internal/batch"
	"quokka/internal/cluster"
	"quokka/internal/engine"
	"quokka/internal/flight"
	"quokka/internal/gcs"
	"quokka/internal/lineage"
	"quokka/internal/metrics"
	"quokka/internal/storage"
	"quokka/internal/tpch"
)

// flFrames is the flight request frames counted in a collector, by op name.
func flFrames(met *metrics.Collector) map[string]int64 {
	out := map[string]int64{}
	for name, n := range met.Snapshot() {
		if op, ok := strings.CutPrefix(name, metrics.WireFrames+"fl_"); ok && n != 0 {
			out["fl_"+op] = n
		}
	}
	return out
}

// TestSameWorkerEdgesCostNoFrames runs Q3 on ONE wire-attached worker: every
// edge is a same-worker edge and every inbox the worker's own, so no push,
// probe, take or drop crosses a socket — what the fleet counts of flight frames
// is the head's sweep of each query, nothing else — and the result is the
// in-memory one.
func TestSameWorkerEdgesCostNoFrames(t *testing.T) {
	if testing.Short() {
		t.Skip("process-mode e2e is not short")
	}
	const q = 3
	cl, _, mets := distClusterMet(t, 1)
	want := memRun(t, q, 1, staticCfg())
	for run := 0; run < 2; run++ { // the second run's report carries the first's sweep
		got, _, _, err := distRun(t, cl, q, staticCfg())
		if err != nil {
			t.Fatalf("Q%d over the wire: %v", q, err)
		}
		if string(batch.Encode(got)) != string(batch.Encode(want)) {
			t.Errorf("Q%d on one wire worker differs from in-memory", q)
		}
	}
	for who, met := range map[string]*metrics.Collector{"the head, workers' reports merged": cl.Metrics, "the worker": mets[0]} {
		for op, n := range flFrames(met) {
			if op != "fl_drop_query" || n > 2 {
				t.Errorf("%s counted %d %s frames on a one-worker query", who, n, op)
			}
		}
		if moved := met.Get(metrics.PartitionsMoved); moved == 0 {
			t.Errorf("%s counted no piece moved: the query pushed nothing?", who)
		}
		// Every push a function call, so every piece is taken with its batch.
		if handed, decoded := met.Get(metrics.PiecesHanded), met.Get(metrics.PiecesDecoded); handed == 0 || decoded != 0 {
			t.Errorf("%s counted %d pieces handed, %d decoded; want all handed", who, handed, decoded)
		}
	}
	if n := cl.Metrics.Get(metrics.NetBytesModelled); n != 0 {
		t.Errorf("net.bytes.modelled = %d with every edge local", n)
	}
}

// fakeWorker is a hand-rolled control conn: hello, then whatever the test reads
// and writes.
func fakeWorker(t *testing.T, srv *Server, id int, mailboxAddr string) net.Conn {
	t.Helper()
	c, err := net.DialTimeout("tcp", srv.Addr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	c.SetDeadline(time.Now().Add(30 * time.Second))
	var hello wbuf
	hello.u32(uint32(id))
	hello.str(mailboxAddr)
	if err := writeFrame(c, mtHello, hello.b); err != nil {
		t.Fatal(err)
	}
	if typ, _, err := readFrame(c); err != nil || typ != mtHelloResp {
		t.Fatalf("worker %d hello: 0x%02x, %v", id, typ, err)
	}
	return c
}

// TestStartQueryFansOut: a query's start is sent to every worker before any
// ack is awaited. With worker 0's ack held back, workers 1 and 2 have their
// start frame all the same — at one round trip per worker in turn they would
// wait for it — and each frame carries the whole peer table.
func TestStartQueryFansOut(t *testing.T) {
	const workers = 3
	cl, err := cluster.New(cluster.Options{Workers: workers, Cost: storage.CostModel{}, ObjStore: e2eStore(t)})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(cl, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conns := make([]net.Conn, workers)
	for i := range conns {
		conns[i] = fakeWorker(t, srv, i, fmt.Sprintf("127.0.0.1:%d", 40000+i))
	}
	if err := srv.AwaitWorkers(workers, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	plan, err := tpch.Query(6)
	if err != nil {
		t.Fatal(err)
	}
	r, err := engine.NewRunner(cl, plan, staticCfg())
	if err != nil {
		t.Fatal(err)
	}
	type started struct {
		stop func()
		err  error
	}
	done := make(chan started, 1)
	go func() {
		stop, err := srv.StartQuery(r)
		done <- started{stop, err}
	}()

	// Worker 0 is never read from until the others have their frames: its ack
	// cannot have been sent.
	qid := ""
	for _, i := range []int{1, 2, 0} {
		typ, payload, err := readFrame(conns[i])
		if err != nil || typ != mtStartQuery {
			t.Fatalf("worker %d: 0x%02x, %v; want its start frame while worker 0's ack is outstanding", i, typ, err)
		}
		pr := rbuf{b: payload}
		qid = pr.str("qid")
		pr.bytesOwned("spec")
		pr.u64("generation")
		if addrs := pr.strs("peer"); pr.err() != nil || len(addrs) != workers || addrs[2] != "127.0.0.1:40002" {
			t.Fatalf("worker %d: peer table %v, %v", i, addrs, pr.err())
		}
	}
	select {
	case s := <-done:
		t.Fatalf("StartQuery returned (%v) with no ack sent", s.err)
	default:
	}
	for _, c := range conns {
		var ack wbuf
		ack.str(qid)
		ack.boolean(true)
		ack.str("")
		if err := writeFrame(c, mtStartAck, ack.b); err != nil {
			t.Fatal(err)
		}
	}
	s := <-done
	if s.err != nil {
		t.Fatal(s.err)
	}
	// stop fans out too; each fake worker answers with an empty report.
	stopped := make(chan struct{})
	go func() { s.stop(); close(stopped) }()
	for i, c := range conns {
		if typ, _, err := readFrame(c); err != nil || typ != mtStopQuery {
			t.Fatalf("worker %d: 0x%02x, %v; want the stop frame", i, typ, err)
		}
		var sb wbuf
		sb.str(qid)
		sb.bytes(nil)
		sb.u32(0)
		if err := writeFrame(c, mtStopped, sb.b); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-stopped:
	case <-time.After(10 * time.Second):
		t.Fatal("stop did not return once every worker had answered")
	}
}

// pieceKey names one pushed piece.
type pieceKey struct {
	from  lineage.TaskName
	dest  lineage.ChannelID
	input int
}

// peerLog sits on one worker's handle of a peer: it runs onBytes just before
// the first push that carries bytes, and keeps, per such piece, where they lived
// at every refused offer.
type peerLog struct {
	flight.Peer
	onBytes func()

	once    sync.Once
	mu      sync.Mutex
	refused map[pieceKey][]*byte
}

func (l *peerLog) Push(p flight.Partition) error {
	if len(p.Data) > 0 {
		l.once.Do(l.onBytes)
	}
	err := l.Peer.Push(p)
	if err != nil && len(p.Data) > 0 {
		l.mu.Lock()
		k := pieceKey{p.From, p.Dest, p.Input}
		l.refused[k] = append(l.refused[k], &p.Data[0])
		l.mu.Unlock()
	}
	return err
}

// TestPeerPushFailureIsARetryNotAVerdict: worker 1's mailbox listener closes
// mid-query — as worker 0 is about to push it the first piece that has bytes
// (the empty pieces that only move watermarks have been landing) — while its
// control conn stays up: as far as the head knows nothing happened. Worker 0's
// pushes to it then fail, and that is all they do: each task stays pending and
// offers the very same bytes again, none of them commits, nobody declares
// anybody dead. When worker 1's control conn goes, the head does, recovery moves
// its channels, and the result is the failure-free one.
func TestPeerPushFailureIsARetryNotAVerdict(t *testing.T) {
	if testing.Short() {
		t.Skip("process-mode e2e is not short")
	}
	const workers, q = 2, 3
	peer := make(chan *workerRT, 1) // worker 1, once attached
	log := &peerLog{refused: map[pieceKey][]*byte{}, onBytes: func() { (<-peer).mb.stopListening() }}
	cl, srv, _, stops := distWorkers(t, workers, func(w *workerRT) {
		if w.self == 1 {
			peer <- w
			return
		}
		log.Peer = w.cl.Workers[1].Peer
		w.cl.Workers[1].Peer = log
	})
	cfg := staticCfg()
	want := memRun(t, q, workers, cfg)

	type result struct {
		out *batch.Batch
		rep *engine.Report
		err error
	}
	done := make(chan result, 1)
	go func() {
		out, rep, _, err := distRun(t, cl, q, cfg)
		done <- result{out, rep, err}
	}()

	// Wait for a retry — some piece refused twice — with the head past the
	// query's start and coordinating (a wait of its own has ended).
	retried := func() bool {
		if cl.Metrics.Get(metrics.WaitWakes)+cl.Metrics.Get(metrics.WaitFallbacks) == 0 {
			return false
		}
		log.mu.Lock()
		defer log.mu.Unlock()
		for _, offers := range log.refused {
			if len(offers) >= 2 {
				return true
			}
		}
		return false
	}
	for deadline := time.Now().Add(30 * time.Second); !retried(); time.Sleep(time.Millisecond) {
		select {
		case r := <-done:
			t.Fatalf("the query ended (%v) with worker 1's mailbox unreachable", r.err)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("no push of bytes to the unreachable peer was ever retried")
		}
	}
	log.mu.Lock()
	for k, offers := range log.refused {
		for _, o := range offers {
			if o != offers[0] {
				t.Errorf("piece %v: a retry offered other bytes than the first push", k)
			}
		}
	}
	cl.GCS.(*gcs.Store).View(func(tx *gcs.Txn) error {
		for _, key := range tx.List("") {
			for k := range log.refused {
				if strings.HasSuffix(key, "/lin/"+k.from.String()) {
					t.Errorf("task %s committed (%s) though its push to %s never landed", k.from, key, k.dest)
				}
			}
		}
		return nil
	})
	log.mu.Unlock()
	if cl.AliveCount() != workers || srv.AttachedWorkers() != workers {
		t.Errorf("%d workers alive, %d attached: a failed peer push became a verdict", cl.AliveCount(), srv.AttachedWorkers())
	}

	// The control conn goes: now the head may, and does, declare worker 1 dead.
	stops[1]()
	r := <-done
	if r.err != nil {
		t.Fatalf("Q%d after worker 1 was declared dead: %v", q, r.err)
	}
	sameResult(t, q, want, r.out)
	if r.rep.Recoveries == 0 || cl.Worker(1).Alive() {
		t.Errorf("recoveries = %d, worker 1 alive = %v; want the head's verdict and a recovery", r.rep.Recoveries, cl.Worker(1).Alive())
	}
}

// TestWorkerStopClosesMailboxConns: a worker that stops (worker 1) and one the
// head declares dead (worker 0: its control conn severed from the head's side)
// both close their mailbox listener and every conn it had accepted — a peer's
// next push errors instead of landing in a dead process's memory.
func TestWorkerStopClosesMailboxConns(t *testing.T) {
	cl, srv, ws, stops := distWorkers(t, 2, nil)
	ends := []func(){func() { cl.Worker(0).Kill() }, stops[1]}
	for i, w := range ws {
		addr := w.mb.ln.Addr().String()
		c, err := net.DialTimeout("tcp", addr, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		c.SetDeadline(time.Now().Add(10 * time.Second))
		req := (&flightClient{worker: uint32(i)}).req("q")
		if err := writeFrame(c, mtFlDropQuery, req.b); err != nil {
			t.Fatal(err)
		}
		if typ, _, err := readFrame(c); err != nil || typ != mtOK {
			t.Fatalf("worker %d's mailbox: 0x%02x, %v", i, typ, err)
		}
		ends[i]()
		if typ, _, err := readFrame(c); err != io.EOF {
			t.Errorf("worker %d's accepted conn after it ended: 0x%02x, %v; want it closed", i, typ, err)
		}
		if c2, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
			c2.Close()
			t.Errorf("worker %d's mailbox listener still accepts", i)
		}
		if _, err := w.mb.fl.Take("q", lineage.ChannelID{}, 0, 0, 0, 0); err != flight.ErrServerDown {
			t.Errorf("worker %d's own mailbox after it ended: %v, want ErrServerDown", i, err)
		}
	}
	for deadline := time.Now().Add(10 * time.Second); srv.AttachedWorkers() != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d workers still attached", srv.AttachedWorkers())
		}
	}
}

// TestFailedAttachCleansUp: an attach that fails — the head not up, the hello
// refused, the id a duplicate or out of range, the handshake corrupt or naming
// another id, the spill directory unusable — returns an error (it used to
// panic: the cleanup ran on the result a failing return had just nilled) and
// leaves nothing behind: no temp spill dir, and nobody listening at the mailbox
// address the hello named.
func TestFailedAttachCleansUp(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	notADir := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(notADir, nil, 0o644); err != nil {
		t.Fatal(err)
	}

	// A fake head: notes the mailbox address of each hello, answers with what
	// the case queued (nothing = refused), hangs up.
	fake, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer fake.Close()
	named, answers := make(chan string, 1), make(chan func(net.Conn), 1)
	go func() {
		for {
			c, err := fake.Accept()
			if err != nil {
				return
			}
			_, hello, _ := readFrame(c)
			r := rbuf{b: hello}
			r.u32("id")
			named <- r.str("mailbox address")
			if answer := <-answers; answer != nil {
				answer(c)
			}
			c.Close()
		}
	}()
	helloResp := func(workers, self uint32) func(net.Conn) {
		return func(c net.Conn) {
			var h wbuf
			h.u32(workers)
			h.u32(self)
			writeFrame(c, mtHelloResp, h.b)
		}
	}
	gone, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	gone.Close()
	_, srv := distCluster(t, 1) // a real head whose only slot is taken

	for _, tc := range []struct {
		name   string
		cfg    WorkerConfig
		answer func(net.Conn) // the fake head's; nil with another head, or to refuse
	}{
		{"head not up", WorkerConfig{Head: gone.Addr().String()}, nil},
		{"hello refused", WorkerConfig{Head: fake.Addr().String()}, nil},
		{"corrupt handshake", WorkerConfig{Head: fake.Addr().String()}, func(c net.Conn) { writeFrame(c, mtOK, nil) }},
		{"another id assigned", WorkerConfig{Head: fake.Addr().String()}, helloResp(2, 1)},
		{"spill dir unusable", WorkerConfig{Head: fake.Addr().String(), SpillDir: filepath.Join(notADir, "spill")}, helloResp(2, 0)},
		{"duplicate id", WorkerConfig{Head: srv.Addr()}, nil},
		{"id out of range", WorkerConfig{Head: srv.Addr(), ID: 7}, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			toFake := tc.cfg.Head == fake.Addr().String()
			if toFake {
				answers <- tc.answer
			}
			w, err := attachWorker(context.Background(), tc.cfg, &metrics.Collector{})
			if err == nil {
				w.close()
				t.Fatal("attached")
			}
			if w != nil {
				t.Errorf("a failed attach returned a worker beside %v", err)
			}
			if ents, _ := os.ReadDir(tmp); len(ents) != 0 {
				t.Errorf("left %d entries in the temp dir, first %s", len(ents), ents[0].Name())
			}
			if toFake {
				if c, err := net.DialTimeout("tcp", <-named, time.Second); err == nil {
					c.Close()
					t.Error("the mailbox listener still accepts")
				}
			}
		})
	}
	if n := srv.AttachedWorkers(); n != 1 {
		t.Errorf("%d workers attached to the real head after the refusals, want the first one still", n)
	}
}

// TestWorkerReportIsCountersOnly: the head decides what a worker's report may
// move, not the worker. A counter's delta is added, a gauge's name skipped, and
// a negative delta is a corrupt control frame: nothing of that report is
// applied and the conn — the worker with it — goes.
func TestWorkerReportIsCountersOnly(t *testing.T) {
	cl, err := cluster.New(cluster.Options{Workers: 1, Cost: storage.CostModel{}})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(cl, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c := fakeWorker(t, srv, 0, "127.0.0.1:40000")
	report := func(deltas ...any) {
		var w wbuf
		w.str("no-such-query")
		w.bytes(nil)
		w.u32(uint32(len(deltas) / 2))
		for i := 0; i < len(deltas); i += 2 {
			w.str(deltas[i].(string))
			w.i64(int64(deltas[i+1].(int)))
		}
		if err := writeFrame(c, mtStopped, w.b); err != nil {
			t.Fatal(err)
		}
	}
	report(metrics.PartitionsMoved, 3, metrics.SpillPeakBytes, 1<<20, metrics.PartitionsMoved, 4)
	report(metrics.NetworkPushes, 5, metrics.PartitionsMoved, -1)
	if _, _, err := readFrame(c); err != io.EOF {
		t.Fatalf("control conn after a negative delta: %v, want it closed", err)
	}
	if got := cl.Metrics.Get(metrics.PartitionsMoved); got != 7 {
		t.Errorf("%s = %d, want the first report's 7", metrics.PartitionsMoved, got)
	}
	if got := cl.Metrics.Get(metrics.SpillPeakBytes); got != 0 {
		t.Errorf("a reported gauge was summed in: %s = %d", metrics.SpillPeakBytes, got)
	}
	if got := cl.Metrics.Get(metrics.NetworkPushes); got != 0 {
		t.Errorf("a corrupt report was applied in part: %s = %d", metrics.NetworkPushes, got)
	}
}

// TestObjCacheHonoursPutGeneration: on the same attached workers a repeated
// query fetches no table object again, and a table re-loaded on the head
// between two queries is what the next one reads — its start frame names a new
// put generation and the workers' caches empty.
func TestObjCacheHonoursPutGeneration(t *testing.T) {
	if testing.Short() {
		t.Skip("process-mode e2e is not short")
	}
	const workers, q = 2, 6
	cl, _ := distCluster(t, workers)
	gets := func() int64 { return cl.Metrics.Get(metrics.WireFrames + "obj_get") }
	first, _, _, err := distRun(t, cl, q, staticCfg())
	if err != nil {
		t.Fatal(err)
	}
	cold := gets()
	again, _, _, err := distRun(t, cl, q, staticCfg())
	if err != nil {
		t.Fatal(err)
	}
	if string(batch.Encode(again)) != string(batch.Encode(first)) {
		t.Error("the same query over cached objects answered differently")
	}
	if warm := gets() - cold; cold == 0 || warm != 0 {
		t.Errorf("%d obj_get frames on the first run, %d on the second: want some, then none", cold, warm)
	}

	other := tpch.Generate(0.004)
	tpch.Load(cl.ObjStore, other, 1024)
	ref := storage.NewObjectStore(storage.CostModel{}, storage.ProfileS3, nil)
	tpch.Load(ref, other, 1024)
	refCl, err := cluster.New(cluster.Options{Workers: workers, Cost: storage.CostModel{}, ObjStore: ref})
	if err != nil {
		t.Fatal(err)
	}
	want, _, _, err := distRun(t, refCl, q, staticCfg())
	if err != nil {
		t.Fatal(err)
	}
	got, _, _, err := distRun(t, cl, q, staticCfg())
	if err != nil {
		t.Fatal(err)
	}
	if string(batch.Encode(got)) == string(batch.Encode(first)) {
		t.Error("after the table was re-loaded the query still answers from the old rows")
	}
	sameResult(t, q, want, got)
}

// TestObjCacheBounded: the cache never holds more than its bound — an insert
// evicts until it fits, an object larger than the bound is served and not kept
// — and what is evicted is fetched again, correctly.
func TestObjCacheBounded(t *testing.T) {
	cl, err := cluster.New(cluster.Options{Workers: 1, Cost: storage.CostModel{}})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(cl, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	p := newPool(srv.Addr())
	defer p.close()
	o := &objClient{p: p, max: 1000}
	val := func(i, n int) []byte { return []byte(strings.Repeat(fmt.Sprint(i%10), n)) }
	for i := 0; i < 20; i++ {
		cl.ObjStore.PutFree(fmt.Sprint("k", i), val(i, 300))
	}
	cl.ObjStore.PutFree("huge", val(7, 1001))
	gets := func() int64 { return cl.Metrics.Get(metrics.WireFrames + "obj_get") }
	for round := 0; round < 2; round++ {
		for i := 0; i < 20; i++ {
			if v, err := o.Get(fmt.Sprint("k", i)); err != nil || string(v) != string(val(i, 300)) {
				t.Fatalf("round %d, k%d: %q, %v", round, i, v, err)
			}
			if o.size > o.max || len(o.cache) > 3 {
				t.Fatalf("cache holds %d bytes in %d objects, bound %d", o.size, len(o.cache), o.max)
			}
		}
	}
	before := gets()
	if v, err := o.Get("k19"); err != nil || string(v) != string(val(19, 300)) || gets() != before {
		t.Errorf("the object fetched last: %v, %d frames; want a hit", err, gets()-before)
	}
	for i := 0; i < 2; i++ {
		if v, err := o.GetFree("huge"); err != nil || len(v) != 1001 {
			t.Fatalf("huge: %d bytes, %v", len(v), err)
		}
	}
	if n := gets() - before; n != 2 || o.size > o.max {
		t.Errorf("an object over the bound: %d frames for 2 reads, cache at %d bytes", n, o.size)
	}
	var sum int64
	for _, v := range o.cache {
		sum += int64(len(v))
	}
	if sum != o.size {
		t.Errorf("cache accounts %d bytes, holds %d", o.size, sum)
	}
}
