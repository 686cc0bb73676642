package wire

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"net"
	"os"
	"os/exec"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"quokka/internal/cluster"
	"quokka/internal/engine"
	"quokka/internal/gcs"
	"quokka/internal/metrics"
	"quokka/internal/trace"
)

// Server is the head node's wire endpoint. It serves the cluster's GCS, the
// object store and the result sinks of registered queries to quokka-worker
// processes, and implements engine.RemoteExec to ship queries out to them.
// It hosts no mailbox: each worker process serves its own (mailbox), and the
// head's cl.Workers[i].Peer is a client of worker i's listener.
type Server struct {
	cl    *cluster.Cluster
	store *gcs.Store
	met   *metrics.Collector
	ln    net.Listener
	meter *opMeter

	// peers[i] dials worker i's mailbox listener: made once here, pointed at
	// the address the worker names when it attaches.
	peers []*pool

	// parkCap bounds how long one mtGCSFollow frame parks its handler,
	// whatever the peer asked for: a dead or hostile one pins a goroutine
	// that long and no longer, a live one asks again.
	parkCap time.Duration

	mu      sync.Mutex
	cond    *sync.Cond // broadcast on worker attach/detach
	ctrl    map[cluster.WorkerID]*controlConn
	queries map[string]*engine.Runner
	procs   []spawned
	closed  bool

	// putMu is held shared by a worker's object put from its query check on: a
	// stop takes it once, so no put it let in lands behind the teardown sweep.
	putMu sync.RWMutex
}

// spawned is a worker process this head started, and the end of the one
// goroutine that waits for it.
type spawned struct {
	proc   *os.Process
	reaped <-chan struct{}
}

// controlConn is the head's handle on one attached worker process.
type controlConn struct {
	wid  cluster.WorkerID
	c    net.Conn
	addr string // the worker's mailbox listener

	wmu sync.Mutex // serializes frame writes (start/stop vs concurrent queries)

	mu    sync.Mutex
	acks  map[string]chan startAck     // qid -> StartQuery ack
	stops map[string]chan []trace.Span // qid -> STOPPED spans
	down  chan struct{}                // closed when the conn dies
}

type startAck struct {
	ok  bool
	msg string
}

func (cc *controlConn) send(typ byte, payload []byte) error {
	cc.wmu.Lock()
	defer cc.wmu.Unlock()
	return writeFrame(cc.c, typ, payload)
}

// NewServer starts the head's wire endpoint on addr (":0" for an
// ephemeral port) for a cluster cluster.New built: the head is where the real
// stores live in process mode. Every worker's Peer becomes the head's handle
// on the mailbox its process will host, and the owner's view the in-memory
// cluster was built with goes: installed here, once, so no query sees the
// fields change.
func NewServer(cl *cluster.Cluster, addr string) (*Server, error) {
	store, ok := cl.GCS.(*gcs.Store)
	if !ok {
		return nil, fmt.Errorf("wire: cluster GCS is %T, need the head's in-memory *gcs.Store", cl.GCS)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("wire: listen %s: %w", addr, err)
	}
	s := &Server{
		cl:      cl,
		store:   store,
		met:     cl.Metrics,
		ln:      ln,
		meter:   newOpMeter(cl.Metrics, headOps),
		ctrl:    make(map[cluster.WorkerID]*controlConn),
		queries: make(map[string]*engine.Runner),
		parkCap: 100 * time.Millisecond,
	}
	for _, w := range cl.Workers {
		p := newPeerPool(context.Background())
		s.peers = append(s.peers, p)
		// Fail through the head's handle declares the worker dead: no more frames
		// to its mailbox, and its control conn severed, on which the process
		// fails the mailbox itself.
		w.Mailbox, w.Disk = nil, nil
		w.Peer = &flightClient{p: p, worker: uint32(w.ID), fail: func() {
			p.close()
			s.mu.Lock()
			cc := s.ctrl[w.ID]
			s.mu.Unlock()
			if cc != nil {
				cc.c.Close()
			}
		}}
	}
	s.cond = sync.NewCond(&s.mu)
	go s.meter.listen(ln, s.serve)
	return s, nil
}

// Addr returns the listener's address (with the resolved port).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the listener, drops every worker conn and kills every
// spawned worker process.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	ctrl := make([]*controlConn, 0, len(s.ctrl))
	for _, cc := range s.ctrl {
		ctrl = append(ctrl, cc)
	}
	procs := s.procs
	s.cond.Broadcast()
	s.mu.Unlock()

	s.ln.Close()
	for _, cc := range ctrl {
		cc.c.Close()
	}
	for _, p := range s.peers {
		p.close()
	}
	for _, p := range procs {
		p.proc.Signal(syscall.SIGKILL)
	}
	for _, p := range procs {
		<-p.reaped
	}
}

// noDelay turns Nagle's algorithm off on a dialled or accepted conn: an
// exchange is one small frame each way, and a coalescing delay on either would
// be the round trip. Go's default, stated and checked (TestNoDelayOnOpConns).
func noDelay(c net.Conn) {
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
}

// serve dispatches one accepted conn: a first frame of mtHello makes it a
// worker's control conn; anything else starts the op request/response
// loop with that frame as the first request.
func (s *Server) serve(c *countingConn) {
	typ, payload, err := readFrame(c)
	if err != nil {
		c.Close()
		return
	}
	if typ == mtHello {
		s.serveControl(c, payload)
		return
	}
	defer c.Close()
	s.meter.serveOps(c, typ, payload, s.handleOp)
}

// opMeter is one listener's attribution, into its process's collector: every
// byte its accepted conns move (net.bytes.wire) and, per request type of its
// dispatch set, frames and bytes — pre-resolved, one atomic add each.
type opMeter struct {
	met    *metrics.Collector
	wire   *atomic.Int64
	frames [256]*atomic.Int64
	bytes  [256]*atomic.Int64
}

func newOpMeter(met *metrics.Collector, ops map[byte]string) *opMeter {
	m := &opMeter{met: met, wire: met.Counter(metrics.NetBytesWire)}
	for typ, name := range ops {
		m.frames[typ] = met.Counter(metrics.WireFrames + name)
		m.bytes[typ] = met.Counter(metrics.WireBytes + name)
	}
	return m
}

// listen hands every conn ln accepts — Nagle off, its bytes counted — to serve,
// on a goroutine of its own, until ln closes.
func (m *opMeter) listen(ln net.Listener, serve func(*countingConn)) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		noDelay(conn)
		go serve(&countingConn{Conn: conn, wire: m.wire})
	}
}

// serveOps is the request/response loop of one accepted op conn, from the
// request already read on: count it, hand it to the listener's dispatcher,
// read the next. A dispatcher's error ends the conn unanswered.
func (m *opMeter) serveOps(c *countingConn, typ byte, payload []byte, handle func(net.Conn, byte, []byte) error) {
	for {
		// Attribution: the request frame here, the answer as handle writes it.
		if c.op = m.bytes[typ]; c.op != nil {
			m.frames[typ].Add(1)
			c.op.Add(int64(headerSize + len(payload)))
		} else {
			m.met.Add(metrics.WireFramesRefused, 1)
		}
		if handle(c, typ, payload) != nil {
			return
		}
		var err error
		if typ, payload, err = readFrame(c); err != nil {
			return
		}
	}
}

// ---------------------------------------------------------------------------
// Control plane

func (s *Server) serveControl(c net.Conn, hello []byte) {
	r := rbuf{b: hello}
	wid := cluster.WorkerID(r.u32("hello worker id"))
	addr := r.str("hello mailbox address")
	if r.err() != nil || int(wid) < 0 || int(wid) >= len(s.cl.Workers) || addr == "" {
		c.Close()
		return
	}
	cc := &controlConn{
		wid:   wid,
		c:     c,
		addr:  addr,
		acks:  make(map[string]chan startAck),
		stops: make(map[string]chan []trace.Span),
		down:  make(chan struct{}),
	}
	s.mu.Lock()
	if s.closed || s.ctrl[wid] != nil || !s.cl.Worker(wid).Alive() {
		s.mu.Unlock()
		c.Close()
		return
	}
	s.ctrl[wid] = cc
	s.peers[wid].setAddr(addr)
	s.cond.Broadcast()
	s.mu.Unlock()

	var h wbuf
	h.u32(uint32(len(s.cl.Workers)))
	h.u32(uint32(wid))
	defer s.detach(cc) // however the loop ends, the conn has: a write or read failed, or a frame was corrupt
	if cc.send(mtHelloResp, h.b) != nil {
		return
	}
	for {
		typ, payload, err := readFrame(c)
		if err != nil {
			return
		}
		pr := rbuf{b: payload}
		switch typ {
		case mtStartAck:
			qid, ok, msg := pr.str("ack qid"), pr.boolean("ack ok"), pr.str("ack msg")
			if pr.err() != nil {
				return
			}
			cc.mu.Lock()
			ch := cc.acks[qid]
			delete(cc.acks, qid)
			cc.mu.Unlock()
			if ch != nil {
				ch <- startAck{ok: ok, msg: msg}
			}
		case mtStopped:
			qid, spansGob := pr.str("stopped qid"), pr.bytesOwned("stopped spans")
			// What the worker's collector counted since its last report: added
			// in here, before the stop that waits for this frame returns. Counters
			// only: a gauge is not summed, and one that shrank is a corrupt frame.
			deltas := map[string]int64{}
			for n := pr.count("stopped counter count", 12); n > 0; n-- {
				name, d := pr.str("stopped counter"), pr.i64("stopped delta")
				if d < 0 {
					return
				}
				if !metrics.IsGauge(name) {
					deltas[name] += d
				}
			}
			if pr.err() != nil {
				return
			}
			for name, d := range deltas {
				s.met.Add(name, d)
			}
			var spans []trace.Span
			if len(spansGob) > 0 {
				// Best effort: a span-decode failure loses observability,
				// never correctness.
				_ = gob.NewDecoder(bytes.NewReader(spansGob)).Decode(&spans)
			}
			cc.mu.Lock()
			ch := cc.stops[qid]
			delete(cc.stops, qid)
			cc.mu.Unlock()
			if ch != nil {
				ch <- spans
			}
		case mtFail:
			qid, msg := pr.str("fail qid"), pr.str("fail msg")
			if pr.err() != nil {
				return
			}
			s.mu.Lock()
			run := s.queries[qid]
			s.mu.Unlock()
			if run != nil {
				run.ReportWorkerFailure(fmt.Errorf("worker %d: %s", cc.wid, msg))
			}
		default:
			return
		}
	}
}

// detach drops a worker's control conn. Losing the conn outside a server
// shutdown IS the liveness signal, and the only one: the worker process died
// (or hung) and its mailbox with it, so the head kills the cluster-side
// worker, triggering the engine's usual rewind/replay recovery.
func (s *Server) detach(cc *controlConn) {
	s.mu.Lock()
	if s.ctrl[cc.wid] == cc {
		delete(s.ctrl, cc.wid)
		s.cond.Broadcast()
	}
	closed := s.closed
	s.mu.Unlock()
	cc.c.Close()
	close(cc.down)
	if !closed {
		s.cl.Worker(cc.wid).Kill()
	}
}

// AwaitWorkers blocks until n worker processes are attached (or the
// timeout expires).
func (s *Server) AwaitWorkers(n int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	timer := time.AfterFunc(timeout, func() {
		s.mu.Lock()
		s.cond.Broadcast()
		s.mu.Unlock()
	})
	defer timer.Stop()
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.ctrl) < n {
		if s.closed {
			return fmt.Errorf("wire: server closed")
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("wire: %d of %d workers attached after %v", len(s.ctrl), n, timeout)
		}
		s.cond.Wait()
	}
	return nil
}

// Spawn launches a quokka-worker process from the given binary for worker
// id, pointed at this server, and installs a SIGKILL hook on the cluster
// worker: Cluster.KillWorker then delivers a real kill -9 to the process,
// the paper's spot-preemption model made literal.
func (s *Server) Spawn(bin string, id int, slots int, memBudget int64, spillDir string) error {
	if id < 0 || id >= len(s.cl.Workers) {
		return fmt.Errorf("wire: no worker %d in a %d-worker cluster", id, len(s.cl.Workers))
	}
	cmd := exec.Command(bin,
		"-head", s.Addr(),
		"-id", strconv.Itoa(id),
		"-slots", strconv.Itoa(slots),
		"-mem", strconv.FormatInt(memBudget, 10),
		"-spill", spillDir,
	)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("wire: spawn worker %d: %w", id, err)
	}
	proc := cmd.Process
	s.cl.Worker(cluster.WorkerID(id)).SetKillFn(func() {
		proc.Signal(syscall.SIGKILL)
	})
	reaped := make(chan struct{})
	s.mu.Lock()
	s.procs = append(s.procs, spawned{proc, reaped})
	s.mu.Unlock()
	go func() { // reap; liveness is detected via the control conn
		cmd.Wait()
		close(reaped)
	}()
	return nil
}

// ---------------------------------------------------------------------------
// RemoteExec: shipping queries to the attached worker processes

// StartQuery implements engine.RemoteExec: it registers the query's
// runner (so sink and failure relays can find it), ships the spec to
// every attached worker, and returns a stop function that halts the
// worker-side loops and folds their trace spans back into the runner.
func (s *Server) StartQuery(r *engine.Runner) (func(), error) {
	spec := r.WorkerSpec()
	data, err := spec.Encode()
	if err != nil {
		return nil, err
	}
	qid := spec.QueryID

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, fmt.Errorf("wire: server closed")
	}
	// Every live cluster worker must have its process attached: placement
	// spans all live workers, and a missing process would strand its
	// channels' tasks forever.
	var ccs []*controlConn
	addrs := make([]string, len(s.cl.Workers)) // the peer table: "" for a worker with no live process
	for _, w := range s.cl.Workers {
		if !w.Alive() {
			continue
		}
		cc := s.ctrl[w.ID]
		if cc == nil {
			s.mu.Unlock()
			return nil, fmt.Errorf("wire: worker %d is alive but no process is attached", w.ID)
		}
		ccs = append(ccs, cc)
		addrs[w.ID] = cc.addr
	}
	if len(ccs) == 0 {
		s.mu.Unlock()
		return nil, fmt.Errorf("wire: no worker processes attached")
	}
	s.queries[qid] = r
	s.mu.Unlock()

	var msg wbuf
	msg.str(qid)
	msg.bytes(data)
	msg.u64(s.cl.HeadObjs.PutGen())
	msg.strs(addrs)

	// Every worker gets its frame before any ack is awaited: a start costs one
	// round trip and one spec decode, not one of each per worker.
	acks := make([]chan startAck, 0, len(ccs))
	var startErr error
	for _, cc := range ccs {
		ack := make(chan startAck, 1)
		cc.mu.Lock()
		cc.acks[qid] = ack
		cc.mu.Unlock()
		if err := cc.send(mtStartQuery, msg.b); err != nil {
			startErr = fmt.Errorf("wire: start query on worker %d: %w", cc.wid, err)
			break
		}
		acks = append(acks, ack)
	}
	started := ccs[:len(acks)] // whom a frame went to, and stop() must reach
	timeout := time.After(30 * time.Second)
	for i, cc := range started {
		if startErr != nil {
			break
		}
		var a startAck // not ok until the worker says so
		select {
		case a = <-acks[i]:
		case <-cc.down:
			// Acked and then died (a head-side kill severs the conn at once) is a
			// death mid-query, recovery's business: the ack was filed first.
			select {
			case a = <-acks[i]:
			default:
				a.msg = "died before its ack"
			}
		case <-timeout:
			a.msg = "ack timeout"
		}
		if !a.ok {
			startErr = fmt.Errorf("wire: worker %d did not start the query: %s", cc.wid, a.msg)
		}
	}

	stop := func() {
		var sq wbuf
		sq.str(qid)
		waits := make([]chan []trace.Span, len(started))
		for i, cc := range started {
			ch := make(chan []trace.Span, 1)
			cc.mu.Lock()
			cc.stops[qid] = ch
			cc.mu.Unlock()
			waits[i] = ch
			cc.send(mtStopQuery, sq.b) // on a dead conn the down channel unblocks the wait
		}
		for i, cc := range started {
			select {
			case spans := <-waits[i]:
				r.MergeWorkerSpans(spans)
			case <-cc.down:
				// Worker died; its spans died with it.
			case <-time.After(30 * time.Second):
				// Hung worker: abandon its spans rather than wedge teardown.
			}
			cc.mu.Lock()
			delete(cc.stops, qid)
			cc.mu.Unlock()
		}
		s.mu.Lock()
		delete(s.queries, qid)
		s.mu.Unlock()
		s.putMu.Lock()
		s.putMu.Unlock()
	}

	if startErr != nil {
		stop()
		return nil, startErr
	}
	return stop, nil
}

// ---------------------------------------------------------------------------
// Op dispatch

// handleOp serves one op-conn request. Returning an error tears the conn
// down (the client discards it too); protocol-level failures that the
// client can act on are sent as mtErrResp instead.
func (s *Server) handleOp(c net.Conn, typ byte, payload []byte) error {
	switch typ {
	case mtGCSApply, mtGCSFollow:
		return s.handleGCS(c, typ, payload)

	case mtObjPut:
		r := rbuf{b: payload}
		key, val := r.str("key"), r.bytesOwned("val")
		if err := r.err(); err != nil {
			return err
		}
		qid, ok := engine.ObjectQuery(key)
		if !ok {
			return fmt.Errorf("%w: object put of %q, under no query's prefix", ErrCorrupt, key)
		}
		// A query that is not running — finished, its objects swept — drops
		// the put, as a late sink delivery is dropped.
		var err error
		s.putMu.RLock()
		s.mu.Lock()
		_, running := s.queries[qid]
		s.mu.Unlock()
		if running {
			err = s.cl.HeadObjs.Put(key, val)
		}
		s.putMu.RUnlock()
		if err != nil {
			return writeFrame(c, mtErrResp, encodeErr(err))
		}
		return writeFrame(c, mtOK, nil)
	case mtObjGet:
		r := rbuf{b: payload}
		keys := r.strs("key")
		if err := r.err(); err != nil {
			return err
		}
		var w wbuf
		for _, key := range keys {
			val, err := s.cl.HeadObjs.Get(key)
			if err != nil {
				return writeFrame(c, mtErrResp, encodeErr(err))
			}
			w.bytes(val)
		}
		return writeFrame(c, mtBytesResp, w.b)

	case mtSinkDeliver:
		r := rbuf{b: payload}
		qid, t, epoch, data := r.str("qid"), r.task("task"), int(r.i64("epoch")), r.bytesOwned("data")
		if err := r.err(); err != nil {
			return err
		}
		s.mu.Lock()
		run := s.queries[qid]
		s.mu.Unlock()
		// An unknown query means it already finished teardown: accept-and-
		// drop, so a straggler worker never spins on backpressure retries.
		accepted := true
		if run != nil {
			var err error
			if accepted, err = run.DeliverResult(t, data, epoch); err != nil {
				return fmt.Errorf("%w: %v", ErrCorrupt, err)
			}
		}
		var w wbuf
		w.boolean(accepted)
		return writeFrame(c, mtBoolResp, w.b)
	}
	return fmt.Errorf("%w: unknown op 0x%02x", ErrCorrupt, typ)
}

// ---------------------------------------------------------------------------
// One-frame GCS transactions

// handleGCS serves an apply or follow frame: the whole request is decoded,
// the store answers it under its own shard locks — a follow parked on none,
// then read like a view; an apply checked before any lock is taken — and only
// then is the answer written: no lock is held across a conn read or write, so
// a hung or dead peer cannot stall a query's control plane. Both enumerate a
// namespace the PEER named (built worker-side by the blessed helper, opaque
// bytes here), so each must be exactly one query's namespace.
func (s *Server) handleGCS(c net.Conn, typ byte, payload []byte) error {
	r := rbuf{b: payload}
	namespace := func() string {
		ns := r.str("ns")
		if r.e == nil && !gcs.IsNamespace(ns) {
			r.e = fmt.Errorf("%w: %q is not a query namespace", ErrCorrupt, ns)
		}
		return ns
	}
	var applied []bool
	var deltas []gcs.Delta
	if typ == mtGCSFollow {
		ns, since, after, park := namespace(), r.u64("replica version"), r.u64("after"), time.Duration(r.u32("max"))*time.Microsecond
		if err := r.err(); err != nil {
			return err
		}
		d := gcs.Delta{Version: since} // nothing past after: nothing read, the replica left as it was
		if s.store.AwaitNS(context.Background(), ns, after, min(park, s.parkCap)) > after {
			d = s.store.Sync(ns, since)
		}
		deltas = []gcs.Delta{d}
	} else {
		nss := make([]string, r.count("namespace count", 12))
		since := make([]uint64, len(nss))
		for i := range nss {
			nss[i], since[i] = namespace(), r.u64("replica version")
		}
		entries := make([]gcs.Entry, r.count("entry count", 16))
		for i := range entries {
			e := &entries[i]
			if j := int(r.u32("namespace index")); r.e == nil && j >= len(nss) {
				r.e = fmt.Errorf("%w: namespace index %d of %d", ErrCorrupt, j, len(nss))
			} else if r.e == nil {
				e.NS = nss[j]
			}
			e.Guards = make([]gcs.Guard, r.count("guard count", 12))
			for k := range e.Guards {
				e.Guards[k] = gcs.Guard{Key: r.str("guard key"), Want: r.i64("guard value")}
			}
			e.Puts = make([]gcs.KV, r.count("put count", 8))
			for k := range e.Puts {
				e.Puts[k] = gcs.KV{Key: r.str("put key"), Val: r.bytesOwned("put value")}
			}
			e.Deletes = r.strs("delete")
		}
		if err := r.err(); err != nil {
			return err
		}
		if len(entries) == 0 {
			return fmt.Errorf("%w: apply of no entry", ErrCorrupt)
		}
		var err error
		if applied, deltas, err = s.store.ApplySync(entries, nss, since); err != nil {
			// A key outside its entry's namespace: the peer's error, no effect.
			return writeFrame(c, mtErrResp, encodeErr(err))
		}
	}
	var w wbuf
	for _, ok := range applied {
		w.boolean(ok)
	}
	w.u32(uint32(len(deltas)))
	for _, d := range deltas {
		w.u64(d.Version)
		w.boolean(d.Full)
		w.kvs(d.Set)
	}
	return writeFrame(c, mtGCSResult, w.b)
}

// ---------------------------------------------------------------------------
// Wire byte accounting

// countingConn counts every byte an accepted conn moves — framing,
// control traffic and payloads, both directions — into net.bytes.wire.
// Contrast with net.bytes.modelled, the shuffle payload bytes the cost
// model charges: the gap between the two is the real protocol overhead.
// On an op conn what is written is also the answer to the request being
// served, and counts toward that request type's bytes.
type countingConn struct {
	net.Conn
	wire *atomic.Int64
	op   *atomic.Int64 // the current request's wire.bytes.<op>; nil on a control conn
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.wire.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.count(n)
	return n, err
}

// count accounts n written bytes (writeFrame writes past Write, vectored).
func (c *countingConn) count(n int) {
	c.wire.Add(int64(n))
	if c.op != nil {
		c.op.Add(int64(n))
	}
}
