package wire

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"net"
	"os"
	"sync"
	"time"

	"quokka/internal/cluster"
	"quokka/internal/engine"
	"quokka/internal/flight"
	"quokka/internal/metrics"
	"quokka/internal/storage"
)

// WorkerConfig configures one quokka-worker process.
type WorkerConfig struct {
	// Head is the head node's wire address (host:port).
	Head string
	// ID is this worker's slot in the cluster (0-based; must match a
	// worker the head's cluster was built with).
	ID int
	// Slots caps the task-manager threads this process runs per query
	// (0 = the query spec's own ThreadsPerWorker).
	Slots int
	// MemoryBudget, when > 0, overrides the per-query accounted operator
	// memory cap (bytes) — the knob that makes this process spill.
	MemoryBudget int64
	// SpillDir is the directory backing this worker's "NVMe": spill runs
	// and upstream backups live here and die with the directory.
	SpillDir string
}

// RunWorker attaches to the head and serves queries until ctx is
// cancelled or the head goes away. It is the whole life of a
// quokka-worker process: dial, open the mailbox, handshake, then run
// task-manager threads for every query the head starts.
func RunWorker(ctx context.Context, wc WorkerConfig) error {
	w, err := attachWorker(ctx, wc, &metrics.Collector{})
	if err != nil {
		return err
	}
	defer w.close()
	return w.loop(ctx)
}

// attachWorker dials the head, opens the worker's mailbox on the interface it
// dialled from — before hello, so attaching costs no extra round trip — and
// shakes hands, counting into met, the process's own collector. The caller
// runs loop and then close.
func attachWorker(ctx context.Context, wc WorkerConfig, met *metrics.Collector) (_ *workerRT, err error) {
	w := &workerRT{cfg: wc, self: cluster.WorkerID(wc.ID), queries: make(map[string]context.CancelFunc), reported: make(map[string]int64)}
	defer func() {
		if err != nil { // whatever was opened so far goes: w is a local, a failing return cannot nil it
			w.close()
		}
	}()
	if wc.SpillDir == "" {
		if w.tmp, err = os.MkdirTemp("", "quokka-worker-spill-"); err != nil {
			return nil, fmt.Errorf("wire: worker spill dir: %w", err)
		}
		wc.SpillDir = w.tmp
	}
	if w.ctrl, err = net.DialTimeout("tcp", wc.Head, 10*time.Second); err != nil {
		return nil, fmt.Errorf("wire: dial head %s: %w", wc.Head, err)
	}
	host, _, _ := net.SplitHostPort(w.ctrl.LocalAddr().String())
	ln, err := net.Listen("tcp", net.JoinHostPort(host, "0"))
	if err != nil {
		return nil, fmt.Errorf("wire: mailbox listen on %s: %w", host, err)
	}
	w.mb = openMailbox(ln, uint32(wc.ID), met)

	var hello wbuf
	hello.u32(uint32(wc.ID))
	hello.str(w.mb.ln.Addr().String())
	if err := writeFrame(w.ctrl, mtHello, hello.b); err != nil {
		return nil, fmt.Errorf("wire: hello: %w", err)
	}
	typ, payload, err := readFrame(w.ctrl)
	if err != nil {
		return nil, fmt.Errorf("wire: hello response: %w", err)
	}
	if typ != mtHelloResp {
		return nil, respErr(typ, mtHelloResp)
	}
	hr := rbuf{b: payload}
	numWorkers := int(hr.u32("cluster size"))
	self := int(hr.u32("self id"))
	if err := hr.err(); err != nil {
		return nil, err
	}
	if self != wc.ID || numWorkers <= 0 || numWorkers > 1<<16 {
		return nil, fmt.Errorf("wire: head assigned id %d in a %d-worker cluster (asked for %d)", self, numWorkers, wc.ID)
	}

	// The worker process's view of the cluster. Its own mailbox is the one it
	// hosts — probe, take, drop, spool and same-worker pushes are function
	// calls — and a peer's a client of that peer's listener, whose address
	// arrives with each query. GCS and object store are clients of the head.
	// Only this worker has an owner's view here: the mailbox and a disk (a
	// directory). TimeScale 0: a worker process pays real I/O and network
	// latency, not modelled sleeps on top.
	cost := storage.CostModel{}
	w.pool = newPool(wc.Head)
	w.gcs, w.objs = &gcsClient{p: w.pool}, &objClient{p: w.pool, max: objCacheMax}
	w.cl = &cluster.Cluster{GCS: w.gcs, ObjStore: w.objs, Cost: cost, Metrics: met}
	w.peers = make([]*pool, numWorkers)
	for i := range w.peers {
		if i != self {
			w.peers[i] = newPeerPool(ctx)
			w.cl.Workers = append(w.cl.Workers, cluster.NewPeer(cluster.WorkerID(i), &flightClient{p: w.peers[i], worker: uint32(i)}))
			continue
		}
		disk, err := storage.NewDirDisk(wc.SpillDir, met)
		if err != nil {
			return nil, fmt.Errorf("wire: worker disk: %w", err)
		}
		w.cl.Workers = append(w.cl.Workers, cluster.NewWorker(w.self, w.mb.fl, disk))
	}
	return w, nil
}

// mailbox is the worker's own flight server behind its own listener: what a
// peer pushes to and the head sweeps a query from. It serves the mailboxOps
// set, for this worker's id only, and counts what its conns move into the
// worker's collector.
type mailbox struct {
	self  uint32
	fl    *flight.Server
	ln    net.Listener
	meter *opMeter
	ctx   context.Context // done once stopListening ran: every accepted conn closes
	stop  context.CancelFunc
}

func openMailbox(ln net.Listener, self uint32, met *metrics.Collector) *mailbox {
	m := &mailbox{self: self, fl: flight.NewServer(storage.CostModel{}, met), ln: ln, meter: newOpMeter(met, mailboxOps)}
	m.ctx, m.stop = context.WithCancel(context.Background())
	go m.meter.listen(ln, m.serve)
	return m
}

// serve answers one accepted conn until it, or the mailbox's listening, ends.
func (m *mailbox) serve(c *countingConn) {
	defer context.AfterFunc(m.ctx, func() { c.Close() })()
	defer c.Close()
	if typ, payload, err := readFrame(c); err == nil {
		m.meter.serveOps(c, typ, payload, m.handle)
	}
}

// stopListening closes the listener and every accepted conn, one accepted
// meanwhile included: nobody reaches this mailbox any more.
func (m *mailbox) stopListening() {
	m.ln.Close()
	m.stop()
}

// handle serves one request against the worker's own mailbox: like the head's
// dispatcher it decodes the whole request, lets the flight server answer under
// its own lock, and only then writes. It enumerates nothing beyond DropQuery's
// own query.
func (m *mailbox) handle(c net.Conn, typ byte, payload []byte) error {
	if _, served := mailboxOps[typ]; !served {
		return fmt.Errorf("%w: unknown mailbox op 0x%02x", ErrCorrupt, typ)
	}
	r := rbuf{b: payload}
	if wid := r.u32("flight worker id"); r.e == nil && wid != m.self {
		return fmt.Errorf("%w: flight op for worker %d reached worker %d", ErrCorrupt, wid, m.self)
	}
	p := flight.Partition{Query: r.str("query")}
	if typ == mtFlPush {
		p.From, p.Dest, p.Input, p.Epoch = r.task("from"), r.chanID("dest"), int(r.i64("input")), int(r.i64("epoch"))
		p.Local, p.Data = r.boolean("local"), r.bytesOwned("data")
	}
	if err := r.err(); err != nil {
		return err
	}
	if typ == mtFlDropQuery {
		m.fl.DropQuery(p.Query)
	} else if err := m.fl.Push(p); err != nil {
		return writeFrame(c, mtErrResp, encodeErr(err))
	}
	return writeFrame(c, mtOK, nil)
}

// workerRT is the control loop state of one worker process.
type workerRT struct {
	cfg   WorkerConfig
	cl    *cluster.Cluster
	pool  *pool   // to the head
	peers []*pool // to each peer's mailbox, by worker id; nil for self
	gcs   *gcsClient
	objs  *objClient
	mb    *mailbox
	self  cluster.WorkerID
	tmp   string // the spill dir, if this process made it

	ctrl     net.Conn
	wmu      sync.Mutex       // serializes control-frame writes (acks vs async fail/stopped)
	reported map[string]int64 // under wmu: counter values as of the last mtStopped report

	mu      sync.Mutex
	queries map[string]context.CancelFunc
}

// close ends the worker: its mailbox fails and stops answering (a peer's push
// errors instead of landing on a corpse) and every conn it dialled goes.
func (w *workerRT) close() {
	if w.mb != nil {
		w.mb.stopListening()
		w.mb.fl.Fail()
	}
	for _, p := range append(w.peers, w.pool) {
		if p != nil {
			p.close()
		}
	}
	if w.ctrl != nil {
		w.ctrl.Close()
	}
	if w.tmp != "" {
		os.RemoveAll(w.tmp)
	}
}

func (w *workerRT) send(typ byte, payload []byte) error {
	w.wmu.Lock()
	defer w.wmu.Unlock()
	return writeFrame(w.ctrl, typ, payload)
}

// sendStopped answers a stop: the query's spans and, riding along, every
// counter this process's collector moved since its last report (gauges and
// histograms stay here), which the head adds to the cluster's.
func (w *workerRT) sendStopped(qid string, spansGob []byte) {
	var sb wbuf
	sb.str(qid)
	sb.bytes(spansGob)
	n, at := 0, len(sb.b)
	sb.u32(0)
	w.wmu.Lock()
	defer w.wmu.Unlock()
	for name, v := range w.cl.Metrics.Snapshot() {
		if d := v - w.reported[name]; d > 0 && !metrics.IsGauge(name) {
			sb.str(name)
			sb.i64(d)
			w.reported[name] = v
			n++
		}
	}
	binary.BigEndian.PutUint32(sb.b[at:], uint32(n))
	writeFrame(w.ctrl, mtStopped, sb.b)
}

func (w *workerRT) loop(ctx context.Context) error {
	// Unblock the control read when ctx ends (process shutdown).
	stop := context.AfterFunc(ctx, func() { w.ctrl.Close() })
	defer stop()
	defer func() {
		w.mu.Lock()
		for _, cancel := range w.queries {
			cancel()
		}
		w.mu.Unlock()
	}()
	for {
		typ, payload, err := readFrame(w.ctrl)
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			return fmt.Errorf("wire: control conn: %w", err)
		}
		r := rbuf{b: payload}
		switch typ {
		case mtStartQuery:
			qid := r.str("start qid")
			specBytes := r.bytesOwned("start spec")
			gen, addrs := r.u64("start object generation"), r.strs("start peer address")
			if err := r.err(); err != nil {
				return err
			}
			if len(addrs) != len(w.peers) {
				return fmt.Errorf("%w: peer table of %d for a %d-worker cluster", ErrCorrupt, len(addrs), len(w.peers))
			}
			w.objs.setGen(gen)
			for i, p := range w.peers {
				if p != nil {
					p.setAddr(addrs[i])
				}
			}
			w.startQuery(ctx, qid, specBytes)
		case mtStopQuery:
			qid := r.str("stop qid")
			if err := r.err(); err != nil {
				return err
			}
			w.mu.Lock()
			cancel := w.queries[qid]
			w.mu.Unlock()
			if cancel != nil {
				cancel()
			} else {
				// Never started (or already finished): answer anyway so the
				// head's stop wait does not ride out its timeout.
				w.sendStopped(qid, nil)
			}
		default:
			return fmt.Errorf("%w: control frame 0x%02x", ErrCorrupt, typ)
		}
	}
}

// startQuery acks the spec and runs the query's task-manager threads in
// the background until the head says stop.
func (w *workerRT) startQuery(ctx context.Context, qid string, specBytes []byte) {
	ack := func(ok bool, msg string) {
		var a wbuf
		a.str(qid)
		a.boolean(ok)
		a.str(msg)
		w.send(mtStartAck, a.b)
	}
	spec, err := engine.DecodeWorkerSpec(specBytes)
	if err != nil {
		ack(false, err.Error())
		return
	}
	if spec.QueryID != qid {
		ack(false, fmt.Sprintf("spec query id %q under start frame %q", spec.QueryID, qid))
		return
	}
	if w.cfg.Slots > 0 && spec.Cfg.ThreadsPerWorker > w.cfg.Slots {
		spec.Cfg.ThreadsPerWorker = w.cfg.Slots
	}
	if w.cfg.MemoryBudget > 0 {
		spec.Cfg.MemoryBudget = w.cfg.MemoryBudget
	}

	qctx, cancel := context.WithCancel(ctx)
	w.mu.Lock()
	if _, dup := w.queries[qid]; dup {
		w.mu.Unlock()
		cancel()
		ack(false, "query already running")
		return
	}
	w.queries[qid] = cancel
	w.mu.Unlock()
	ack(true, "")

	go func() {
		defer cancel()
		sink := &sinkClient{p: w.pool, qid: qid}
		onFail := func(ferr error) {
			var f wbuf
			f.str(qid)
			f.str(ferr.Error())
			w.send(mtFail, f.b)
		}
		spans, runErr := engine.RunWorkerQuery(qctx, w.cl, spec, w.self, sink, onFail)
		if runErr != nil {
			onFail(runErr)
		}
		w.gcs.forget(engine.QueryNamespace(qid)) // stopped here: the replica goes with it
		var spansGob []byte
		if len(spans) > 0 {
			var buf bytes.Buffer
			if gob.NewEncoder(&buf).Encode(spans) == nil {
				spansGob = buf.Bytes()
			}
		}
		w.mu.Lock()
		delete(w.queries, qid)
		w.mu.Unlock()
		w.sendStopped(qid, spansGob)
	}()
}
