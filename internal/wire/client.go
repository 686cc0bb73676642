package wire

import (
	"context"
	"fmt"
	"math"
	"net"
	"sync"
	"time"

	"quokka/internal/flight"
	"quokka/internal/gcs"
	"quokka/internal/lineage"
)

// pool is a free-list of op connections to the head. Each checked-out
// conn carries exactly one outstanding request; a conn is returned to the
// pool only after its exchange completed cleanly, and discarded on any
// error — a request is one frame and the head acts on it only once it has
// read all of it, so a half-sent exchange does nothing and can never leak
// onto a reused conn.
type pool struct {
	addr string

	mu     sync.Mutex
	idle   []net.Conn
	closed bool
}

func newPool(addr string) *pool { return &pool{addr: addr} }

func (p *pool) get() (net.Conn, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, fmt.Errorf("wire: pool closed")
	}
	if n := len(p.idle); n > 0 {
		c := p.idle[n-1]
		p.idle = p.idle[:n-1]
		p.mu.Unlock()
		return c, nil
	}
	p.mu.Unlock()
	c, err := net.DialTimeout("tcp", p.addr, 10*time.Second)
	if err == nil {
		noDelay(c)
	}
	return c, err
}

func (p *pool) put(c net.Conn) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		c.Close()
		return
	}
	p.idle = append(p.idle, c)
}

func (p *pool) close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.closed = true
	for _, c := range p.idle {
		c.Close()
	}
	p.idle = nil
}

// roundTrip runs one request/response exchange on a pooled conn.
func (p *pool) roundTrip(typ byte, payload []byte) (byte, []byte, error) {
	return p.roundTripCtx(context.Background(), typ, payload)
}

// roundTripCtx is roundTrip for an exchange the head may park: ctx ending
// poisons the conn's deadline, failing the pending read, and a conn whose
// deadline may have been poisoned is closed, never pooled.
func (p *pool) roundTripCtx(ctx context.Context, typ byte, payload []byte) (rt byte, rp []byte, err error) {
	c, err := p.get()
	if err != nil {
		return 0, nil, err
	}
	stop := context.AfterFunc(ctx, func() { c.SetDeadline(time.Unix(1, 0)) })
	if err = writeFrame(c, typ, payload); err == nil {
		rt, rp, err = readFrame(c)
	}
	if !stop() || err != nil {
		c.Close()
	} else {
		p.put(c)
	}
	return rt, rp, err
}

// expect runs a round trip whose response must be want (or mtErrResp,
// which is decoded into an error).
func (p *pool) expect(typ byte, payload []byte, want byte) ([]byte, error) {
	rt, rp, err := p.roundTrip(typ, payload)
	if err != nil {
		return nil, err
	}
	if rt == mtErrResp {
		return nil, decodeErr(rp)
	}
	if rt != want {
		return nil, respErr(rt, want)
	}
	return rp, nil
}

// bytesOf runs a round trip answered by one byte string (mtBytesResp).
func (p *pool) bytesOf(typ byte, payload []byte) ([]byte, error) {
	rp, err := p.expect(typ, payload, mtBytesResp)
	if err != nil {
		return nil, err
	}
	r := rbuf{b: rp}
	data := r.bytesOwned("bytes response")
	return data, r.err()
}

// boolOf runs a round trip answered by one bool (mtBoolResp); a failed
// exchange reads as false.
func (p *pool) boolOf(typ byte, payload []byte) bool {
	rp, err := p.expect(typ, payload, mtBoolResp)
	r := rbuf{b: rp}
	ok := r.boolean("bool response")
	return ok && err == nil && r.err() == nil
}

// ---------------------------------------------------------------------------
// GCS client

// gcsClient implements gcs.Backend against the head's store at one request
// frame per transaction. It keeps a gcs.Replica of every namespace its
// process runs; a transaction body runs locally against them — a view after
// a sync, an update before a commit frame the head validates.
type gcsClient struct {
	p *pool

	// mu guards the replicas: bodies read under RLock, answers apply their
	// deltas under Lock, nothing is held across a round trip.
	mu   sync.RWMutex
	reps map[string]*gcs.Replica
}

// maxBodyRuns bounds how often one update runs its body. A stale answer means
// another writer committed a key the body read — for the engine's bodies a
// recovery pass, which writes a handful of times and is done. Past the bound
// the update reports gcs.ErrAborted: "fenced, try again on a later round".
const maxBodyRuns = 8

// replica returns the process's replica of ns, creating it — empty, at
// version 0, known = false — on first use.
func (g *gcsClient) replica(ns string) (rep *gcs.Replica, known bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if rep, known = g.reps[ns]; !known {
		if g.reps == nil {
			g.reps = make(map[string]*gcs.Replica)
		}
		rep = &gcs.Replica{NS: ns}
		g.reps[ns] = rep
	}
	return rep, known
}

// forget drops the replica of a namespace whose query stopped on this worker.
func (g *gcsClient) forget(ns string) {
	g.mu.Lock()
	delete(g.reps, ns)
	g.mu.Unlock()
}

// exchange sends one transaction frame about reps and applies the answer's
// deltas — and own, the request's write set, if the answer says committed.
func (g *gcsClient) exchange(typ byte, req []byte, reps []*gcs.Replica, own map[string][]byte) (committed bool, err error) {
	rp, err := g.p.expect(typ, req, mtGCSResult)
	if err != nil {
		return false, err
	}
	r := rbuf{b: rp}
	if committed = r.boolean("committed"); !committed {
		own = nil
	}
	if n := int(r.u32("delta count")); r.e == nil && n != len(reps) {
		return false, fmt.Errorf("%w: %d deltas for %d namespaces", ErrCorrupt, n, len(reps))
	}
	deltas := make([]gcs.Delta, len(reps))
	for i := range deltas {
		deltas[i] = gcs.Delta{Version: r.u64("delta version"), Full: r.boolean("delta full"), Set: r.kvs("delta entry")}
	}
	if err := r.err(); err != nil {
		return false, err
	}
	g.mu.Lock()
	for i, rep := range reps {
		rep.Apply(deltas[i], own)
	}
	g.mu.Unlock()
	return committed, nil
}

// sync brings one replica up to the head's version: a view's one frame.
func (g *gcsClient) sync(rep *gcs.Replica) error {
	var w wbuf
	w.str(rep.NS)
	g.mu.RLock()
	w.u64(rep.Version)
	g.mu.RUnlock()
	_, err := g.exchange(mtGCSSync, w.b, []*gcs.Replica{rep}, nil)
	return err
}

// body runs fn against the replicas as they stand.
func (g *gcsClient) body(reps []*gcs.Replica, readOnly bool, fn func(tx *gcs.Txn) error) (*gcs.Txn, error) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	tx := gcs.ReplicaTxn(reps, readOnly)
	return tx, fn(tx)
}

// ViewNS is always one frame, never zero: the sync is what makes the body
// see every transaction committed before the view began.
func (g *gcsClient) ViewNS(ns string, fn func(tx *gcs.Txn) error) error {
	rep, _ := g.replica(ns)
	if err := g.sync(rep); err != nil {
		return err
	}
	_, err := g.body([]*gcs.Replica{rep}, true, fn)
	return err
}

// UpdateMulti runs the body against the replicas as last synced (a new
// replica is synced first: a body never runs on a namespace nothing is known
// about) and ships what it read and wrote in one frame; answered stale, it
// runs the body again on the state the answer's deltas brought. A body's
// error aborts without a frame: an abort has no effect wherever decided.
func (g *gcsClient) UpdateMulti(nss []string, fn func(tx *gcs.Txn) error) error {
	reps := make([]*gcs.Replica, len(nss))
	for i, ns := range nss {
		rep, known := g.replica(ns)
		if reps[i] = rep; !known {
			if err := g.sync(rep); err != nil {
				return err
			}
		}
	}
	for run := 0; run < maxBodyRuns; run++ {
		tx, err := g.body(reps, false, fn)
		if err != nil {
			return err
		}
		var w wbuf
		w.u32(uint32(len(nss)))
		for _, rs := range tx.ReadSets() {
			w.str(rs.NS)
			w.u64(rs.Version)
			w.strs(rs.Keys)
			w.strs(rs.Prefixes)
		}
		w.kvs(tx.Writes())
		if committed, err := g.exchange(mtGCSCommit, w.b, reps, tx.Writes()); committed || err != nil {
			return err
		}
	}
	return gcs.ErrAborted
}

func (g *gcsClient) UpdateNS(ns string, fn func(tx *gcs.Txn) error) error {
	return g.UpdateMulti([]string{ns}, fn)
}

// AwaitNS is one frame, which the head parks for at most park and its own cap.
// No error slot: a failed exchange or a malformed answer reads as 0 — once park
// or ctx has run out, lest a dead head turn a waiting loop into a spinning one.
func (g *gcsClient) AwaitNS(ctx context.Context, ns string, after uint64, park time.Duration) uint64 {
	start := time.Now()
	var w wbuf
	w.str(ns)
	w.u64(after)
	w.u32(uint32(min(max(park, 0).Microseconds(), math.MaxUint32)))
	rt, rp, err := g.p.roundTripCtx(ctx, mtGCSAwaitNS, w.b)
	r := rbuf{b: rp}
	if v := r.u64("version"); err == nil && rt == mtU64Resp && r.err() == nil {
		return v
	}
	if rest := park - time.Since(start); rest > 0 {
		select {
		case <-time.After(rest):
		case <-ctx.Done():
		}
	}
	return 0
}

// ---------------------------------------------------------------------------
// Flight client

// flightClient implements flight.Transport for ONE worker's head-hosted
// mailbox; every worker in a worker process's cluster view gets its own
// flightClient sharing the process-wide pool.
type flightClient struct {
	p      *pool
	worker uint32
}

func (f *flightClient) hdr() *wbuf {
	w := &wbuf{}
	w.u32(f.worker)
	return w
}

// edgeReq builds the body of a per-edge request: mailbox, query, consumer
// channel, then the request's integers (input, upChannel, from, ...).
func (f *flightClient) edgeReq(query string, dest lineage.ChannelID, ints ...int) []byte {
	w := f.hdr()
	w.str(query)
	w.chanID(dest)
	for _, v := range ints {
		w.i64(int64(v))
	}
	return w.b
}

func (f *flightClient) Push(p flight.Partition) error {
	w := f.hdr()
	w.str(p.Query)
	w.task(p.From)
	w.chanID(p.Dest)
	w.i64(int64(p.Input))
	w.i64(int64(p.Epoch))
	w.boolean(p.Local)
	w.bytes(p.Data)
	_, err := f.p.expect(mtFlPush, w.b, mtOK)
	return err
}

// Probe has no error slot: a failed exchange reads as nothing available,
// and the channel waits for a later round.
func (f *flightClient) Probe(query string, dest lineage.ChannelID, edges []flight.Edge) []int {
	w := wbuf{b: f.edgeReq(query, dest)}
	w.u32(uint32(len(edges)))
	for _, e := range edges {
		w.i64(int64(e.Input))
		w.i64(int64(e.UpChannel))
		w.i64(int64(e.Watermark))
	}
	avail := make([]int, len(edges))
	rp, err := f.p.expect(mtFlProbe, w.b, mtIntsResp)
	r := rbuf{b: rp}
	if n := r.count("probe count", 8); err != nil || n != len(edges) {
		return avail
	}
	for i := range avail {
		avail[i] = int(r.i64("probe available"))
	}
	if r.err() != nil {
		clear(avail)
	}
	return avail
}

func (f *flightClient) Take(query string, dest lineage.ChannelID, input, upChannel, from, count int) ([][]byte, error) {
	rp, err := f.p.expect(mtFlTake, f.edgeReq(query, dest, input, upChannel, from, count), mtBytesListResp)
	if err != nil {
		return nil, err
	}
	r := rbuf{b: rp}
	out := make([][]byte, r.count("take count", 4))
	for i := range out {
		out[i] = r.bytesOwned("take partition")
	}
	if derr := r.err(); derr != nil {
		return nil, derr
	}
	return out, nil
}

// The three drops have no error slot and swallow wire failures: they are
// cleanup, and a broken head conn means this worker is about to be declared
// dead anyway.
func (f *flightClient) Drop(query string, dest lineage.ChannelID, input, upChannel, from, count int) {
	f.p.roundTrip(mtFlDrop, f.edgeReq(query, dest, input, upChannel, from, count))
}

func (f *flightClient) DropQuery(query string) {
	w := f.hdr()
	w.str(query)
	f.p.roundTrip(mtFlDropQuery, w.b)
}

func (f *flightClient) SpoolResult(query string, task lineage.TaskName, data []byte, epoch int) error {
	w := f.hdr()
	w.str(query)
	w.task(task)
	w.i64(int64(epoch))
	w.bytes(data)
	_, err := f.p.expect(mtFlSpool, w.b, mtOK)
	return err
}

func (f *flightClient) FetchResult(query string, task lineage.TaskName) ([]byte, error) {
	w := f.hdr()
	w.str(query)
	w.task(task)
	return f.p.bytesOf(mtFlFetch, w.b)
}

func (f *flightClient) DropResult(query string, task lineage.TaskName) {
	w := f.hdr()
	w.str(query)
	w.task(task)
	f.p.roundTrip(mtFlDropResult, w.b)
}

// Fail is a no-op on the client: mailbox failure is declared by the HEAD
// (when it loses the worker's control conn), on the head-hosted Server —
// a worker process never fails a mailbox itself.
func (f *flightClient) Fail() {}

// ---------------------------------------------------------------------------
// Object store client

// objClient implements storage.Objects against the head's store.
type objClient struct {
	p *pool
}

// PutFree has no error slot: a failed put surfaces when the object is read.
func (o *objClient) PutFree(key string, value []byte) {
	var w wbuf
	w.str(key)
	w.boolean(true) // free: the only form of put there is
	w.bytes(value)
	_, _ = o.p.expect(mtObjPut, w.b, mtOK)
}

func (o *objClient) get(key string, free bool) ([]byte, error) {
	var w wbuf
	w.str(key)
	w.boolean(free)
	return o.p.bytesOf(mtObjGet, w.b)
}

func (o *objClient) Get(key string) ([]byte, error) { return o.get(key, false) }

func (o *objClient) GetFree(key string) ([]byte, error) { return o.get(key, true) }

// ---------------------------------------------------------------------------
// Result sink client

// sinkClient implements engine.ResultSink for one query inside a worker
// process, relaying output-stage deliveries to the head-side collector.
// A wire failure reports "not accepted": the task stays pending and
// retries, which is exactly the collector's backpressure contract — a
// delivery is only lost if it was never acknowledged, and an
// unacknowledged task never commits (Algorithm 1).
type sinkClient struct {
	p   *pool
	qid string
}

func (s *sinkClient) Deliver(t lineage.TaskName, data []byte, epoch int) bool {
	var w wbuf
	w.str(s.qid)
	w.task(t)
	w.i64(int64(epoch))
	w.bytes(data)
	return s.p.boolOf(mtSinkDeliver, w.b)
}

func (s *sinkClient) DeliverSpooled(t lineage.TaskName, worker int, size int64, epoch int) bool {
	var w wbuf
	w.str(s.qid)
	w.task(t)
	w.i64(int64(worker))
	w.i64(size)
	w.i64(int64(epoch))
	return s.p.boolOf(mtSinkSpooled, w.b)
}
