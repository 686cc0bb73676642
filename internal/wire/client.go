package wire

import (
	"fmt"
	"net"
	"sync"
	"time"

	"quokka/internal/flight"
	"quokka/internal/gcs"
	"quokka/internal/lineage"
)

// pool is a free-list of op connections to the head. Each checked-out
// conn carries exactly one outstanding request (or one open GCS
// transaction); a conn is returned to the pool only after its exchange
// completed cleanly, and discarded on any error — the server aborts
// whatever the conn was doing when the read fails, so a half-finished
// exchange can never leak onto a reused conn.
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
	return net.DialTimeout("tcp", p.addr, 10*time.Second)
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
	c, err := p.get()
	if err != nil {
		return 0, nil, err
	}
	if err := writeFrame(c, typ, payload); err != nil {
		c.Close()
		return 0, nil, err
	}
	rt, rp, err := readFrame(c)
	if err != nil {
		c.Close()
		return 0, nil, err
	}
	p.put(c)
	return rt, rp, nil
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

// ---------------------------------------------------------------------------
// GCS client

// gcsClient implements gcs.Backend against the head's store. Reads inside
// a transaction are served interactively over the conn while the head
// holds the shard lock; writes buffer in the client-side gcs.Txn and ship
// in one commit frame.
type gcsClient struct {
	p *pool
}

// connTxnOps serves a transaction body's reads from the open conn.
type connTxnOps struct {
	c net.Conn
}

func (o connTxnOps) Get(key string) ([]byte, bool, error) {
	var w wbuf
	w.str(key)
	if err := writeFrame(o.c, mtTxnGet, w.b); err != nil {
		return nil, false, err
	}
	rt, rp, err := readFrame(o.c)
	if err != nil {
		return nil, false, err
	}
	if rt != mtTxnGetResp {
		return nil, false, respErr(rt, mtTxnGetResp)
	}
	r := rbuf{b: rp}
	ok := r.boolean("txn get ok")
	val := r.bytesOwned("txn get val")
	if derr := r.err(); derr != nil {
		return nil, false, derr
	}
	if !ok {
		return nil, false, nil
	}
	return val, true, nil
}

func (o connTxnOps) List(prefix string) ([]string, error) {
	var w wbuf
	w.str(prefix)
	if err := writeFrame(o.c, mtTxnList, w.b); err != nil {
		return nil, err
	}
	rt, rp, err := readFrame(o.c)
	if err != nil {
		return nil, err
	}
	if rt != mtTxnListResp {
		return nil, respErr(rt, mtTxnListResp)
	}
	r := rbuf{b: rp}
	n := int(r.u32("txn list count"))
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, r.str("txn list key"))
	}
	if derr := r.err(); derr != nil {
		return nil, derr
	}
	return out, nil
}

// txn runs one remote transaction. The conn is occupied for the whole
// transaction; the head holds the shard lock(s) until commit or abort,
// and aborts on its own if the conn dies (a SIGKILLed worker can never
// wedge a shard).
func (g *gcsClient) txn(kind byte, nss []string, readOnly bool, fn func(tx *gcs.Txn) error) error {
	c, err := g.p.get()
	if err != nil {
		return err
	}
	var w wbuf
	w.u8(kind)
	w.u32(uint32(len(nss)))
	for _, ns := range nss {
		w.str(ns)
	}
	if err := writeFrame(c, mtTxnBegin, w.b); err != nil {
		c.Close()
		return err
	}
	tx := gcs.RemoteTxn(connTxnOps{c}, readOnly)
	ferr := fn(tx)
	if ferr == nil {
		// A failed remote read surfaces after the body: Get/List have no
		// error slot, so the body may have completed on zero values.
		ferr = tx.RemoteErr()
	}
	if ferr != nil {
		var a wbuf
		a.str(ferr.Error())
		if writeFrame(c, mtTxnAbort, a.b) == nil {
			if rt, _, err := readFrame(c); err == nil && rt == mtTxnDone {
				g.p.put(c)
				return ferr
			}
		}
		c.Close()
		return ferr
	}
	var cm wbuf
	writes := tx.Writes()
	cm.u32(uint32(len(writes)))
	for k, v := range writes {
		cm.str(k)
		cm.boolean(v == nil)
		cm.bytes(v)
	}
	if err := writeFrame(c, mtTxnCommit, cm.b); err != nil {
		c.Close()
		return err
	}
	rt, rp, err := readFrame(c)
	if err != nil {
		c.Close()
		return err
	}
	if rt != mtTxnDone {
		c.Close()
		return respErr(rt, mtTxnDone)
	}
	r := rbuf{b: rp}
	ok := r.boolean("txn done ok")
	msg := r.str("txn done msg")
	if derr := r.err(); derr != nil {
		c.Close()
		return derr
	}
	g.p.put(c)
	if !ok {
		return fmt.Errorf("wire: txn rejected by head: %s", msg)
	}
	return nil
}

func (g *gcsClient) UpdateNS(ns string, fn func(tx *gcs.Txn) error) error {
	return g.txn(txnUpdateNS, []string{ns}, false, fn)
}

func (g *gcsClient) UpdateMulti(nss []string, fn func(tx *gcs.Txn) error) error {
	return g.txn(txnUpdateMulti, nss, false, fn)
}

func (g *gcsClient) ViewNS(ns string, fn func(tx *gcs.Txn) error) error {
	return g.txn(txnViewNS, []string{ns}, true, fn)
}

func (g *gcsClient) VersionNS(ns string) uint64 {
	var w wbuf
	w.str(ns)
	rp, err := g.p.expect(mtGCSVersionNS, w.b, mtU64Resp)
	return versionResp(rp, err)
}

func (g *gcsClient) Version() uint64 {
	rp, err := g.p.expect(mtGCSVersion, nil, mtU64Resp)
	return versionResp(rp, err)
}

// versionResp decodes an mtU64Resp body; a failed exchange or a malformed
// body reads as 0 (the version methods have no error slot).
func versionResp(rp []byte, err error) uint64 {
	r := rbuf{b: rp}
	v := r.u64("version")
	if err != nil || r.err() != nil {
		return 0
	}
	return v
}

// maxWaitChange caps a long-poll's server-side residence so a pooled conn
// is never parked longer than this; the engine's pollers re-issue waits.
const maxWaitChange = 30 * time.Second

func (g *gcsClient) WaitChange(since uint64, timeout time.Duration) uint64 {
	if timeout > maxWaitChange {
		timeout = maxWaitChange
	}
	c, err := g.p.get()
	if err != nil {
		time.Sleep(timeout)
		return since
	}
	var w wbuf
	w.u64(since)
	w.i64(int64(timeout))
	if err := writeFrame(c, mtGCSWaitChange, w.b); err != nil {
		c.Close()
		return since
	}
	// The response legitimately takes up to the poll timeout; bound the
	// read a little beyond it so a dead head cannot hang the poller.
	c.SetReadDeadline(time.Now().Add(timeout + 10*time.Second))
	rt, rp, err := readFrame(c)
	c.SetReadDeadline(time.Time{})
	if err != nil || rt != mtU64Resp {
		c.Close()
		return since
	}
	r := rbuf{b: rp}
	v := r.u64("version")
	if r.err() != nil {
		c.Close()
		return since
	}
	g.p.put(c)
	return v
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

// fireAndForget runs an exchange whose interface slot has no error
// return; wire failures are swallowed (the ops are cleanup/advisory, and
// a broken head conn means this worker is about to be declared dead
// anyway).
func (f *flightClient) fireAndForget(typ byte, payload []byte) {
	_, _, _ = f.p.roundTrip(typ, payload)
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

func (f *flightClient) ContiguousFrom(query string, dest lineage.ChannelID, input, upChannel, from int) int {
	rp, err := f.p.expect(mtFlContig, f.edgeReq(query, dest, input, upChannel, from), mtIntResp)
	if err != nil {
		return 0
	}
	r := rbuf{b: rp}
	n := r.i64("contig")
	if r.err() != nil {
		return 0
	}
	return int(n)
}

func (f *flightClient) Take(query string, dest lineage.ChannelID, input, upChannel, from, count int) ([][]byte, error) {
	rp, err := f.p.expect(mtFlTake, f.edgeReq(query, dest, input, upChannel, from, count), mtBytesListResp)
	if err != nil {
		return nil, err
	}
	r := rbuf{b: rp}
	n := int(r.u32("take count"))
	out := make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, r.bytesOwned("take partition"))
	}
	if derr := r.err(); derr != nil {
		return nil, derr
	}
	return out, nil
}

func (f *flightClient) Drop(query string, dest lineage.ChannelID, input, upChannel, from, count int) {
	f.fireAndForget(mtFlDrop, f.edgeReq(query, dest, input, upChannel, from, count))
}

func (f *flightClient) DropBelow(query string, dest lineage.ChannelID, input, upChannel, wm int) {
	f.fireAndForget(mtFlDropBelow, f.edgeReq(query, dest, input, upChannel, wm))
}

func (f *flightClient) DropQuery(query string) {
	w := f.hdr()
	w.str(query)
	f.fireAndForget(mtFlDropQuery, w.b)
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
	rp, err := f.p.expect(mtFlFetch, w.b, mtBytesResp)
	if err != nil {
		return nil, err
	}
	r := rbuf{b: rp}
	data := r.bytesOwned("fetch result")
	if derr := r.err(); derr != nil {
		return nil, derr
	}
	return data, nil
}

func (f *flightClient) DropResult(query string, task lineage.TaskName) {
	w := f.hdr()
	w.str(query)
	w.task(task)
	f.fireAndForget(mtFlDropResult, w.b)
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
	rp, err := o.p.expect(mtObjGet, w.b, mtBytesResp)
	if err != nil {
		return nil, err
	}
	r := rbuf{b: rp}
	data := r.bytesOwned("object")
	if derr := r.err(); derr != nil {
		return nil, derr
	}
	return data, nil
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
	rp, err := s.p.expect(mtSinkDeliver, w.b, mtBoolResp)
	if err != nil {
		return false
	}
	r := rbuf{b: rp}
	ok := r.boolean("deliver")
	if r.err() != nil {
		return false
	}
	return ok
}

func (s *sinkClient) DeliverSpooled(t lineage.TaskName, worker int, size int64, epoch int) bool {
	var w wbuf
	w.str(s.qid)
	w.task(t)
	w.i64(int64(worker))
	w.i64(size)
	w.i64(int64(epoch))
	rp, err := s.p.expect(mtSinkSpooled, w.b, mtBoolResp)
	if err != nil {
		return false
	}
	r := rbuf{b: rp}
	ok := r.boolean("deliver spooled")
	if r.err() != nil {
		return false
	}
	return ok
}
