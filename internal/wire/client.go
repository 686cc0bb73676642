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

// pool is a free-list of op connections to one listener: the head's, or a
// worker's mailbox. Each checked-out conn carries exactly one outstanding
// request; a conn is returned to the pool only after its exchange completed
// cleanly, and discarded on any error — a request is one frame and the
// listener acts on it only once it has read all of it, so a half-sent exchange
// does nothing and can never leak onto a reused conn.
type pool struct {
	ctx  context.Context // ends a dial, as dial elapsing does
	dial time.Duration

	mu     sync.Mutex
	addr   string // "" until known: a worker's mailbox address arrives with its hello, a peer's with a query
	idle   []net.Conn
	closed bool
}

// newPool dials the head; newPeerPool a worker's mailbox, once setAddr has said
// where it is: from an executor thread mid-task (or the head's cursor), to a
// process that may be gone, so a dial gives up after a second, or with ctx.
func newPool(addr string) *pool {
	return &pool{ctx: context.Background(), dial: 10 * time.Second, addr: addr}
}
func newPeerPool(ctx context.Context) *pool { return &pool{ctx: ctx, dial: time.Second} }

// setAddr names the listener; a live worker's mailbox address never changes.
func (p *pool) setAddr(addr string) {
	p.mu.Lock()
	p.addr = addr
	p.mu.Unlock()
}

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
	addr := p.addr
	p.mu.Unlock()
	if addr == "" {
		return nil, fmt.Errorf("wire: no live process to dial")
	}
	d := net.Dialer{Timeout: p.dial}
	c, err := d.DialContext(p.ctx, "tcp", addr)
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

// flightClient is a remote handle on ONE worker's mailbox, hosted by that
// worker's process: a peer's for pushing to it, or the head's for sweeping a
// query and declaring the worker dead. It is a flight.Peer and nothing else:
// the owner's three methods (docs/contracts/flight-transport.md) exist only on
// the mailbox itself.
type flightClient struct {
	p      *pool
	worker uint32
	fail   func() // the head's handle: declare the worker dead. nil on a peer's
}

// req starts a request body: mailbox, query.
func (f *flightClient) req(query string) *wbuf {
	w := &wbuf{}
	w.u32(f.worker)
	w.str(query)
	return w
}

// Push is one frame to the peer. Failing to reach it is an error like the
// mailbox's own — the task stays pending — never a verdict on the peer.
func (f *flightClient) Push(p flight.Partition) error {
	w := f.req(p.Query)
	w.task(p.From)
	w.chanID(p.Dest)
	w.i64(int64(p.Input))
	w.i64(int64(p.Epoch))
	w.boolean(p.Local)
	w.bytes(p.Data)
	_, err := f.p.expect(mtFlPush, w.b, mtOK)
	return err
}

// DropQuery has no error slot and swallows wire failures: it is cleanup, and
// a mailbox that cannot be reached is gone or going.
func (f *flightClient) DropQuery(query string) {
	f.p.roundTrip(mtFlDropQuery, f.req(query).b)
}

// Fail does nothing through a worker's handle on a peer: liveness is the
// head's call alone.
func (f *flightClient) Fail() {
	if f.fail != nil {
		f.fail()
	}
}

// ---------------------------------------------------------------------------
// Object store client

// objClient implements storage.Objects against the head's store, keeping what
// it fetched: table objects are written once, before queries run. The cache is
// valid only under the head store's put generation the last start frame named
// and emptied by its own PutFree; a fetch in flight across either — epoch
// moved — is not kept (docs/contracts/storage-objects.md).
type objClient struct {
	p   *pool
	max int64 // bound on the cached bytes (values only): objCacheMax outside tests

	mu    sync.Mutex
	gen   uint64
	epoch uint64 // bumped by setGen and PutFree
	cache map[string][]byte
	size  int64
}

// objCacheMax is a worker process's bound: a constant, not a knob.
const objCacheMax = 64 << 20

// setGen names the head store's put generation a starting query runs under.
func (o *objClient) setGen(gen uint64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if gen != o.gen {
		o.gen, o.cache, o.size, o.epoch = gen, nil, 0, o.epoch+1
	}
}

// PutFree has no error slot: a failed put surfaces when the object is read.
func (o *objClient) PutFree(key string, value []byte) {
	var w wbuf
	w.str(key)
	w.boolean(true) // free: the only form of put there is
	w.bytes(value)
	_, _ = o.p.expect(mtObjPut, w.b, mtOK)
	o.mu.Lock()
	o.cache, o.size, o.epoch = nil, 0, o.epoch+1
	o.mu.Unlock()
}

func (o *objClient) get(key string, free bool) ([]byte, error) {
	o.mu.Lock()
	val, hit := o.cache[key]
	epoch := o.epoch
	o.mu.Unlock()
	if hit {
		return val, nil
	}
	var w wbuf
	w.str(key)
	w.boolean(free)
	val, err := o.p.bytesOf(mtObjGet, w.b)
	o.mu.Lock()
	defer o.mu.Unlock()
	if _, raced := o.cache[key]; err != nil || raced || o.epoch != epoch || int64(len(val)) > o.max {
		return val, err
	}
	if o.cache == nil || o.size+int64(len(val)) > o.max { // full: start over, no ranking nobody measured
		o.cache, o.size = make(map[string][]byte), 0
	}
	o.cache[key] = val
	o.size += int64(len(val))
	return val, nil
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
