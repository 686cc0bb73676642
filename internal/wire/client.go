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

// roundTrip runs one request/response exchange on a pooled conn. ctx ending —
// the head may park an exchange — poisons the conn's deadline, failing the
// pending read, and a conn whose deadline may have been poisoned is closed,
// never pooled.
func (p *pool) roundTrip(ctx context.Context, typ byte, payload []byte) (rt byte, rp []byte, err error) {
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
func (p *pool) expect(ctx context.Context, typ byte, payload []byte, want byte) ([]byte, error) {
	rt, rp, err := p.roundTrip(ctx, typ, payload)
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

// boolOf runs a round trip answered by one bool (mtBoolResp); a failed
// exchange reads as false.
func (p *pool) boolOf(typ byte, payload []byte) bool {
	rp, err := p.expect(context.Background(), typ, payload, mtBoolResp)
	r := rbuf{b: rp}
	ok := r.boolean("bool response")
	return ok && err == nil && r.err() == nil
}

// ---------------------------------------------------------------------------
// GCS client

// gcsClient implements gcs.Backend against the head's store. It keeps a
// gcs.Replica of every namespace its process runs: a view runs its body
// locally against one with no frame, an Apply is one frame of guarded entries,
// and a wait is one follow frame; each answer brings the replicas up to what
// the head saw.
type gcsClient struct {
	p *pool

	// mu guards the replicas: views read under RLock, answers fold their
	// deltas under Lock, nothing is held across a round trip.
	mu   sync.RWMutex
	reps map[string]*gcs.Replica
}

// replica returns the process's replica of ns, fetched while it holds nothing
// (version 0) by one follow frame that parks for nothing: nothing runs on a
// namespace nothing is known about.
func (g *gcsClient) replica(ns string) (*gcs.Replica, error) {
	g.mu.Lock()
	if g.reps == nil {
		g.reps = make(map[string]*gcs.Replica)
	}
	rep := g.reps[ns]
	if rep == nil {
		rep = &gcs.Replica{NS: ns}
		g.reps[ns] = rep
	}
	g.mu.Unlock()
	if g.version(rep) == 0 {
		return rep, g.follow(context.Background(), rep, 0, 0)
	}
	return rep, nil
}

// version is rep's version, read under the lock its deltas are applied under.
func (g *gcsClient) version(rep *gcs.Replica) uint64 {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return rep.Version
}

// forget drops the replica of a namespace whose query stopped on this worker.
func (g *gcsClient) forget(ns string) {
	g.mu.Lock()
	delete(g.reps, ns)
	g.mu.Unlock()
}

// exchange sends one frame about reps and folds the answer into them: each
// namespace's delta, then the entries of sent the answer says applied — one
// bit per entry sent, none for a follow.
func (g *gcsClient) exchange(ctx context.Context, typ byte, req []byte, reps []*gcs.Replica, sent []gcs.Entry) ([]bool, error) {
	rp, err := g.p.expect(ctx, typ, req, mtGCSResult)
	if err != nil {
		return nil, err
	}
	r := rbuf{b: rp}
	applied := make([]bool, len(sent))
	var own []gcs.Entry
	for i := range applied {
		if applied[i] = r.boolean("applied"); applied[i] {
			own = append(own, sent[i])
		}
	}
	if n := int(r.u32("delta count")); r.e == nil && n != len(reps) {
		return nil, fmt.Errorf("%w: %d deltas for %d namespaces", ErrCorrupt, n, len(reps))
	}
	deltas := make([]gcs.Delta, len(reps))
	for i := range deltas {
		deltas[i] = gcs.Delta{Version: r.u64("delta version"), Full: r.boolean("delta full"), Set: r.kvs("delta entry")}
	}
	if err := r.err(); err != nil {
		return nil, err
	}
	g.mu.Lock()
	for i, rep := range reps {
		rep.Fold(deltas[i], own)
	}
	g.mu.Unlock()
	return applied, nil
}

// follow is the one frame that waits: the head parks it until the namespace's
// version passes after, or park (capped by the head) elapses, and answers with
// the delta that brings rep to where it woke — nothing, if it did not.
func (g *gcsClient) follow(ctx context.Context, rep *gcs.Replica, after uint64, park time.Duration) error {
	var w wbuf
	w.str(rep.NS)
	w.u64(g.version(rep))
	w.u64(after)
	w.u32(uint32(min(max(park, 0).Microseconds(), math.MaxUint32)))
	_, err := g.exchange(ctx, mtGCSFollow, w.b, []*gcs.Replica{rep}, nil)
	return err
}

// ViewNS runs the body against the replica with no frame: it sees everything
// this client has observed — its last AwaitNS answer, its own applied entries
// — and perhaps more.
func (g *gcsClient) ViewNS(ns string, fn func(tx *gcs.Txn) error) error {
	rep, err := g.replica(ns)
	if err != nil {
		return err
	}
	g.mu.RLock()
	defer g.mu.RUnlock()
	return fn(gcs.ReplicaTxn(rep))
}

// Apply is one frame: the namespaces the entries name, each with its replica's
// version, then the entries, each naming its namespace by index. No entry, no
// frame.
func (g *gcsClient) Apply(entries []gcs.Entry) ([]bool, error) {
	if len(entries) == 0 {
		return nil, nil
	}
	var reps []*gcs.Replica
	var w wbuf
	index := make(map[string]uint32, 2)
	for _, e := range entries {
		if _, ok := index[e.NS]; !ok {
			rep, err := g.replica(e.NS)
			if err != nil {
				return nil, err
			}
			index[e.NS], reps = uint32(len(reps)), append(reps, rep)
		}
	}
	w.u32(uint32(len(reps)))
	for _, rep := range reps {
		w.str(rep.NS)
		w.u64(g.version(rep))
	}
	w.u32(uint32(len(entries)))
	for _, e := range entries {
		w.u32(index[e.NS])
		w.u32(uint32(len(e.Guards)))
		for _, gd := range e.Guards {
			w.str(gd.Key)
			w.i64(gd.Want)
		}
		w.u32(uint32(len(e.Puts)))
		for _, p := range e.Puts {
			w.str(p.Key)
			w.bytes(p.Val)
		}
		w.strs(e.Deletes)
	}
	return g.exchange(context.Background(), mtGCSApply, w.b, reps, entries)
}

// AwaitNS returns the replica's version: with no frame when it is already past
// after (the client's own Apply moved it), else after one follow frame, parked
// for at most park and the head's cap. A failed exchange reads as 0 — once park
// or ctx has run out, lest a dead head turn a waiting loop into a spinning one.
func (g *gcsClient) AwaitNS(ctx context.Context, ns string, after uint64, park time.Duration) uint64 {
	start := time.Now()
	rep, err := g.replica(ns)
	if err == nil && g.version(rep) <= after {
		err = g.follow(ctx, rep, after, park)
	}
	if err == nil {
		return g.version(rep)
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
	_, err := f.p.expect(context.Background(), mtFlPush, w.b, mtOK)
	return err
}

// DropQuery has no error slot and swallows wire failures: it is cleanup, and
// a mailbox that cannot be reached is gone or going.
func (f *flightClient) DropQuery(query string) {
	f.p.roundTrip(context.Background(), mtFlDropQuery, f.req(query).b)
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
// it fetched. The cache is valid only under the head store's put generation
// the last start frame named (it only grows); a fetch in flight across a
// change is not kept. A put leaves it alone: a per-query object is read only
// once committed and never changes then (docs/contracts/storage-objects.md).
type objClient struct {
	p   *pool
	max int64 // bound on the cached bytes (values only): objCacheMax outside tests

	mu    sync.Mutex
	gen   uint64
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
		o.gen, o.cache, o.size = gen, nil, 0
	}
}

func (o *objClient) Put(key string, value []byte) error {
	var w wbuf
	w.str(key)
	w.bytes(value)
	_, err := o.p.expect(context.Background(), mtObjPut, w.b, mtOK)
	return err
}

// GetMany answers keys from the cache and fetches the rest in one frame.
func (o *objClient) GetMany(keys []string) ([][]byte, error) {
	vals := make([][]byte, len(keys))
	var miss []string
	var at []int
	o.mu.Lock()
	for i, k := range keys {
		if v, hit := o.cache[k]; hit {
			vals[i] = v
		} else {
			miss, at = append(miss, k), append(at, i)
		}
	}
	gen := o.gen
	o.mu.Unlock()
	if len(miss) == 0 {
		return vals, nil
	}
	var w wbuf
	w.strs(miss)
	rp, err := o.p.expect(context.Background(), mtObjGet, w.b, mtBytesResp)
	if err != nil {
		return nil, err
	}
	r := rbuf{b: rp}
	for _, i := range at {
		vals[i] = r.bytesOwned("object")
	}
	if err := r.err(); err != nil {
		return nil, err
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	for j, key := range miss {
		val := vals[at[j]]
		if _, raced := o.cache[key]; raced || o.gen != gen || int64(len(val)) > o.max {
			continue
		}
		if o.cache == nil || o.size+int64(len(val)) > o.max { // full: start over, no ranking nobody measured
			o.cache, o.size = make(map[string][]byte), 0
		}
		o.cache[key] = val
		o.size += int64(len(val))
	}
	return vals, nil
}

func (o *objClient) Get(key string) ([]byte, error) {
	vals, err := o.GetMany([]string{key})
	if err != nil {
		return nil, err
	}
	return vals[0], nil
}

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
