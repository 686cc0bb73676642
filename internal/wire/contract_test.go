package wire

// The seam's pins: each backend interface has exactly the methods its
// docs/contracts/ page lists, each listener's dispatcher accepts exactly its
// half of the message set proto.go declares, and every retired frame is
// refused by a live head and a live worker's mailbox without touching state.

import (
	"bytes"
	"context"
	"errors"
	"io"
	"maps"
	"net"
	"os"
	"reflect"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"quokka/internal/cluster"
	"quokka/internal/engine"
	"quokka/internal/flight"
	"quokka/internal/gcs"
	"quokka/internal/lineage"
	"quokka/internal/metrics"
	"quokka/internal/storage"
)

// TestContractMethodSets: an interface method without a section on its
// contract page (or a section without a method) fails here, so adding a
// method forces the page — and the page's rule that every clause names the
// conformance case pinning it. A page that specifies two interfaces gives each
// its own "## `Name`" part; Mailbox's is what it adds to the Peer it embeds.
// And a remote handle on a mailbox is a Peer to the method: what a panic once
// said about the owner's methods, the method set now does.
func TestContractMethodSets(t *testing.T) {
	methods := func(typ reflect.Type, except ...string) []string {
		var names []string
		for i := 0; i < typ.NumMethod(); i++ {
			if name := typ.Method(i).Name; !slices.Contains(except, name) {
				names = append(names, name)
			}
		}
		sort.Strings(names)
		return names
	}
	peer := methods(reflect.TypeOf((*flight.Peer)(nil)).Elem())
	contracts := []struct {
		page  string
		parts map[string][]string // the "## `part`" the sections sit under ("" = the whole page) -> methods declared
	}{
		{"gcs-backend.md", map[string][]string{"": methods(reflect.TypeOf((*gcs.Backend)(nil)).Elem())}},
		{"flight-transport.md", map[string][]string{
			"Peer":    peer,
			"Mailbox": methods(reflect.TypeOf((*flight.Mailbox)(nil)).Elem(), peer...),
		}},
		{"storage-objects.md", map[string][]string{"": methods(reflect.TypeOf((*storage.Objects)(nil)).Elem())}},
	}
	heading := regexp.MustCompile("(?m)^### `([A-Za-z]+)`")
	for _, c := range contracts {
		t.Run(c.page, func(t *testing.T) {
			raw, err := os.ReadFile("../../docs/contracts/" + c.page)
			if err != nil {
				t.Fatal(err)
			}
			for part, declared := range c.parts {
				page := string(raw)
				if part != "" {
					_, after, found := strings.Cut(page, "\n## `"+part+"`")
					if !found {
						t.Fatalf("%s has no part for %s", c.page, part)
					}
					page, _, _ = strings.Cut(after, "\n## ")
				}
				var listed []string
				for _, m := range heading.FindAllStringSubmatch(page, -1) {
					listed = append(listed, m[1])
				}
				sort.Strings(listed)
				if !reflect.DeepEqual(listed, declared) {
					t.Errorf("%s %s declares %v\n%s lists %v", c.page, part, declared, c.page, listed)
				}
			}
		})
	}
	if got := methods(reflect.TypeOf(&flightClient{})); !reflect.DeepEqual(got, peer) {
		t.Errorf("a remote handle's methods are %v, flight.Peer's %v", got, peer)
	}
}

// opServer is a head without a listener: handleOp is driven directly.
func opServer(t testing.TB) *Server {
	t.Helper()
	cl, err := cluster.New(cluster.Options{Workers: 2, Cost: storage.CostModel{}})
	if err != nil {
		t.Fatal(err)
	}
	return &Server{cl: cl, store: cl.GCS.(*gcs.Store), met: cl.Metrics, queries: map[string]*engine.Runner{}, parkCap: time.Millisecond}
}

// opMailbox is worker self's mailbox behind a live loopback listener, counting
// into met and closed with the test.
func opMailbox(t testing.TB, self uint32, met *metrics.Collector) *mailbox {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	m := openMailbox(ln, self, met)
	t.Cleanup(m.stopListening)
	return m
}

// headRequests and mailboxRequests are the two op-conn request sets of
// proto.go: what the head's listener serves, what a worker's does.
var (
	headRequests = map[byte]bool{
		mtGCSApply: true, mtGCSFollow: true,
		mtObjPut: true, mtObjGet: true, mtSinkDeliver: true,
	}
	mailboxRequests = map[byte]bool{mtFlPush: true, mtFlDropQuery: true}
)

// Type bytes this protocol version once assigned and retired: the
// interactive transaction (begin, get, get response, list, list response,
// commit, abort, done), the namespace version probe that AwaitNS replaced, the
// store-wide version and its long poll, the two per-edge mailbox probes and
// their response, the owner-only mailbox methods (take, drop, spool, probe,
// with the two responses only they were answered by) that left the wire when
// workers began hosting their own mailboxes, the worker-side result spool's
// fetch, drop and manifest delivery, which left when a result began reaching
// the head once, the sync and the version-only await with its response,
// which became the one follow frame when a wake began carrying its delta,
// the commit of a transaction body's read and write sets, which became the
// apply of guarded entries when the one body a worker ran became data, and
// the uncosted object put, which left with the head's table loads.
const (
	retiredTxnBegin    = byte(0x10)
	retiredTxnDone     = byte(0x17)
	retiredGCSVerNS    = byte(0x18)
	retiredGCSVersion  = byte(0x19)
	retiredGCSWait     = byte(0x1a)
	retiredGCSSync     = byte(0x1b)
	retiredGCSCommit   = byte(0x1c)
	retiredGCSAwait    = byte(0x1d)
	retiredU64Resp     = byte(0x42)
	retiredFlContig    = byte(0x21)
	retiredFlDropBelow = byte(0x24)
	retiredIntResp     = byte(0x43)
	retiredFlTake      = byte(0x22)
	retiredFlDrop      = byte(0x23)
	retiredFlSpool     = byte(0x27)
	retiredFlProbe     = byte(0x2b)
	retiredBytesList   = byte(0x46)
	retiredIntsResp    = byte(0x47)
	retiredFlFetch     = byte(0x28)
	retiredFlDropRes   = byte(0x29)
	retiredSinkSpooled = byte(0x39)
	retiredObjPutFree  = byte(0x30)
)

// TestOpMessageSetPinned: of the 256 type bytes, each listener dispatches
// exactly its declared requests and the two sets share none; every other byte
// — the other listener's types, control-plane types, responses, retired and
// never-assigned bytes — is an unknown op, refused as ErrCorrupt. The names
// each listener counts frames under are the same sets.
func TestOpMessageSetPinned(t *testing.T) {
	for b := 0; b < 256; b++ {
		typ := byte(b)
		_, head := headOps[typ]
		_, mbox := mailboxOps[typ]
		if head != headRequests[typ] || mbox != mailboxRequests[typ] || head && mbox {
			t.Errorf("type 0x%02x: named head=%v mailbox=%v, declared head=%v mailbox=%v", b, head, mbox, headRequests[typ], mailboxRequests[typ])
		}
	}
	retired := []byte{retiredGCSVerNS, retiredGCSVersion, retiredGCSWait, retiredFlContig, retiredFlDropBelow, retiredIntResp,
		retiredFlTake, retiredFlDrop, retiredFlSpool, retiredFlProbe, retiredBytesList, retiredIntsResp,
		retiredFlFetch, retiredFlDropRes, retiredSinkSpooled, retiredGCSSync, retiredGCSCommit, retiredGCSAwait, retiredU64Resp,
		retiredObjPutFree}
	for typ := retiredTxnBegin; typ <= retiredTxnDone; typ++ {
		retired = append(retired, typ)
	}
	for _, typ := range retired {
		if headRequests[typ] || mailboxRequests[typ] {
			t.Errorf("retired type 0x%02x is a request again", typ)
		}
	}
	c, peer := net.Pipe()
	peer.Close() // nothing may be written for a refused frame
	defer c.Close()
	listeners := []struct {
		name     string
		handle   func(net.Conn, byte, []byte) error
		declared map[byte]bool
	}{
		{"head", opServer(t).handleOp, headRequests},
		{"mailbox", opMailbox(t, 0, nil).handle, mailboxRequests},
	}
	for _, l := range listeners {
		for b := 0; b < 256; b++ {
			typ := byte(b)
			// One byte is a short body for every request with a body.
			err := l.handle(c, typ, []byte{0xff})
			if !errors.Is(err, ErrCorrupt) {
				t.Errorf("%s, type 0x%02x: %v, want ErrCorrupt", l.name, typ, err)
				continue
			}
			unknown := strings.Contains(err.Error(), "unknown")
			if unknown == l.declared[typ] {
				t.Errorf("%s, type 0x%02x: dispatched=%v, declared=%v (%v)", l.name, typ, !unknown, l.declared[typ], err)
			}
		}
	}
}

// rawFrame is one frame as it goes on the wire.
type rawFrame struct {
	typ     byte
	payload []byte
}

// retiredFrames is one well-formed frame of every message this protocol
// version once accepted and no longer does.
func retiredFrames() map[string]rawFrame {
	key := func(k string) []byte { var w wbuf; w.str(k); return w.b }
	// The object put and get as their last clients spoke them: a put with its
	// free flag (both forms), a get of one key with its trailing free flag.
	put := func(free bool) []byte {
		var w wbuf
		w.str("tbl-x/0")
		w.boolean(free)
		w.bytes([]byte("overwritten"))
		return w.b
	}
	var getFree wbuf
	getFree.strs([]string{"tbl-x/0"})
	getFree.boolean(true)
	var dropChan wbuf
	dropChan.u32(0)
	dropChan.str("q-keep")
	dropChan.chanID(lineage.ChannelID{Stage: 1})
	var buffered wbuf
	buffered.u32(0)
	// The interactive transaction, as its last client spoke it: a begin naming
	// one namespace, then reads, a commit of one write, an abort — each is now
	// a first frame on a fresh conn and refused as such.
	begin := func(kind byte, nss ...string) []byte {
		var w wbuf
		w.u8(kind)
		w.strs(nss)
		return w.b
	}
	var commit wbuf
	commit.u32(1)
	commit.str(confNS + "conf-a")
	commit.boolean(false)
	commit.bytes([]byte("overwritten"))
	edge := func(ints ...int64) []byte {
		var w wbuf
		w.u32(0)
		w.str("q-keep")
		w.chanID(lineage.ChannelID{Stage: 1})
		for _, v := range ints {
			w.i64(v)
		}
		return w.b
	}
	var spool wbuf
	spool.u32(0)
	spool.str("q-keep")
	spool.task(lineage.TaskName{Stage: 1})
	spool.i64(9) // an epoch that would win
	spool.bytes([]byte("overwritten"))
	probe := wbuf{b: edge()}
	probe.u32(1)
	for range 3 {
		probe.i64(0)
	}
	var result wbuf
	result.u32(0)
	result.str("q-keep")
	result.task(lineage.TaskName{Stage: 1})
	var manifest wbuf
	manifest.str("q-keep")
	manifest.task(lineage.TaskName{Stage: 1})
	for _, v := range []int64{0, 6, 9} { // worker, size, an epoch that would win
		manifest.i64(v)
	}
	// The sync and the await as their last client spoke them: a replica at
	// version 0 asking for the whole namespace; a wait past version 0 that
	// parks for nothing. The await's answer, as a request, is a bare u64.
	var sync wbuf
	sync.str(confNS)
	sync.u64(0)
	await := wbuf{b: sync.b}
	await.u32(0)
	// The commit as its last client spoke it: one namespace at the replica
	// version it read nothing at, a write set of one put — which nothing could
	// have found stale.
	var gcsCommit wbuf
	gcsCommit.u32(1)
	gcsCommit.str(confNS)
	gcsCommit.u64(0)
	gcsCommit.strs(nil)
	gcsCommit.strs(nil)
	gcsCommit.kvs(map[string][]byte{confNS + "conf-a": []byte("overwritten")})
	return map[string]rawFrame{
		"obj put, costed":  {retiredObjPutFree, put(false)},
		"obj put, free":    {retiredObjPutFree, put(true)},
		"obj get, free":    {mtObjGet, getFree.b},
		"obj has":          {0x32, key("tbl-x/0")},
		"obj delete":       {0x33, key("tbl-x/0")},
		"obj list":         {0x34, key("tbl-x/")},
		"obj size":         {0x35, key("tbl-x/0")},
		"flight drop chan": {0x25, dropChan.b},
		"flight buffered":  {0x2a, buffered.b},
		"txn begin update": {retiredTxnBegin, begin(3)},
		"txn begin view":   {retiredTxnBegin, begin(4)},
		"txn begin ns":     {retiredTxnBegin, begin(0, confNS)},
		"txn get":          {0x11, key(confNS + "conf-a")},
		"txn list":         {0x13, key(confNS)},
		"txn commit":       {0x15, commit.b},
		"txn abort":        {0x16, key("changed my mind")},
		"gcs version ns":   {retiredGCSVerNS, key(confNS)},
		"gcs version":      {retiredGCSVersion, nil},
		"gcs wait change":  {retiredGCSWait, make([]byte, 16)}, // u64 since, i64 timeout: returns at once
		"flight contig":    {retiredFlContig, edge(0, 0, 0)},
		"flight dropbelow": {retiredFlDropBelow, edge(0, 0, 1<<40)},
		// The owner-only methods, as their last clients spoke them: input,
		// upChannel, from, count; a spool of one task; a probe of one edge.
		"flight take":  {retiredFlTake, edge(0, 0, 0, 1)},
		"flight drop":  {retiredFlDrop, edge(0, 0, 0, 1)},
		"flight spool": {retiredFlSpool, spool.b},
		"flight probe": {retiredFlProbe, probe.b},
		// The result spool, as its last clients spoke it: the head's fetch and
		// drop of one spooled result, a worker's manifest of one.
		"flight fetch":       {retiredFlFetch, result.b},
		"flight drop result": {retiredFlDropRes, result.b},
		"sink spooled":       {retiredSinkSpooled, manifest.b},
		"gcs sync":           {retiredGCSSync, sync.b},
		"gcs await":          {retiredGCSAwait, await.b},
		"gcs commit":         {retiredGCSCommit, gcsCommit.b},
		"u64 response":       {retiredU64Resp, make([]byte, 8)},
	}
}

// TestRetiredFramesRefused sends each retired frame to a live head and to a
// live worker's mailbox listener: each closes the conn without answering (the
// dispatcher's error is ErrCorrupt), and the head's object store and GCS and
// the worker's mailbox are as they were.
func TestRetiredFramesRefused(t *testing.T) {
	cl, err := cluster.New(cluster.Options{Workers: 2, Cost: storage.CostModel{}})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(cl, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	mbox := opMailbox(t, 0, nil)

	objs := cl.HeadObjs
	objs.PutFree("tbl-x/0", []byte("split0"))
	store := cl.GCS.(*gcs.Store)
	store.UpdateNS(confNS, func(tx *gcs.Txn) error { tx.Put(confNS+"conf-a", []byte("1")); return nil })
	mbox.fl.Push(flight.Partition{Query: "q-keep", Dest: lineage.ChannelID{Stage: 1}, Data: []byte("piece")})
	mbox.fl.SpoolResult("q-keep", lineage.TaskName{Stage: 1}, []byte("result"), 1)
	// image is every key and value of the whole store: a retired frame must
	// write nothing to any namespace, not only confNS's.
	image := func() map[string]string {
		m := map[string]string{}
		store.View(func(tx *gcs.Txn) error {
			for _, k := range tx.List("") {
				v, _ := tx.Get(k)
				m[k] = string(v)
			}
			return nil
		})
		return m
	}
	version, keys, buffered, gen := store.AwaitNS(context.Background(), confNS, 0, 0), image(), mbox.fl.BufferedBytes(), objs.PutGen()

	listeners := []struct {
		name, addr string
		handle     func(net.Conn, byte, []byte) error
	}{
		{"head", srv.Addr(), srv.handleOp},
		{"mailbox", mbox.ln.Addr().String(), mbox.handle},
	}
	for name, f := range retiredFrames() {
		for _, l := range listeners {
			c, err := net.DialTimeout("tcp", l.addr, 5*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			c.SetDeadline(time.Now().Add(10 * time.Second))
			if err := writeFrame(c, f.typ, f.payload); err != nil {
				t.Fatalf("%s to the %s: write: %v", name, l.name, err)
			}
			if rt, _, err := readFrame(c); err != io.EOF {
				t.Errorf("%s: the %s answered 0x%02x, %v; want the conn closed with no answer", name, l.name, rt, err)
			}
			c.Close()
			if err := l.handle(c, f.typ, f.payload); !errors.Is(err, ErrCorrupt) {
				t.Errorf("%s: the %s's dispatcher returned %v, want ErrCorrupt", name, l.name, err)
			}
		}
	}

	if got := objs.PutGen(); got != gen {
		t.Errorf("object store put generation moved %d -> %d", gen, got)
	}
	if v, _ := objs.GetFree("tbl-x/0"); string(v) != "split0" {
		t.Errorf("object = %q, want split0", v)
	}
	if store.AwaitNS(context.Background(), confNS, 0, 0) != version {
		t.Errorf("GCS version moved %d -> %d", version, store.AwaitNS(context.Background(), confNS, 0, 0))
	}
	if got := image(); !maps.Equal(got, keys) {
		t.Errorf("GCS keyspace changed: %v -> %v", keys, got)
	}
	if mbox.fl.BufferedBytes() != buffered {
		t.Errorf("mailbox holds %d bytes, had %d", mbox.fl.BufferedBytes(), buffered)
	}
	if v, err := mbox.fl.FetchResult("q-keep", lineage.TaskName{Stage: 1}); string(v) != "result" {
		t.Errorf("spooled result = %q, %v; want it untouched", v, err)
	}
}

// TestTxnPeerCrashAborts: a peer that dies inside a transaction leaves
// nothing behind. A transaction is one frame, so "inside" is mid-frame: the
// conn drops with the apply frame cut at every offset. Whatever arrived, no
// write is applied, the version does not move, and the namespace's shard
// lock was never taken — a local transaction goes through at once.
func TestTxnPeerCrashAborts(t *testing.T) {
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
	key := confNS + "conf-a"
	store.UpdateNS(confNS, func(tx *gcs.Txn) error { tx.Put(key, []byte("1")); return nil })
	version := store.AwaitNS(context.Background(), confNS, 0, 0)

	// The frame a healthy client would send: overwrite conf-a, guarded on the
	// value it holds.
	var w wbuf
	w.u32(1)
	w.str(confNS)
	w.u64(version)
	w.u32(1) // one entry, of namespace 0
	w.u32(0)
	w.u32(1)
	w.str(key)
	w.i64(1)
	w.u32(1)
	w.str(key)
	w.bytes([]byte("from the dead"))
	w.strs(nil)
	var frame bytes.Buffer
	if err := writeFrame(&frame, mtGCSApply, w.b); err != nil {
		t.Fatal(err)
	}
	full := frame.Bytes()

	for cut := 1; cut < len(full); cut++ {
		c, err := net.DialTimeout("tcp", srv.Addr(), 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		c.SetDeadline(time.Now().Add(10 * time.Second))
		if _, err := c.Write(full[:cut]); err != nil {
			t.Fatal(err)
		}
		c.(*net.TCPConn).CloseWrite() // the crash: the head reads EOF mid-frame
		if rt, _, err := readFrame(c); err != io.EOF {
			t.Fatalf("cut %d: head answered 0x%02x, %v; want the conn closed", cut, rt, err)
		}
		c.Close()
	}

	done := make(chan error, 1)
	go func() {
		done <- store.UpdateNS(confNS, func(tx *gcs.Txn) error {
			if v, _ := tx.Get(key); string(v) != "1" {
				t.Errorf("a cut frame wrote %q", v)
			}
			return gcs.ErrAborted
		})
	}()
	select {
	case err := <-done:
		if err != gcs.ErrAborted {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("shard lock held after a peer's conn dropped")
	}
	if store.AwaitNS(context.Background(), confNS, 0, 0) != version {
		t.Errorf("cut frames moved the version %d -> %d", version, store.AwaitNS(context.Background(), confNS, 0, 0))
	}

	// The whole frame, for contrast, commits.
	c, err := net.DialTimeout("tcp", srv.Addr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := c.Write(full); err != nil {
		t.Fatal(err)
	}
	rt, rp, err := readFrame(c)
	if err != nil || rt != mtGCSResult || rp[0] != 1 {
		t.Fatalf("whole frame: 0x%02x %v, %v; want its entry applied", rt, rp, err)
	}
	if store.AwaitNS(context.Background(), confNS, 0, 0) != version+1 {
		t.Errorf("version %d after the whole frame, want %d", store.AwaitNS(context.Background(), confNS, 0, 0), version+1)
	}
}

// TestObjPutChecksItsQuery: the head stores a worker's put only under a
// running query's object prefix. A key under no query's prefix is a corrupt
// frame — conn closed unanswered, store untouched — and a put for a query the
// head does not run (finished, its objects swept) is answered and dropped.
// None of it moves the put generation workers cache tables under.
func TestObjPutChecksItsQuery(t *testing.T) {
	srv := opServer(t)
	srv.cl.HeadObjs.PutFree("tbl-x/0", []byte("split0"))
	srv.queries["q-live"] = nil
	gen := srv.cl.HeadObjs.PutGen()
	put := func(key string) (answer byte, err error) {
		var w wbuf
		w.str(key)
		w.bytes([]byte("obj"))
		conn, cli := net.Pipe()
		done := make(chan error, 1)
		go func() {
			done <- srv.handleOp(conn, mtObjPut, w.b)
			conn.Close()
		}()
		rt, _, rerr := readFrame(cli)
		cli.Close()
		if err = <-done; rerr == nil {
			answer = rt
		}
		return answer, err
	}
	for _, key := range []string{"tbl-x/0", "ft/", "ft/q-live", "ft//spool/1.0.0", "spool/q-live/1.0.0"} {
		if rt, err := put(key); !errors.Is(err, ErrCorrupt) || rt != 0 {
			t.Errorf("put of %q: answered 0x%02x, %v; want refused", key, rt, err)
		}
	}
	if v, _ := srv.cl.HeadObjs.GetFree("tbl-x/0"); string(v) != "split0" {
		t.Errorf("a refused put overwrote the table object: %q", v)
	}
	done, live := engine.ObjectPrefix("q-done")+"spool/1.0.0", engine.ObjectPrefix("q-live")+"spool/1.0.0"
	if rt, err := put(done); err != nil || rt != mtOK {
		t.Errorf("put for a finished query: 0x%02x, %v; want mtOK", rt, err)
	}
	if _, err := srv.cl.HeadObjs.Get(done); err == nil {
		t.Error("a put for a finished query was stored")
	}
	if rt, err := put(live); err != nil || rt != mtOK {
		t.Errorf("put for a running query: 0x%02x, %v; want mtOK", rt, err)
	}
	if v, err := srv.cl.HeadObjs.Get(live); err != nil || string(v) != "obj" {
		t.Errorf("a running query's object: %q, %v", v, err)
	}
	if srv.cl.HeadObjs.PutGen() != gen {
		t.Errorf("worker puts moved the put generation %d -> %d", gen, srv.cl.HeadObjs.PutGen())
	}
}
