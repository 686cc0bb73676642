package wire

// The seam's pins: each backend interface has exactly the methods its
// docs/contracts/ page lists, the op dispatcher accepts exactly the message
// set proto.go declares, and every retired frame is refused by a live head
// without touching its state.

import (
	"errors"
	"io"
	"net"
	"os"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"quokka/internal/cluster"
	"quokka/internal/engine"
	"quokka/internal/flight"
	"quokka/internal/gcs"
	"quokka/internal/lineage"
	"quokka/internal/storage"
)

// TestContractMethodSets: an interface method without a section on its
// contract page (or a section without a method) fails here, so adding a
// method forces the page — and the page's rule that every clause names the
// conformance case pinning it.
func TestContractMethodSets(t *testing.T) {
	contracts := []struct {
		page  string
		iface reflect.Type
	}{
		{"gcs-backend.md", reflect.TypeOf((*gcs.Backend)(nil)).Elem()},
		{"flight-transport.md", reflect.TypeOf((*flight.Transport)(nil)).Elem()},
		{"storage-objects.md", reflect.TypeOf((*storage.Objects)(nil)).Elem()},
	}
	heading := regexp.MustCompile("(?m)^### `([A-Za-z]+)`")
	for _, c := range contracts {
		t.Run(c.page, func(t *testing.T) {
			page, err := os.ReadFile("../../docs/contracts/" + c.page)
			if err != nil {
				t.Fatal(err)
			}
			var listed []string
			for _, m := range heading.FindAllStringSubmatch(string(page), -1) {
				listed = append(listed, m[1])
			}
			var declared []string
			for i := 0; i < c.iface.NumMethod(); i++ {
				declared = append(declared, c.iface.Method(i).Name)
			}
			sort.Strings(listed)
			sort.Strings(declared)
			if !reflect.DeepEqual(listed, declared) {
				t.Errorf("%s declares %v\n%s lists %v", c.iface, declared, c.page, listed)
			}
		})
	}
}

// opServer is a head without a listener: handleOp is driven directly.
func opServer(t testing.TB) *Server {
	t.Helper()
	cl, err := cluster.New(cluster.Options{Workers: 2, Cost: storage.CostModel{}})
	if err != nil {
		t.Fatal(err)
	}
	return &Server{cl: cl, store: cl.GCS.(*gcs.Store), met: cl.Metrics, queries: map[string]*engine.Runner{}}
}

// opRequests is the op-conn request set of proto.go.
var opRequests = map[byte]bool{
	mtTxnBegin: true, mtGCSVersionNS: true, mtGCSVersion: true, mtGCSWaitChange: true,
	mtFlPush: true, mtFlContig: true, mtFlTake: true, mtFlDrop: true, mtFlDropBelow: true,
	mtFlDropQuery: true, mtFlSpool: true, mtFlFetch: true, mtFlDropResult: true,
	mtObjPut: true, mtObjGet: true, mtSinkDeliver: true, mtSinkSpooled: true,
}

// TestOpMessageSetPinned: of the 256 type bytes, handleOp dispatches exactly
// the declared requests; every other byte — control-plane types, responses,
// mid-transaction frames, retired and never-assigned bytes — is an unknown
// op, refused as ErrCorrupt.
func TestOpMessageSetPinned(t *testing.T) {
	s := opServer(t)
	c, peer := net.Pipe()
	peer.Close() // nothing may be written for a refused frame
	defer c.Close()
	for b := 0; b < 256; b++ {
		typ := byte(b)
		if typ == mtGCSVersion {
			continue // takes no body: it would answer into the closed pipe
		}
		// One byte is a short body for every request with a body.
		err := s.handleOp(c, typ, []byte{0xff})
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("type 0x%02x: %v, want ErrCorrupt", typ, err)
			continue
		}
		unknown := strings.Contains(err.Error(), "unknown op")
		if unknown == opRequests[typ] {
			t.Errorf("type 0x%02x: dispatched=%v, declared=%v (%v)", typ, !unknown, opRequests[typ], err)
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
	var put wbuf
	put.str("tbl-x/0")
	put.boolean(false) // the costed form
	put.bytes([]byte("overwritten"))
	var dropChan wbuf
	dropChan.u32(0)
	dropChan.str("q-keep")
	dropChan.chanID(lineage.ChannelID{Stage: 1})
	var buffered wbuf
	buffered.u32(0)
	begin := func(kind byte) []byte { var w wbuf; w.u8(kind); w.u32(0); return w.b }
	return map[string]rawFrame{
		"obj put, costed":  {0x30, put.b},
		"obj has":          {0x32, key("tbl-x/0")},
		"obj delete":       {0x33, key("tbl-x/0")},
		"obj list":         {0x34, key("tbl-x/")},
		"obj size":         {0x35, key("tbl-x/0")},
		"flight drop chan": {0x25, dropChan.b},
		"flight buffered":  {0x2a, buffered.b},
		"txn begin update": {mtTxnBegin, begin(3)},
		"txn begin view":   {mtTxnBegin, begin(4)},
	}
}

// TestRetiredFramesRefused sends each retired frame to a live head: the
// head closes the conn without answering (the dispatcher's error is
// ErrCorrupt), and its object store, GCS and mailboxes are as they were.
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

	objs := cl.ObjStore.(*storage.ObjectStore)
	objs.PutFree("tbl-x/0", []byte("split0"))
	store := cl.GCS.(*gcs.Store)
	store.UpdateNS("", func(tx *gcs.Txn) error { tx.Put("conf-a", []byte("1")); return nil })
	mailbox := cl.Workers[0].Flight.(*flight.Server)
	mailbox.Push(flight.Partition{Query: "q-keep", Dest: lineage.ChannelID{Stage: 1}, Data: []byte("piece")})
	version, buffered := store.Version(), mailbox.BufferedBytes()

	for name, f := range retiredFrames() {
		c, err := net.DialTimeout("tcp", srv.Addr(), 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		c.SetDeadline(time.Now().Add(10 * time.Second))
		if err := writeFrame(c, f.typ, f.payload); err != nil {
			t.Fatalf("%s: write: %v", name, err)
		}
		if rt, _, err := readFrame(c); err != io.EOF {
			t.Errorf("%s: head answered 0x%02x, %v; want the conn closed with no answer", name, rt, err)
		}
		c.Close()
		if err := srv.handleOp(c, f.typ, f.payload); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: dispatcher returned %v, want ErrCorrupt", name, err)
		}
	}

	if got := objs.List(""); !reflect.DeepEqual(got, []string{"tbl-x/0"}) {
		t.Errorf("object store keys = %v", got)
	}
	if v, _ := objs.GetFree("tbl-x/0"); string(v) != "split0" {
		t.Errorf("object = %q, want split0", v)
	}
	if store.Version() != version {
		t.Errorf("GCS version moved %d -> %d", version, store.Version())
	}
	if mailbox.BufferedBytes() != buffered {
		t.Errorf("mailbox holds %d bytes, had %d", mailbox.BufferedBytes(), buffered)
	}
}

// TestTxnPeerCrashAborts: a peer that dies inside a transaction — the conn
// drops between Begin and Commit — leaves nothing behind: no write, no
// version bump, and the namespace's shard lock is free for the next caller
// at once (not after txnDeadline).
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
	version := store.Version()

	c, err := net.DialTimeout("tcp", srv.Addr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	c.SetDeadline(time.Now().Add(10 * time.Second))
	var begin, get wbuf
	begin.u8(txnUpdateNS)
	begin.u32(1)
	begin.str("")
	get.str("conf-a")
	if err := writeFrame(c, mtTxnBegin, begin.b); err != nil {
		t.Fatal(err)
	}
	if err := writeFrame(c, mtTxnGet, get.b); err != nil {
		t.Fatal(err)
	}
	// The read is answered from inside the transaction: the lock is held.
	if rt, _, err := readFrame(c); err != nil || rt != mtTxnGetResp {
		t.Fatalf("txn get: 0x%02x, %v", rt, err)
	}
	c.Close() // the crash

	done := make(chan error, 1)
	go func() {
		done <- store.UpdateNS("", func(tx *gcs.Txn) error {
			if store.Version() != version {
				t.Errorf("crashed transaction moved the version %d -> %d", version, store.Version())
			}
			return nil
		})
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("shard lock still held after the peer's conn dropped")
	}
}
