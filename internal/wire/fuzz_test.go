package wire

import (
	"bytes"
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"quokka/internal/engine"
	"quokka/internal/flight"
	"quokka/internal/gcs"
	"quokka/internal/lineage"
	"quokka/internal/storage"
)

// pushBody is the representative message body of
// TestMessageBodyTruncationSweep: the push op's strings, ints, bools, task
// and channel names and byte blob.
func pushBody() []byte {
	var w wbuf
	w.u32(1)
	w.str("q-0007")
	w.task(lineage.TaskName{Stage: 1, Channel: 3, Seq: 42})
	w.chanID(lineage.ChannelID{Stage: 2, Channel: 0})
	w.i64(1)
	w.i64(5)
	w.boolean(true)
	w.bytes([]byte("payload-bytes"))
	return w.b
}

// TestPushFrameCarriesNoBatch: a batch offered to a remote handle stays in
// its process. The mtFlPush body a client sends for a Local push carrying one
// is pushBody — what FuzzMailboxOp's corpus is cut from — byte for byte.
func TestPushFrameCarriesNoBatch(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	body := make(chan []byte, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		typ, payload, err := readFrame(c)
		if err == nil && typ == mtFlPush {
			body <- payload
			writeFrame(c, mtOK, nil)
		}
		close(body)
	}()
	peer := newPeerPool(context.Background())
	peer.setAddr(ln.Addr().String())
	defer peer.close()
	err = (&flightClient{p: peer, worker: 1}).Push(flight.Partition{
		Query: "q-0007", From: lineage.TaskName{Stage: 1, Channel: 3, Seq: 42}, Dest: lineage.ChannelID{Stage: 2},
		Input: 1, Epoch: 5, Local: true, Data: []byte("payload-bytes"), Batch: oneRowBatch(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := <-body; !bytes.Equal(got, pushBody()) {
		t.Fatalf("push body %x, want %x", got, pushBody())
	}
}

// opResponses are the frames a listener may answer an op with.
var opResponses = map[byte]bool{
	mtOK: true, mtErrResp: true, mtBoolResp: true, mtBytesResp: true,
	mtGCSResult: true,
}

// fuzzDispatch drives one dispatcher with one (type, payload) frame over a
// net.Pipe and holds it to the refused-frame rule: whatever arrives, no panic,
// and either one well-formed response frame of a declared request type, or a
// refusal with ErrCorrupt and no answer. It returns the answer's type, 0 for a
// refused frame.
func fuzzDispatch(t *testing.T, handle func(net.Conn, byte, []byte) error, declared map[byte]bool, typ byte, payload []byte) byte {
	srv, cli := net.Pipe()
	done := make(chan error, 1)
	go func() {
		err := handle(srv, typ, payload)
		srv.Close()
		done <- err
	}()
	cli.SetDeadline(time.Now().Add(20 * time.Second))
	rt, rp, rerr := readFrame(cli)
	err := <-done
	cli.Close()

	if err != nil {
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("type 0x%02x: refused with %v, want ErrCorrupt", typ, err)
		}
		if rerr == nil {
			t.Fatalf("type 0x%02x: answered 0x%02x and then refused", typ, rt)
		}
		return 0
	}
	if rerr != nil || !opResponses[rt] {
		t.Fatalf("type 0x%02x: accepted, but the answer was 0x%02x, %v", typ, rt, rerr)
	}
	if rt == mtErrResp && errors.Is(decodeErr(rp), ErrCorrupt) {
		t.Fatalf("type 0x%02x: malformed error response", typ)
	}
	if !declared[typ] {
		t.Fatalf("type 0x%02x accepted: retired, never declared or the other listener's", typ)
	}
	return rt
}

// FuzzHandleOp feeds the head's op dispatcher arbitrary (type, payload)
// frames. Every type outside its declared request set (the retired ones and
// every flight type included: the head hosts no mailbox), an apply or follow
// frame naming anything but whole query namespaces, an apply of no entry and
// an object put of a key under no query's object prefix are refused whatever
// their payload, and a refused put stores nothing; an accepted put stores its
// object only for the query the head runs (q1) and drops any other's; an apply
// with a key outside its entry's namespace is answered with an error and
// writes nothing. The checked-in corpus (testdata/fuzz/FuzzHandleOp) is the
// truncation sweep's body at several cuts, one frame per retired type — the
// gcs-commit* and txn-update* seeds are the retired commit frame's, obj-put-free
// and retired-obj-get-free the retired uncosted object forms — and the apply,
// follow (gcs-sync*: a fetch that parks for nothing; gcs-await*: a wait),
// object put and (retired) probe frames well-formed and with hostile counts. A
// follow frame parks for the server's cap at most (opServer: 1 ms), whatever
// it asks for.
func FuzzHandleOp(f *testing.F) {
	f.Add(mtFlPush, pushBody())
	f.Fuzz(func(t *testing.T, typ byte, payload []byte) {
		srv := opServer(t)
		srv.queries["q1"] = nil
		rt := fuzzDispatch(t, srv.handleOp, headRequests, typ, payload)
		if rt == 0 {
			if n := srv.cl.HeadObjs.DeletePrefix(""); n != 0 {
				t.Fatalf("a refused 0x%02x stored %d objects", typ, n)
			}
			return
		}
		switch {
		case typ == mtGCSFollow:
			r := rbuf{b: payload}
			if ns := r.str("ns"); !gcs.IsNamespace(ns) {
				t.Fatalf("0x%02x of %q accepted: not one query's namespace", typ, ns)
			}
		case typ == mtGCSApply:
			r := rbuf{b: payload}
			for n := r.u32("namespace count"); n > 0; n-- {
				if ns := r.str("ns"); !gcs.IsNamespace(ns) {
					t.Fatalf("apply over %q accepted: not one query's namespace", ns)
				}
				r.u64("version")
			}
			if r.u32("entry count") == 0 {
				t.Fatal("apply of no entry accepted")
			}
			if rt == mtErrResp {
				srv.store.View(func(tx *gcs.Txn) error {
					if keys := tx.List(""); len(keys) != 0 {
						t.Fatalf("an apply answered with an error wrote %q", keys)
					}
					return nil
				})
			}
		case typ == mtObjPut:
			r := rbuf{b: payload}
			key, val := r.str("key"), r.bytesOwned("val")
			qid, ok := engine.ObjectQuery(key)
			if !ok {
				t.Fatalf("put of %q accepted: under no query's object prefix", key)
			}
			if v, err := srv.cl.HeadObjs.Get(key); (qid == "q1") != (err == nil) || err == nil && !bytes.Equal(v, val) {
				t.Fatalf("put of %q for query %s accepted: the store holds %q, %v", key, qid, v, err)
			}
		}
	})
}

// FuzzMailboxOp feeds a worker's mailbox dispatcher — the second listener, so
// the second attack surface — arbitrary (type, payload) frames. Every type but
// the two remote flight requests, a request naming another worker's mailbox,
// and a body cut or padded anywhere are refused whatever the rest says, and a
// refused frame leaves the mailbox as it was — a payload parked by SpoolResult
// included, which the retired fetch and drop-result frames once reached. The
// checked-in corpus (testdata/fuzz/FuzzMailboxOp) is the fl_* half of
// FuzzHandleOp's: the push body at several cuts, a foreign worker id, and the
// retired frames with their hostile counts.
func FuzzMailboxOp(f *testing.F) {
	f.Add(mtFlPush, pushBody())
	m := &mailbox{self: 1, fl: flight.NewServer(storage.CostModel{}, nil)}
	keep := lineage.TaskName{Stage: 9}
	f.Fuzz(func(t *testing.T, typ byte, payload []byte) {
		m.fl.SpoolResult("q-keep", keep, []byte("kept"), 0)
		before := m.fl.BufferedBytes()
		if fuzzDispatch(t, m.handle, mailboxRequests, typ, payload) != 0 {
			if wid := (&rbuf{b: payload}).u32("worker"); wid != m.self {
				t.Fatalf("0x%02x for worker %d accepted by worker %d", typ, wid, m.self)
			}
			m.fl.DropQuery((&rbuf{b: payload[4:]}).str("query")) // an accepted push: swept, the next input starts clean
			return
		}
		if v, err := m.fl.FetchResult("q-keep", keep); string(v) != "kept" || m.fl.BufferedBytes() != before {
			t.Fatalf("a refused 0x%02x changed the mailbox: result %q, %v; %d -> %d bytes", typ, v, err, before, m.fl.BufferedBytes())
		}
	})
}
