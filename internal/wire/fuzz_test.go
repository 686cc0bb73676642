package wire

import (
	"bytes"
	"context"
	"errors"
	"net"
	"testing"
	"time"

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
	mtOK: true, mtErrResp: true, mtU64Resp: true, mtBoolResp: true,
	mtBytesResp: true, mtGCSResult: true,
}

// fuzzDispatch drives one dispatcher with one (type, payload) frame over a
// net.Pipe and holds it to the refused-frame rule: whatever arrives, no panic,
// and either one well-formed response frame of a declared request type, or a
// refusal with ErrCorrupt and no answer. It reports whether the frame was
// accepted.
func fuzzDispatch(t *testing.T, handle func(net.Conn, byte, []byte) error, declared map[byte]bool, typ byte, payload []byte) bool {
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
		return false
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
	return true
}

// FuzzHandleOp feeds the head's op dispatcher arbitrary (type, payload)
// frames. Every type outside its declared request set (the retired ones and
// every flight type included: the head hosts no mailbox), a transaction or
// await frame naming anything but whole query namespaces and the costed object
// put are refused whatever their payload. The
// checked-in corpus (testdata/fuzz/FuzzHandleOp) is the truncation sweep's
// body at several cuts, one frame per retired type, and the transaction, await
// and (retired) probe frames well-formed and with hostile counts. An await
// frame parks for the server's cap at most (opServer: 1 ms), whatever it asks for.
func FuzzHandleOp(f *testing.F) {
	f.Add(mtFlPush, pushBody())
	f.Fuzz(func(t *testing.T, typ byte, payload []byte) {
		if !fuzzDispatch(t, opServer(t).handleOp, headRequests, typ, payload) {
			return
		}
		switch {
		case typ == mtGCSSync || typ == mtGCSAwaitNS:
			r := rbuf{b: payload}
			if ns := r.str("ns"); !gcs.IsNamespace(ns) {
				t.Fatalf("0x%02x of %q accepted: not one query's namespace", typ, ns)
			}
		case typ == mtGCSCommit:
			r := rbuf{b: payload}
			n := r.u32("namespace count")
			if n == 0 {
				t.Fatal("commit over no namespace accepted")
			}
			for ; n > 0; n-- {
				if ns := r.str("ns"); !gcs.IsNamespace(ns) {
					t.Fatalf("commit over %q accepted: not one query's namespace", ns)
				}
				r.u64("version")
				for _, what := range []string{"keys", "prefixes"} {
					for k := r.u32(what); k > 0; k-- {
						r.str(what)
					}
				}
			}
		case typ == mtObjPut:
			r := rbuf{b: payload}
			r.str("key")
			if !r.boolean("free") {
				t.Fatal("costed object put accepted")
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
		if fuzzDispatch(t, m.handle, mailboxRequests, typ, payload) {
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
