package wire

import (
	"errors"
	"net"
	"testing"
	"time"

	"quokka/internal/gcs"
	"quokka/internal/lineage"
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

// opResponses are the frames a head may answer an op with.
var opResponses = map[byte]bool{
	mtOK: true, mtErrResp: true, mtU64Resp: true, mtBoolResp: true,
	mtBytesResp: true, mtBytesListResp: true, mtIntsResp: true, mtGCSResult: true,
}

// FuzzHandleOp feeds the op dispatcher arbitrary (type, payload) frames over
// a net.Pipe. Whatever arrives, the head never panics and either answers
// with one well-formed response frame or refuses with ErrCorrupt without
// answering; every type outside the declared request set (the retired ones
// included), a transaction or await frame naming anything but whole query
// namespaces and the costed object put are refused whatever their payload. The
// checked-in corpus (testdata/fuzz/FuzzHandleOp) is the truncation sweep's
// body at several cuts, one frame per retired type, and the transaction, await
// and probe frames well-formed and with hostile counts. An await frame parks
// for the server's cap at most (opServer: 1 ms), whatever it asks for.
func FuzzHandleOp(f *testing.F) {
	f.Add(mtFlPush, pushBody())
	f.Fuzz(func(t *testing.T, typ byte, payload []byte) {
		s := opServer(t)
		srv, cli := net.Pipe()
		done := make(chan error, 1)
		go func() {
			err := s.handleOp(srv, typ, payload)
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
			return
		}
		if rerr != nil || !opResponses[rt] {
			t.Fatalf("type 0x%02x: accepted, but the answer was 0x%02x, %v", typ, rt, rerr)
		}
		if rt == mtErrResp && errors.Is(decodeErr(rp), ErrCorrupt) {
			t.Fatalf("type 0x%02x: malformed error response", typ)
		}
		switch {
		case !opRequests[typ]:
			t.Fatalf("type 0x%02x accepted: retired or never declared", typ)
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
