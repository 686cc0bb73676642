package wire

import (
	"errors"
	"fmt"

	"quokka/internal/flight"
)

// Message types. The control conn (one per worker, full-duplex) carries
// the 0x0x range; op conns (pooled, strict request/response) carry the
// rest: to the head's listener (any conn whose first frame is not mtHello)
// the GCS, object and sink requests, to a worker's mailbox listener the
// flight requests.
//
// This const block is the whole message set: one request type per method
// of the three backend contracts (docs/contracts/) that has a remote caller,
// plus the control plane, the result sink and the shared responses. A type
// byte not listed here — including the retired 0x10–0x1d, 0x21–0x25,
// 0x27–0x2b, 0x30, 0x32–0x35, 0x39, 0x42, 0x43, 0x46 and 0x47 — is refused as
// ErrCorrupt and the conn closed; retired bytes are not reused.
const (
	// Control plane, worker <-> head.
	mtHello      = byte(0x01) // C->S: u32 worker id, str address of the worker's mailbox listener
	mtHelloResp  = byte(0x02) // S->C: u32 cluster size, u32 self
	mtStartQuery = byte(0x03) // S->C: str qid, bytes gob WorkerQuerySpec, u64 object put generation, u32 n, n*str mailbox address by worker id ("" = no live process)
	mtStartAck   = byte(0x04) // C->S: str qid, bool ok, str errmsg
	mtStopQuery  = byte(0x05) // S->C: str qid
	mtStopped    = byte(0x06) // C->S: str qid, bytes gob []trace.Span, u32 n, n*(str counter, i64 delta since the worker's last report, never negative)
	mtFail       = byte(0x07) // C->S: str qid, str errmsg

	// GCS. A view runs against the worker's replica (gcs.Replica) and sends
	// nothing, an Apply is one frame of guarded entries, a wait one follow frame
	// answered with what it woke for. A namespace is exactly one "q/<qid>/"
	// prefix; an entry is u32 namespace index, u32 g, g*(str key, i64 want),
	// u32 p, p*(str key, bytes val), u32 d, d*str key deleted; a kvs is u32 n,
	// n*(str key, bool deleted, bytes val); a delta is u64 version, bool full, kvs.
	mtGCSApply  = byte(0x1f) // C->S: u32 n, n*(str ns, u64 replica version), u32 e, e*entry -> mtGCSResult (e applied bits, n deltas)
	mtGCSFollow = byte(0x1e) // C->S: str ns, u64 replica version, u64 after, u32 max microseconds -> mtGCSResult (one delta), once the version passes after (the delta since the replica version) or max, capped by the head, elapses (an empty one)

	// Flight, served by the worker that hosts the mailbox: what a peer (push)
	// and the head (drop query) ask of it. Every request names the mailbox's
	// worker first (u32), which must be the serving worker itself. Probe, take
	// and drop are the owner's function calls and have no frame.
	mtFlPush      = byte(0x20) // + str query, task from, chan dest, i64 input, i64 epoch, bool local, bytes data -> mtOK
	mtFlDropQuery = byte(0x26) // + str query -> mtOK

	// Object store, billed: a put names a per-query object (engine.ObjectQuery).
	// The uncosted forms (0x30, a get's trailing free byte) are retired.
	mtObjGet = byte(0x31) // u32 n, n*str key -> mtBytesResp (n*bytes, in key order)
	mtObjPut = byte(0x36) // str key, bytes val -> mtOK, or mtErrResp when the store failed it

	// Result sink: worker task managers relaying output-stage deliveries
	// into the head-side collector of the named query.
	mtSinkDeliver = byte(0x38) // str qid, task, i64 epoch, bytes data -> mtBoolResp

	// Responses.
	mtOK        = byte(0x40) // empty
	mtErrResp   = byte(0x41) // u8 code, str msg
	mtBoolResp  = byte(0x44) // bool
	mtBytesResp = byte(0x45) // byte strings, as many as the request named
	mtGCSResult = byte(0x48) // one bool applied per entry the request carried (none for a follow), u32 n, n*delta
)

// headOps and mailboxOps are the two dispatch sets — what the head's listener
// and a worker's mailbox listener serve — each type under the name its
// listener counts frames and bytes by (metrics.WireFrames/WireBytes + name).
var (
	headOps = map[byte]string{
		mtGCSApply: "gcs_apply", mtGCSFollow: "gcs_follow",
		mtObjPut: "obj_put", mtObjGet: "obj_get",
		mtSinkDeliver: "sink_deliver",
	}
	mailboxOps = map[byte]string{mtFlPush: "fl_push", mtFlDropQuery: "fl_drop_query"}
)

// Error codes carried by mtErrResp. Sentinel errors the engine's
// semantics lean on travel as codes so the client can hand back the
// identical sentinel value.
const (
	errGeneric    = byte(0)
	errServerDown = byte(1) // flight.ErrServerDown
)

// encodeErr builds an mtErrResp payload for err.
func encodeErr(err error) []byte {
	code := errGeneric
	if errors.Is(err, flight.ErrServerDown) {
		code = errServerDown
	}
	var w wbuf
	w.u8(code)
	w.str(err.Error())
	return w.b
}

// decodeErr rebuilds the error behind an mtErrResp payload.
func decodeErr(payload []byte) error {
	r := rbuf{b: payload}
	code, msg := r.u8("err code"), r.str("err msg")
	if derr := r.err(); derr != nil {
		return derr
	}
	if code == errServerDown {
		return flight.ErrServerDown
	}
	return errors.New(msg)
}

// respErr converts a non-mtErrResp unexpected response into a typed
// protocol error.
func respErr(got, want byte) error {
	return fmt.Errorf("%w: response type 0x%02x (want 0x%02x)", ErrCorrupt, got, want)
}
