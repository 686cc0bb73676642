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
// byte not listed here — including the retired 0x10–0x1a, 0x21–0x25,
// 0x27–0x2b, 0x32–0x35, 0x39, 0x43, 0x46 and 0x47 — is refused as ErrCorrupt
// and the conn closed; retired bytes are not reused.
const (
	// Control plane, worker <-> head.
	mtHello      = byte(0x01) // C->S: u32 worker id, str address of the worker's mailbox listener
	mtHelloResp  = byte(0x02) // S->C: u32 cluster size, u32 self
	mtStartQuery = byte(0x03) // S->C: str qid, bytes gob WorkerQuerySpec, u64 object put generation, u32 n, n*str mailbox address by worker id ("" = no live process)
	mtStartAck   = byte(0x04) // C->S: str qid, bool ok, str errmsg
	mtStopQuery  = byte(0x05) // S->C: str qid
	mtStopped    = byte(0x06) // C->S: str qid, bytes gob []trace.Span, u32 n, n*(str counter, i64 delta since the worker's last report, never negative)
	mtFail       = byte(0x07) // C->S: str qid, str errmsg

	// GCS. A transaction is one request frame: its body runs in the worker
	// against a replica of the namespace (gcs.Replica), a view after a sync,
	// an update before a commit that ships what the body read and wrote. A
	// namespace is exactly one "q/<qid>/" prefix (gcs.IsNamespace); a kvs is
	// u32 n, n*(str key, bool deleted, bytes val); a delta is u64 version,
	// bool full, kvs.
	mtGCSSync    = byte(0x1b) // C->S: str ns, u64 replica version -> mtGCSResult (one delta)
	mtGCSCommit  = byte(0x1c) // C->S: u32 n, n*(str ns, u64 replica version, u32 k, k*str read key, u32 p, p*str read prefix), kvs writes -> mtGCSResult (n deltas)
	mtGCSAwaitNS = byte(0x1d) // C->S: str ns, u64 after, u32 max microseconds -> mtU64Resp, once the version passes after or max (capped by the head) elapses

	// Flight, served by the worker that hosts the mailbox: what a peer (push)
	// and the head (drop query) ask of it. Every request names the mailbox's
	// worker first (u32), which must be the serving worker itself. Probe, take
	// and drop are the owner's function calls and have no frame.
	mtFlPush      = byte(0x20) // + str query, task from, chan dest, i64 input, i64 epoch, bool local, bytes data -> mtOK
	mtFlDropQuery = byte(0x26) // + str query -> mtOK

	// Object store. A put is always the uncosted PutFree: free must be true
	// (the costed form was retired with storage.Objects.Put and is refused).
	mtObjPut = byte(0x30) // str key, bool free, bytes val -> mtOK
	mtObjGet = byte(0x31) // str key, bool free -> mtBytesResp

	// Result sink: worker task managers relaying output-stage deliveries
	// into the head-side collector of the named query.
	mtSinkDeliver = byte(0x38) // str qid, task, i64 epoch, bytes data -> mtBoolResp

	// Responses.
	mtOK        = byte(0x40) // empty
	mtErrResp   = byte(0x41) // u8 code, str msg
	mtU64Resp   = byte(0x42) // u64
	mtBoolResp  = byte(0x44) // bool
	mtBytesResp = byte(0x45) // bytes
	mtGCSResult = byte(0x48) // bool committed, u32 n, n*delta
)

// headOps and mailboxOps are the two dispatch sets — what the head's listener
// and a worker's mailbox listener serve — each type under the name its
// listener counts frames and bytes by (metrics.WireFrames/WireBytes + name).
var (
	headOps = map[byte]string{
		mtGCSSync: "gcs_sync", mtGCSCommit: "gcs_commit", mtGCSAwaitNS: "gcs_await_ns",
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
