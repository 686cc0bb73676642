package wire

import (
	"errors"
	"fmt"

	"quokka/internal/flight"
)

// Message types. The control conn (one per worker, full-duplex) carries
// the 0x0x range; op conns (pooled, strict request/response) carry the
// rest. An op conn is any conn whose first frame is not mtHello.
//
// This const block is the whole message set: one request type per method
// of the three backend contracts (docs/contracts/) plus the control plane,
// the result sink and the shared responses. A type byte not listed here —
// including the retired 0x25, 0x2a and 0x32–0x35 — is refused as
// ErrCorrupt and the conn closed; retired bytes are not reused.
const (
	// Control plane, worker <-> head.
	mtHello      = byte(0x01) // C->S: u32 worker id
	mtHelloResp  = byte(0x02) // S->C: u32 cluster size, u32 self
	mtStartQuery = byte(0x03) // S->C: str qid, bytes gob WorkerQuerySpec
	mtStartAck   = byte(0x04) // C->S: str qid, bool ok, str errmsg
	mtStopQuery  = byte(0x05) // S->C: str qid
	mtStopped    = byte(0x06) // C->S: str qid, bytes gob []trace.Span
	mtFail       = byte(0x07) // C->S: str qid, str errmsg

	// GCS. A transaction occupies its conn from Begin to Done: the head
	// runs the real store transaction holding the shard lock and serves
	// the client's reads interactively from the same conn.
	mtTxnBegin      = byte(0x10) // C->S: u8 kind, u32 n, n*str ns
	mtTxnGet        = byte(0x11) // C->S: str key
	mtTxnGetResp    = byte(0x12) // S->C: bool ok, bytes val
	mtTxnList       = byte(0x13) // C->S: str prefix
	mtTxnListResp   = byte(0x14) // S->C: u32 n, n*str key
	mtTxnCommit     = byte(0x15) // C->S: u32 n, n*(str key, bool delete, bytes val)
	mtTxnAbort      = byte(0x16) // C->S: str errmsg
	mtTxnDone       = byte(0x17) // S->C: bool ok, str errmsg
	mtGCSVersionNS  = byte(0x18) // C->S: str ns -> mtU64Resp
	mtGCSVersion    = byte(0x19) // C->S: -> mtU64Resp
	mtGCSWaitChange = byte(0x1a) // C->S: u64 since, i64 timeout ns -> mtU64Resp

	// Flight: every request names the target worker's head-hosted mailbox
	// first (u32 worker id).
	mtFlPush       = byte(0x20) // + str query, task from, chan dest, i64 input, i64 epoch, bool local, bytes data -> mtOK
	mtFlContig     = byte(0x21) // + str query, chan dest, i64 input, i64 upChannel, i64 from -> mtIntResp
	mtFlTake       = byte(0x22) // + str query, chan dest, i64 input, i64 upChannel, i64 from, i64 count -> mtBytesListResp
	mtFlDrop       = byte(0x23) // + same shape as take -> mtOK
	mtFlDropBelow  = byte(0x24) // + str query, chan dest, i64 input, i64 upChannel, i64 wm -> mtOK
	mtFlDropQuery  = byte(0x26) // + str query -> mtOK
	mtFlSpool      = byte(0x27) // + str query, task, i64 epoch, bytes data -> mtOK
	mtFlFetch      = byte(0x28) // + str query, task -> mtBytesResp
	mtFlDropResult = byte(0x29) // + str query, task -> mtOK

	// Object store. A put is always the uncosted PutFree: free must be true
	// (the costed form was retired with storage.Objects.Put and is refused).
	mtObjPut = byte(0x30) // str key, bool free, bytes val -> mtOK
	mtObjGet = byte(0x31) // str key, bool free -> mtBytesResp

	// Result sink: worker task managers relaying output-stage deliveries
	// into the head-side collector of the named query.
	mtSinkDeliver = byte(0x38) // str qid, task, i64 epoch, bytes data -> mtBoolResp
	mtSinkSpooled = byte(0x39) // str qid, task, i64 worker, i64 size, i64 epoch -> mtBoolResp

	// Responses.
	mtOK            = byte(0x40) // empty
	mtErrResp       = byte(0x41) // u8 code, str msg
	mtU64Resp       = byte(0x42) // u64
	mtIntResp       = byte(0x43) // i64
	mtBoolResp      = byte(0x44) // bool
	mtBytesResp     = byte(0x45) // bytes
	mtBytesListResp = byte(0x46) // u32 n, n*bytes
)

// GCS transaction kinds (mtTxnBegin's u8). Every kind names its
// namespaces; the whole-store kinds 3 and 4 were retired with
// gcs.Backend.Update/View and are refused.
const (
	txnUpdateNS = byte(iota)
	txnViewNS
	txnUpdateMulti
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
	code := r.u8("err code")
	msg := r.str("err msg")
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
