// Package wire is the process-mode transport: it runs the engine's two
// head-node services — the GCS and the durable object store — plus the
// result sink, and each worker's flight mailbox, over plain TCP, so that
// quokka-worker OS processes can execute a query's task managers against
// a head node in another process.
//
// The topology is the paper's (§IV-A): the head hosts the GCS store, the
// object store and the result sinks; every worker hosts its own mailbox (a
// real flight.Server) behind its own listener, whose address the head learns
// at hello and hands to every peer with each query. A worker reads its own
// inbox by function call and pushes a piece to a peer in one frame; the head
// reaches a mailbox only to fetch and drop spooled results and to sweep a
// finished query. The head's control conn to a worker stays the only
// liveness arbiter: a push that cannot reach a peer is an error to retry,
// never a verdict (docs/contracts/flight-transport.md).
//
// Every operation is one request frame answered by one response frame, a
// GCS write included: an apply frame of guarded entries, each applied only if
// its guards hold. A view reads the worker's replica of the query's namespace
// (gcs.Replica) with no frame. Neither listener keeps per-conn state or holds
// a lock while it reads from or writes to a conn.
//
// Framing is deliberately minimal: a four-byte header (magic, version,
// type, flags) and a big-endian length, then the payload — which for
// shuffle partitions is the engine's existing QBA2-compressed encoding,
// shipped as-is. Decode errors are typed: every malformed header, length
// overflow or truncated payload surfaces as an error wrapping ErrCorrupt,
// never as a panic or a silent short read.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"

	"quokka/internal/lineage"
)

// Frame layout: | 'Q' | version | type | flags | len u32 BE | payload |.
const (
	frameMagic   = byte('Q')
	frameVersion = byte(1)
	headerSize   = 8

	// maxFrame bounds a frame payload (1 GiB). A length above it is
	// corruption (or a hostile peer), not a plausible partition.
	maxFrame = 1 << 30
)

// ErrCorrupt is the typed decode failure: every malformed frame header,
// oversized length, truncated payload or short message body wraps it, so
// callers can distinguish protocol corruption from I/O errors with
// errors.Is(err, ErrCorrupt).
var ErrCorrupt = errors.New("wire: corrupt frame")

// writeFrame sends one frame as one vectored write — on a TCP_NODELAY conn a
// header written alone would be a segment, and a reader wake-up, of its own.
// Payload may be nil (length 0).
func writeFrame(w io.Writer, typ byte, payload []byte) error {
	if len(payload) > maxFrame {
		return fmt.Errorf("wire: frame payload %d exceeds limit", len(payload))
	}
	h := [headerSize]byte{frameMagic, frameVersion, typ, 0}
	binary.BigEndian.PutUint32(h[4:], uint32(len(payload)))
	bufs := net.Buffers{h[:]}
	if len(payload) > 0 {
		bufs = append(bufs, payload)
	}
	cc, counted := w.(*countingConn)
	if counted {
		w = cc.Conn // net.Buffers gathers only into a conn the net package knows
	}
	n, err := bufs.WriteTo(w)
	if counted {
		cc.count(int(n))
	}
	return err
}

// readFrame reads one frame in two reads, header then payload. A clean EOF
// at a frame boundary returns io.EOF; an EOF inside a header or payload is
// truncation and wraps ErrCorrupt, as do bad magic, version or length.
func readFrame(r io.Reader) (byte, []byte, error) {
	var h [headerSize]byte
	if _, err := io.ReadFull(r, h[:]); err != nil {
		if err == io.EOF {
			return 0, nil, io.EOF
		}
		return 0, nil, fmt.Errorf("%w: truncated header: %v", ErrCorrupt, err)
	}
	if h[0] != frameMagic {
		return 0, nil, fmt.Errorf("%w: bad magic 0x%02x", ErrCorrupt, h[0])
	}
	if h[1] != frameVersion {
		return 0, nil, fmt.Errorf("%w: protocol version %d (want %d)", ErrCorrupt, h[1], frameVersion)
	}
	n := binary.BigEndian.Uint32(h[4:])
	if n > maxFrame {
		return 0, nil, fmt.Errorf("%w: frame length %d exceeds limit", ErrCorrupt, n)
	}
	if n == 0 {
		return h[2], nil, nil
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, fmt.Errorf("%w: truncated payload (%d bytes): %v", ErrCorrupt, n, err)
	}
	return h[2], payload, nil
}

// wbuf builds a message body. All integers are fixed-width big-endian;
// strings and byte slices are u32-length-prefixed.
type wbuf struct {
	b []byte
}

func (w *wbuf) u8(v byte) { w.b = append(w.b, v) }

func (w *wbuf) u32(v uint32) { w.b = binary.BigEndian.AppendUint32(w.b, v) }

func (w *wbuf) u64(v uint64) { w.b = binary.BigEndian.AppendUint64(w.b, v) }

func (w *wbuf) i64(v int64) { w.u64(uint64(v)) }

func (w *wbuf) boolean(v bool) {
	if v {
		w.u8(1)
	} else {
		w.u8(0)
	}
}

func (w *wbuf) str(s string) {
	w.u32(uint32(len(s)))
	w.b = append(w.b, s...)
}

func (w *wbuf) strs(ss []string) {
	w.u32(uint32(len(ss)))
	for _, s := range ss {
		w.str(s)
	}
}

// kvs writes a key → value set; a nil value is marked as a delete.
func (w *wbuf) kvs(m map[string][]byte) {
	w.u32(uint32(len(m)))
	for k, v := range m {
		w.str(k)
		w.boolean(v == nil)
		w.bytes(v)
	}
}

func (w *wbuf) bytes(p []byte) {
	w.u32(uint32(len(p)))
	w.b = append(w.b, p...)
}

func (w *wbuf) task(t lineage.TaskName) {
	w.i64(int64(t.Stage))
	w.i64(int64(t.Channel))
	w.i64(int64(t.Seq))
}

func (w *wbuf) chanID(c lineage.ChannelID) {
	w.i64(int64(c.Stage))
	w.i64(int64(c.Channel))
}

// rbuf decodes a message body with accumulated-error discipline: the
// first underflow or oversized length latches an ErrCorrupt-wrapped error
// and every later read returns zero values, so decoders read the whole
// shape unconditionally and check err() once.
type rbuf struct {
	b   []byte
	off int
	e   error
}

func (r *rbuf) fail(what string) {
	if r.e == nil {
		r.e = fmt.Errorf("%w: short message body reading %s at offset %d", ErrCorrupt, what, r.off)
	}
}

func (r *rbuf) take(n int, what string) []byte {
	if r.e != nil {
		return nil
	}
	if n < 0 || r.off+n > len(r.b) {
		r.fail(what)
		return nil
	}
	p := r.b[r.off : r.off+n]
	r.off += n
	return p
}

func (r *rbuf) u8(what string) byte {
	p := r.take(1, what)
	if p == nil {
		return 0
	}
	return p[0]
}

func (r *rbuf) u32(what string) uint32 {
	p := r.take(4, what)
	if p == nil {
		return 0
	}
	return binary.BigEndian.Uint32(p)
}

func (r *rbuf) u64(what string) uint64 {
	p := r.take(8, what)
	if p == nil {
		return 0
	}
	return binary.BigEndian.Uint64(p)
}

func (r *rbuf) i64(what string) int64 { return int64(r.u64(what)) }

// count reads a u32 element count, refusing one the rest of the body could
// not hold at min bytes an element — before anything is allocated or walked.
func (r *rbuf) count(what string, min int) int {
	n := int(r.u32(what))
	if r.e == nil && n > (len(r.b)-r.off)/min {
		r.fail(what)
		return 0
	}
	return n
}

func (r *rbuf) strs(what string) []string {
	out := make([]string, r.count(what, 4))
	for i := range out {
		out[i] = r.str(what)
	}
	return out
}

func (r *rbuf) kvs(what string) map[string][]byte {
	m := make(map[string][]byte)
	for n := r.count(what, 9); n > 0; n-- {
		k, deleted, v := r.str(what), r.boolean(what), r.bytesOwned(what)
		if deleted {
			v = nil
		}
		m[k] = v
	}
	return m
}

func (r *rbuf) boolean(what string) bool { return r.u8(what) != 0 }

func (r *rbuf) str(what string) string {
	n := int(r.u32(what))
	return string(r.take(n, what))
}

// bytesOwned returns a copied byte field: wire payload buffers are reused
// by nothing today, but mailbox slots outlive the frame, so aliasing the
// frame buffer would be a time bomb.
func (r *rbuf) bytesOwned(what string) []byte {
	n := int(r.u32(what))
	p := r.take(n, what)
	if r.e != nil {
		return nil
	}
	cp := make([]byte, len(p))
	copy(cp, p)
	return cp
}

func (r *rbuf) task(what string) lineage.TaskName {
	return lineage.TaskName{Stage: int(r.i64(what)), Channel: int(r.i64(what)), Seq: int(r.i64(what))}
}

func (r *rbuf) chanID(what string) lineage.ChannelID {
	return lineage.ChannelID{Stage: int(r.i64(what)), Channel: int(r.i64(what))}
}

// err returns the latched decode failure, also flagging trailing garbage:
// a well-formed message consumes its body exactly.
func (r *rbuf) err() error {
	if r.e != nil {
		return r.e
	}
	if r.off != len(r.b) {
		return fmt.Errorf("%w: %d trailing bytes after message body", ErrCorrupt, len(r.b)-r.off)
	}
	return nil
}
