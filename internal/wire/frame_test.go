package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"

	"quokka/internal/lineage"
)

func TestFrameRoundTrip(t *testing.T) {
	payloads := [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte("quokka"), 1000)}
	for _, p := range payloads {
		var buf bytes.Buffer
		if err := writeFrame(&buf, mtFlPush, p); err != nil {
			t.Fatalf("write: %v", err)
		}
		typ, got, err := readFrame(&buf)
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		if typ != mtFlPush {
			t.Fatalf("type = 0x%02x, want 0x%02x", typ, mtFlPush)
		}
		if !bytes.Equal(got, p) {
			t.Fatalf("payload mismatch: %d bytes vs %d", len(got), len(p))
		}
	}
}

func TestFrameCleanEOFAtBoundary(t *testing.T) {
	var buf bytes.Buffer
	writeFrame(&buf, mtOK, []byte("done"))
	if _, _, err := readFrame(&buf); err != nil {
		t.Fatalf("first frame: %v", err)
	}
	if _, _, err := readFrame(&buf); err != io.EOF {
		t.Fatalf("EOF at frame boundary: got %v, want io.EOF", err)
	}
}

// TestFrameTruncationSweep is the decode-hardening sweep: a valid frame
// truncated at EVERY byte offset must fail with an error wrapping
// ErrCorrupt — never a panic, a hang, or a silently short payload. Offset
// 0 is the one legal truncation (clean EOF between frames).
func TestFrameTruncationSweep(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, mtGCSFollow, []byte("q/abc123/lin/0.1.2")); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for cut := 0; cut < len(full); cut++ {
		_, _, err := readFrame(bytes.NewReader(full[:cut]))
		if cut == 0 {
			if err != io.EOF {
				t.Fatalf("cut=0: got %v, want io.EOF", err)
			}
			continue
		}
		if err == nil {
			t.Fatalf("cut=%d of %d: decode succeeded on truncated frame", cut, len(full))
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("cut=%d: error %v does not wrap ErrCorrupt", cut, err)
		}
	}
	// And the untruncated frame still parses after the sweep.
	if _, _, err := readFrame(bytes.NewReader(full)); err != nil {
		t.Fatalf("full frame: %v", err)
	}
}

func TestFrameHeaderCorruption(t *testing.T) {
	mk := func(mut func(h []byte)) []byte {
		var buf bytes.Buffer
		writeFrame(&buf, mtOK, []byte("abc"))
		b := buf.Bytes()
		mut(b)
		return b
	}
	cases := map[string][]byte{
		"bad magic":       mk(func(h []byte) { h[0] = 'X' }),
		"bad version":     mk(func(h []byte) { h[1] = 99 }),
		"oversize length": mk(func(h []byte) { binary.BigEndian.PutUint32(h[4:], maxFrame+1) }),
	}
	for name, b := range cases {
		_, _, err := readFrame(bytes.NewReader(b))
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: error %v does not wrap ErrCorrupt", name, err)
		}
	}
}

// TestMessageBodyTruncationSweep drives rbuf decoding across every prefix
// of a representative message body (the push op: strings, ints, bools,
// task and channel names, a byte blob). Every truncation must surface
// through err() as ErrCorrupt; no prefix may decode cleanly.
func TestMessageBodyTruncationSweep(t *testing.T) {
	var w wbuf
	w.u32(2)
	w.str("q-0007")
	w.task(lineage.TaskName{Stage: 1, Channel: 3, Seq: 42})
	w.chanID(lineage.ChannelID{Stage: 2, Channel: 0})
	w.i64(1)
	w.i64(5)
	w.boolean(true)
	w.bytes([]byte("payload-bytes"))
	full := w.b

	decode := func(b []byte) error {
		r := rbuf{b: b}
		r.u32("worker")
		r.str("query")
		r.task("from")
		r.chanID("dest")
		r.i64("input")
		r.i64("epoch")
		r.boolean("local")
		r.bytesOwned("data")
		return r.err()
	}
	if err := decode(full); err != nil {
		t.Fatalf("full body: %v", err)
	}
	for cut := 0; cut < len(full); cut++ {
		err := decode(full[:cut])
		if err == nil {
			t.Fatalf("cut=%d of %d: truncated body decoded cleanly", cut, len(full))
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("cut=%d: error %v does not wrap ErrCorrupt", cut, err)
		}
	}
	// Trailing garbage is corruption too: a message must consume its body
	// exactly.
	if err := decode(append(append([]byte{}, full...), 0xEE)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("trailing byte: %v does not wrap ErrCorrupt", err)
	}
}

// TestRbufHostileLengths feeds length prefixes that exceed the remaining
// body: the decoder must fail without attempting the allocation.
func TestRbufHostileLengths(t *testing.T) {
	var w wbuf
	w.u32(0xFFFFFFFF) // claims a 4 GiB string
	r := rbuf{b: append(w.b, 'x')}
	_ = r.str("huge")
	if err := r.err(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("hostile length: %v does not wrap ErrCorrupt", err)
	}
}
