package batch

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// ErrCorrupt is wrapped by every decode error: truncated payloads, bad
// magic, impossible counts, invalid encodings. Callers distinguish "bytes
// are damaged" from other failures with errors.Is(err, ErrCorrupt).
var ErrCorrupt = errors.New("batch: corrupt frame")

// corruptf builds a decode error carrying the ErrCorrupt sentinel.
func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// The wire format is a simple length-prefixed columnar layout:
//
//	magic   uint32 "QBA1"
//	nfields uint32
//	per field: nameLen uint32, name, type uint8
//	nrows   uint32
//	per column: payload (fixed-width arrays, or length-prefixed strings)
//
// It is deliberately self-describing so that replayed partitions can be
// validated against the consumer's expected schema.

const codecMagic = 0x51424131 // "QBA1"

// Encode serializes the batch into a fresh, exactly sized byte slice.
func Encode(b *Batch) []byte {
	return AppendRaw(make([]byte, 0, RawEncodedSize(b)), b)
}

// AppendRaw appends the batch's QBA1 frame to dst and returns the extended
// slice. A selection vector, if present, is materialized first — the wire
// format always carries physical rows.
func AppendRaw(dst []byte, b *Batch) []byte {
	b = b.Materialize()
	dst = binary.LittleEndian.AppendUint32(dst, codecMagic)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(b.Schema.Len()))
	for _, f := range b.Schema.Fields {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(f.Name)))
		dst = append(dst, f.Name...)
		dst = append(dst, byte(f.Type))
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(b.NumRows()))
	for _, c := range b.Cols {
		switch c.Type {
		case Int64, Date:
			for _, v := range c.Ints {
				dst = binary.LittleEndian.AppendUint64(dst, uint64(v))
			}
		case Float64:
			for _, v := range c.Floats {
				dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
			}
		case String:
			for _, s := range c.Strings {
				dst = binary.LittleEndian.AppendUint32(dst, uint32(len(s)))
				dst = append(dst, s...)
			}
		case Bool:
			for _, v := range c.Bools {
				if v {
					dst = append(dst, 1)
				} else {
					dst = append(dst, 0)
				}
			}
		}
	}
	return dst
}

// Run-file framing: spilled operator state is stored as a sequence of
// length-prefixed Encode frames in one disk object, so a run can be
// written incrementally and read back batch-at-a-time without ever
// materializing the whole run as columns.

// AppendFramed appends a length-prefixed Encode(b) frame to dst and
// returns the extended slice.
func AppendFramed(dst []byte, b *Batch) []byte {
	enc := Encode(b)
	var u32 [4]byte
	binary.LittleEndian.PutUint32(u32[:], uint32(len(enc)))
	dst = append(dst, u32[:]...)
	return append(dst, enc...)
}

// RunIter iterates the frames of a run file produced by AppendFramed.
type RunIter struct {
	data []byte
	pos  int
}

// NewRunIter returns an iterator over the framed batches in data.
func NewRunIter(data []byte) *RunIter { return &RunIter{data: data} }

// Next decodes the next frame. It returns (nil, nil) at end of input.
func (it *RunIter) Next() (*Batch, error) {
	if it.pos == len(it.data) {
		return nil, nil
	}
	if it.pos+4 > len(it.data) {
		return nil, corruptf("truncated run frame header at offset %d", it.pos)
	}
	n := int(binary.LittleEndian.Uint32(it.data[it.pos:]))
	it.pos += 4
	if it.pos+n > len(it.data) {
		return nil, corruptf("truncated run frame at offset %d", it.pos)
	}
	b, err := Decode(it.data[it.pos : it.pos+n])
	if err != nil {
		return nil, err
	}
	it.pos += n
	return b, nil
}

// Decode parses a batch from bytes produced by Encode or EncodeCompressed.
// The frame is self-describing: the magic selects the wire format (QBA1 =
// raw columns, QBA2 = per-column encodings), so mixed streams — e.g. old
// raw frames and replayed compressed partitions — decode through the same
// entry point. Declared counts are validated against the remaining payload
// before any allocation; damaged bytes return errors wrapping ErrCorrupt,
// never panic.
func Decode(data []byte) (*Batch, error) {
	if len(data) < 4 {
		return nil, corruptf("frame shorter than magic (%d bytes)", len(data))
	}
	switch magic := binary.LittleEndian.Uint32(data); magic {
	case codecMagic:
		return decode1(data)
	case codecMagic2:
		b, _, err := decode2(data, nil)
		return b, err
	default:
		return nil, corruptf("bad magic %#x", magic)
	}
}

// decode1 parses the QBA1 (raw, encoding-0) format.
func decode1(data []byte) (*Batch, error) {
	pos := 4 // magic checked by Decode
	get32 := func() (uint32, error) {
		if pos+4 > len(data) {
			return 0, corruptf("truncated at offset %d", pos)
		}
		v := binary.LittleEndian.Uint32(data[pos:])
		pos += 4
		return v, nil
	}
	nf, err := get32()
	if err != nil {
		return nil, err
	}
	// Each field costs at least 5 bytes (nameLen + type); reject counts the
	// payload cannot possibly hold before allocating for them.
	if int64(nf)*5 > int64(len(data)-pos) {
		return nil, corruptf("field count %d exceeds payload", nf)
	}
	fields := make([]Field, nf)
	for i := range fields {
		nl, err := get32()
		if err != nil {
			return nil, err
		}
		if int64(nl) > int64(len(data)-pos)-1 {
			return nil, corruptf("truncated field name at offset %d", pos)
		}
		fields[i].Name = string(data[pos : pos+int(nl)])
		pos += int(nl)
		fields[i].Type = Type(data[pos])
		pos++
	}
	nr, err := get32()
	if err != nil {
		return nil, err
	}
	rows := int(nr)
	schema, err := newSchema(fields)
	if err != nil {
		return nil, corruptf("%v", err)
	}
	cols := make([]*Column, nf)
	for i, f := range fields {
		c := &Column{Type: f.Type}
		switch f.Type {
		case Int64, Date:
			if int64(rows)*8 > int64(len(data)-pos) {
				return nil, corruptf("truncated int column %q", f.Name)
			}
			v := make([]int64, rows)
			for r := 0; r < rows; r++ {
				v[r] = int64(binary.LittleEndian.Uint64(data[pos:]))
				pos += 8
			}
			c.Ints = v
		case Float64:
			if int64(rows)*8 > int64(len(data)-pos) {
				return nil, corruptf("truncated float column %q", f.Name)
			}
			v := make([]float64, rows)
			for r := 0; r < rows; r++ {
				v[r] = math.Float64frombits(binary.LittleEndian.Uint64(data[pos:]))
				pos += 8
			}
			c.Floats = v
		case String:
			// Each string costs at least its 4-byte length prefix; validate
			// the declared row count against the remaining payload before
			// allocating rows slots.
			if int64(rows)*4 > int64(len(data)-pos) {
				return nil, corruptf("row count %d exceeds payload in string column %q", rows, f.Name)
			}
			v := make([]string, rows)
			for r := 0; r < rows; r++ {
				sl, err := get32()
				if err != nil {
					return nil, err
				}
				if int64(sl) > int64(len(data)-pos) {
					return nil, corruptf("truncated string column %q", f.Name)
				}
				v[r] = string(data[pos : pos+int(sl)])
				pos += int(sl)
			}
			c.Strings = v
		case Bool:
			if rows > len(data)-pos {
				return nil, corruptf("truncated bool column %q", f.Name)
			}
			v := make([]bool, rows)
			for r := 0; r < rows; r++ {
				v[r] = data[pos] != 0
				pos++
			}
			c.Bools = v
		default:
			return nil, corruptf("unknown column type %d", f.Type)
		}
		cols[i] = c
	}
	if pos != len(data) {
		return nil, corruptf("%d trailing bytes", len(data)-pos)
	}
	return New(schema, cols)
}
