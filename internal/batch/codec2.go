package batch

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/bits"
	"slices"
	"sync"
)

// QBA2 is the compressed wire format. It keeps QBA1's self-describing
// shape but tags every column with an encoding and a payload length:
//
//	magic   uint32 "QBA2"
//	nfields uint32
//	per field: nameLen uint32, name, type uint8, enc uint8, payloadLen uint32
//	nrows   uint32
//	per column: payload (payloadLen bytes, layout per encoding)
//
// Encoding 0 (raw) is byte-for-byte the QBA1 column layout, so the
// uncompressed format remains expressible: it is what a column no other
// encoding shrinks is written in. payloadLen makes columns skippable without
// decoding — the scan path uses this to drop columns the fused projection
// discarded — and doubles as a strict validation bound.
//
// Compression is output-transparent: Decode(EncodeCompressed(b)) yields a
// batch whose Encode bytes are identical to Encode(b). Float64 columns are
// always raw Float64bits — bit-exactness (0.0 vs -0.0, NaN payloads) is a
// routing/key invariant and is never traded for size.

const codecMagic2 = 0x51424132 // "QBA2"

// Per-column encodings. The encoder picks, per column, the smallest
// candidate valid for the type; ties go to the lowest encoding number, so
// the choice is deterministic.
const (
	encRaw    = 0 // QBA1 column layout (any type)
	encDict   = 1 // String/Float64: dictionary + uvarint indexes
	encVarint = 2 // Int64/Date: zigzag uvarint per value
	encDelta  = 3 // Int64/Date: zigzag uvarint first value, then deltas
	encRLE    = 4 // Bool: first value byte + alternating uvarint run lengths
)

// rleMaxRows bounds the rows a frame of run-length columns alone may
// declare per frame byte. Every other encoding costs at least a byte a
// value, so any other column bounds a frame's rows by its length, while one
// five-byte run claims 2^32-1 bools. The encoder writes a bool column raw
// rather than past this ratio when the frame has no other kind of column,
// so every frame it writes decodes.
const rleMaxRows = 1 << 12

// encScratch is the encoder's reusable working memory for the dictionary
// candidates of the column being sized. Pooled: a steady-state encode
// allocates nothing but the destination bytes.
type encScratch struct {
	slots []uint32 // open-addressing directory: dictionary index + 1, 0 = empty
	idx   []uint32 // per-row dictionary index, valid when the dictionary won
	fdict []uint64 // distinct Float64bits patterns, first-occurrence order
	first []uint32 // string dictionary: row of each entry's first occurrence
	out   []byte   // EncodeCompressed's build buffer
}

var encPool = sync.Pool{New: func() any { return new(encScratch) }}

// EncodeCompressed serializes the batch into a fresh, exactly sized QBA2
// frame: AppendCompressed into pooled scratch, then one copy.
func EncodeCompressed(b *Batch) []byte {
	sc := encPool.Get().(*encScratch)
	sc.out = sc.appendFrame(sc.out[:0], b)
	out := bytes.Clone(sc.out)
	encPool.Put(sc)
	return out
}

// AppendCompressed appends the batch's QBA2 frame to dst, choosing the
// smallest encoding per column, and returns the extended slice. A
// selection vector, if present, is materialized first — the wire format
// always carries physical rows.
//
// Selection is size-first: one pass per candidate computes its exact
// encoded size, the smallest wins (ties to the lowest encoding number) and
// only the winner's bytes are ever written, straight into dst.
func AppendCompressed(dst []byte, b *Batch) []byte {
	sc := encPool.Get().(*encScratch)
	dst = sc.appendFrame(dst, b)
	encPool.Put(sc)
	return dst
}

func (sc *encScratch) appendFrame(dst []byte, b *Batch) []byte {
	b = b.Materialize()
	dst = binary.LittleEndian.AppendUint32(dst, codecMagic2)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(b.Schema.Len()))
	hdr := len(dst) // walks the field headers as their columns are written
	for _, f := range b.Schema.Fields {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(f.Name)))
		dst = append(dst, f.Name...)
		dst = append(dst, byte(f.Type), 0, 0, 0, 0, 0) // enc and payloadLen filled below
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(b.NumRows()))
	boolsOnly := true
	for _, c := range b.Cols {
		boolsOnly = boolsOnly && c.Type == Bool
	}
	for i, c := range b.Cols {
		hdr += 4 + len(b.Schema.Fields[i].Name) + 1
		start := len(dst)
		var enc byte
		dst, enc = sc.appendColumn(dst, c, boolsOnly)
		dst[hdr] = enc
		binary.LittleEndian.PutUint32(dst[hdr+1:], uint32(len(dst)-start))
		hdr += 5
	}
	return dst
}

// AppendFramedCompressed appends a length-prefixed QBA2 frame of b to dst;
// the framing is identical to AppendFramed, so RunIter reads mixed
// raw/compressed runs.
func AppendFramedCompressed(dst []byte, b *Batch) []byte {
	at := len(dst)
	dst = AppendCompressed(append(dst, 0, 0, 0, 0), b)
	binary.LittleEndian.PutUint32(dst[at:], uint32(len(dst)-at-4))
	return dst
}

// RawEncodedSize returns exactly len(Encode(b)) without building the
// bytes. Metric sites use it to report the raw-vs-wire ratio.
func RawEncodedSize(b *Batch) int {
	size := 12
	for _, f := range b.Schema.Fields {
		size += 5 + len(f.Name)
	}
	rows := b.NumRows()
	for _, c := range b.Cols {
		switch c.Type {
		case Int64, Date, Float64:
			size += rows * 8
		case String:
			size += rows * 4
			if b.Sel != nil {
				for _, r := range b.Sel {
					size += len(c.Strings[r])
				}
			} else {
				for _, s := range c.Strings {
					size += len(s)
				}
			}
		case Bool:
			size += rows
		}
	}
	return size
}

// appendColumn appends one materialized column's payload in its smallest
// encoding (ties to the lowest number) and returns that encoding. boolsOnly
// says the frame has no column but bools, which bounds run-length encoding.
func (sc *encScratch) appendColumn(dst []byte, c *Column, boolsOnly bool) ([]byte, byte) {
	switch c.Type {
	case Int64, Date:
		return appendInts(dst, c.Ints)
	case Float64:
		return sc.appendFloats(dst, c.Floats)
	case String:
		return sc.appendStrings(dst, c.Strings)
	case Bool:
		return appendBools(dst, c.Bools, boolsOnly)
	}
	return dst, encRaw
}

// zigzag maps signed values to unsigned so small magnitudes of either sign
// varint-encode short.
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// uvarintLen is the number of bytes binary.PutUvarint writes for x.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// grow extends dst by n bytes and returns it with the offset of the first.
func grow(dst []byte, n int) ([]byte, int) {
	at := len(dst)
	return slices.Grow(dst, n)[:at+n], at
}

// appendInts sizes raw (8 bytes per value), varint (zigzag uvarint per
// value) and delta (zigzag uvarint of the wrapping difference to the
// previous value, the first against 0 — extreme spreads round-trip
// exactly) in one pass and writes the winner.
func appendInts(dst []byte, vals []int64) ([]byte, byte) {
	varint, delta := 0, 0
	prev := int64(0)
	for _, v := range vals {
		varint += uvarintLen(zigzag(v))
		delta += uvarintLen(zigzag(v - prev))
		prev = v
	}
	size, enc := 8*len(vals), byte(encRaw)
	if varint < size {
		size, enc = varint, encVarint
	}
	if delta < size {
		size, enc = delta, encDelta
	}
	dst, at := grow(dst, size)
	switch enc {
	case encRaw:
		for _, v := range vals {
			binary.LittleEndian.PutUint64(dst[at:], uint64(v))
			at += 8
		}
	case encVarint:
		for _, v := range vals {
			at += binary.PutUvarint(dst[at:], zigzag(v))
		}
	case encDelta:
		prev = 0
		for _, v := range vals {
			at += binary.PutUvarint(dst[at:], zigzag(v-prev))
			prev = v
		}
	}
	return dst, enc
}

// resetDict readies the directory and index vector for a column of n
// rows. The directory holds at least 2n slots, so it never fills or grows:
// a dictionary stops being sized long before n distinct values.
func (sc *encScratch) resetDict(n int) (slots []uint32, shift uint) {
	size := 2
	for size < 2*n {
		size <<= 1
	}
	if cap(sc.slots) < size {
		sc.slots = make([]uint32, size)
	}
	slots = sc.slots[:size]
	clear(slots)
	if cap(sc.idx) < n {
		sc.idx = make([]uint32, n)
	}
	sc.idx = sc.idx[:n]
	return slots, shiftFor(size)
}

// dictHome is a key's home slot in a directory of 1<<(64-shift) slots: the
// top bits of a multiplicative mix, as in HashTable.slotIndex. Round
// decimals are float patterns with 40+ trailing zero bits, which any low or
// middle bits of the product inherit. The index is the encoder's own and
// never leaves it: routing and key identity (HashKeys) are untouched.
func dictHome(h uint64, shift uint) uint64 { return (h * fibMul) >> shift }

// dictHashString hashes a string eight bytes at a time for the string
// dictionary's directory (the last word overlaps its predecessor; the
// length seeds the hash, so the overlap is unambiguous). Like dictHome it
// serves only the encoder: near-unique comment columns are hashed in full
// before the dictionary is ruled out, and byte-at-a-time fnv (HashString)
// made that the encoder's most expensive loop.
func dictHashString(s string) uint64 {
	h := uint64(len(s))
	if len(s) < 8 {
		for i := 0; i < len(s); i++ {
			h = h<<8 | uint64(s[i])
		}
		return h * fibMul
	}
	word := func(s string) uint64 {
		_ = s[7]
		return uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
			uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56
	}
	last := s[len(s)-8:]
	for ; len(s) > 8; s = s[8:] {
		h = (h ^ word(s)) * fibMul
		h ^= h >> 32
	}
	return (h ^ word(last)) * fibMul
}

// appendIdx writes the per-row dictionary indexes as uvarints.
func (sc *encScratch) appendIdx(dst []byte, at int) {
	for _, d := range sc.idx {
		if d < 0x80 {
			dst[at] = byte(d)
			at++
		} else {
			at += binary.PutUvarint(dst[at:], uint64(d))
		}
	}
}

// appendFloats writes a float column raw or as a bit-pattern dictionary:
// ndict uint32, each distinct Float64bits pattern (8 bytes LE) in
// first-occurrence order, then one uvarint index per row. TPC-H-style
// measures (quantities, discounts, prices) repeat heavily, and indexing
// the distinct bit patterns is exact — -0.0 and every NaN payload keep
// their bits; high-entropy columns stay raw.
//
// Sizing stops the moment the dictionary provably cannot be smaller than
// raw (every remaining row costs at least one index byte), which is exact:
// the choice is the one full sizing would make.
func (sc *encScratch) appendFloats(dst []byte, vals []float64) ([]byte, byte) {
	n := len(vals)
	raw := 8 * n
	slots, shift := sc.resetDict(n)
	mask := uint64(len(slots) - 1)
	idx, dict := sc.idx, sc.fdict[:0]
	size := 4
sizing:
	for r, v := range vals {
		w := math.Float64bits(v)
		var d uint32
		for i := dictHome(w, shift); ; i = (i + 1) & mask {
			if s := slots[i]; s == 0 {
				d = uint32(len(dict))
				dict = append(dict, w)
				slots[i] = d + 1
				if size += 8; size+n-r >= raw {
					size = raw
					break sizing
				}
				break
			} else if dict[s-1] == w {
				d = s - 1
				break
			}
		}
		idx[r] = d
		size += uvarintLen(uint64(d))
	}
	sc.fdict = dict
	if size >= raw {
		dst, at := grow(dst, raw)
		for _, v := range vals {
			binary.LittleEndian.PutUint64(dst[at:], math.Float64bits(v))
			at += 8
		}
		return dst, encRaw
	}
	dst, at := grow(dst, size)
	binary.LittleEndian.PutUint32(dst[at:], uint32(len(dict)))
	at += 4
	for _, w := range dict {
		binary.LittleEndian.PutUint64(dst[at:], w)
		at += 8
	}
	sc.appendIdx(dst, at)
	return dst, encDict
}

// appendStrings writes a string column raw (uint32 length + bytes per row)
// or as a dictionary: ndict uint32, each distinct string (uint32 length +
// bytes) in first-occurrence order, then one uvarint index per row. Sizing
// stops early exactly as for floats.
func (sc *encScratch) appendStrings(dst []byte, vals []string) ([]byte, byte) {
	n := len(vals)
	raw := 4 * n
	for _, s := range vals {
		raw += len(s)
	}
	slots, shift := sc.resetDict(n)
	mask := uint64(len(slots) - 1)
	idx, first := sc.idx, sc.first[:0]
	size := 4
sizing:
	for r, v := range vals {
		var d uint32
		for i := dictHome(dictHashString(v), shift); ; i = (i + 1) & mask {
			if s := slots[i]; s == 0 {
				d = uint32(len(first))
				first = append(first, uint32(r))
				slots[i] = d + 1
				if size += 4 + len(v); size+n-r >= raw {
					size = raw
					break sizing
				}
				break
			} else if vals[first[s-1]] == v {
				d = s - 1
				break
			}
		}
		idx[r] = d
		size += uvarintLen(uint64(d))
	}
	sc.first = first
	if size >= raw {
		dst, at := grow(dst, raw)
		for _, s := range vals {
			binary.LittleEndian.PutUint32(dst[at:], uint32(len(s)))
			at += 4 + copy(dst[at+4:], s)
		}
		return dst, encRaw
	}
	dst, at := grow(dst, size)
	binary.LittleEndian.PutUint32(dst[at:], uint32(len(first)))
	at += 4
	for _, r := range first {
		s := vals[r]
		binary.LittleEndian.PutUint32(dst[at:], uint32(len(s)))
		at += 4 + copy(dst[at+4:], s)
	}
	sc.appendIdx(dst, at)
	return dst, encDict
}

// appendBools writes a bool column raw (one byte per value) or run-length
// encoded: one byte for the first value, then alternating uvarint run
// lengths. An empty column is raw (an empty payload), and so, in a frame of
// bools only, is a column whose runs would claim more than rleMaxRows rows a
// payload byte.
func appendBools(dst []byte, vals []bool, boolsOnly bool) ([]byte, byte) {
	n := len(vals)
	size := 1
	run := uint64(1)
	for i := 1; i < n; i++ {
		if vals[i] == vals[i-1] {
			run++
			continue
		}
		size += uvarintLen(run)
		run = 1
	}
	size += uvarintLen(run)
	if n == 0 || size >= n || boolsOnly && n > rleMaxRows*size {
		dst, at := grow(dst, n)
		for i, v := range vals {
			if v {
				dst[at+i] = 1
			} else {
				dst[at+i] = 0
			}
		}
		return dst, encRaw
	}
	dst, at := grow(dst, size)
	dst[at] = 0
	if vals[0] {
		dst[at] = 1
	}
	at++
	run = 1
	for i := 1; i < n; i++ {
		if vals[i] == vals[i-1] {
			run++
			continue
		}
		at += binary.PutUvarint(dst[at:], run)
		run = 1
	}
	binary.PutUvarint(dst[at:], run)
	return dst, encRLE
}

// DecodeProject parses a batch keeping only the named columns, in the
// frame's field order (nil keep = all columns; DecodeProject(data, nil) is
// Decode). For QBA2 frames the payloads of dropped columns are skipped via
// their declared lengths, never decoded; skipped reports those bytes. QBA1
// frames have no payload index, so they decode fully and then drop the
// unwanted columns (skipped = 0).
func DecodeProject(data []byte, keep []string) (*Batch, int64, error) {
	if len(data) < 4 {
		return nil, 0, corruptf("frame shorter than magic (%d bytes)", len(data))
	}
	var keepSet map[string]bool
	if keep != nil {
		keepSet = make(map[string]bool, len(keep))
		for _, k := range keep {
			keepSet[k] = true
		}
	}
	switch magic := binary.LittleEndian.Uint32(data); magic {
	case codecMagic2:
		return decode2(data, keepSet)
	case codecMagic:
		b, err := decode1(data)
		if err != nil {
			return nil, 0, err
		}
		if keepSet == nil {
			return b, 0, nil
		}
		names := make([]string, 0, len(b.Schema.Fields))
		for _, f := range b.Schema.Fields {
			if keepSet[f.Name] {
				names = append(names, f.Name)
			}
		}
		return b.Select(names...), 0, nil
	default:
		return nil, 0, corruptf("bad magic %#x", magic)
	}
}

// decode2 parses the QBA2 format, skipping columns not in keep (nil keep
// decodes everything). All declared counts and payload lengths are
// validated before allocation.
func decode2(data []byte, keep map[string]bool) (*Batch, int64, error) {
	pos := 4 // magic checked by caller
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
		return nil, 0, err
	}
	// Each field header costs at least 10 bytes.
	if int64(nf)*10 > int64(len(data)-pos) {
		return nil, 0, corruptf("field count %d exceeds payload", nf)
	}
	type colHdr struct {
		field Field
		enc   byte
		plen  int
	}
	hdrs := make([]colHdr, nf)
	for i := range hdrs {
		nl, err := get32()
		if err != nil {
			return nil, 0, err
		}
		// name + type + enc + payloadLen
		if int64(nl) > int64(len(data)-pos)-6 {
			return nil, 0, corruptf("truncated field header at offset %d", pos)
		}
		hdrs[i].field.Name = string(data[pos : pos+int(nl)])
		pos += int(nl)
		hdrs[i].field.Type = Type(data[pos])
		hdrs[i].enc = data[pos+1]
		pos += 2
		pl, err := get32()
		if err != nil {
			return nil, 0, err
		}
		hdrs[i].plen = int(pl)
	}
	nr, err := get32()
	if err != nil {
		return nil, 0, err
	}
	// Bound the rows before anything is allocated for them: a frame with a
	// column in any encoding but RLE holds at least a byte a row, and one of
	// RLE columns alone holds at most rleMaxRows rows a byte.
	limit := int64(len(data)) * rleMaxRows
	for _, h := range hdrs {
		if h.enc != encRLE {
			limit = int64(len(data))
		}
	}
	if nf > 0 && int64(nr) > limit {
		return nil, 0, corruptf("row count %d exceeds a %d-byte frame", nr, len(data))
	}
	rows := int(nr)
	var skipped int64
	fields := make([]Field, 0, nf)
	cols := make([]*Column, 0, nf)
	for _, h := range hdrs {
		if int64(h.plen) > int64(len(data)-pos) {
			return nil, 0, corruptf("column %q payload length %d exceeds frame", h.field.Name, h.plen)
		}
		payload := data[pos : pos+h.plen]
		pos += h.plen
		if keep != nil && !keep[h.field.Name] {
			skipped += int64(h.plen)
			continue
		}
		c, err := decodeColumn(h.field, h.enc, rows, payload)
		if err != nil {
			return nil, 0, err
		}
		fields = append(fields, h.field)
		cols = append(cols, c)
	}
	if pos != len(data) {
		return nil, 0, corruptf("%d trailing bytes", len(data)-pos)
	}
	schema, err := newSchema(fields)
	if err != nil {
		return nil, 0, corruptf("%v", err)
	}
	b, err := New(schema, cols)
	if err != nil {
		return nil, 0, corruptf("inconsistent columns: %v", err)
	}
	return b, skipped, nil
}

// decodeColumn decodes one QBA2 column payload. The payload must be
// internally consistent — counts match rows, indexes in range, every byte
// consumed — or the frame is rejected as corrupt.
func decodeColumn(f Field, enc byte, rows int, p []byte) (*Column, error) {
	c := &Column{Type: f.Type}
	switch {
	case enc == encRaw:
		return decodeRawColumn(f, rows, p)
	case enc == encVarint && (f.Type == Int64 || f.Type == Date):
		v, err := decodeVarints(f, rows, p)
		if err != nil {
			return nil, err
		}
		c.Ints = v
	case enc == encDelta && (f.Type == Int64 || f.Type == Date):
		v, err := decodeVarints(f, rows, p)
		if err != nil {
			return nil, err
		}
		for i := 1; i < len(v); i++ {
			v[i] += v[i-1]
		}
		c.Ints = v
	case enc == encDict && f.Type == String:
		v, err := decodeDict(f, rows, p)
		if err != nil {
			return nil, err
		}
		c.Strings = v
	case enc == encDict && f.Type == Float64:
		v, err := decodeDictFloats(f, rows, p)
		if err != nil {
			return nil, err
		}
		c.Floats = v
	case enc == encRLE && f.Type == Bool:
		v, err := decodeRLE(f, rows, p)
		if err != nil {
			return nil, err
		}
		c.Bools = v
	default:
		return nil, corruptf("encoding %d invalid for column %q type %d", enc, f.Name, f.Type)
	}
	return c, nil
}

func decodeRawColumn(f Field, rows int, p []byte) (*Column, error) {
	c := &Column{Type: f.Type}
	switch f.Type {
	case Int64, Date:
		if len(p) != rows*8 {
			return nil, corruptf("raw int column %q: %d payload bytes for %d rows", f.Name, len(p), rows)
		}
		v := make([]int64, rows)
		for r := 0; r < rows; r++ {
			v[r] = int64(binary.LittleEndian.Uint64(p[r*8:]))
		}
		c.Ints = v
	case Float64:
		if len(p) != rows*8 {
			return nil, corruptf("raw float column %q: %d payload bytes for %d rows", f.Name, len(p), rows)
		}
		v := make([]float64, rows)
		for r := 0; r < rows; r++ {
			v[r] = math.Float64frombits(binary.LittleEndian.Uint64(p[r*8:]))
		}
		c.Floats = v
	case String:
		if int64(rows)*4 > int64(len(p)) {
			return nil, corruptf("raw string column %q: row count %d exceeds payload", f.Name, rows)
		}
		v := make([]string, rows)
		pos := 0
		for r := 0; r < rows; r++ {
			if pos+4 > len(p) {
				return nil, corruptf("truncated string column %q", f.Name)
			}
			sl := int(binary.LittleEndian.Uint32(p[pos:]))
			pos += 4
			if int64(sl) > int64(len(p)-pos) {
				return nil, corruptf("truncated string column %q", f.Name)
			}
			v[r] = string(p[pos : pos+sl])
			pos += sl
		}
		if pos != len(p) {
			return nil, corruptf("string column %q: %d trailing payload bytes", f.Name, len(p)-pos)
		}
		c.Strings = v
	case Bool:
		if len(p) != rows {
			return nil, corruptf("raw bool column %q: %d payload bytes for %d rows", f.Name, len(p), rows)
		}
		v := make([]bool, rows)
		for r := 0; r < rows; r++ {
			v[r] = p[r] != 0
		}
		c.Bools = v
	default:
		return nil, corruptf("unknown column type %d", f.Type)
	}
	return c, nil
}

// decodeVarints reads exactly rows zigzag uvarints consuming the whole
// payload.
func decodeVarints(f Field, rows int, p []byte) ([]int64, error) {
	// A uvarint costs at least one byte.
	if rows > len(p) {
		return nil, corruptf("varint column %q: row count %d exceeds payload", f.Name, rows)
	}
	v := make([]int64, rows)
	pos := 0
	for r := 0; r < rows; r++ {
		u, n := binary.Uvarint(p[pos:])
		if n <= 0 {
			return nil, corruptf("varint column %q: bad varint at row %d", f.Name, r)
		}
		pos += n
		v[r] = unzigzag(u)
	}
	if pos != len(p) {
		return nil, corruptf("varint column %q: %d trailing payload bytes", f.Name, len(p)-pos)
	}
	return v, nil
}

func decodeDict(f Field, rows int, p []byte) ([]string, error) {
	if len(p) < 4 {
		return nil, corruptf("dict column %q: truncated dictionary size", f.Name)
	}
	nd := binary.LittleEndian.Uint32(p)
	pos := 4
	// Each entry costs at least its 4-byte length prefix.
	if int64(nd)*4 > int64(len(p)-pos) {
		return nil, corruptf("dict column %q: dictionary size %d exceeds payload", f.Name, nd)
	}
	dict := make([]string, nd)
	for i := range dict {
		if pos+4 > len(p) {
			return nil, corruptf("dict column %q: truncated entry %d", f.Name, i)
		}
		sl := int(binary.LittleEndian.Uint32(p[pos:]))
		pos += 4
		if int64(sl) > int64(len(p)-pos) {
			return nil, corruptf("dict column %q: truncated entry %d", f.Name, i)
		}
		dict[i] = string(p[pos : pos+sl])
		pos += sl
	}
	if rows > len(p)-pos {
		return nil, corruptf("dict column %q: row count %d exceeds payload", f.Name, rows)
	}
	v := make([]string, rows)
	for r := 0; r < rows; r++ {
		u, n := binary.Uvarint(p[pos:])
		if n <= 0 {
			return nil, corruptf("dict column %q: bad index varint at row %d", f.Name, r)
		}
		if u >= uint64(nd) {
			return nil, corruptf("dict column %q: index %d out of range (dictionary size %d)", f.Name, u, nd)
		}
		pos += n
		v[r] = dict[u]
	}
	if pos != len(p) {
		return nil, corruptf("dict column %q: %d trailing payload bytes", f.Name, len(p)-pos)
	}
	return v, nil
}

func decodeDictFloats(f Field, rows int, p []byte) ([]float64, error) {
	if len(p) < 4 {
		return nil, corruptf("float dict column %q: truncated dictionary size", f.Name)
	}
	nd := binary.LittleEndian.Uint32(p)
	pos := 4
	if int64(nd)*8 > int64(len(p)-pos) {
		return nil, corruptf("float dict column %q: dictionary size %d exceeds payload", f.Name, nd)
	}
	dict := make([]float64, nd)
	for i := range dict {
		dict[i] = math.Float64frombits(binary.LittleEndian.Uint64(p[pos:]))
		pos += 8
	}
	if rows > len(p)-pos {
		return nil, corruptf("float dict column %q: row count %d exceeds payload", f.Name, rows)
	}
	v := make([]float64, rows)
	for r := 0; r < rows; r++ {
		u, n := binary.Uvarint(p[pos:])
		if n <= 0 {
			return nil, corruptf("float dict column %q: bad index varint at row %d", f.Name, r)
		}
		if u >= uint64(nd) {
			return nil, corruptf("float dict column %q: index %d out of range (dictionary size %d)", f.Name, u, nd)
		}
		pos += n
		v[r] = dict[u]
	}
	if pos != len(p) {
		return nil, corruptf("float dict column %q: %d trailing payload bytes", f.Name, len(p)-pos)
	}
	return v, nil
}

func decodeRLE(f Field, rows int, p []byte) ([]bool, error) {
	if rows == 0 {
		if len(p) != 0 {
			return nil, corruptf("rle column %q: %d payload bytes for 0 rows", f.Name, len(p))
		}
		return []bool{}, nil
	}
	if len(p) < 1 {
		return nil, corruptf("rle column %q: empty payload for %d rows", f.Name, rows)
	}
	cur := p[0] != 0
	pos := 1
	v := make([]bool, 0, rows)
	for len(v) < rows {
		u, n := binary.Uvarint(p[pos:])
		if n <= 0 {
			return nil, corruptf("rle column %q: bad run length at offset %d", f.Name, pos)
		}
		if u == 0 || u > uint64(rows-len(v)) {
			return nil, corruptf("rle column %q: run length %d with %d rows remaining", f.Name, u, rows-len(v))
		}
		pos += n
		for i := uint64(0); i < u; i++ {
			v = append(v, cur)
		}
		cur = !cur
	}
	if pos != len(p) {
		return nil, corruptf("rle column %q: %d trailing payload bytes", f.Name, len(p)-pos)
	}
	return v, nil
}
