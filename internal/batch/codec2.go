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
// Encodings 5–8 bit-pack: a u8 width w, then one w-bit value per row packed
// LSB-first (the last byte zero-padded), so a column of two distinct values
// costs a bit a row where a byte-aligned encoding costs eight. Encoding 8
// (decimal) packs two such streams: each float's nearest integer at a decimal
// exponent e, and the wrapping distance from the bits of that integer over
// 10^e to the float's own bits.
//
// Compression is output-transparent: Decode(EncodeCompressed(b)) yields a
// batch whose Encode bytes are identical to Encode(b). Float64 columns are
// raw Float64bits, a dictionary of exact bit patterns, or a decimal plus an
// exact bit correction — every bit pattern comes back (0.0 vs -0.0, NaN
// payloads): bit-exactness is a routing/key invariant and is never traded for
// size.

const codecMagic2 = 0x51424132 // "QBA2"

// Per-column encodings. The encoder picks, per column, the smallest
// candidate valid for the type; ties go to the lowest encoding number, so
// the choice is deterministic.
const (
	encRaw        = 0 // QBA1 column layout (any type)
	encDict       = 1 // String/Float64: dictionary + uvarint indexes
	encVarint     = 2 // Int64/Date: zigzag uvarint per value
	encDelta      = 3 // Int64/Date: zigzag uvarint first value, then deltas
	encRLE        = 4 // Bool: first value byte + alternating uvarint run lengths
	encFOR        = 5 // Int64/Date: i64 base (the minimum), width, value-base packed
	encDeltaFOR   = 6 // Int64/Date: i64 first, i64 minimum delta, width, delta-minimum packed
	encDictPacked = 7 // String/Float64: encoding 1's dictionary, width, indexes packed
	encDecimal    = 8 // Float64: u8 exponent, i64 base, width, i64 minimum correction, width, both packed
)

// rleMaxRows bounds the rows a frame may declare per frame byte when no
// column in it bounds them: a run-length column or a packed column of width
// 0 costs the same few bytes whatever its row count, while every other
// column costs at least its width in bits (8 for a byte-aligned encoding) a
// row. The encoder writes a bool column raw rather than past this ratio when
// the frame has no other kind of column, and takes a width-0 packed
// candidate only within it, so every frame it writes decodes.
const rleMaxRows = 1 << 12

// encScratch is the encoder's reusable working memory for the dictionary
// candidates of the column being sized. Pooled: a steady-state encode
// allocates nothing but the destination bytes.
type encScratch struct {
	slots []uint32 // open-addressing directory: dictionary index + 1, 0 = empty
	idx   []uint32 // per-row dictionary index, valid when the dictionary won
	fdict []uint64 // distinct Float64bits patterns, first-occurrence order
	first []uint32 // string dictionary: row of each entry's first occurrence
	ints  []int64  // the decimal candidate's integers
	cors  []int64  // the decimal candidate's bit corrections
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

// uvarintLen is the number of bytes binary.PutUvarint writes for x:
// ceil(bits/7), by a multiply instead of a division.
func uvarintLen(x uint64) int { return (bits.Len64(x|1)*9 + 64) >> 6 }

// grow extends dst by n bytes and returns it with the offset of the first.
func grow(dst []byte, n int) ([]byte, int) {
	at := len(dst)
	return slices.Grow(dst, n)[:at+n], at
}

// packedLen is the payload bytes of count values packed at width w.
func packedLen(count int, w uint) int { return (count*int(w) + 7) / 8 }

// packedFits says a packed candidate of size bytes may hold n rows: any
// width bounds the rows by the frame length, but a width-0 column costs
// size bytes at any row count, so it must keep within rleMaxRows rows a
// byte on its own.
func packedFits(n, size int, w uint) bool { return w > 0 || n <= rleMaxRows*size }

// dictWidth is the index width of a packed dictionary of nd entries.
func dictWidth(nd int) uint {
	if nd <= 1 {
		return 0
	}
	return uint(bits.Len(uint(nd - 1)))
}

// pack writes uint64(v-lo) for each of vals, which fits in w bits, at
// dst[at:] packed LSB-first, the last byte zero-padded, and returns the
// position after them. Whatever dst holds past that position may be
// overwritten.
func pack[T int64 | uint32](dst []byte, at int, vals []T, lo T, w uint) int {
	end := at + packedLen(len(vals), w)
	acc, n := uint64(0), uint(0)
	for _, v := range vals {
		at, acc, n = packStep(dst, at, acc, n, uint64(v-lo), w)
	}
	packTail(dst[at:end], acc)
	return end
}

// packStep appends x, which fits in w bits, to acc's n pending bits,
// storing the low 64 at dst[at:] once there are that many, and returns the
// new position and pending bits. A packing loop keeps its state in locals
// (so in registers) and ends with packTail.
func packStep(dst []byte, at int, acc uint64, n uint, x uint64, w uint) (int, uint64, uint) {
	acc |= x << n
	if n += w; n < 64 {
		return at, acc, n
	}
	binary.LittleEndian.PutUint64(dst[at:], acc)
	n -= 64
	return at + 8, x >> (w - n), n // the bits of x the word had no room for
}

// packTail writes the pending bits into the last bytes of the payload.
func packTail(tail []byte, acc uint64) {
	for i := range tail {
		tail[i] = byte(acc >> (8 * i))
	}
}

// putUvarint writes x as a uvarint at dst[at:] and returns the position
// after it.
func putUvarint(dst []byte, at int, x uint64) int {
	if x < 0x80 {
		dst[at] = byte(x)
		return at + 1
	}
	return at + binary.PutUvarint(dst[at:], x)
}

// intRange is a non-empty column's smallest and largest value, and the
// smallest and largest difference between neighbours (0 for one value).
func intRange(vals []int64) (lo, hi, dlo, dhi int64) {
	first := vals[0]
	lo, hi = first, first
	if len(vals) > 1 {
		dlo, dhi = vals[1]-first, vals[1]-first
	}
	prev := first
	for _, v := range vals[1:] {
		d := v - prev
		lo, hi = min(lo, v), max(hi, v)
		dlo, dhi = min(dlo, d), max(dhi, d)
		prev = v
	}
	return lo, hi, dlo, dhi
}

// varintSizes is the payload bytes of the varint and delta encodings.
func varintSizes(vals []int64) (varint, delta int) {
	prev := int64(0)
	for _, v := range vals {
		varint += uvarintLen(zigzag(v))
		delta += uvarintLen(zigzag(v - prev))
		prev = v
	}
	return varint, delta
}

// appendInts sizes raw (8 bytes per value), varint (zigzag uvarint per
// value), delta (zigzag uvarint of the wrapping difference to the previous
// value, the first against 0 — extreme spreads round-trip exactly), for
// (each value's offset from the minimum, packed) and delta-for (each
// difference's offset from the smallest difference, packed), and writes
// the winner. The packed sizes take one pass over the column (intRange);
// the uvarint sizes a second (varintSizes), made only when neither packed
// candidate is already smaller than a byte a row.
func appendInts(dst []byte, vals []int64) ([]byte, byte) {
	n := len(vals)
	if n == 0 {
		return dst, encRaw // an empty payload: nothing is smaller
	}
	first := vals[0]
	lo, hi, dlo, dhi := intRange(vals)
	wFOR := uint(bits.Len64(uint64(hi - lo)))
	wDelta := uint(bits.Len64(uint64(dhi - dlo)))
	forSize := 9 + packedLen(n, wFOR)
	deltaForSize := 17 + packedLen(n-1, wDelta)
	size, enc := 8*n, byte(encRaw)
	// A uvarint costs at least a byte, so a packed candidate of fewer than n
	// bytes settles the choice without sizing varint and delta (at n bytes
	// either may tie it, and wins the tie).
	if min(forSize, deltaForSize) >= n {
		varint, delta := varintSizes(vals)
		if varint < size {
			size, enc = varint, encVarint
		}
		if delta < size {
			size, enc = delta, encDelta
		}
	}
	if forSize < size && packedFits(n, forSize, wFOR) {
		size, enc = forSize, encFOR
	}
	if deltaForSize < size && packedFits(n, deltaForSize, wDelta) {
		size, enc = deltaForSize, encDeltaFOR
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
			at = putUvarint(dst, at, zigzag(v))
		}
	case encDelta:
		prev := int64(0)
		for _, v := range vals {
			at = putUvarint(dst, at, zigzag(v-prev))
			prev = v
		}
	case encFOR:
		binary.LittleEndian.PutUint64(dst[at:], uint64(lo))
		dst[at+8] = byte(wFOR)
		pack(dst, at+9, vals, lo, wFOR)
	case encDeltaFOR:
		binary.LittleEndian.PutUint64(dst[at:], uint64(first))
		binary.LittleEndian.PutUint64(dst[at+8:], uint64(dlo))
		dst[at+16] = byte(wDelta)
		at += 17
		acc, pending := uint64(0), uint(0)
		prev := first
		for _, v := range vals[1:] {
			at, acc, pending = packStep(dst, at, acc, pending, uint64(v-prev-dlo), wDelta)
			prev = v
		}
		packTail(dst[at:], acc)
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

// dictChoice picks among raw (raw bytes), the uvarint-indexed dictionary
// (dictSize bytes of dictionary, idxSize of indexes) and the packed one for
// n rows over nd entries, and returns the winner's size and encoding.
func dictChoice(n, nd, raw, dictSize, idxSize int) (int, byte) {
	size, enc := raw, byte(encRaw)
	if dictSize+idxSize < size {
		size, enc = dictSize+idxSize, encDict
	}
	w := dictWidth(nd)
	if packed := dictSize + 1 + packedLen(n, w); packed < size && packedFits(n, packed, w) {
		size, enc = packed, encDictPacked
	}
	return size, enc
}

// dictHopeless says neither dictionary can be smaller than bound bytes any
// more, r rows in with nd entries of dictSize bytes and idxSize index
// bytes so far: every remaining row costs the uvarint indexes at least a
// byte, and the packed indexes' width only grows with the dictionary.
func dictHopeless(n, r, nd, bound, dictSize, idxSize int) bool {
	return dictSize+idxSize+n-r >= bound && dictSize+1+packedLen(n, dictWidth(nd)) >= bound
}

// appendIdx writes the per-row dictionary indexes after a dictionary of nd
// entries: uvarints for encoding 1, the width and the packed indexes for
// encoding 7.
func (sc *encScratch) appendIdx(dst []byte, at int, enc byte, nd int) {
	if enc == encDictPacked {
		w := dictWidth(nd)
		dst[at] = byte(w)
		pack(dst, at+1, sc.idx, 0, w)
		return
	}
	for _, d := range sc.idx {
		at = putUvarint(dst, at, uint64(d))
	}
}

// appendFloats writes a float column raw, as a bit-pattern dictionary
// (ndict uint32, each distinct Float64bits pattern, 8 bytes LE, in
// first-occurrence order, then the per-row indexes, one uvarint each in
// encoding 1 or packed in encoding 7) or as decimals (encoding 8, see
// decimalOf). TPC-H-style measures repeat heavily or are decimals of two
// places (prices), and both forms are exact — -0.0 and every NaN payload keep
// their bits; high-entropy columns stay raw.
//
// The decimal candidate is sized first, in one pass at the exponent its
// sample picks, and the dictionaries after it: their sizing stops the
// moment neither can beat raw or the decimal any more (dictHopeless), which
// is exact — the choice is the one full sizing would make.
func (sc *encScratch) appendFloats(dst []byte, vals []float64) ([]byte, byte) {
	n := len(vals)
	raw := 8 * n
	dec := sc.sizeDecimal(vals, raw)
	bound := raw // a dictionary must come in under it to be chosen
	if dec.size > 0 {
		bound = min(raw, dec.size+1) // encoding 8 loses a tie to either dictionary
	}
	slots, shift := sc.resetDict(n)
	mask := uint64(len(slots) - 1)
	idx, dict := sc.idx, sc.fdict[:0]
	dictSize, idxSize := 4, 0
sizing:
	for r, v := range vals {
		fb := math.Float64bits(v)
		var d uint32
		for i := dictHome(fb, shift); ; i = (i + 1) & mask {
			if s := slots[i]; s == 0 {
				d = uint32(len(dict))
				dict = append(dict, fb)
				slots[i] = d + 1
				dictSize += 8
				if dictHopeless(n, r, len(dict), bound, dictSize, idxSize) {
					dictSize = raw // neither dictionary is chosen
					break sizing
				}
				break
			} else if dict[s-1] == fb {
				d = s - 1
				break
			}
		}
		idx[r] = d
		idxSize += uvarintLen(uint64(d))
	}
	sc.fdict = dict
	size, enc := dictChoice(n, len(dict), raw, dictSize, idxSize)
	if dec.size > 0 && dec.size < size {
		size, enc = dec.size, encDecimal
	}
	dst, at := grow(dst, size)
	switch enc {
	case encRaw:
		for _, v := range vals {
			binary.LittleEndian.PutUint64(dst[at:], math.Float64bits(v))
			at += 8
		}
	case encDecimal:
		sc.appendDecimal(dst, at, dec)
	default:
		binary.LittleEndian.PutUint32(dst[at:], uint32(len(dict)))
		at += 4
		for _, fb := range dict {
			binary.LittleEndian.PutUint64(dst[at:], fb)
			at += 8
		}
		sc.appendIdx(dst, at, enc, len(dict))
	}
	return dst, enc
}

// decimalHeader is encoding 8's header bytes: u8 exponent e, i64 base (the
// smallest integer), u8 width w, i64 minimum correction, u8 width w2.
const decimalHeader = 19

// pow10 is 10^e for every exponent encoding 8 may name, each exact.
var pow10 = [...]float64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9}

// decimalSample is the most rows decimalExponent reads.
const decimalSample = 64

// decimalValue is d/10^e as a float64, where p is 10^e: one correctly rounded
// division, so a value that is the nearest double to its decimal is exactly
// decimalValue of its integer. Encoder and decoder both compute it here.
func decimalValue(d int64, p float64) float64 { return float64(d) / p }

// decimalOf is v's encoding 8 form at p = 10^e: d, the integer nearest v·10^e
// (half to even), and c, the wrapping difference from the bits of
// decimalValue(d) to v's bits, so Float64frombits(Float64bits(
// decimalValue(d, p)) + c) is v, bit for bit. ok is false unless
// |v·10^e| < 2^53 (so false for an infinite or NaN v), where d and its
// float64 are exact.
func decimalOf(v, p float64) (d, c int64, ok bool) {
	x := v * p
	if !(math.Abs(x) < 1<<53) {
		return 0, 0, false
	}
	d = int64(math.RoundToEven(x))
	return d, int64(math.Float64bits(v) - math.Float64bits(decimalValue(d, p))), true
}

// decimalExponent picks encoding 8's exponent for a non-empty vals from at
// most decimalSample rows at an even stride: the e in 0–9 whose sampled
// integers and corrections pack narrowest together (w + w2), ties to the
// smaller, the search stopping at the first e whose sampled corrections are
// all equal (a larger one only widens the integers). It returns the sample's
// widths too, which the whole column's can only exceed; ok is false when no
// exponent fits every sampled value.
func decimalExponent(vals []float64) (e int, w, w2 uint, ok bool) {
	stride := (len(vals) + decimalSample - 1) / decimalSample
	for k, p := range pow10 {
		dlo, clo, fits := decimalOf(vals[0], p)
		dhi, chi := dlo, clo
		for r := stride; r < len(vals) && fits; r += stride {
			var d, c int64
			d, c, fits = decimalOf(vals[r], p)
			dlo, dhi, clo, chi = min(dlo, d), max(dhi, d), min(clo, c), max(chi, c)
		}
		if !fits {
			continue
		}
		kw, kw2 := uint(bits.Len64(uint64(dhi-dlo))), uint(bits.Len64(uint64(chi-clo)))
		if !ok || kw+kw2 < w+w2 {
			e, w, w2, ok = k, kw, kw2, true
		}
		if kw2 == 0 {
			break
		}
	}
	return e, w, w2, ok
}

// decimalForm is a column's sized encoding 8 candidate; size 0 when it does
// not apply.
type decimalForm struct {
	size, e    int
	base, cmin int64 // the smallest integer and correction
	w, w2      uint
}

// sizeDecimal sizes the decimal candidate (encoding 8) of vals and keeps its
// integers and corrections in the scratch for appendDecimal. The candidate
// does not apply when no exponent fits every value, or when the sample alone
// shows it cannot be smaller than raw bytes.
func (sc *encScratch) sizeDecimal(vals []float64, raw int) decimalForm {
	n := len(vals)
	if n == 0 {
		return decimalForm{}
	}
	e, w, w2, ok := decimalExponent(vals)
	if !ok || decimalHeader+packedLen(n, w)+packedLen(n, w2) >= raw {
		return decimalForm{}
	}
	p := pow10[e]
	ds, cs := slices.Grow(sc.ints[:0], n)[:n], slices.Grow(sc.cors[:0], n)[:n]
	sc.ints, sc.cors = ds, cs
	dlo, dhi, clo, chi := int64(math.MaxInt64), int64(math.MinInt64), int64(math.MaxInt64), int64(math.MinInt64)
	for r, v := range vals {
		d, c, fits := decimalOf(v, p)
		if !fits {
			return decimalForm{}
		}
		ds[r], cs[r] = d, c
		dlo, dhi, clo, chi = min(dlo, d), max(dhi, d), min(clo, c), max(chi, c)
	}
	f := decimalForm{e: e, base: dlo, cmin: clo,
		w: uint(bits.Len64(uint64(dhi - dlo))), w2: uint(bits.Len64(uint64(chi - clo)))}
	f.size = decimalHeader + packedLen(n, f.w) + packedLen(n, f.w2)
	if !packedFits(n, f.size, f.w+f.w2) {
		return decimalForm{}
	}
	return f
}

// appendDecimal writes the encoding 8 payload sizeDecimal sized at dst[at:]:
// the header, then each integer less the smallest at width w, then each
// correction less the smallest at width w2.
func (sc *encScratch) appendDecimal(dst []byte, at int, f decimalForm) {
	dst[at] = byte(f.e)
	binary.LittleEndian.PutUint64(dst[at+1:], uint64(f.base))
	dst[at+9] = byte(f.w)
	binary.LittleEndian.PutUint64(dst[at+10:], uint64(f.cmin))
	dst[at+18] = byte(f.w2)
	at = pack(dst, at+decimalHeader, sc.ints, f.base, f.w)
	pack(dst, at, sc.cors, f.cmin, f.w2)
}

// appendStrings writes a string column raw (uint32 length + bytes per row)
// or as a dictionary: ndict uint32, each distinct string (uint32 length +
// bytes) in first-occurrence order, then the per-row indexes as for floats.
// Sizing stops early exactly as for floats.
func (sc *encScratch) appendStrings(dst []byte, vals []string) ([]byte, byte) {
	n := len(vals)
	raw := 4 * n
	for _, s := range vals {
		raw += len(s)
	}
	slots, shift := sc.resetDict(n)
	mask := uint64(len(slots) - 1)
	idx, first := sc.idx, sc.first[:0]
	dictSize, idxSize := 4, 0
sizing:
	for r, v := range vals {
		var d uint32
		for i := dictHome(dictHashString(v), shift); ; i = (i + 1) & mask {
			if s := slots[i]; s == 0 {
				d = uint32(len(first))
				first = append(first, uint32(r))
				slots[i] = d + 1
				dictSize += 4 + len(v)
				if dictHopeless(n, r, len(first), raw, dictSize, idxSize) {
					dictSize = raw // neither dictionary is chosen
					break sizing
				}
				break
			} else if vals[first[s-1]] == v {
				d = s - 1
				break
			}
		}
		idx[r] = d
		idxSize += uvarintLen(uint64(d))
	}
	sc.first = first
	size, enc := dictChoice(n, len(first), raw, dictSize, idxSize)
	dst, at := grow(dst, size)
	if enc == encRaw {
		for _, s := range vals {
			binary.LittleEndian.PutUint32(dst[at:], uint32(len(s)))
			at += 4 + copy(dst[at+4:], s)
		}
		return dst, encRaw
	}
	binary.LittleEndian.PutUint32(dst[at:], uint32(len(first)))
	at += 4
	for _, r := range first {
		s := vals[r]
		binary.LittleEndian.PutUint32(dst[at:], uint32(len(s)))
		at += 4 + copy(dst[at+4:], s)
	}
	sc.appendIdx(dst, at, enc, len(first))
	return dst, enc
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
// unwanted columns (skipped = 0). A caller decoding many frames with one
// keep list prepares a Projection once instead.
func DecodeProject(data []byte, keep []string) (*Batch, int64, error) {
	return NewProjection(keep).Decode(data)
}

// Projection is DecodeProject's keep list, prepared once for a run of
// frames: it hands a batch the previous one's *Schema when their kept
// fields are equal, so the splits of one table share one schema, and it
// reuses its scratch for the field headers. Not safe for concurrent use.
type Projection struct {
	keep map[string]bool // nil: every column
	last *Schema         // the schema of the last batch built
	hdrs []colHdr
}

// colHdr is one QBA2 field header and, once the frame is checked, its
// payload.
type colHdr struct {
	name    []byte // within the frame
	typ     Type
	enc     byte
	kept    bool
	plen    int
	payload []byte
}

// NewProjection prepares the keep list for DecodeProject's semantics.
func NewProjection(keep []string) *Projection {
	p := &Projection{}
	if keep != nil {
		p.keep = make(map[string]bool, len(keep))
		for _, k := range keep {
			p.keep[k] = true
		}
	}
	return p
}

// Decode is DecodeProject(data, keep) for the projection's keep list.
func (p *Projection) Decode(data []byte) (*Batch, int64, error) {
	if len(data) < 4 {
		return nil, 0, corruptf("frame shorter than magic (%d bytes)", len(data))
	}
	switch magic := binary.LittleEndian.Uint32(data); magic {
	case codecMagic2:
		return p.decode2(data)
	case codecMagic:
		b, err := decode1(data)
		if err != nil {
			return nil, 0, err
		}
		if p.keep == nil {
			return b, 0, nil
		}
		names := make([]string, 0, len(b.Schema.Fields))
		for _, f := range b.Schema.Fields {
			if p.keep[f.Name] {
				names = append(names, f.Name)
			}
		}
		return b.Select(names...), 0, nil
	default:
		return nil, 0, corruptf("bad magic %#x", magic)
	}
}

// decode2 parses the QBA2 format, skipping columns not in the keep list.
// All declared counts and payload lengths are validated before allocation.
func (p *Projection) decode2(data []byte) (*Batch, int64, error) {
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
	hdrs := slices.Grow(p.hdrs[:0], int(nf))[:nf]
	p.hdrs = hdrs
	kept := 0
	for i := range hdrs {
		nl, err := get32()
		if err != nil {
			return nil, 0, err
		}
		// name + type + enc + payloadLen
		if int64(nl) > int64(len(data)-pos)-6 {
			return nil, 0, corruptf("truncated field header at offset %d", pos)
		}
		h := &hdrs[i]
		h.name = data[pos : pos+int(nl)]
		pos += int(nl)
		h.typ, h.enc = Type(data[pos]), data[pos+1]
		h.kept = p.keep == nil || p.keep[string(h.name)]
		if h.kept {
			kept++
		}
		pos += 2
		pl, err := get32()
		if err != nil {
			return nil, 0, err
		}
		h.plen = int(pl)
	}
	nr, err := get32()
	if err != nil {
		return nil, 0, err
	}
	for i := range hdrs {
		h := &hdrs[i]
		if int64(h.plen) > int64(len(data)-pos) {
			return nil, 0, corruptf("column %q payload length %d exceeds frame", h.name, h.plen)
		}
		h.payload = data[pos : pos+h.plen]
		pos += h.plen
	}
	if pos != len(data) {
		return nil, 0, corruptf("%d trailing bytes", len(data)-pos)
	}
	// Bound the rows before anything is allocated for them: a column of
	// width w bits a row holds at most 8/w rows a frame byte, and a frame of
	// run-length and width-0 columns alone at most rleMaxRows.
	limit := int64(len(data)) * rleMaxRows
	for _, h := range hdrs {
		w, ok := rowBits(h.enc, h.payload)
		if !ok {
			return nil, 0, corruptf("column %q: packed payload without a valid width", h.name)
		}
		if w > 0 {
			limit = min(limit, 8*int64(len(data))/w)
		}
	}
	if nf > 0 && int64(nr) > limit {
		return nil, 0, corruptf("row count %d exceeds a %d-byte frame", nr, len(data))
	}
	schema, err := p.schemaFor(hdrs, kept)
	if err != nil {
		return nil, 0, err
	}
	rows := int(nr)
	var skipped int64
	cols := make([]*Column, 0, kept)
	for _, h := range hdrs {
		if !h.kept {
			skipped += int64(len(h.payload))
			continue
		}
		c, err := decodeColumn(schema.Fields[len(cols)], h.enc, rows, h.payload)
		if err != nil {
			return nil, 0, err
		}
		cols = append(cols, c)
	}
	b, err := New(schema, cols)
	if err != nil {
		return nil, 0, corruptf("inconsistent columns: %v", err)
	}
	return b, skipped, nil
}

// schemaFor is the schema of the kept fields among hdrs: the previous
// batch's when they are equal to its fields, else a new one. A repeated
// field name is corrupt.
func (p *Projection) schemaFor(hdrs []colHdr, kept int) (*Schema, error) {
	if last := p.last; last != nil && len(last.Fields) == kept {
		j := 0
		for _, h := range hdrs {
			if !h.kept {
				continue
			}
			if f := last.Fields[j]; f.Type != h.typ || f.Name != string(h.name) {
				break
			}
			j++
		}
		if j == kept {
			return last, nil
		}
	}
	fields := make([]Field, 0, kept)
	for _, h := range hdrs {
		if h.kept {
			fields = append(fields, Field{Name: string(h.name), Type: h.typ})
		}
	}
	schema, err := newSchema(fields)
	if err != nil {
		return nil, corruptf("%v", err)
	}
	p.last = schema
	return schema, nil
}

// decodeColumn decodes one QBA2 column payload. The payload must be
// internally consistent — counts match rows, indexes in range, every byte
// consumed — or the frame is rejected as corrupt.
func decodeColumn(f Field, enc byte, rows int, p []byte) (*Column, error) {
	c := &Column{Type: f.Type}
	ints := f.Type == Int64 || f.Type == Date
	var err error
	switch {
	case enc == encRaw:
		return decodeRawColumn(f, rows, p)
	case (enc == encVarint || enc == encDelta) && ints:
		c.Ints, err = decodeVarints(f, rows, p, enc == encDelta)
	case enc == encFOR && ints:
		c.Ints, err = decodeFOR(f, rows, p)
	case enc == encDeltaFOR && ints:
		c.Ints, err = decodeDeltaFOR(f, rows, p)
	case (enc == encDict || enc == encDictPacked) && f.Type == String:
		c.Strings, err = decodeDict(f, rows, p, enc == encDictPacked)
	case (enc == encDict || enc == encDictPacked) && f.Type == Float64:
		c.Floats, err = decodeDictFloats(f, rows, p, enc == encDictPacked)
	case enc == encDecimal && f.Type == Float64:
		c.Floats, err = decodeDecimal(f, rows, p)
	case enc == encRLE && f.Type == Bool:
		c.Bools, err = decodeRLE(f, rows, p)
	default:
		return nil, corruptf("encoding %d invalid for column %q type %d", enc, f.Name, f.Type)
	}
	if err != nil {
		return nil, err
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

// rowBits is the fewest payload bits a row of a column in encoding enc
// costs, read from its payload p: the width of a packed encoding (both
// widths' sum for decimals), 0 for run-length, 8 for any other. ok is false
// when a packed payload is too short to name its width or names one past 64.
func rowBits(enc byte, p []byte) (bits int64, ok bool) {
	switch enc {
	case encRLE:
		return 0, true
	case encFOR, encDeltaFOR:
		at := 8 // after the base, or the first value and the minimum delta
		if enc == encDeltaFOR {
			at = 16
		}
		if len(p) <= at || p[at] > 64 {
			return 0, false
		}
		return int64(p[at]), true
	case encDictPacked:
		if len(p) < 4 {
			return 0, false
		}
		return int64(dictWidth(int(binary.LittleEndian.Uint32(p)))), true
	case encDecimal:
		if len(p) < decimalHeader || p[9] > 64 || p[18] > 64 {
			return 0, false
		}
		return int64(p[9]) + int64(p[18]), true
	}
	return 8, true
}

// packedWidth reads the width byte at p[at] of a packed payload and checks
// that count values of that width fill the rest of it exactly.
func packedWidth(f Field, p []byte, at, count int) (uint, error) {
	if len(p) <= at || p[at] > 64 {
		return 0, corruptf("packed column %q: missing or bad width", f.Name)
	}
	w := uint(p[at])
	if len(p) != at+1+packedLen(count, w) {
		return 0, corruptf("packed column %q: %d payload bytes for %d values of %d bits", f.Name, len(p), count, w)
	}
	return w, nil
}

// unpackBlock is how many packed values a decoder unpacks at a time, into
// a buffer on its stack.
const unpackBlock = 256

// unpack reads len(out) values of width w packed LSB-first in p from value
// index first on, and returns out. The payload was checked to hold every
// value read.
func unpack(out []uint64, p []byte, first int, w uint) []uint64 {
	if w > unpackNarrow && w <= 57 {
		return unpackWide(out, p, first, w)
	}
	return unpackWords(out, p, first, w)
}

// unpackWords is unpack a 64-bit word at a time.
func unpackWords(out []uint64, p []byte, first int, w uint) []uint64 {
	mask := uint64(1)<<w - 1
	bit := first * int(w)
	at := bit >> 6 << 3 // the word holding the first value's low bit
	acc := loadWord(p, at) >> (bit & 63)
	n := 64 - uint(bit&63) // unread bits in acc
	at += 8
	for j := range out {
		if n >= w {
			out[j] = acc & mask
			acc >>= w
			n -= w
			continue
		}
		word := loadWord(p, at)
		at += 8
		out[j] = (acc | word<<n) & mask
		used := w - n // bits of the value in the new word, 1..64
		acc, n = word>>used, 64-used
	}
	return out
}

// unpackNarrow is the widest width unpack reads a word at a time, behind a
// branch per value that predicts well while a word holds many values; wider
// ones (up to 57 bits, which with their offset in a byte fit one unaligned
// 64-bit load) unpackWide reads without it (BenchmarkUnpack shows the
// crossing).
const unpackNarrow = 8

// unpackWide is unpack by one unaligned load per value: each value's bits
// are the 64 bits from its first byte on, shifted by its offset in that byte
// and masked, whatever the other values are.
func unpackWide(out []uint64, p []byte, first int, w uint) []uint64 {
	mask := uint64(1)<<w - 1
	bit := uint(first) * w
	j := 0
	for ; j < len(out) && int(bit>>3)+8 <= len(p); j++ {
		at := bit >> 3
		out[j] = binary.LittleEndian.Uint64(p[at:at+8]) >> (bit & 7) & mask
		bit += w
	}
	for ; j < len(out); j++ {
		out[j] = loadWord(p, int(bit>>3)) >> (bit & 7) & mask
		bit += w
	}
	return out
}

// loadWord is the little-endian word at p[at:], zero-padded past the end.
func loadWord(p []byte, at int) uint64 {
	if at+8 <= len(p) {
		return binary.LittleEndian.Uint64(p[at:])
	}
	var word uint64
	for i := at; i < len(p); i++ {
		word |= uint64(p[i]) << (8 * (i - at))
	}
	return word
}

// decodeFOR reads encoding 5: the base, the width, then each value's offset
// from the base (wrapping).
func decodeFOR(f Field, rows int, p []byte) ([]int64, error) {
	w, err := packedWidth(f, p, 8, rows)
	if err != nil {
		return nil, err
	}
	base := int64(binary.LittleEndian.Uint64(p))
	v := make([]int64, rows)
	var buf [unpackBlock]uint64
	for r := 0; r < rows; r += unpackBlock {
		for j, x := range unpack(buf[:min(unpackBlock, rows-r)], p[9:], r, w) {
			v[r+j] = base + int64(x)
		}
	}
	return v, nil
}

// decodeDeltaFOR reads encoding 6: the first value, the minimum delta, the
// width, then each later value's delta less the minimum (wrapping).
func decodeDeltaFOR(f Field, rows int, p []byte) ([]int64, error) {
	if rows == 0 {
		return nil, corruptf("delta-for column %q: no first value for 0 rows", f.Name)
	}
	w, err := packedWidth(f, p, 16, rows-1)
	if err != nil {
		return nil, err
	}
	cur := int64(binary.LittleEndian.Uint64(p))
	minDelta := int64(binary.LittleEndian.Uint64(p[8:]))
	v := make([]int64, rows)
	v[0] = cur
	var buf [unpackBlock]uint64
	for r := 1; r < rows; r += unpackBlock {
		for j, x := range unpack(buf[:min(unpackBlock, rows-r)], p[17:], r-1, w) {
			cur += minDelta + int64(x)
			v[r+j] = cur
		}
	}
	return v, nil
}

// decodeVarints reads exactly rows zigzag uvarints consuming the whole
// payload; with delta (encoding 3) each is the difference to the previous
// value, summed as it is read.
func decodeVarints(f Field, rows int, p []byte, delta bool) ([]int64, error) {
	// A uvarint costs at least one byte.
	if rows > len(p) {
		return nil, corruptf("varint column %q: row count %d exceeds payload", f.Name, rows)
	}
	v := make([]int64, rows)
	pos := 0
	var acc int64
	for r := range v {
		var x int64
		if pos < len(p) && p[pos] < 0x80 {
			x = unzigzag(uint64(p[pos]))
			pos++
		} else {
			u, n := binary.Uvarint(p[pos:])
			if n <= 0 {
				return nil, corruptf("varint column %q: bad varint at row %d", f.Name, r)
			}
			pos += n
			x = unzigzag(u)
		}
		if delta {
			acc += x
			x = acc
		}
		v[r] = x
	}
	if pos != len(p) {
		return nil, corruptf("varint column %q: %d trailing payload bytes", f.Name, len(p)-pos)
	}
	return v, nil
}

// checkIndexes checks, before anything is allocated for them, the per-row
// indexes p holds after a dictionary of nd entries: uvarints (the count
// only; fillFromDict checks each as it reads it) or, with packed, the width
// and exact length, and that every packed index is below nd. It returns the
// packed width.
func checkIndexes(f Field, rows int, p []byte, nd uint32, packed bool) (uint, error) {
	if !packed {
		if rows > len(p) {
			return 0, corruptf("dict column %q: row count %d exceeds payload", f.Name, rows)
		}
		return 0, nil
	}
	w, err := packedWidth(f, p, 0, rows)
	if err != nil {
		return 0, err
	}
	if w != dictWidth(int(nd)) {
		return 0, corruptf("dict column %q: width %d for %d entries", f.Name, w, nd)
	}
	if uint64(nd) < uint64(1)<<w { // some w-bit index is out of range
		var buf [unpackBlock]uint64
		for r := 0; r < rows; r += unpackBlock {
			for _, d := range unpack(buf[:min(unpackBlock, rows-r)], p[1:], r, w) {
				if d >= uint64(nd) {
					return 0, corruptf("dict column %q: index %d out of range (dictionary size %d)", f.Name, d, nd)
				}
			}
		}
	}
	return w, nil
}

// fillFromDict sets each row of v to the dictionary entry its index at p
// names: packed at width w (checked by checkIndexes), or uvarints.
func fillFromDict[T string | float64](f Field, v, dict []T, p []byte, packed bool, w uint) error {
	if packed {
		var buf [unpackBlock]uint64
		for r := 0; r < len(v); r += unpackBlock {
			for j, d := range unpack(buf[:min(unpackBlock, len(v)-r)], p[1:], r, w) {
				v[r+j] = dict[d]
			}
		}
		return nil
	}
	pos := 0
	for r := range v {
		var d uint64
		if pos < len(p) && p[pos] < 0x80 {
			d = uint64(p[pos])
			pos++
		} else {
			var n int
			if d, n = binary.Uvarint(p[pos:]); n <= 0 {
				return corruptf("dict column %q: bad index varint at row %d", f.Name, r)
			}
			pos += n
		}
		if d >= uint64(len(dict)) {
			return corruptf("dict column %q: index %d out of range (dictionary size %d)", f.Name, d, len(dict))
		}
		v[r] = dict[d]
	}
	if pos != len(p) {
		return corruptf("dict column %q: %d trailing payload bytes", f.Name, len(p)-pos)
	}
	return nil
}

// decodeDict reads a string dictionary column, encoding 1 or, with packed,
// encoding 7.
func decodeDict(f Field, rows int, p []byte, packed bool) ([]string, error) {
	if len(p) < 4 {
		return nil, corruptf("dict column %q: truncated dictionary size", f.Name)
	}
	nd := binary.LittleEndian.Uint32(p)
	pos := 4
	// Each entry costs at least its 4-byte length prefix.
	if int64(nd)*4 > int64(len(p)-pos) {
		return nil, corruptf("dict column %q: dictionary size %d exceeds payload", f.Name, nd)
	}
	// Walk the entries before building them, so the indexes are checked
	// before anything is allocated.
	for i := uint32(0); i < nd; i++ {
		if pos+4 > len(p) {
			return nil, corruptf("dict column %q: truncated entry %d", f.Name, i)
		}
		sl := int(binary.LittleEndian.Uint32(p[pos:]))
		pos += 4
		if int64(sl) > int64(len(p)-pos) {
			return nil, corruptf("dict column %q: truncated entry %d", f.Name, i)
		}
		pos += sl
	}
	idx := p[pos:]
	w, err := checkIndexes(f, rows, idx, nd, packed)
	if err != nil {
		return nil, err
	}
	dict := make([]string, nd)
	pos = 4
	for i := range dict {
		sl := int(binary.LittleEndian.Uint32(p[pos:]))
		dict[i] = string(p[pos+4 : pos+4+sl])
		pos += 4 + sl
	}
	v := make([]string, rows)
	return v, fillFromDict(f, v, dict, idx, packed, w)
}

// decodeDictFloats reads a float dictionary column, encoding 1 or, with
// packed, encoding 7.
func decodeDictFloats(f Field, rows int, p []byte, packed bool) ([]float64, error) {
	if len(p) < 4 {
		return nil, corruptf("float dict column %q: truncated dictionary size", f.Name)
	}
	nd := binary.LittleEndian.Uint32(p)
	if int64(nd)*8 > int64(len(p)-4) {
		return nil, corruptf("float dict column %q: dictionary size %d exceeds payload", f.Name, nd)
	}
	idx := p[4+8*int(nd):]
	w, err := checkIndexes(f, rows, idx, nd, packed)
	if err != nil {
		return nil, err
	}
	dict := make([]float64, nd)
	for i := range dict {
		dict[i] = math.Float64frombits(binary.LittleEndian.Uint64(p[4+8*i:]))
	}
	v := make([]float64, rows)
	return v, fillFromDict(f, v, dict, idx, packed, w)
}

// decodeDecimal reads encoding 8: the header, then rows integers less the
// base at width w, then rows corrections less the smallest at width w2. The
// exponent, both widths and the exact payload length are checked before
// anything is allocated.
func decodeDecimal(f Field, rows int, p []byte) ([]float64, error) {
	if len(p) < decimalHeader || int(p[0]) >= len(pow10) || p[9] > 64 || p[18] > 64 {
		return nil, corruptf("decimal column %q: missing or bad header", f.Name)
	}
	w, w2 := uint(p[9]), uint(p[18])
	dlen := packedLen(rows, w)
	if len(p) != decimalHeader+dlen+packedLen(rows, w2) {
		return nil, corruptf("decimal column %q: %d payload bytes for %d values of %d+%d bits", f.Name, len(p), rows, w, w2)
	}
	pe := pow10[p[0]]
	base, cmin := int64(binary.LittleEndian.Uint64(p[1:])), binary.LittleEndian.Uint64(p[10:])
	ds, cs := p[decimalHeader:decimalHeader+dlen], p[decimalHeader+dlen:]
	v := make([]float64, rows)
	var dbuf, cbuf [unpackBlock]uint64 // cbuf stays 0 when every correction is cmin
	for r := 0; r < rows; r += unpackBlock {
		k := min(unpackBlock, rows-r)
		d, c := unpack(dbuf[:k], ds, r, w), cbuf[:k]
		if w2 > 0 {
			unpack(c, cs, r, w2)
		}
		out := v[r : r+k]
		for j := range out {
			out[j] = math.Float64frombits(math.Float64bits(decimalValue(base+int64(d[j]), pe)) + cmin + c[j])
		}
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
		var u uint64
		if pos < len(p) && p[pos] < 0x80 {
			u = uint64(p[pos])
			pos++
		} else {
			var n int
			if u, n = binary.Uvarint(p[pos:]); n <= 0 {
				return nil, corruptf("rle column %q: bad run length at offset %d", f.Name, pos)
			}
			pos += n
		}
		if u == 0 || u > uint64(rows-len(v)) {
			return nil, corruptf("rle column %q: run length %d with %d rows remaining", f.Name, u, rows-len(v))
		}
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
