package batch

import (
	"encoding/binary"
	"math"
)

// Group/join key encoding and hashing, shared by the operators' hash
// tables and the partition router so every row's key is encoded and
// hashed exactly once per batch.
//
// The encoding is positional and unambiguous: fixed-width 8-byte
// little-endian for Int64/Date, Float64bits for floats (so 0.0 and -0.0
// encode differently and form distinct keys — the engine's key semantics
// follow bit equality, not IEEE numeric equality), a 4-byte length prefix
// plus bytes for strings (so ("ab","c") and ("a","bc") never collide),
// and a single 0/1 byte for bools.
//
// The hash is fnv-1a over that encoding. Both the constants and the
// encoding are part of the recovery determinism contract: a hash edge's
// channel assignment is HashKey(encoding) mod the consumer's channel count
// (Scatter). Changing either changes channel assignment and would break
// lineage replay against state built before the change.

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// HashKey returns the fnv-1a hash of an encoded key.
func HashKey(key []byte) uint64 {
	h := uint64(fnvOffset64)
	for _, c := range key {
		h ^= uint64(c)
		h *= fnvPrime64
	}
	return h
}

// HashString is HashKey over a string's bytes without allocating. It
// exists so other subsystems with incidental hashing needs (GCS shard
// striping) use THIS hash rather than hand-rolling a second one — the
// hashonce invariant analyzer (internal/lint) rejects any fnv constants
// or hash-package imports outside this package.
func HashString(s string) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return h
}

// AppendKey appends the binary key encoding of physical row r's key
// columns to dst and returns the extended slice.
func AppendKey(dst []byte, b *Batch, keyIdx []int, r int) []byte {
	var u [8]byte
	for _, ci := range keyIdx {
		c := b.Cols[ci]
		switch c.Type {
		case Int64, Date:
			binary.LittleEndian.PutUint64(u[:], uint64(c.Ints[r]))
			dst = append(dst, u[:]...)
		case Float64:
			binary.LittleEndian.PutUint64(u[:], math.Float64bits(c.Floats[r]))
			dst = append(dst, u[:]...)
		case String:
			binary.LittleEndian.PutUint32(u[:4], uint32(len(c.Strings[r])))
			dst = append(dst, u[:4]...)
			dst = append(dst, c.Strings[r]...)
		case Bool:
			if c.Bools[r] {
				dst = append(dst, 1)
			} else {
				dst = append(dst, 0)
			}
		}
	}
	return dst
}

// hash1 folds one byte into an fnv-1a accumulator.
func hash1(h uint64, b byte) uint64 {
	h ^= uint64(b)
	h *= fnvPrime64
	return h
}

// hash8 folds an 8-byte little-endian value into an fnv-1a accumulator,
// byte order matching AppendKey's fixed-width encoding.
func hash8(h, v uint64) uint64 {
	for i := 0; i < 64; i += 8 {
		h = hash1(h, byte(v>>i))
	}
	return h
}

// HashKeys computes HashKey(AppendKey(row)) for every logical row of b in
// one column-at-a-time pass, without materializing the encoded keys. The
// result is appended into dst (reused when capacity allows) and returned.
// Rows are b's logical rows: the selection vector, if any, is applied.
func HashKeys(dst []uint64, b *Batch, keyIdx []int) []uint64 {
	n := b.NumRows()
	if cap(dst) < n {
		dst = make([]uint64, n)
	}
	dst = dst[:n]
	for i := range dst {
		dst[i] = fnvOffset64
	}
	sel := b.Sel
	for _, ci := range keyIdx {
		c := b.Cols[ci]
		switch c.Type {
		case Int64, Date:
			if sel == nil {
				for i, v := range c.Ints[:n] {
					dst[i] = hash8(dst[i], uint64(v))
				}
			} else {
				for i, p := range sel {
					dst[i] = hash8(dst[i], uint64(c.Ints[p]))
				}
			}
		case Float64:
			if sel == nil {
				for i, v := range c.Floats[:n] {
					dst[i] = hash8(dst[i], math.Float64bits(v))
				}
			} else {
				for i, p := range sel {
					dst[i] = hash8(dst[i], math.Float64bits(c.Floats[p]))
				}
			}
		case String:
			hashStr := func(h uint64, s string) uint64 {
				l := uint32(len(s))
				h = hash1(h, byte(l))
				h = hash1(h, byte(l>>8))
				h = hash1(h, byte(l>>16))
				h = hash1(h, byte(l>>24))
				for j := 0; j < len(s); j++ {
					h = hash1(h, s[j])
				}
				return h
			}
			if sel == nil {
				for i, s := range c.Strings[:n] {
					dst[i] = hashStr(dst[i], s)
				}
			} else {
				for i, p := range sel {
					dst[i] = hashStr(dst[i], c.Strings[p])
				}
			}
		case Bool:
			if sel == nil {
				for i, v := range c.Bools[:n] {
					if v {
						dst[i] = hash1(dst[i], 1)
					} else {
						dst[i] = hash1(dst[i], 0)
					}
				}
			} else {
				for i, p := range sel {
					if c.Bools[p] {
						dst[i] = hash1(dst[i], 1)
					} else {
						dst[i] = hash1(dst[i], 0)
					}
				}
			}
		}
	}
	return dst
}
