package batch

import "bytes"

// This file implements the vectorized hash path's core data structure: an
// open-addressing hash table whose keys live contiguously in a byte arena.
//
// Memory layout:
//
//	arena  []byte    all distinct keys, back to back, in insertion order
//	bounds []uint32  key i occupies arena[bounds[i]:bounds[i+1]]
//	hashes []uint64  cached 64-bit hash of key i (also the router hash)
//	slots  []slot    power-of-two open-addressing directory
//
// A slot holds the cached hash plus idx+1 (0 = empty). Probing is linear;
// growth doubles the directory and reinserts from the cached hashes, never
// re-reading key bytes. The payload index returned by InsertKey is dense
// insertion order, so callers keep per-key state in plain slices indexed
// by it — no per-key pointers, no per-key allocations.

// KeyArena stores variable-length keys contiguously, addressed by index.
type KeyArena struct {
	buf    []byte
	bounds []uint32 // len = nkeys+1; bounds[0] = 0
}

// Append copies key into the arena and returns its index.
func (a *KeyArena) Append(key []byte) int {
	if len(a.bounds) == 0 {
		a.bounds = append(a.bounds, 0)
	}
	a.buf = append(a.buf, key...)
	a.bounds = append(a.bounds, uint32(len(a.buf)))
	return len(a.bounds) - 2
}

// Key returns key i as a view into the arena. The slice is valid until the
// next Append (which may reallocate the slab).
func (a *KeyArena) Key(i int) []byte {
	return a.buf[a.bounds[i]:a.bounds[i+1]]
}

// Bytes returns the arena's memory footprint.
func (a *KeyArena) Bytes() int64 {
	return int64(len(a.buf)) + int64(len(a.bounds))*4
}

type slot struct {
	hash uint64
	idx  uint32 // payload index + 1; 0 marks an empty slot
}

// HashTable maps encoded keys to dense payload indexes (0, 1, 2, ... in
// insertion order). The zero value is not usable; call NewHashTable.
type HashTable struct {
	arena  KeyArena
	hashes []uint64
	slots  []slot
	mask   uint64
	shift  uint // 64 - log2(len(slots)); see slotIndex
	n      int
}

const minTableCap = 16

// NewHashTable creates a table sized for about capHint keys.
func NewHashTable(capHint int) *HashTable {
	c := minTableCap
	for c < capHint*2 {
		c <<= 1
	}
	t := &HashTable{slots: make([]slot, c), mask: uint64(c - 1)}
	t.shift = shiftFor(c)
	return t
}

func shiftFor(slots int) uint {
	s := uint(64)
	for c := slots; c > 1; c >>= 1 {
		s--
	}
	return s
}

// slotIndex maps a raw hash to its home slot via Fibonacci hashing (high
// bits of hash * 2^64/phi). The operator of a hash-routed channel holds
// keys whose raw hashes are all congruent mod the channel count —
// identical low bits — so masking the raw hash would collapse home
// positions onto every n-th slot and cause severe linear-probe clustering;
// the multiplicative remix spreads them. The raw hash is still what slots
// store and growth reinserts by, and what channel routing uses (hash mod
// n), so the remix is invisible outside slot placement.
func (t *HashTable) slotIndex(hash uint64) uint64 {
	return (hash * fibMul) >> t.shift
}

// fibMul is 2^64/phi, the Fibonacci-hashing multiplier.
const fibMul = 0x9E3779B97F4A7C15

// Len returns the number of distinct keys inserted.
func (t *HashTable) Len() int { return t.n }

// Key returns the encoded key for payload index i.
func (t *HashTable) Key(i int) []byte { return t.arena.Key(i) }

// Bytes returns the table's memory footprint: arena, hash cache and slot
// directory.
func (t *HashTable) Bytes() int64 {
	return t.arena.Bytes() + int64(len(t.hashes))*8 + int64(len(t.slots))*16
}

// InsertKey finds or inserts a key with its precomputed hash, returning
// the payload index and whether the key is new. The key bytes are copied
// into the arena on insert; the caller may reuse its buffer.
func (t *HashTable) InsertKey(hash uint64, key []byte) (idx int, inserted bool) {
	if uint64(t.n)*4 >= uint64(len(t.slots))*3 {
		t.grow()
	}
	for i := t.slotIndex(hash); ; i = (i + 1) & t.mask {
		s := &t.slots[i]
		if s.idx == 0 {
			id := t.arena.Append(key)
			t.hashes = append(t.hashes, hash)
			s.hash = hash
			s.idx = uint32(id) + 1
			t.n++
			return id, true
		}
		if s.hash == hash && bytes.Equal(t.arena.Key(int(s.idx-1)), key) {
			return int(s.idx - 1), false
		}
	}
}

// Find returns the payload index for a key, or -1 when absent.
func (t *HashTable) Find(hash uint64, key []byte) int {
	for i := t.slotIndex(hash); ; i = (i + 1) & t.mask {
		s := t.slots[i]
		if s.idx == 0 {
			return -1
		}
		if s.hash == hash && bytes.Equal(t.arena.Key(int(s.idx-1)), key) {
			return int(s.idx - 1)
		}
	}
}

// grow doubles the slot directory, reinserting from cached hashes. Key
// bytes are never touched: distinct live keys cannot collide on (hash,
// slot) with each other during reinsertion, so probing for an empty slot
// suffices.
func (t *HashTable) grow() {
	old := t.slots
	t.slots = make([]slot, len(old)*2)
	t.mask = uint64(len(t.slots) - 1)
	t.shift = shiftFor(len(t.slots))
	for _, s := range old {
		if s.idx == 0 {
			continue
		}
		for i := t.slotIndex(s.hash); ; i = (i + 1) & t.mask {
			if t.slots[i].idx == 0 {
				t.slots[i] = s
				break
			}
		}
	}
}
