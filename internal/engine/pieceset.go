package engine

import (
	"encoding/binary"
	"errors"
	"fmt"

	"quokka/internal/batch"
)

// A piece set is one task's output, serialized at most once: for every
// consumer edge of the producing stage (in plan.Consumers order) the
// encoded piece of every destination channel, back to back behind a small
// self-describing index.
//
//	magic  uint32 "QPS1"
//	nedges uint32
//	per edge:  shared uint8, nchan uint32
//	lengths:   uint32 per piece, edge after edge — nchan of them, or one
//	           when the edge is shared (a Broadcast edge stores its single
//	           payload once and every channel receives it); 0xFFFFFFFF marks
//	           an elided slot, whose piece has no bytes here
//	payloads:  the pieces, in length order
//
// The container is the push payload (every flight.Partition.Data is a
// sub-slice of it), the upstream backup and the spooled object, so a replay
// re-pushes stored pieces as they are — no decode, no re-partitioning, no
// re-encode. A zero-length container is an empty output: every piece empty.
//
// An elided slot is a non-empty piece that was never encoded: its consumer
// sat on the producer's worker when the task was encoded, under a policy
// that never replays such a piece (ftCaps.elidesLocal). The consumer is
// handed the batch, and the bytes exist nowhere. Reading one back is
// errElidedPiece, never an empty piece.

const (
	pieceSetMagic = 0x31535051 // "QPS1"
	elidedLen     = 0xFFFFFFFF // the length an elided slot records
)

// errCorruptPieceSet is wrapped by every piece-set parse error.
var errCorruptPieceSet = errors.New("engine: corrupt piece set")

// errElidedPiece is reading an elided slot from a stored set, or pushing one
// to another worker: the piece exists only as a batch in its producer's
// process. No retry can give it bytes, so it fails the query.
var errElidedPiece = errors.New("engine: elided piece read")

// edgePieces is one consumer edge's part of a piece set.
type edgePieces struct {
	nchan  int      // destination channels
	shared bool     // one payload serves all nchan channels
	data   [][]byte // nchan payloads, or one when shared; nil = empty or elided
	// elided[i] marks slot i elided; nil when no slot of the edge is.
	elided []bool
	// batches[i] is the batch slot i holds, on a set encodePieces just built;
	// nil on a parsed one (a backup, a spool object).
	batches []*batch.Batch
}

// pieceSet indexes a container edge by edge. The nil set is the empty
// output's.
type pieceSet []edgePieces

// piece returns the payload for channel ch of consumer edge e and, on a set
// built in this process, the batch behind it — an elided slot's is its only
// form. It fails for a piece the set does not have (a container that does
// not match the plan) and, with errElidedPiece, for an elided slot of a
// parsed set.
func (ps pieceSet) piece(e, ch int) (data []byte, b *batch.Batch, err error) {
	if ps == nil {
		return nil, nil, nil
	}
	if e < 0 || e >= len(ps) || ch < 0 || ch >= ps[e].nchan {
		return nil, nil, fmt.Errorf("%w: no piece for edge %d channel %d", errCorruptPieceSet, e, ch)
	}
	if ps[e].shared {
		ch = 0
	}
	if ps[e].batches != nil {
		b = ps[e].batches[ch]
	}
	if b == nil && ps[e].elided != nil && ps[e].elided[ch] {
		return nil, nil, fmt.Errorf("%w: edge %d channel %d", errElidedPiece, e, ch)
	}
	return ps[e].data[ch], b, nil
}

// pieceSetWriter lays a container out in buf. begin writes the index with
// zeroed lengths; the caller then appends each piece's bytes to buf and
// calls add, which records what was appended since the previous piece and
// the batch it encodes — or, appending nothing, calls elide.
type pieceSetWriter struct {
	buf     []byte
	slot    int            // offset of the next unrecorded length
	mark    int            // len(buf) where the next piece starts
	batches []*batch.Batch // one per recorded piece, in container order
}

// beginPieceSet starts a container in buf for the given consumer edges;
// par is the channel count per stage.
func beginPieceSet(buf []byte, edges []Edge, par []int) pieceSetWriter {
	buf = binary.LittleEndian.AppendUint32(buf, pieceSetMagic)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(edges)))
	lengths := 0
	for _, e := range edges {
		if e.Part.Kind == PartitionBroadcast {
			buf = append(buf, 1)
			lengths++
		} else {
			buf = append(buf, 0)
			lengths += par[e.To]
		}
		buf = binary.LittleEndian.AppendUint32(buf, uint32(par[e.To]))
	}
	slot := len(buf)
	buf = append(buf, make([]byte, 4*lengths)...)
	return pieceSetWriter{buf: buf, slot: slot, mark: len(buf)}
}

// add records the bytes appended to buf since the previous piece (possibly
// none: an empty partition, whose b is nil) as the next piece, encoding b.
func (w *pieceSetWriter) add(b *batch.Batch) { w.record(uint32(len(w.buf)-w.mark), b) }

// elide records the next piece as an elided slot holding b, unencoded.
func (w *pieceSetWriter) elide(b *batch.Batch) { w.record(elidedLen, b) }

func (w *pieceSetWriter) record(length uint32, b *batch.Batch) {
	binary.LittleEndian.PutUint32(w.buf[w.slot:], length)
	w.slot += 4
	w.mark = len(w.buf)
	w.batches = append(w.batches, b)
}

// parsePieceSet indexes a container. Every count and length is validated
// before it sizes an allocation or a slice; damaged bytes return an error
// wrapping errCorruptPieceSet, never panic.
func parsePieceSet(data []byte) (pieceSet, error) {
	if len(data) == 0 {
		return nil, nil
	}
	corrupt := func(format string, args ...any) (pieceSet, error) {
		return nil, fmt.Errorf("%w: %s", errCorruptPieceSet, fmt.Sprintf(format, args...))
	}
	if len(data) < 8 || binary.LittleEndian.Uint32(data) != pieceSetMagic {
		return corrupt("bad header")
	}
	nedges := int(binary.LittleEndian.Uint32(data[4:]))
	pos := 8
	if nedges > (len(data)-pos)/5 {
		return corrupt("edge count %d exceeds container", nedges)
	}
	ps := make(pieceSet, nedges)
	lengths := 0
	for i := range ps {
		flag, nchan := data[pos], int(binary.LittleEndian.Uint32(data[pos+1:]))
		pos += 5
		if flag > 1 || (flag == 1 && nchan == 0) {
			return corrupt("edge %d: flag %d with %d channels", i, flag, nchan)
		}
		ps[i].nchan, ps[i].shared = nchan, flag == 1
		if ps[i].shared {
			lengths++
		} else {
			lengths += nchan
		}
		// Each length costs four bytes, all of them after the edge table.
		if lengths > (len(data)-pos)/4 {
			return corrupt("edge %d: %d pieces exceed container", i, lengths)
		}
	}
	slot := pos
	pos += 4 * lengths
	for i := range ps {
		n := ps[i].nchan
		if ps[i].shared {
			n = 1
		}
		ps[i].data = make([][]byte, n)
		for c := range ps[i].data {
			raw := binary.LittleEndian.Uint32(data[slot:])
			slot += 4
			if raw == elidedLen {
				if ps[i].elided == nil {
					ps[i].elided = make([]bool, n)
				}
				ps[i].elided[c] = true
				continue
			}
			l := int(raw)
			if l > len(data)-pos {
				return corrupt("edge %d piece %d: length %d exceeds container", i, c, l)
			}
			if l > 0 {
				ps[i].data[c] = data[pos : pos+l : pos+l]
			}
			pos += l
		}
	}
	if pos != len(data) {
		return corrupt("%d trailing bytes", len(data)-pos)
	}
	return ps, nil
}
