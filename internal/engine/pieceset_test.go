package engine

import (
	"bytes"
	"errors"
	"testing"

	"quokka/internal/batch"
)

// elidedTestPiece stands for an elided slot in a test set's payloads.
var elidedTestPiece = []byte("<elided>")

// buildTestPieceSet writes a container for the given edges with the given
// payloads: pieces[e] holds one payload per destination channel, or a
// single one for a broadcast edge; elidedTestPiece is an elided slot.
func buildTestPieceSet(edges []Edge, par []int, pieces [][][]byte) []byte {
	w := beginPieceSet(nil, edges, par)
	for _, edge := range pieces {
		for _, p := range edge {
			if bytes.Equal(p, elidedTestPiece) {
				w.elide(nil)
				continue
			}
			w.buf = append(w.buf, p...)
			w.add(nil)
		}
	}
	return w.buf
}

// testPieceSet is Q15's shape: one producer feeding two hash edges of
// different widths, a broadcast edge and a direct edge.
func testPieceSet() (edges []Edge, par []int, pieces [][][]byte) {
	edges = []Edge{
		{To: 1, Input: 0, Part: Hash("a")},
		{To: 2, Input: 1, Part: Hash("b")},
		{To: 3, Input: 0, Part: Broadcast()},
		{To: 4, Input: 0, Part: Direct()},
	}
	par = []int{4, 3, 2, 5, 4}
	pieces = [][][]byte{
		{[]byte("a0"), nil, []byte("a2-longer")},
		{nil, []byte("b1")},
		{[]byte("shared by five")},
		{nil, nil, []byte("d2"), nil},
	}
	return edges, par, pieces
}

func TestPieceSetRoundTrip(t *testing.T) {
	edges, par, pieces := testPieceSet()
	data := buildTestPieceSet(edges, par, pieces)
	ps, err := parsePieceSet(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != len(edges) {
		t.Fatalf("%d edges, want %d", len(ps), len(edges))
	}
	for e, edge := range edges {
		for c := 0; c < par[edge.To]; c++ {
			want := pieces[e][0]
			if edge.Part.Kind != PartitionBroadcast {
				want = pieces[e][c]
			}
			got, _, err := ps.piece(e, c)
			if err != nil || !bytes.Equal(got, want) {
				t.Errorf("piece(%d,%d) = %q, %v; want %q", e, c, got, err, want)
			}
			if len(got) > 0 && cap(got) != len(got) {
				t.Errorf("piece(%d,%d) can grow into its neighbour: len %d cap %d", e, c, len(got), cap(got))
			}
		}
		if _, _, err := ps.piece(e, par[edge.To]); !errors.Is(err, errCorruptPieceSet) {
			t.Errorf("edge %d: channel %d past the edge's width: %v", e, par[edge.To], err)
		}
	}
	if _, _, err := ps.piece(len(edges), 0); !errors.Is(err, errCorruptPieceSet) {
		t.Errorf("an edge past the set: %v", err)
	}
	if _, _, err := ps.piece(-1, 0); !errors.Is(err, errCorruptPieceSet) {
		t.Errorf("edge -1: %v", err)
	}

	// A broadcast payload is stored once, whatever the fan-out.
	if n := bytes.Count(data, []byte("shared by five")); n != 1 {
		t.Errorf("broadcast payload stored %d times", n)
	}

	// The empty container is the empty output: every piece empty.
	empty, err := parsePieceSet(nil)
	if err != nil || empty != nil {
		t.Fatalf("empty container: %v, %v", empty, err)
	}
	if got, _, err := empty.piece(2, 7); err != nil || got != nil {
		t.Errorf("empty set piece = %q, %v", got, err)
	}
}

// elidedTestSet is testPieceSet with a hash edge's and the broadcast edge's
// non-empty pieces elided, as a producer whose consumers sat beside it
// leaves them.
func elidedTestSet() (edges []Edge, par []int, pieces [][][]byte) {
	edges, par, pieces = testPieceSet()
	pieces[0][2] = elidedTestPiece
	pieces[2][0] = elidedTestPiece
	return edges, par, pieces
}

// TestElidedSlotIsNotAnEmptyPiece: an elided slot takes no payload bytes,
// and reading it from a parsed set is errElidedPiece, never the zero-length
// piece an empty partition is; the other pieces are served as stored. On a
// set just built, the slot serves the batch it holds.
func TestElidedSlotIsNotAnEmptyPiece(t *testing.T) {
	edges, par, pieces := elidedTestSet()
	data := buildTestPieceSet(edges, par, pieces)
	full := buildTestPieceSet(testPieceSet())
	if saved := len(full) - len(data); saved != len("a2-longer")+len("shared by five") {
		t.Errorf("eliding two pieces saved %d bytes", saved)
	}
	ps, err := parsePieceSet(data)
	if err != nil {
		t.Fatal(err)
	}
	for e, edge := range edges {
		for c := 0; c < par[edge.To]; c++ {
			want := pieces[e][0]
			if edge.Part.Kind != PartitionBroadcast {
				want = pieces[e][c]
			}
			got, _, err := ps.piece(e, c)
			if bytes.Equal(want, elidedTestPiece) {
				if !errors.Is(err, errElidedPiece) || got != nil {
					t.Errorf("elided piece(%d,%d) = %q, %v; want errElidedPiece", e, c, got, err)
				}
				continue
			}
			if err != nil || !bytes.Equal(got, want) {
				t.Errorf("piece(%d,%d) = %q, %v; want %q", e, c, got, err, want)
			}
		}
	}

	hb := batch.MustNew(batch.NewSchema(batch.F("x", batch.Int64)), []*batch.Column{batch.NewIntColumn([]int64{7})})
	w := beginPieceSet(nil, edges[:1], par)
	w.add(nil)
	w.elide(hb)
	w.add(nil)
	built, err := parsePieceSet(w.buf)
	if err != nil {
		t.Fatal(err)
	}
	built[0].batches = w.batches
	if got, b, err := built.piece(0, 1); err != nil || got != nil || b != hb {
		t.Errorf("built elided slot = %q, %p, %v; want its batch %p", got, b, err, hb)
	}
}

// TestPieceSetTruncated feeds every strict prefix of a container to the
// parser: each is a typed error (or the empty container), never a panic.
func TestPieceSetTruncated(t *testing.T) {
	data := buildTestPieceSet(testPieceSet())
	for i := 1; i < len(data); i++ {
		if _, err := parsePieceSet(data[:i]); !errors.Is(err, errCorruptPieceSet) {
			t.Fatalf("prefix %d/%d: error = %v, want errCorruptPieceSet", i, len(data), err)
		}
	}
	if _, err := parsePieceSet(append(bytes.Clone(data), 0)); !errors.Is(err, errCorruptPieceSet) {
		t.Errorf("trailing byte: error = %v, want errCorruptPieceSet", err)
	}
	for name, at := range map[string]int{"magic": 0, "edge count": 7, "flag": 8, "channel count": 12} {
		bad := bytes.Clone(data)
		bad[at] = 0xFF
		if _, err := parsePieceSet(bad); !errors.Is(err, errCorruptPieceSet) {
			t.Errorf("damaged %s: error = %v, want errCorruptPieceSet", name, err)
		}
	}
}

// FuzzParsePieceSet: arbitrary bytes parse or fail with the typed error,
// and whatever parses serves every piece it declares from inside the
// container. Corpus in testdata/fuzz.
func FuzzParsePieceSet(f *testing.F) {
	f.Add([]byte{})
	f.Add(buildTestPieceSet(testPieceSet()))
	f.Add(buildTestPieceSet(elidedTestSet()))
	f.Fuzz(func(t *testing.T, data []byte) {
		ps, err := parsePieceSet(data)
		if err != nil {
			if !errors.Is(err, errCorruptPieceSet) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		total := 0
		for e, edge := range ps {
			for c := range edge.data {
				got, _, err := ps.piece(e, c)
				if err != nil && !errors.Is(err, errElidedPiece) {
					t.Fatalf("declared piece (%d,%d) not served: %v", e, c, err)
				}
				total += len(got)
			}
		}
		if total > len(data) {
			t.Fatalf("pieces hold %d bytes of a %d-byte container", total, len(data))
		}
	})
}
