package engine

import (
	"bytes"
	"errors"
	"testing"
)

// buildTestPieceSet writes a container for the given edges with the given
// payloads: pieces[e] holds one payload per destination channel, or a
// single one for a broadcast edge.
func buildTestPieceSet(edges []Edge, par []int, pieces [][][]byte) []byte {
	w := beginPieceSet(nil, edges, par)
	for _, edge := range pieces {
		for _, p := range edge {
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
			got, _, ok := ps.piece(e, c)
			if !ok || !bytes.Equal(got, want) {
				t.Errorf("piece(%d,%d) = %q, %v; want %q", e, c, got, ok, want)
			}
			if len(got) > 0 && cap(got) != len(got) {
				t.Errorf("piece(%d,%d) can grow into its neighbour: len %d cap %d", e, c, len(got), cap(got))
			}
		}
		if _, _, ok := ps.piece(e, par[edge.To]); ok {
			t.Errorf("edge %d: channel %d past the edge's width was served", e, par[edge.To])
		}
	}
	if _, _, ok := ps.piece(len(edges), 0); ok {
		t.Error("an edge past the set was served")
	}
	if _, _, ok := ps.piece(-1, 0); ok {
		t.Error("edge -1 was served")
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
	if got, _, ok := empty.piece(2, 7); !ok || got != nil {
		t.Errorf("empty set piece = %q, %v", got, ok)
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
				got, _, ok := ps.piece(e, c)
				if !ok {
					t.Fatalf("declared piece (%d,%d) not served", e, c)
				}
				total += len(got)
			}
		}
		if total > len(data) {
			t.Fatalf("pieces hold %d bytes of a %d-byte container", total, len(data))
		}
	})
}
