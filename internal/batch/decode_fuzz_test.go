package batch

import (
	"bytes"
	"testing"
)

// qba2Single is a one-column QBA2 frame whose column the encoder wrote in
// encoding want; it fails the test if the encoder chose another.
func qba2Single(t testing.TB, name string, col *Column, want byte) []byte {
	b := MustNew(NewSchema(F(name, col.Type)), []*Column{col})
	frame := EncodeCompressed(b)
	if got := frame[12+len(name)+1]; got != want {
		t.Fatalf("column %q encoded as %d, want %d", name, got, want)
	}
	return frame
}

// FuzzDecode holds the decoder every received piece, backup, spool object
// and spill run goes through to its contract on arbitrary bytes: Decode and
// DecodeProject never panic; a frame Decode accepts re-encodes (Encode) to
// bytes that decode to the same batch; and DecodeProject of a column subset
// is exactly those columns of the full decode.
func FuzzDecode(f *testing.F) {
	ints := make([]int64, 64)
	sorted := make([]int64, 64)
	bools := make([]bool, 64)
	floats := make([]float64, 64)
	strs := make([]string, 64)
	for i := range ints {
		ints[i] = int64(i%7) - 3
		sorted[i] = 1_000_000 + int64(i)*3
		bools[i] = i >= 40
		floats[i] = float64(i%3) + 0.5
		strs[i] = []string{"AIR", "MAIL", "SHIP"}[i%3]
	}
	noisy := []float64{0.1, -0, 3.25e300, 1e-300}
	seeds := [][]byte{
		qba2Single(f, "raw", NewFloatColumn(noisy), encRaw),
		qba2Single(f, "sdict", NewStringColumn(strs), encDict),
		qba2Single(f, "fdict", NewFloatColumn(floats), encDict),
		qba2Single(f, "varint", NewIntColumn(ints), encVarint),
		qba2Single(f, "delta", NewIntColumn(sorted), encDelta),
		qba2Single(f, "rle", NewBoolColumn(bools), encRLE),
	}
	all := MustNew(NewSchema(F("i", Int64), F("d", Date), F("f", Float64), F("s", String), F("b", Bool)),
		[]*Column{NewIntColumn(ints), NewDateColumn(sorted), NewFloatColumn(floats), NewStringColumn(strs), NewBoolColumn(bools)})
	whole := EncodeCompressed(all)
	empty := MustNew(NewSchema(F("i", Int64), F("s", String)), []*Column{NewIntColumn(nil), NewStringColumn(nil)})
	seeds = append(seeds, Encode(all), whole, EncodeCompressed(empty), Encode(empty), []byte{})
	for _, cut := range []int{3, 4, 8, 13, len(whole) / 2, len(whole) - 1} {
		seeds = append(seeds, whole[:cut])
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := Decode(data)
		if err != nil {
			DecodeProject(data, []string{"i", "s"}) // must not panic either
			return
		}
		enc := Encode(b)
		again, err := Decode(enc)
		if err != nil {
			t.Fatalf("re-encoded frame rejected: %v", err)
		}
		if !bytes.Equal(Encode(again), enc) {
			t.Fatal("re-encoded frame decodes to another batch")
		}
		// Keep every other column, by name, in the frame's order.
		var keep []string
		var want []int
		for i, fl := range b.Schema.Fields {
			if i%2 == 0 {
				keep = append(keep, fl.Name)
				want = append(want, i)
			}
		}
		p, _, err := DecodeProject(data, keep)
		if err != nil {
			t.Fatalf("DecodeProject rejects what Decode accepts: %v", err)
		}
		if p.Schema.Len() != len(want) {
			t.Fatalf("DecodeProject kept %d columns, want %d", p.Schema.Len(), len(want))
		}
		for j, i := range want {
			if p.Schema.Fields[j] != b.Schema.Fields[i] {
				t.Fatalf("projected field %d is %v, want %v", j, p.Schema.Fields[j], b.Schema.Fields[i])
			}
			one := func(x *Batch, c int) []byte {
				return Encode(MustNew(NewSchema(x.Schema.Fields[c]), []*Column{x.Cols[c]}))
			}
			if !bytes.Equal(one(p, j), one(b, i)) {
				t.Fatalf("projected column %q differs from the full decode's", b.Schema.Fields[i].Name)
			}
		}
	})
}
