package batch

import (
	"bytes"
	"encoding/binary"
	"math"
	"slices"
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

// frame1 hand-builds a QBA2 frame of one column named "c". A one-column
// frame's payload starts 22 bytes plus the name's length in.
func frame1(typ Type, enc byte, rows uint32, payload []byte) []byte {
	d := binary.LittleEndian.AppendUint32(nil, codecMagic2)
	d = binary.LittleEndian.AppendUint32(d, 1)
	d = binary.LittleEndian.AppendUint32(d, 1)
	d = append(d, 'c', byte(typ), enc)
	d = binary.LittleEndian.AppendUint32(d, uint32(len(payload)))
	d = binary.LittleEndian.AppendUint32(d, rows)
	return append(d, payload...)
}

// width0Frames are frames of one width-0 for column (9 payload bytes, 32
// frame bytes) declaring exactly the rleMaxRows rows a frame byte the
// decoder accepts, and one row more, which it refuses.
func width0Frames() (atBound, pastBound []byte) {
	payload := append(binary.LittleEndian.AppendUint64(nil, 7), 0)
	const rows = (4 + 4 + 11 + 4 + 9) * rleMaxRows
	return frame1(Int64, encFOR, rows, payload), frame1(Int64, encFOR, rows+1, payload)
}

// decimalHead is an encoding 8 header: exponent e, base, width w, minimum
// correction, width w2.
func decimalHead(e byte, base int64, w byte, cmin int64, w2 byte) []byte {
	p := binary.LittleEndian.AppendUint64([]byte{e}, uint64(base))
	p = binary.LittleEndian.AppendUint64(append(p, w), uint64(cmin))
	return append(p, w2)
}

// decimal0Frames are frames of one encoding 8 column with both widths 0
// (the 19-byte header alone: 42 frame bytes, every row 1.25) declaring
// exactly the rleMaxRows rows a frame byte the decoder accepts, and one row
// more, which it refuses.
func decimal0Frames() (atBound, pastBound []byte) {
	payload := decimalHead(2, 125, 0, 0, 0)
	const rows = (4 + 4 + 11 + 4 + decimalHeader) * rleMaxRows
	return frame1(Float64, encDecimal, rows, payload), frame1(Float64, encDecimal, rows+1, payload)
}

// indexPastDict is an encoding 7 column of three entries whose last row's
// 2-bit index is 3: corrupt.
func indexPastDict() []byte {
	p := binary.LittleEndian.AppendUint32(nil, 3)
	for _, s := range []string{"A", "N", "R"} {
		p = append(binary.LittleEndian.AppendUint32(p, 1), s...)
	}
	p = append(p, 2, 0b11_10_01_00) // width 2; rows 0..3 index 0, 1, 2, 3
	return frame1(String, encDictPacked, 4, p)
}

// FuzzDecode holds the decoder every received piece, backup, spool object
// and spill run goes through to its contract on arbitrary bytes: Decode and
// DecodeProject never panic; a frame Decode accepts re-encodes (Encode) to
// bytes that decode to the same batch; and DecodeProject of a column subset
// is exactly those columns of the full decode.
func FuzzDecode(f *testing.F) {
	ints := make([]int64, 64)
	sorted := make([]int64, 64)
	stepped := make([]int64, 64)
	small := make([]int64, 64)
	bools := make([]bool, 64)
	floats := make([]float64, 64)
	strs := make([]string, 64)
	for i := range ints {
		ints[i] = int64(i%7) - 3
		sorted[i] = 1_000_000 + int64(i)*3
		stepped[i] = 1_000_000 + int64(i)*3 + int64(i%2)
		small[i] = int64(i % 7)
		bools[i] = i >= 40
		floats[i] = float64(i%3) + 0.5
		strs[i] = []string{"AIR", "MAIL", "SHIP"}[i%3]
	}
	outliers := slices.Clone(ints)
	outliers[10], outliers[50] = 1<<40, -1<<40
	jumpy := slices.Clone(sorted)
	for i := 32; i < len(jumpy); i++ {
		jumpy[i] += 1 << 30
	}
	noisy := []float64{0.1, -0, 3.25e300, 1e-300}
	seeds := [][]byte{
		qba2Single(f, "raw", NewFloatColumn(noisy), encRaw),
		// Retired encodings 1 and 2, well formed in their old layouts: refused.
		frame1(String, encRetiredDict, 64, dictPayload(refStringDict(strs))),
		frame1(Float64, encRetiredDict, 64, dictPayload(refFloatDict(floats))),
		frame1(Int64, encRetiredVarint, 64, varintPayload(outliers)),
		qba2Single(f, "delta", NewIntColumn(jumpy), encDelta),
		qba2Single(f, "rle", NewBoolColumn(bools), encRLE),
		qba2Single(f, "for", NewIntColumn(small), encFOR),
		qba2Single(f, "for0", NewIntColumn(make([]int64, 64)), encFOR),
		qba2Single(f, "dfor", NewDateColumn(stepped), encDeltaFOR),
		qba2Single(f, "dfor0", NewIntColumn(sorted), encDeltaFOR),
		qba2Single(f, "spacked", NewStringColumn(strs), encDictPacked),
		qba2Single(f, "fpacked", NewFloatColumn(floats), encDictPacked),
		qba2Single(f, "spacked0", NewStringColumn(make([]string, 64)), encDictPacked),
		// Width 64, the widest: base MinInt64 plus offsets 0, 2^64-1, 5.
		frame1(Int64, encFOR, 3, slices.Concat(binary.LittleEndian.AppendUint64(nil, 1<<63), []byte{64},
			binary.LittleEndian.AppendUint64(nil, 0), binary.LittleEndian.AppendUint64(nil, math.MaxUint64),
			binary.LittleEndian.AppendUint64(nil, 5))),
		indexPastDict(),
	}
	atBound, pastBound := width0Frames()
	seeds = append(seeds, atBound, pastBound)
	// Decimals (encoding 8) at exponents 0 and 9, both widths 0, a width-64
	// correction (-0.0 beside decimals, which the encoder leaves raw), and a
	// second stream one byte short.
	integers, nanos := make([]float64, 64), make([]float64, 64)
	for i := range integers {
		integers[i] = float64(i*37%101) - 50
		nanos[i] = float64(i*7919%1000003) / 1e9
	}
	negZero, _, _ := refDecimalPayload([]float64{1.25, math.Copysign(0, -1), 2.5, -0.75})
	dec0 := qba2Single(f, "dec0", NewFloatColumn(integers), encDecimal)
	dec9 := qba2Single(f, "dec9", NewFloatColumn(nanos), encDecimal)
	if dec0[26] != 0 || dec9[26] != 9 || negZero[18] != 64 {
		f.Fatalf("decimal seeds: exponents %d and %d, correction width %d; want 0, 9 and 64", dec0[26], dec9[26], negZero[18])
	}
	seeds = append(seeds, dec0, dec9,
		frame1(Float64, encDecimal, 64, decimalHead(2, 125, 0, 0, 0)),
		frame1(Float64, encDecimal, 4, negZero),
		frame1(Float64, encDecimal, 64, dec9[22+len("dec9"):len(dec9)-1]))
	atBound, pastBound = decimal0Frames()
	seeds = append(seeds, atBound, pastBound)
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
