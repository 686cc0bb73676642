package batch

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// codecBatch builds a batch exercising every column type with shapes that
// trigger every encoding: sequential ints (delta), small mixed-sign ints
// (varint), repetitive strings (dict), long bool runs (RLE), plus floats
// that must stay bit-exact.
func codecBatch(rows int) *Batch {
	seq := make([]int64, rows)
	mixed := make([]int64, rows)
	dates := make([]int64, rows)
	floats := make([]float64, rows)
	strs := make([]string, rows)
	uniq := make([]string, rows)
	bools := make([]bool, rows)
	regions := []string{"AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"}
	for i := 0; i < rows; i++ {
		seq[i] = int64(1_000_000 + i)
		mixed[i] = int64((i%7)-3) * int64(i)
		dates[i] = int64(8000 + i/5)
		switch i % 5 {
		case 0:
			floats[i] = 0.0
		case 1:
			floats[i] = math.Copysign(0, -1) // -0.0 must survive bit-exact
		case 2:
			floats[i] = math.NaN()
		case 3:
			floats[i] = -1.5 * float64(i)
		default:
			floats[i] = math.Inf(1)
		}
		strs[i] = regions[i%len(regions)]
		uniq[i] = strings.Repeat("x", i%17) + string(rune('a'+i%26))
		bools[i] = i%97 < 90 // long runs with occasional flips
	}
	schema := NewSchema(
		Field{Name: "seq", Type: Int64},
		Field{Name: "mixed", Type: Int64},
		Field{Name: "d", Type: Date},
		Field{Name: "f", Type: Float64},
		Field{Name: "region", Type: String},
		Field{Name: "uniq", Type: String},
		Field{Name: "flag", Type: Bool},
	)
	return MustNew(schema, []*Column{
		NewIntColumn(seq), NewIntColumn(mixed), NewDateColumn(dates),
		NewFloatColumn(floats), NewStringColumn(strs), NewStringColumn(uniq),
		NewBoolColumn(bools),
	})
}

// assertTransparent checks the core invariant: the compressed frame
// decodes to a batch whose raw encoding is byte-identical to the
// original's — compression changed the wire bytes and nothing else.
func assertTransparent(t *testing.T, b *Batch) {
	t.Helper()
	wire := EncodeCompressed(b)
	got, err := Decode(wire)
	if err != nil {
		t.Fatalf("decode compressed: %v", err)
	}
	if string(Encode(got)) != string(Encode(b)) {
		t.Fatalf("compressed round trip is not byte-identical")
	}
}

func TestCompressedRoundTripAllTypes(t *testing.T) {
	for _, rows := range []int{0, 1, 2, 3, 100, 1000} {
		b := codecBatch(rows)
		assertTransparent(t, b)
	}
}

func TestCompressedIsSmaller(t *testing.T) {
	b := codecBatch(1000)
	raw, wire := RawEncodedSize(b), len(EncodeCompressed(b))
	if wire >= raw {
		t.Fatalf("compressible batch did not shrink: raw=%d wire=%d", raw, wire)
	}
	if raw != len(Encode(b)) {
		t.Fatalf("RawEncodedSize=%d, len(Encode)=%d", raw, len(Encode(b)))
	}
}

func TestRawEncodedSizeWithSelection(t *testing.T) {
	b := codecBatch(100).WithSel([]int32{3, 7, 7, 50})
	if got, want := RawEncodedSize(b), len(Encode(b)); got != want {
		t.Fatalf("RawEncodedSize on selection = %d, want %d", got, want)
	}
}

func TestFloatBitExactness(t *testing.T) {
	vals := []float64{0.0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), 1e-300}
	schema := NewSchema(Field{Name: "f", Type: Float64})
	b := MustNew(schema, []*Column{NewFloatColumn(vals)})
	got, err := Decode(EncodeCompressed(b))
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vals {
		if math.Float64bits(got.Cols[0].Floats[i]) != math.Float64bits(v) {
			t.Fatalf("row %d: bits %x != %x", i, math.Float64bits(got.Cols[0].Floats[i]), math.Float64bits(v))
		}
	}
}

func TestExtremeStringsAndInts(t *testing.T) {
	huge := strings.Repeat("payload-", 1<<16) // ~0.5 MB
	schema := NewSchema(Field{Name: "s", Type: String}, Field{Name: "n", Type: Int64})
	b := MustNew(schema, []*Column{
		NewStringColumn([]string{"", huge, "", huge, "x"}),
		NewIntColumn([]int64{math.MinInt64, math.MaxInt64, 0, -1, 1}),
	})
	assertTransparent(t, b)
}

func TestEncodeCompressedDeterministic(t *testing.T) {
	b := codecBatch(500)
	if string(EncodeCompressed(b)) != string(EncodeCompressed(b)) {
		t.Fatal("EncodeCompressed is not deterministic")
	}
}

func TestQBA1FramesStillDecode(t *testing.T) {
	b := codecBatch(100)
	got, err := Decode(Encode(b))
	if err != nil {
		t.Fatalf("decode raw frame: %v", err)
	}
	if string(Encode(got)) != string(Encode(b)) {
		t.Fatal("QBA1 round trip changed bytes")
	}
}

func TestMixedFrameRuns(t *testing.T) {
	b := codecBatch(64)
	var run []byte
	run = AppendFramed(run, b)
	run = AppendFramedCompressed(run, b)
	run = AppendFramed(run, b)
	it := NewRunIter(run)
	n := 0
	for {
		got, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if got == nil {
			break
		}
		if string(Encode(got)) != string(Encode(b.Materialize())) {
			t.Fatalf("frame %d decoded differently", n)
		}
		n++
	}
	if n != 3 {
		t.Fatalf("got %d frames, want 3", n)
	}
}

func TestDecodeProject(t *testing.T) {
	b := codecBatch(200)
	for _, mk := range []struct {
		name string
		enc  func(*Batch) []byte
	}{
		{"qba2", EncodeCompressed},
		{"qba1", Encode},
	} {
		data := mk.enc(b)
		got, skipped, err := DecodeProject(data, []string{"region", "seq"})
		if err != nil {
			t.Fatalf("%s: %v", mk.name, err)
		}
		// Columns come back in frame (schema) order regardless of the keep
		// list's order.
		if got.Schema.Len() != 2 || got.Schema.Fields[0].Name != "seq" || got.Schema.Fields[1].Name != "region" {
			t.Fatalf("%s: projected schema %v", mk.name, got.Schema)
		}
		if string(Encode(got)) != string(Encode(b.Select("seq", "region"))) {
			t.Fatalf("%s: projected columns differ", mk.name)
		}
		if mk.name == "qba2" && skipped <= 0 {
			t.Fatalf("qba2: no bytes skipped")
		}
		if mk.name == "qba1" && skipped != 0 {
			t.Fatalf("qba1: reported %d skipped bytes for a format without payload index", skipped)
		}
		// nil keep = full decode.
		full, _, err := DecodeProject(data, nil)
		if err != nil {
			t.Fatal(err)
		}
		if string(Encode(full)) != string(Encode(b)) {
			t.Fatalf("%s: nil keep is not a full decode", mk.name)
		}
	}
}

// TestProjectionSharesSchemas: a projection decodes each frame as
// DecodeProject does, hands consecutive frames of equal kept fields one
// schema, and builds a new one when the fields change.
func TestProjectionSharesSchemas(t *testing.T) {
	keep := []string{"region", "seq", "f"}
	p := NewProjection(keep)
	var prev *Schema
	for i, rows := range []int{10, 0, 200} {
		data := EncodeCompressed(codecBatch(rows))
		got, skipped, err := p.Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		want, wantSkipped, _ := DecodeProject(data, keep)
		if !bytes.Equal(Encode(got), Encode(want)) || skipped != wantSkipped {
			t.Fatalf("frame %d: projection decodes otherwise than DecodeProject", i)
		}
		if prev != nil && got.Schema != prev {
			t.Fatalf("frame %d: equal fields, another schema", i)
		}
		prev = got.Schema
	}
	other := MustNew(NewSchema(F("seq", Date), F("f", Float64)),
		[]*Column{NewDateColumn([]int64{1}), NewFloatColumn([]float64{2})})
	got, _, err := p.Decode(EncodeCompressed(other))
	if err != nil {
		t.Fatal(err)
	}
	if got.Schema == prev || got.Schema.Fields[0] != F("seq", Date) || got.Schema.Index("f") != 1 {
		t.Fatalf("changed fields decoded under the old schema: %v", got.Schema)
	}
}

// TestTruncatedFramesReturnTypedErrors feeds every strict prefix of both
// formats to Decode: each must fail with ErrCorrupt (or decode the empty
// frame), never panic.
func TestTruncatedFramesReturnTypedErrors(t *testing.T) {
	b := codecBatch(40)
	for _, data := range [][]byte{Encode(b), EncodeCompressed(b)} {
		for i := 0; i < len(data); i++ {
			got, err := Decode(data[:i])
			if err == nil {
				t.Fatalf("prefix %d/%d decoded: %v", i, len(data), got)
			}
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("prefix %d: error not ErrCorrupt: %v", i, err)
			}
		}
	}
}

func TestCorruptCountsRejected(t *testing.T) {
	b := codecBatch(10)
	tests := []struct {
		name string
		data func() []byte
	}{
		{"bad magic", func() []byte {
			d := append([]byte(nil), Encode(b)...)
			d[3] = 0xFF
			return d
		}},
		{"inflated nfields qba1", func() []byte {
			d := append([]byte(nil), Encode(b)...)
			d[4], d[5], d[6], d[7] = 0xFF, 0xFF, 0xFF, 0x7F
			return d
		}},
		{"inflated nfields qba2", func() []byte {
			d := append([]byte(nil), EncodeCompressed(b)...)
			d[4], d[5], d[6], d[7] = 0xFF, 0xFF, 0xFF, 0x7F
			return d
		}},
		{"trailing bytes", func() []byte {
			return append(append([]byte(nil), EncodeCompressed(b)...), 0xAB)
		}},
	}
	for _, tc := range tests {
		if _, err := Decode(tc.data()); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: error = %v, want ErrCorrupt", tc.name, err)
		}
	}
	// Dictionary index out of range: encode a dict column whose last row
	// names entry 299 (a two-byte uvarint) and bump that index past the
	// dictionary size.
	strs, _ := skewedDict()
	d := qba2Single(t, "s", NewStringColumn(append(strs, "299")), encDict)
	d[len(d)-2], d[len(d)-1] = 0xFF, 0x7F // last row's dict index: 16383
	if _, err := Decode(d); !errors.Is(err, ErrCorrupt) {
		t.Errorf("dict index out of range: error = %v, want ErrCorrupt", err)
	}
	// A packed index past the dictionary is refused before the column is
	// built.
	if _, err := Decode(indexPastDict()); !errors.Is(err, ErrCorrupt) {
		t.Errorf("packed dict index out of range: error = %v, want ErrCorrupt", err)
	}
}

// skewedDict is a column over 300 distinct values, most rows drawing on the
// first 128: their one-byte uvarint indexes beat 9-bit packed ones, so the
// encoder keeps encoding 1.
func skewedDict() (strs []string, floats []float64) {
	for i := 0; i < 2300; i++ {
		k := i
		if i >= 300 {
			k = i % 128
		}
		strs = append(strs, strconv.Itoa(k))
		floats = append(floats, float64(k)/4)
	}
	return strs, floats
}

// TestRowsBoundedByFrameLength: a frame's row count is refused before
// anything is allocated when the frame is too short to hold it, and every
// frame the encoder writes stays within that bound. A column of bools
// alone is run-length encoded up to exactly rleMaxRows rows a payload byte
// and raw past it; beside a column of another type, any run is RLE.
func TestRowsBoundedByFrameLength(t *testing.T) {
	// One run of 16384 rows is a 4-byte RLE payload (flag + 3-byte
	// uvarint): exactly rleMaxRows rows a byte. One row more goes raw.
	const atCap = 4 * rleMaxRows
	for _, rows := range []int{atCap, atCap + 1} {
		bools := NewBoolColumn(make([]bool, rows))
		want := byte(encRLE)
		if rows > atCap {
			want = encRaw
		}
		qba2Single(t, "b", bools, want)
		assertTransparent(t, colOf(bools))
		assertMatchesReference(t, "bools only", colOf(bools))
		if want == encRaw {
			// Beside an int column the same bools are RLE.
			mixed := MustNew(NewSchema(F("i", Int64), F("b", Bool)),
				[]*Column{NewIntColumn(make([]int64, rows)), bools})
			// Field k's encoding byte, one-letter names: 8 + 11k + 6.
			if enc := EncodeCompressed(mixed)[25]; enc != encRLE {
				t.Fatalf("%d bools beside an int column encoded as %d, want RLE", rows, enc)
			}
			assertTransparent(t, mixed)
			assertMatchesReference(t, "bools beside ints", mixed)
		}
	}

	// A constant int column is for at width 0 (a 9-byte payload) up to
	// exactly rleMaxRows rows a payload byte; one row more is delta-for at
	// width 0 (17 bytes).
	const forCap = 9 * rleMaxRows
	for rows, want := range map[int]byte{forCap: encFOR, forCap + 1: encDeltaFOR} {
		ints := NewIntColumn(make([]int64, rows))
		qba2Single(t, "i", ints, want)
		assertTransparent(t, colOf(ints))
		assertMatchesReference(t, "constant ints", colOf(ints))
	}
	atBound, pastBound := width0Frames()
	if b, err := Decode(atBound); err != nil || b.NumRows() != len(atBound)*rleMaxRows {
		t.Errorf("width-0 frame at the bound: %v", err)
	}
	// A decimal column of both widths 0 bounds nothing either.
	decAtBound, decPastBound := decimal0Frames()
	if b, err := Decode(decAtBound); err != nil || b.NumRows() != len(decAtBound)*rleMaxRows || b.Cols[0].Floats[0] != 1.25 {
		t.Errorf("decimal width-0 frame at the bound: %v", err)
	}

	// Hand-built frames: one RLE run claiming 2^32-1 rows (six payload
	// bytes), a varint column declaring more rows than the frame has bytes,
	// a 1-bit packed column declaring more than 8 rows a frame byte, and a
	// width-0 column one row past the bound. All are corrupt, for Decode and
	// DecodeProject alike.
	for name, d := range map[string][]byte{
		"rle run past the bound":          frame1(Bool, encRLE, math.MaxUint32, binary.AppendUvarint([]byte{1}, math.MaxUint32)),
		"varint rows past frame":          frame1(Int64, encVarint, 1<<20, []byte{0, 0}),
		"1-bit rows past frame":           frame1(Int64, encFOR, 1<<20, append(make([]byte, 8), 1, 0)),
		"width 0 past the bound":          pastBound,
		"decimal widths 0 past the bound": decPastBound,
	} {
		if _, err := Decode(d); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: Decode error = %v, want ErrCorrupt", name, err)
		}
		if _, _, err := DecodeProject(d, []string{"other"}); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: DecodeProject error = %v, want ErrCorrupt", name, err)
		}
	}
}

// TestUnknownEncodingRejected: a column tagged with an encoding no encoder
// writes (9, the first one unassigned) is corrupt for every column type,
// never a panic.
func TestUnknownEncodingRejected(t *testing.T) {
	for _, typ := range []Type{Int64, Float64, String, Bool, Date} {
		var frame []byte
		put32 := func(v uint32) { frame = binary.LittleEndian.AppendUint32(frame, v) }
		put32(codecMagic2)
		put32(1) // one field
		put32(1) // nameLen
		frame = append(frame, 'f', byte(typ), 9)
		put32(0) // payloadLen
		put32(0) // nrows
		if _, err := Decode(frame); !errors.Is(err, ErrCorrupt) {
			t.Errorf("type %d: error = %v, want ErrCorrupt", typ, err)
		}
	}
}

func TestZoneMapRoundTrip(t *testing.T) {
	b := codecBatch(300)
	zm := ComputeZoneMap(b)
	if zm.Rows != 300 {
		t.Fatalf("rows = %d", zm.Rows)
	}
	if cs := zm.Column("seq"); cs == nil || !cs.HasStats || cs.MinInt != 1_000_000 || cs.MaxInt != 1_000_299 {
		t.Fatalf("seq stats: %+v", cs)
	}
	// The float column contains NaN: no order, no stats, never prunes.
	if cs := zm.Column("f"); cs == nil || cs.HasStats {
		t.Fatalf("NaN float column must have no stats: %+v", cs)
	}
	if cs := zm.Column("region"); cs == nil || !cs.HasStats || cs.MinStr != "AFRICA" || cs.MaxStr != "MIDDLE EAST" {
		t.Fatalf("region stats: %+v", cs)
	}
	got, err := DecodeZoneMap(zm.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if string(got.Encode()) != string(zm.Encode()) {
		t.Fatal("zone map round trip changed bytes")
	}
	// Empty split: row count zero, no stats anywhere.
	ezm := ComputeZoneMap(Empty(b.Schema))
	for _, cs := range ezm.Cols {
		if cs.HasStats {
			t.Fatalf("empty split column %q has stats", cs.Name)
		}
	}
	// Truncated zone maps are typed errors.
	enc := zm.Encode()
	for i := 0; i < len(enc); i++ {
		if _, err := DecodeZoneMap(enc[:i]); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("prefix %d: error = %v, want ErrCorrupt", i, err)
		}
	}
}

// TestDecimalBitExact: every float comes back bit for bit through
// EncodeCompressed and Decode, whichever encoding its column takes, and the
// columns encoding 8 fits take it: decimals of either sign, values an ulp
// off their decimal, a column crossing zero. Values no exponent fits (NaN,
// ±Inf, MaxFloat64) keep their column off encoding 8, and -0.0 beside
// decimals costs it a 64-bit correction, which raw beats.
func TestDecimalBitExact(t *testing.T) {
	rows := func(n int, f func(i int) float64) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = f(i)
		}
		return v
	}
	negZero := math.Copysign(0, -1)
	for _, c := range []struct {
		name string
		vals []float64
		want int // the column's encoding; -1: any
	}{
		{"zeros", rows(300, func(i int) float64 { return []float64{0, negZero}[i%2] }), encDictPacked},
		{"nan payloads", rows(300, func(i int) float64 { return math.Float64frombits(0x7FF8000000000000 | uint64(i)) }), encRaw},
		{"infinities", rows(300, func(i int) float64 { return []float64{math.Inf(1), math.Inf(-1), 1.5}[i%3] }), encDictPacked},
		{"subnormals", rows(300, func(i int) float64 { return math.Float64frombits(uint64(i*i + 1)) }), -1},
		{"extremes", rows(300, func(i int) float64 {
			return []float64{math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, float64(i)}[i%4]
		}), -1},
		{"negative decimals", rows(300, func(i int) float64 { return float64(-1-i*7919%100000) / 100 }), encDecimal},
		{"an ulp off", rows(300, func(i int) float64 {
			v := float64(1+i*131%10000) / 100
			return math.Float64frombits(math.Float64bits(v) + uint64(i%3) - 1)
		}), encDecimal},
		{"crosses zero", rows(1001, func(i int) float64 { return float64(i-500) / 100 }), encDecimal},
		{"all equal", rows(300, func(int) float64 { return 2.75 }), encDictPacked},
		{"-0.0 beside decimals", rows(300, func(i int) float64 {
			if i == 150 {
				return negZero
			}
			return float64(i*7919%100000) / 100
		}), encRaw},
	} {
		col := colOf(NewFloatColumn(c.vals))
		frame := EncodeCompressed(col)
		if enc := int(frame[14]); c.want >= 0 && enc != c.want {
			t.Errorf("%s: encoding %d, want %d", c.name, enc, c.want)
		}
		got, err := Decode(frame)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for i, v := range c.vals {
			if g := got.Cols[0].Floats[i]; math.Float64bits(g) != math.Float64bits(v) {
				t.Fatalf("%s row %d: bits %#x, want %#x", c.name, i, math.Float64bits(g), math.Float64bits(v))
			}
		}
		assertMatchesReference(t, c.name, col)
	}
}

// TestDecimalExponent: the exponent is the fewest places that hold the
// column's sample, and a price computed as quantity × retail price in float
// (the TPC-H way, so often not the double nearest its decimal) still packs
// at two places with at most 2 bits of correction a row.
func TestDecimalExponent(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, c := range []struct {
		scale float64
		e     int
	}{{1, 0}, {10, 1}, {100, 2}, {1e6, 6}, {1e9, 9}} {
		vals := make([]float64, 500)
		for i := range vals {
			vals[i] = float64(rng.Intn(1e6)*10+1) / c.scale // a last digit that is not 0
		}
		if e, _, _, ok := decimalExponent(vals); !ok || e != c.e {
			t.Errorf("decimals of %d places: exponent %d (ok %v)", c.e, e, ok)
		}
	}
	prices := make([]float64, 4096)
	for i := range prices {
		prices[i] = float64(1+rng.Intn(50)) * (float64(90000+rng.Intn(110001)) / 100)
	}
	frame := qba2Single(t, "p", NewFloatColumn(prices), encDecimal)
	p := frame[22+1:]
	if e, w2 := p[0], p[18]; e != 2 || w2 > 2 {
		t.Errorf("prices: exponent %d, correction width %d; want 2 and at most 2", e, w2)
	}
}

// ---- Reference encoder ----
//
// The candidate-materializing QBA2 encoder the engine shipped before
// size-first selection, kept verbatim as the oracle: it builds every
// candidate payload, keeps the shortest (ties to the lowest encoding
// number) and copies it into the frame. AppendCompressed must produce the
// same bytes for every batch.

// ReferenceEncodeCompressed is exported (to tests only) so the external
// test package can run the oracle over generated TPC-H tables.
func ReferenceEncodeCompressed(b *Batch) []byte {
	b = b.Materialize()
	payloads := make([][]byte, len(b.Cols))
	encs := make([]byte, len(b.Cols))
	size := 12
	boolsOnly := true
	for _, c := range b.Cols {
		boolsOnly = boolsOnly && c.Type == Bool
	}
	for i, c := range b.Cols {
		encs[i], payloads[i] = refEncodeColumn(c, boolsOnly)
		size += 10 + len(b.Schema.Fields[i].Name) + len(payloads[i])
	}
	out := make([]byte, 0, size)
	var u32 [4]byte
	put32 := func(v uint32) {
		binary.LittleEndian.PutUint32(u32[:], v)
		out = append(out, u32[:]...)
	}
	put32(codecMagic2)
	put32(uint32(b.Schema.Len()))
	for i, f := range b.Schema.Fields {
		put32(uint32(len(f.Name)))
		out = append(out, f.Name...)
		out = append(out, byte(f.Type), encs[i])
		put32(uint32(len(payloads[i])))
	}
	put32(uint32(b.NumRows()))
	for _, p := range payloads {
		out = append(out, p...)
	}
	return out
}

func refEncodeColumn(c *Column, boolsOnly bool) (byte, []byte) {
	best := rawColumnPayload(c)
	bestEnc := byte(encRaw)
	consider := func(enc byte, p []byte) {
		if len(p) < len(best) {
			best, bestEnc = p, enc
		}
	}
	// A packed candidate of width 0 holds at most rleMaxRows rows a payload
	// byte.
	considerPacked := func(enc byte, p []byte, w int) {
		if w > 0 || c.Len() <= rleMaxRows*len(p) {
			consider(enc, p)
		}
	}
	switch c.Type {
	case Int64, Date:
		consider(encVarint, varintPayload(c.Ints))
		consider(encDelta, deltaPayload(c.Ints))
		if len(c.Ints) > 0 {
			considerPacked(forPayload(c.Ints))
			considerPacked(deltaForPayload(c.Ints))
		}
	case String:
		head, idx := refStringDict(c.Strings)
		consider(encDict, dictPayload(head, idx))
		considerPacked(dictPackedPayload(head, idx))
	case Bool:
		// In a frame of bools only, RLE may claim at most rleMaxRows rows
		// a payload byte.
		if p := rlePayload(c.Bools); !boolsOnly || len(c.Bools) <= rleMaxRows*len(p) {
			consider(encRLE, p)
		}
	case Float64:
		head, idx := refFloatDict(c.Floats)
		consider(encDict, dictPayload(head, idx))
		considerPacked(dictPackedPayload(head, idx))
		if p, w, ok := refDecimalPayload(c.Floats); ok {
			considerPacked(encDecimal, p, w)
		}
	}
	return bestEnc, best
}

// refDecimal is v at exponent e in encoding 8's terms: the integer d nearest
// v·10^e and the wrapping distance c from the bits of d/10^e to v's; ok is
// false unless |v·10^e| < 2^53.
func refDecimal(v float64, e int) (d, c int64, ok bool) {
	p := math.Pow10(e)
	x := v * p
	if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) >= 1<<53 {
		return 0, 0, false
	}
	d = int64(math.RoundToEven(x))
	return d, int64(math.Float64bits(v) - math.Float64bits(float64(d)/p)), true
}

// refDecimalWidths is the packed widths of the integers and corrections of
// vals at exponent e, and whether every value fits.
func refDecimalWidths(vals []float64, e int) (w, w2 int, ok bool) {
	var ds, cs []int64
	for _, v := range vals {
		d, c, fits := refDecimal(v, e)
		if !fits {
			return 0, 0, false
		}
		ds, cs = append(ds, d), append(cs, c)
	}
	return refWidth(uint64(slices.Max(ds) - slices.Min(ds))), refWidth(uint64(slices.Max(cs) - slices.Min(cs))), true
}

// refDecimalPayload is the encoding 8 candidate: the exponent the sample
// rule picks (every ceil(n/64)-th row from the first; the e in 0–9 with the
// narrowest w + w2 there, ties to the smaller, stopping at the first e whose
// sampled corrections are all equal), then the header and both packed
// streams. ok is false when no exponent fits the sample or the chosen one
// does not fit every value; w is the row's width, w + w2.
func refDecimalPayload(vals []float64) (p []byte, w int, ok bool) {
	if len(vals) == 0 {
		return nil, 0, false
	}
	stride := (len(vals) + 63) / 64
	var sample []float64
	for r := 0; r < len(vals); r += stride {
		sample = append(sample, vals[r])
	}
	e, best := -1, 0
	for k := 0; k <= 9; k++ {
		sw, sw2, fits := refDecimalWidths(sample, k)
		if !fits {
			continue
		}
		if e < 0 || sw+sw2 < best {
			e, best = k, sw+sw2
		}
		if sw2 == 0 {
			break
		}
	}
	if e < 0 {
		return nil, 0, false
	}
	w1, w2, fits := refDecimalWidths(vals, e)
	if !fits {
		return nil, 0, false
	}
	ds, cs := make([]int64, len(vals)), make([]int64, len(vals))
	for i, v := range vals {
		ds[i], cs[i], _ = refDecimal(v, e)
	}
	base, cmin := slices.Min(ds), slices.Min(cs)
	doffs, coffs := make([]uint64, len(vals)), make([]uint64, len(vals))
	for i := range vals {
		doffs[i], coffs[i] = uint64(ds[i]-base), uint64(cs[i]-cmin)
	}
	p = append(p, byte(e))
	p = binary.LittleEndian.AppendUint64(p, uint64(base))
	p = append(p, byte(w1))
	p = binary.LittleEndian.AppendUint64(p, uint64(cmin))
	p = append(p, byte(w2))
	return slices.Concat(p, refPack(doffs, w1), refPack(coffs, w2)), w1 + w2, true
}

func rawColumnPayload(c *Column) []byte {
	switch c.Type {
	case Int64, Date:
		out := make([]byte, 8*len(c.Ints))
		for i, v := range c.Ints {
			binary.LittleEndian.PutUint64(out[i*8:], uint64(v))
		}
		return out
	case Float64:
		out := make([]byte, 8*len(c.Floats))
		for i, v := range c.Floats {
			binary.LittleEndian.PutUint64(out[i*8:], math.Float64bits(v))
		}
		return out
	case String:
		size := 0
		for _, s := range c.Strings {
			size += 4 + len(s)
		}
		out := make([]byte, 0, size)
		var u32 [4]byte
		for _, s := range c.Strings {
			binary.LittleEndian.PutUint32(u32[:], uint32(len(s)))
			out = append(out, u32[:]...)
			out = append(out, s...)
		}
		return out
	case Bool:
		out := make([]byte, len(c.Bools))
		for i, v := range c.Bools {
			if v {
				out[i] = 1
			}
		}
		return out
	}
	return nil
}

func varintPayload(vals []int64) []byte {
	out := make([]byte, 0, len(vals)*2)
	for _, v := range vals {
		out = binary.AppendUvarint(out, zigzag(v))
	}
	return out
}

func deltaPayload(vals []int64) []byte {
	out := make([]byte, 0, len(vals)*2)
	prev := int64(0)
	for _, v := range vals {
		out = binary.AppendUvarint(out, zigzag(v-prev))
		prev = v
	}
	return out
}

// refWidth is the bits needed to write every value up to hi.
func refWidth(hi uint64) int {
	w := 0
	for w < 64 && hi>>w != 0 {
		w++
	}
	return w
}

// refPack packs vals at width w, LSB-first, one bit at a time.
func refPack(vals []uint64, w int) []byte {
	out := make([]byte, (len(vals)*w+7)/8)
	for i, v := range vals {
		for b := 0; b < w; b++ {
			if v>>b&1 == 1 {
				at := i*w + b
				out[at/8] |= 1 << (at % 8)
			}
		}
	}
	return out
}

// refPacked is a packed candidate: head, the width byte, then vals packed at
// the width their largest needs.
func refPacked(enc byte, head []byte, vals []uint64) (byte, []byte, int) {
	hi := uint64(0)
	for _, v := range vals {
		hi = max(hi, v)
	}
	w := refWidth(hi)
	return enc, append(append(head, byte(w)), refPack(vals, w)...), w
}

func forPayload(vals []int64) (byte, []byte, int) {
	lo := slices.Min(vals)
	offs := make([]uint64, len(vals))
	for i, v := range vals {
		offs[i] = uint64(v - lo)
	}
	return refPacked(encFOR, binary.LittleEndian.AppendUint64(nil, uint64(lo)), offs)
}

func deltaForPayload(vals []int64) (byte, []byte, int) {
	deltas := make([]int64, len(vals)-1)
	for i := range deltas {
		deltas[i] = vals[i+1] - vals[i]
	}
	lo := int64(0)
	if len(deltas) > 0 {
		lo = slices.Min(deltas)
	}
	offs := make([]uint64, len(deltas))
	for i, d := range deltas {
		offs[i] = uint64(d - lo)
	}
	head := binary.LittleEndian.AppendUint64(nil, uint64(vals[0]))
	return refPacked(encDeltaFOR, binary.LittleEndian.AppendUint64(head, uint64(lo)), offs)
}

// refStringDict is a string column's dictionary (ndict, then each distinct
// string in first-occurrence order) and its per-row indexes.
func refStringDict(vals []string) ([]byte, []uint64) {
	idx := make(map[string]uint64, 16)
	order := make([]string, 0, 16)
	rows := make([]uint64, len(vals))
	for r, s := range vals {
		if _, ok := idx[s]; !ok {
			idx[s] = uint64(len(order))
			order = append(order, s)
		}
		rows[r] = idx[s]
	}
	head := binary.LittleEndian.AppendUint32(nil, uint32(len(order)))
	for _, s := range order {
		head = binary.LittleEndian.AppendUint32(head, uint32(len(s)))
		head = append(head, s...)
	}
	return head, rows
}

// refFloatDict is refStringDict over exact Float64bits patterns.
func refFloatDict(vals []float64) ([]byte, []uint64) {
	idx := make(map[uint64]uint64, 16)
	order := make([]uint64, 0, 16)
	rows := make([]uint64, len(vals))
	for r, v := range vals {
		bits := math.Float64bits(v)
		if _, ok := idx[bits]; !ok {
			idx[bits] = uint64(len(order))
			order = append(order, bits)
		}
		rows[r] = idx[bits]
	}
	head := binary.LittleEndian.AppendUint32(nil, uint32(len(order)))
	for _, bits := range order {
		head = binary.LittleEndian.AppendUint64(head, bits)
	}
	return head, rows
}

func dictPayload(head []byte, idx []uint64) []byte {
	out := slices.Clone(head)
	for _, d := range idx {
		out = binary.AppendUvarint(out, d)
	}
	return out
}

// dictPackedPayload packs the indexes at the width of the largest index
// the dictionary has, whether or not a row uses it.
func dictPackedPayload(head []byte, idx []uint64) (byte, []byte, int) {
	nd := binary.LittleEndian.Uint32(head)
	w := 0
	if nd > 1 {
		w = refWidth(uint64(nd - 1))
	}
	return encDictPacked, append(append(slices.Clone(head), byte(w)), refPack(idx, w)...), w
}

func rlePayload(vals []bool) []byte {
	if len(vals) == 0 {
		return []byte{}
	}
	out := make([]byte, 0, 16)
	if vals[0] {
		out = append(out, 1)
	} else {
		out = append(out, 0)
	}
	run := uint64(1)
	for i := 1; i < len(vals); i++ {
		if vals[i] == vals[i-1] {
			run++
			continue
		}
		out = binary.AppendUvarint(out, run)
		run = 1
	}
	return binary.AppendUvarint(out, run)
}

// assertMatchesReference is the oracle check: the size-first encoder writes
// the reference encoder's bytes, behind whatever dst already holds, and
// EncodeCompressed returns that frame.
func assertMatchesReference(t testing.TB, what string, b *Batch) {
	t.Helper()
	want := ReferenceEncodeCompressed(b)
	if got := AppendCompressed(nil, b); !bytes.Equal(got, want) {
		t.Fatalf("%s: AppendCompressed differs from the reference encoder (%d vs %d bytes)", what, len(got), len(want))
	}
	prefix := []byte("kept")
	got := AppendCompressed(append([]byte(nil), prefix...), b)
	if !bytes.Equal(got[:len(prefix)], prefix) || !bytes.Equal(got[len(prefix):], want) {
		t.Fatalf("%s: AppendCompressed behind a prefix differs from the reference encoder", what)
	}
	if got := EncodeCompressed(b); !bytes.Equal(got, want) {
		t.Fatalf("%s: EncodeCompressed differs from the reference encoder", what)
	}
}

// columnEncodings lists the encoding of each column of a QBA2 frame.
func columnEncodings(frame []byte) []byte {
	encs := make([]byte, binary.LittleEndian.Uint32(frame[4:]))
	pos := 8
	for i := range encs {
		nl := int(binary.LittleEndian.Uint32(frame[pos:]))
		encs[i] = frame[pos+4+nl+1]
		pos += 4 + nl + 6
	}
	return encs
}

// colOf builds a one-column batch.
func colOf(c *Column) *Batch {
	return MustNew(NewSchema(Field{Name: "c", Type: c.Type}), []*Column{c})
}

func TestAppendCompressedMatchesReference(t *testing.T) {
	for _, rows := range []int{0, 1, 2, 3, 100, 1000} {
		assertMatchesReference(t, "codecBatch", codecBatch(rows))
	}
	assertMatchesReference(t, "selection", codecBatch(100).WithSel([]int32{3, 7, 7, 50, 99, 0}))
	assertMatchesReference(t, "empty selection", codecBatch(100).WithSel([]int32{}))
	assertMatchesReference(t, "no columns", MustNew(NewSchema(), nil))

	// Every (rows, distinct) shape up to 40 rows, which walks through the
	// exact break-even sizes of both dictionaries: 4 + 8·nd + rows == 8·rows
	// (floats; e.g. 4 rows of 3 values, 12 rows of 10) must stay raw, one
	// value fewer must switch to the dictionary. Hundredths are decimals
	// (encoding 8 competes); arbitrary bit patterns are not.
	for rows := 1; rows <= 40; rows++ {
		for nd := 1; nd <= rows; nd++ {
			fs := make([]float64, rows)
			for i := range fs {
				fs[i] = float64(i%nd) * 0.01
			}
			assertMatchesReference(t, "float break-even", colOf(NewFloatColumn(fs)))
			for i := range fs {
				fs[i] = math.Float64frombits(0x9E3779B97F4A7C15 * uint64(i%nd+1))
			}
			assertMatchesReference(t, "float bits break-even", colOf(NewFloatColumn(fs)))
			for _, slen := range []int{0, 1, 3, 4, 9} {
				ss := make([]string, rows)
				for i := range ss {
					ss[i] = strings.Repeat("s", slen) + string(rune('A'+i%nd))
				}
				assertMatchesReference(t, "string break-even", colOf(NewStringColumn(ss)))
			}
		}
	}

	// NaNs with distinct payloads and both zeros are distinct dictionary
	// entries; extreme ints make the delta wrap.
	nans := make([]float64, 300)
	for i := range nans {
		switch i % 4 {
		case 0:
			nans[i] = math.Float64frombits(0x7FF8000000000000 | uint64(i%3+1))
		case 1:
			nans[i] = math.Copysign(0, -1)
		case 2:
			nans[i] = 0
		default:
			nans[i] = math.Float64frombits(0xFFF0000000000001)
		}
	}
	assertMatchesReference(t, "nan payloads", colOf(NewFloatColumn(nans)))
	assertMatchesReference(t, "extreme deltas", colOf(NewIntColumn(
		[]int64{math.MaxInt64, math.MinInt64, math.MaxInt64, 0, math.MinInt64, -1, 1, math.MinInt64})))
	assertMatchesReference(t, "empty strings", colOf(NewStringColumn(make([]string, 500))))

	rng := rand.New(rand.NewSource(15))
	for i := 0; i < 400; i++ {
		assertMatchesReference(t, "random", randomCodecBatch(rng))
	}
}

// randomCodecBatch draws a batch of 0..3000 rows and 1..6 columns whose
// value distributions cover every encoder decision: all-equal, a small
// alphabet, all-distinct and arbitrary bit patterns, optionally behind a
// selection vector.
func randomCodecBatch(rng *rand.Rand) *Batch {
	rows := []int{0, 1, 2, 7, 128, 129, 1000, 3000}[rng.Intn(8)]
	ncols := 1 + rng.Intn(6)
	fields := make([]Field, ncols)
	cols := make([]*Column, ncols)
	for ci := range cols {
		alphabet := []int{1, 2, 11, 127, 128, 129, 1 << 20}[rng.Intn(7)]
		pick := func() int64 { return int64(rng.Intn(alphabet)) }
		typ := Type(rng.Intn(5))
		fields[ci] = Field{Name: strings.Repeat("n", ci), Type: typ}
		switch typ {
		case Int64, Date:
			v := make([]int64, rows)
			base, stride := rng.Int63()-rng.Int63(), int64(rng.Intn(3))
			for i := range v {
				switch alphabet {
				case 1 << 20:
					v[i] = int64(rng.Uint64()) // arbitrary, wrapping deltas
				default:
					v[i] = base + int64(i)*stride + pick()
				}
			}
			cols[ci] = &Column{Type: typ, Ints: v}
		case Float64:
			v := make([]float64, rows)
			for i := range v {
				switch k := pick(); {
				case alphabet == 1<<20:
					v[i] = math.Float64frombits(rng.Uint64())
				case k%7 == 6:
					v[i] = math.Float64frombits(0x7FF8000000000000 | uint64(k))
				case k%7 == 5:
					v[i] = math.Copysign(0, -1)
				default:
					v[i] = float64(k) / 100
				}
			}
			cols[ci] = NewFloatColumn(v)
		case String:
			v := make([]string, rows)
			for i := range v {
				k := pick()
				v[i] = strings.Repeat("x", int(k%5)) + strconv.FormatInt(k, 36)
				if k%9 == 0 {
					v[i] = ""
				}
			}
			cols[ci] = NewStringColumn(v)
		case Bool:
			v := make([]bool, rows)
			for i := range v {
				v[i] = pick()%2 == 0 && (alphabet > 2 || i%97 != 0)
			}
			cols[ci] = NewBoolColumn(v)
		}
	}
	b := MustNew(NewSchema(fields...), cols)
	if rows > 0 && rng.Intn(3) == 0 {
		sel := make([]int32, rng.Intn(rows+1))
		for i := range sel {
			sel[i] = int32(rng.Intn(rows))
		}
		b = b.WithSel(sel)
	}
	return b
}

// fuzzCodecBatch decodes arbitrary bytes into a small batch: a header
// (rows, columns, selection flag), then per column a type, an alphabet size
// and values drawn from the remaining bytes (zero once they run out).
func fuzzCodecBatch(data []byte) *Batch {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		v := data[0]
		data = data[1:]
		return v
	}
	next64 := func() uint64 {
		var v uint64
		for i := 0; i < 8; i++ {
			v = v<<8 | uint64(next())
		}
		return v
	}
	rows, ncols, withSel := int(next())%200, 1+int(next())%4, next()%2 == 1
	fields := make([]Field, ncols)
	cols := make([]*Column, ncols)
	for ci := range cols {
		typ := Type(next() % 5)
		alphabet := uint64(next())
		fields[ci] = Field{Name: string(rune('a' + ci)), Type: typ}
		value := func() uint64 {
			if alphabet == 0 {
				return next64()
			}
			return uint64(next()) % alphabet
		}
		c := NewColumn(typ, rows)
		// An alphabet of 246 or more draws floats of alphabet-246 decimal
		// places; a smaller one, hundredths.
		scale := 100.0
		if alphabet >= 246 {
			scale = math.Pow10(int(alphabet - 246))
		}
		for r := 0; r < rows; r++ {
			switch v := value(); typ {
			case Int64, Date:
				c.Ints = append(c.Ints, int64(v))
			case Float64:
				if alphabet == 0 {
					c.Floats = append(c.Floats, math.Float64frombits(v))
				} else {
					c.Floats = append(c.Floats, float64(v)/scale)
				}
			case String:
				c.Strings = append(c.Strings, strings.Repeat("k", int(v%4))+strconv.FormatUint(v, 36))
			case Bool:
				c.Bools = append(c.Bools, v%2 == 1)
			}
		}
		cols[ci] = c
	}
	b := MustNew(NewSchema(fields...), cols)
	if withSel && rows > 0 {
		sel := make([]int32, int(next())%(2*rows))
		for i := range sel {
			sel[i] = int32(int(next()) % rows)
		}
		b = b.WithSel(sel)
	}
	return b
}

// FuzzAppendCompressedMatchesReference: whatever batch the bytes describe,
// the size-first encoder writes the reference encoder's frame and the
// frame decodes back transparently. Corpus in testdata/fuzz.
func FuzzAppendCompressedMatchesReference(f *testing.F) {
	f.Add([]byte{})
	// Decimals (encoding 8): 199 rows of one float column drawing integers
	// (exponent 0) or billionths (exponent 9) from the bytes that follow;
	// a constant column (both widths 0, which the dictionary beats); and
	// -0.0 beside decimals as bit patterns (a width-64 correction, which raw
	// beats).
	ramp := make([]byte, 256)
	for i := range ramp {
		ramp[i] = byte(i * 7)
	}
	f.Add(append([]byte{199, 0, 0, 1, 246}, ramp...))
	f.Add(append([]byte{199, 0, 0, 1, 255}, ramp...))
	f.Add([]byte{199, 0, 0, 1, 1})
	var bitsOf []byte
	for _, v := range []float64{1.25, math.Copysign(0, -1), 2.5, 0.75} {
		bitsOf = binary.BigEndian.AppendUint64(bitsOf, math.Float64bits(v))
	}
	f.Add(append([]byte{4, 0, 0, 1, 0}, bitsOf...))
	f.Fuzz(func(t *testing.T, data []byte) {
		b := fuzzCodecBatch(data)
		assertMatchesReference(t, "fuzz", b)
		assertTransparent(t, b)
	})
}

// TestDictionaryIndexSpreadsRoundDecimals is the hash-quality regression:
// TPC-H quantities {1.0 … 50.0} and discounts {0.00 … 0.10} are float bit
// patterns with 40+ trailing zero bits, so a directory index taken from low
// or middle bits of a multiplicative mix sends every key to a handful of
// slots. 32768 draws from either set must resolve within 1.25 probes each.
func TestDictionaryIndexSpreadsRoundDecimals(t *testing.T) {
	const rows = 32768
	quantities := make([]float64, 50)
	for i := range quantities {
		quantities[i] = float64(i + 1)
	}
	discounts := make([]float64, 11)
	for i := range discounts {
		discounts[i] = float64(i) / 100
	}
	rng := rand.New(rand.NewSource(1))
	for name, set := range map[string][]float64{"quantity": quantities, "discount": discounts} {
		var sc encScratch
		slots, shift := sc.resetDict(rows)
		mask := uint64(len(slots) - 1)
		var dict []uint64
		probes := 0
		for r := 0; r < rows; r++ {
			w := math.Float64bits(set[rng.Intn(len(set))])
			for i := dictHome(w, shift); ; i = (i + 1) & mask {
				probes++
				if s := slots[i]; s == 0 {
					dict = append(dict, w)
					slots[i] = uint32(len(dict))
					break
				} else if dict[s-1] == w {
					break
				}
			}
		}
		if budget := rows + rows/4; probes > budget {
			t.Errorf("%s: %d probes for %d rows over %d distinct values, budget %d", name, probes, rows, len(dict), budget)
		}
	}
}

// lineitemShaped builds a batch with TPC-H lineitem's column mix: clustered
// and random int keys, round-decimal measures, a high-cardinality price,
// clustered dates, flag/instruction strings and near-unique comments.
func lineitemShaped(rows int) *Batch {
	rng := rand.New(rand.NewSource(7))
	ints := func(f func(i int) int64) *Column {
		v := make([]int64, rows)
		for i := range v {
			v[i] = f(i)
		}
		return NewIntColumn(v)
	}
	floats := func(f func() float64) *Column {
		v := make([]float64, rows)
		for i := range v {
			v[i] = f()
		}
		return NewFloatColumn(v)
	}
	strs := func(f func() string) *Column {
		v := make([]string, rows)
		for i := range v {
			v[i] = f()
		}
		return NewStringColumn(v)
	}
	oneOf := func(set ...string) func() string { return func() string { return set[rng.Intn(len(set))] } }
	date := func(i int) int64 { return int64(8035 + i/40 + rng.Intn(120)) }
	fields := []Field{
		F("l_orderkey", Int64), F("l_partkey", Int64), F("l_suppkey", Int64), F("l_linenumber", Int64),
		F("l_quantity", Float64), F("l_extendedprice", Float64), F("l_discount", Float64), F("l_tax", Float64),
		F("l_returnflag", String), F("l_linestatus", String),
		F("l_shipdate", Date), F("l_commitdate", Date), F("l_receiptdate", Date),
		F("l_shipinstruct", String), F("l_shipmode", String), F("l_comment", String),
	}
	cols := []*Column{
		ints(func(i int) int64 { return int64(1 + i/4) }),
		ints(func(int) int64 { return 1 + rng.Int63n(200000) }),
		ints(func(int) int64 { return 1 + rng.Int63n(10000) }),
		ints(func(i int) int64 { return int64(1 + i%4) }),
		floats(func() float64 { return float64(1 + rng.Intn(50)) }),
		floats(func() float64 { return float64(90000+rng.Intn(10000000)) / 100 }),
		floats(func() float64 { return float64(rng.Intn(11)) / 100 }),
		floats(func() float64 { return float64(rng.Intn(9)) / 100 }),
		strs(oneOf("A", "N", "R")), strs(oneOf("F", "O")),
		ints(date), ints(date), ints(date),
		strs(oneOf("DELIVER IN PERSON", "COLLECT COD", "NONE", "TAKE BACK RETURN")),
		strs(oneOf("REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB")),
		strs(func() string { return "carefully final deposits " + strconv.Itoa(rng.Intn(1<<30)) }),
	}
	for _, i := range []int{10, 11, 12} {
		cols[i].Type = Date
	}
	return MustNew(NewSchema(fields...), cols)
}

func BenchmarkAppendCompressed(b *testing.B) {
	li := lineitemShaped(32768)
	dst := make([]byte, 0, RawEncodedSize(li))
	b.ReportAllocs()
	b.SetBytes(int64(RawEncodedSize(li)))
	for b.Loop() {
		dst = AppendCompressed(dst[:0], li)
	}
}

// TestAppendCompressedZeroAllocs: with a pre-sized destination and warm
// scratch an encode allocates nothing, however many columns the batch has —
// no candidate payload, dictionary or index vector is built per column.
// (The scratch is held here rather than taken from AppendCompressed's pool,
// which the race detector empties at random.)
func TestAppendCompressedZeroAllocs(t *testing.T) {
	for _, b := range []*Batch{lineitemShaped(4096), lineitemShaped(4096).Select("l_quantity", "l_comment")} {
		var sc encScratch
		dst := sc.appendFrame(make([]byte, 0, RawEncodedSize(b)), b) // warm the scratch
		if len(b.Cols) > 2 {
			// The guard covers every packed writer.
			for _, enc := range []byte{encFOR, encDeltaFOR, encDictPacked, encDecimal} {
				if !bytes.Contains(columnEncodings(dst), []byte{enc}) {
					t.Fatalf("lineitem-shaped frame has no column in encoding %d: %v", enc, columnEncodings(dst))
				}
			}
		}
		if allocs := testing.AllocsPerRun(20, func() { dst = sc.appendFrame(dst[:0], b) }); allocs != 0 {
			t.Errorf("%d columns: %.1f allocs per encode, want 0", len(b.Cols), allocs)
		}
	}
}

// TestPackPathsMatchReference: pack writes refPack's bytes at every width
// and length, and both unpacking loops read the values back.
func TestPackPathsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for w := uint(0); w <= 64; w++ {
		for _, n := range []int{0, 1, 7, 64, 1001} {
			vals, offs := make([]int64, n), make([]uint64, n)
			for i := range vals {
				offs[i] = rng.Uint64() >> (64 - w) // 0 at width 0
				vals[i] = int64(offs[i]) + math.MinInt64
			}
			want := refPack(offs, int(w))
			dst := make([]byte, len(want)+3)
			if end := pack(dst, 3, vals, math.MinInt64, w); end != len(dst) || !bytes.Equal(dst[3:], want) {
				t.Fatalf("width %d, %d values: packed bytes differ from the reference", w, n)
			}
			out := make([]uint64, n)
			if n > 0 && !slices.Equal(unpackWords(out, want, 0, w), offs) {
				t.Fatalf("width %d, %d values: unpackWords differs", w, n)
			}
			if n > 0 && w <= 57 && !slices.Equal(unpackWide(out, want, 0, w), offs) {
				t.Fatalf("width %d, %d values: unpackWide differs", w, n)
			}
		}
	}
}

// BenchmarkPack times pack at the widths a lineitem frame packs at — 3 (a
// dictionary of flags or modes), 13 (l_partkey at SF 0.03), 24 (a price's
// integers in cents) — and at 48.
func BenchmarkPack(b *testing.B) {
	const n = 32768
	rng := rand.New(rand.NewSource(3))
	for _, w := range []uint{3, 13, 24, 48} {
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = rng.Int63n(1 << w)
		}
		dst := make([]byte, packedLen(n, w))
		b.Run("w"+strconv.Itoa(int(w)), func(b *testing.B) {
			for b.Loop() {
				pack(dst, 0, vals, 0, w)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/value")
		})
	}
}

// BenchmarkUnpack times both unpacking loops at the widths BenchmarkPack
// packs at and at 8; unpackNarrow is where the
// word-at-a-time loop stops beating the load per value.
func BenchmarkUnpack(b *testing.B) {
	const n = 32768
	rng := rand.New(rand.NewSource(3))
	for _, w := range []uint{3, 8, 13, 24, 48} {
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = rng.Int63n(1 << w)
		}
		p := make([]byte, packedLen(n, w))
		pack(p, 0, vals, 0, w)
		var out [unpackBlock]uint64
		for _, wide := range []bool{false, true} {
			name := "w" + strconv.Itoa(int(w)) + map[bool]string{false: "/word", true: "/wide"}[wide]
			b.Run(name, func(b *testing.B) {
				for b.Loop() {
					for r := 0; r < n; r += unpackBlock {
						if wide {
							unpackWide(out[:], p, r, w)
						} else {
							unpackWords(out[:], p, r, w)
						}
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/value")
			})
		}
	}
}
