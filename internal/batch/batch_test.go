package batch

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func testBatch(t *testing.T) *Batch {
	t.Helper()
	s := NewSchema(F("id", Int64), F("price", Float64), F("name", String), F("flag", Bool), F("d", Date))
	b, err := New(s, []*Column{
		NewIntColumn([]int64{1, 2, 3, 4}),
		NewFloatColumn([]float64{1.5, 2.5, -3, 0}),
		NewStringColumn([]string{"a", "bb", "", "dddd"}),
		NewBoolColumn([]bool{true, false, true, false}),
		NewDateColumn([]int64{100, 200, 300, 400}),
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return b
}

func TestSchemaIndex(t *testing.T) {
	s := NewSchema(F("a", Int64), F("b", String))
	if got := s.Index("b"); got != 1 {
		t.Errorf("Index(b) = %d, want 1", got)
	}
	if got := s.Index("zzz"); got != -1 {
		t.Errorf("Index(zzz) = %d, want -1", got)
	}
	if s.String() != "(a:int64, b:string)" {
		t.Errorf("String() = %q", s.String())
	}
}

func TestSchemaDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate field")
		}
	}()
	NewSchema(F("a", Int64), F("a", String))
}

func TestNewValidates(t *testing.T) {
	s := NewSchema(F("a", Int64), F("b", String))
	if _, err := New(s, []*Column{NewIntColumn([]int64{1})}); err == nil {
		t.Error("want error for wrong column count")
	}
	if _, err := New(s, []*Column{NewIntColumn([]int64{1}), NewIntColumn([]int64{2})}); err == nil {
		t.Error("want error for wrong column type")
	}
	if _, err := New(s, []*Column{NewIntColumn([]int64{1, 2}), NewStringColumn([]string{"x"})}); err == nil {
		t.Error("want error for ragged columns")
	}
}

func TestGatherSliceSelect(t *testing.T) {
	b := testBatch(t)
	g := b.Gather([]int{3, 1})
	if g.NumRows() != 2 || g.Col("id").Ints[0] != 4 || g.Col("name").Strings[1] != "bb" {
		t.Errorf("Gather wrong: %v", g)
	}
	sl := b.Slice(1, 3)
	if sl.NumRows() != 2 || sl.Col("id").Ints[0] != 2 {
		t.Errorf("Slice wrong: %v", sl)
	}
	sel := b.Select("name", "id")
	if sel.Schema.Len() != 2 || sel.Schema.Fields[0].Name != "name" {
		t.Errorf("Select wrong schema: %v", sel.Schema)
	}
}

func TestConcat(t *testing.T) {
	b := testBatch(t)
	c, err := Concat([]*Batch{b, b.Slice(0, 2)})
	if err != nil {
		t.Fatal(err)
	}
	if c.NumRows() != 6 {
		t.Errorf("Concat rows = %d, want 6", c.NumRows())
	}
	if c.Col("id").Ints[4] != 1 {
		t.Errorf("Concat order wrong: %v", c.Col("id").Ints)
	}
	if got, err := Concat(nil); got != nil || err != nil {
		t.Errorf("Concat(nil) = %v, %v", got, err)
	}
	other := MustNew(NewSchema(F("x", Int64)), []*Column{NewIntColumn([]int64{1})})
	if _, err := Concat([]*Batch{b, other}); err == nil {
		t.Error("want schema mismatch error")
	}
}

func TestSplitRows(t *testing.T) {
	b := testBatch(t)
	parts := b.SplitRows(3)
	if len(parts) != 2 || parts[0].NumRows() != 3 || parts[1].NumRows() != 1 {
		t.Errorf("SplitRows(3): %d parts", len(parts))
	}
	if got := b.SplitRows(0); len(got) != 1 {
		t.Errorf("SplitRows(0) should return whole batch")
	}
	if got := Empty(b.Schema).SplitRows(2); got != nil {
		t.Errorf("SplitRows on empty = %v, want nil", got)
	}
}

func TestHashPartitionCoLocatesKeys(t *testing.T) {
	n := 1000
	ids := make([]int64, n)
	for i := range ids {
		ids[i] = int64(i % 37)
	}
	s := NewSchema(F("k", Int64))
	b := MustNew(s, []*Column{NewIntColumn(ids)})
	parts := b.HashPartition([]string{"k"}, 4)
	if len(parts) != 4 {
		t.Fatalf("got %d parts", len(parts))
	}
	owner := map[int64]int{}
	total := 0
	for pi, p := range parts {
		total += p.NumRows()
		for _, k := range p.Col("k").Ints {
			if prev, ok := owner[k]; ok && prev != pi {
				t.Fatalf("key %d in partitions %d and %d", k, prev, pi)
			}
			owner[k] = pi
		}
	}
	if total != n {
		t.Errorf("lost rows: %d != %d", total, n)
	}
	// Determinism: same input gives identical partitioning.
	again := b.HashPartition([]string{"k"}, 4)
	for i := range parts {
		if !reflect.DeepEqual(parts[i].Col("k").Ints, again[i].Col("k").Ints) {
			t.Fatalf("partitioning not deterministic at %d", i)
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	b := testBatch(t)
	got, err := Decode(Encode(b))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !got.Schema.Equal(b.Schema) {
		t.Fatalf("schema mismatch: %s vs %s", got.Schema, b.Schema)
	}
	for i := range b.Cols {
		if !reflect.DeepEqual(valuesOf(got.Cols[i]), valuesOf(b.Cols[i])) {
			t.Errorf("col %d mismatch", i)
		}
	}
}

func valuesOf(c *Column) []any {
	out := make([]any, c.Len())
	for i := range out {
		out[i] = c.Value(i)
	}
	return out
}

// TestRunFramingRoundTrip: the spill run-file format is a sequence of
// length-prefixed Encode frames; iteration returns the batches in order
// and flags truncation.
func TestRunFramingRoundTrip(t *testing.T) {
	b := testBatch(t)
	var data []byte
	data = AppendFramed(data, b)
	data = AppendFramed(data, b.Slice(1, 3))
	it := NewRunIter(data)
	var rows []int
	for {
		got, err := it.Next()
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		if got == nil {
			break
		}
		rows = append(rows, got.NumRows())
	}
	if !reflect.DeepEqual(rows, []int{4, 2}) {
		t.Fatalf("frame rows = %v, want [4 2]", rows)
	}
	// The first frame of a truncated file still decodes; the truncation
	// surfaces on the frame it bites into.
	trunc := NewRunIter(data[:len(data)-2])
	if _, err := trunc.Next(); err != nil {
		t.Fatalf("first frame of truncated run: %v", err)
	}
	if _, err := trunc.Next(); err == nil {
		t.Error("want error on truncated second frame")
	}
	if _, err := NewRunIter([]byte{1, 2}).Next(); err == nil {
		t.Error("want error on truncated frame header")
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode([]byte{1, 2, 3}); err == nil {
		t.Error("want error on short input")
	}
	enc := Encode(testBatch(t))
	if _, err := Decode(enc[:len(enc)-3]); err == nil {
		t.Error("want error on truncated input")
	}
	bad := append([]byte(nil), enc...)
	bad[0] ^= 0xff
	if _, err := Decode(bad); err == nil {
		t.Error("want error on bad magic")
	}
	if _, err := Decode(append(enc, 0)); err == nil {
		t.Error("want error on trailing bytes")
	}
}

// Property: encode/decode round-trips arbitrary int/float/string batches.
func TestQuickCodecRoundTrip(t *testing.T) {
	f := func(ints []int64, floats []float64, strs []string) bool {
		n := len(ints)
		if len(floats) < n {
			n = len(floats)
		}
		if len(strs) < n {
			n = len(strs)
		}
		s := NewSchema(F("i", Int64), F("f", Float64), F("s", String))
		b := MustNew(s, []*Column{
			NewIntColumn(ints[:n]), NewFloatColumn(floats[:n]), NewStringColumn(strs[:n]),
		})
		got, err := Decode(Encode(b))
		if err != nil {
			return false
		}
		return reflect.DeepEqual(valuesOf(got.Cols[0]), valuesOf(b.Cols[0])) &&
			reflect.DeepEqual(valuesOf(got.Cols[2]), valuesOf(b.Cols[2]))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: hash partitioning is a permutation-invariant partition of rows.
func TestQuickHashPartitionPreservesRows(t *testing.T) {
	f := func(keys []int64, pRaw uint8) bool {
		p := int(pRaw%7) + 1
		s := NewSchema(F("k", Int64))
		b := MustNew(s, []*Column{NewIntColumn(keys)})
		parts := b.HashPartition([]string{"k"}, p)
		count := map[int64]int{}
		for _, k := range keys {
			count[k]++
		}
		for _, part := range parts {
			for _, k := range part.Col("k").Ints {
				count[k]--
			}
		}
		for _, c := range count {
			if c != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestBuilder(t *testing.T) {
	src := testBatch(t)
	bl := NewBuilder(src.Schema, 4)
	for _, j := range []int{2, 0} {
		for i, c := range src.Cols {
			bl.Col(i).AppendFrom(c, j)
		}
	}
	out := bl.Build()
	if out.NumRows() != 2 || out.Col("id").Ints[0] != 3 || out.Col("id").Ints[1] != 1 {
		t.Errorf("builder output wrong: %v", out)
	}
}

func TestByteSizeGrowsWithRows(t *testing.T) {
	s := NewSchema(F("i", Int64), F("s", String))
	small := MustNew(s, []*Column{NewIntColumn([]int64{1}), NewStringColumn([]string{"x"})})
	big := MustNew(s, []*Column{NewIntColumn(make([]int64, 100)), NewStringColumn(make([]string, 100))})
	if small.ByteSize() >= big.ByteSize() {
		t.Errorf("ByteSize: small %d >= big %d", small.ByteSize(), big.ByteSize())
	}
}

func BenchmarkHashPartition(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	n := 64 * 1024
	ids := make([]int64, n)
	for i := range ids {
		ids[i] = rng.Int63n(1 << 20)
	}
	bt := MustNew(NewSchema(F("k", Int64)), []*Column{NewIntColumn(ids)})
	b.SetBytes(int64(n * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bt.HashPartition([]string{"k"}, 16)
	}
}

func BenchmarkEncodeDecode(b *testing.B) {
	n := 16 * 1024
	ints := make([]int64, n)
	strs := make([]string, n)
	for i := range ints {
		ints[i] = int64(i)
		strs[i] = "value-of-some-length"
	}
	bt := MustNew(NewSchema(F("i", Int64), F("s", String)),
		[]*Column{NewIntColumn(ints), NewStringColumn(strs)})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc := Encode(bt)
		if _, err := Decode(enc); err != nil {
			b.Fatal(err)
		}
	}
}
