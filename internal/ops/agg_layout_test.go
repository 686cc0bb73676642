package ops

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"quokka/internal/batch"
	"quokka/internal/expr"
)

// --- the emitted bytes, pinned --------------------------------------------

// goldenAggs is one aggregate of every state kind: int and float sums,
// count, count(*), string, int and float min/max.
func goldenAggs() []AggExpr {
	return []AggExpr{
		Sum("isum", expr.C("iv")), Sum("fsum", expr.C("fv")),
		{"cnt", AggCount, expr.C("fv")}, CountStar("n"),
		Min("smin", expr.C("sv")), Max("smax", expr.C("sv")),
		Min("imin", expr.C("iv")), Max("imax", expr.C("iv")),
		Min("fmin", expr.C("fv")), Max("fmax", expr.C("fv")),
	}
}

// goldenAggDefaults types goldenAggs' empty-input default row.
var goldenAggDefaults = []batch.Type{
	batch.Int64, batch.Float64, batch.Int64, batch.Int64, batch.String,
	batch.String, batch.Int64, batch.Int64, batch.Float64, batch.Float64,
}

// goldenAggInputs are two batches grouped by (g, name). The smallest key,
// (0, ""), and every g = 0 group occur only in the first batch, so a
// snapshot that loses a state's type flags changes the restored output's
// schema; group (-1, "nan") holds one row whose float input is NaN.
func goldenAggInputs() []*batch.Batch {
	s := batch.NewSchema(
		batch.F("g", batch.Int64), batch.F("name", batch.String),
		batch.F("iv", batch.Int64), batch.F("fv", batch.Float64), batch.F("sv", batch.String))
	rng := rand.New(rand.NewSource(31))
	names := []string{"", "a", "ab", "abcdefgh", "zz"}
	half := func(rows, gFrom int) *batch.Batch {
		var gs, ivs []int64
		var ns, svs []string
		var fvs []float64
		add := func(g int64, name string, iv int64, fv float64, sv string) {
			gs, ns, ivs, fvs, svs = append(gs, g), append(ns, name), append(ivs, iv), append(fvs, fv), append(svs, sv)
		}
		if gFrom == 0 {
			add(0, "", 5, 1.5, "m")
			add(-1, "nan", 7, math.NaN(), "n")
		}
		for len(gs) < rows {
			sv := make([]byte, 1+rng.Intn(6))
			for i := range sv {
				sv[i] = byte('a' + rng.Intn(26))
			}
			add(int64(gFrom+rng.Intn(60-gFrom)), names[rng.Intn(len(names))],
				rng.Int63n(2000)-1000, rng.NormFloat64()*100, string(sv))
		}
		return batch.MustNew(s, []*batch.Column{
			batch.NewIntColumn(gs), batch.NewStringColumn(ns),
			batch.NewIntColumn(ivs), batch.NewFloatColumn(fvs), batch.NewStringColumn(svs),
		})
	}
	return []*batch.Batch{half(600, 0), half(600, 1)}
}

// aggGolden holds the SHA-256 of what the aggregation over goldenAggInputs
// emits, computed before the per-group state became a struct of arrays:
// <case>/finalize is the Finalize output over both batches, <case>/snapshot
// the Snapshot after the first, global/default the never-consumed global
// aggregate's default row.
var aggGolden = map[string]string{
	"p1/finalize":     "72020155d8be5410649491e931e0b17ae6be701c425fd4429725ac9e810c0ee2",
	"p1/snapshot":     "aa4c9306afa66d5242df9c088f08685b603fd2165dbca3b1a95da6bdfdb5bf4d",
	"global/finalize": "9464f0bf81397b7467e72ad1ee7231b017a2d88c3fa3e1fa8c8d428c4dfd04ef",
	"global/snapshot": "1d51e4c803f9a05c53a5aa3b53f4e10391e476620696214db36b0c51265df097",
	"global/default":  "23cbb4d6e5119ee84b381dd3bb3976f9b72cca26618c1524002df25c5d92b368",
}

// TestAggBytesMatchGolden: the aggregate's Finalize output and Snapshot
// bytes are the pinned ones, grouped and for the global aggregate, and restoring the pinned snapshot then consuming on emits
// exactly what an operator that never snapshotted emits.
func TestAggBytesMatchGolden(t *testing.T) {
	in := goldenAggInputs()
	check := func(name string, b []byte) {
		t.Helper()
		sum := sha256.Sum256(b)
		if got := hex.EncodeToString(sum[:]); got != aggGolden[name] {
			t.Errorf("%s: sha256 %s, want %s", name, got, aggGolden[name])
		}
	}
	for _, c := range []struct {
		name    string
		groupBy []string
	}{{"p1", []string{"g", "name"}}, {"global", nil}} {
		spec := NewHashAggTypedSpec(c.groupBy, goldenAggDefaults, goldenAggs()...)
		whole := spec.New(0, 1)
		consumeAll(t, whole, 0, in...)
		want := encodeOuts(finalize(t, whole))
		check(c.name+"/finalize", []byte(want))

		half := spec.New(0, 1)
		consumeAll(t, half, 0, in[0])
		snap, err := half.(Snapshotter).Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		check(c.name+"/snapshot", snap)

		restored := spec.New(0, 1)
		if err := restored.(Snapshotter).Restore(snap); err != nil {
			t.Fatal(err)
		}
		consumeAll(t, restored, 0, in[1])
		if got := encodeOuts(finalize(t, restored)); got != want {
			t.Errorf("%s: restored from the snapshot and consumed on, the output differs", c.name)
		}
	}
	never := NewHashAggTypedSpec(nil, goldenAggDefaults, goldenAggs()...).New(0, 1)
	check("global/default", []byte(encodeOuts(finalize(t, never))))
}

// --- the radix order is the comparator's order ----------------------------

// fuzzKeyBatch builds n rows of one key shape. Row i's 64-bit word is read
// cyclically from data at i*8, plus i*delta:
//
//	0: one Int64 column (little-endian keys);
//	1: (Int64, Int64), the first column data's first word for every row;
//	2: a String column, data's bytes followed by the word in fixed-width hex;
//	3: one Bool column, the word's low bit;
//	4: one Float64 column, the word's bits.
func fuzzKeyBatch(shape uint8, n int, delta uint64, data []byte) *batch.Batch {
	word := func(i int) uint64 {
		var w [8]byte
		for j := range w {
			if len(data) > 0 {
				w[j] = data[(i*8+j)%len(data)]
			}
		}
		return binary.LittleEndian.Uint64(w[:]) + uint64(i)*delta
	}
	ints, floats := make([]int64, n), make([]float64, n)
	strs, bools := make([]string, n), make([]bool, n)
	for i := 0; i < n; i++ {
		w := word(i)
		ints[i], floats[i], bools[i] = int64(w), math.Float64frombits(w), w&1 == 1
		strs[i] = fmt.Sprintf("%s%016x", data, w)
	}
	switch shape {
	case 1:
		first := make([]int64, n)
		for i := range first {
			first[i] = int64(word(0))
		}
		return batch.MustNew(batch.NewSchema(batch.F("k0", batch.Int64), batch.F("k1", batch.Int64)),
			[]*batch.Column{batch.NewIntColumn(first), batch.NewIntColumn(ints)})
	case 2:
		return batch.MustNew(batch.NewSchema(batch.F("k0", batch.String)), []*batch.Column{batch.NewStringColumn(strs)})
	case 3:
		return batch.MustNew(batch.NewSchema(batch.F("k0", batch.Bool)), []*batch.Column{batch.NewBoolColumn(bools)})
	case 4:
		return batch.MustNew(batch.NewSchema(batch.F("k0", batch.Float64)), []*batch.Column{batch.NewFloatColumn(floats)})
	}
	return batch.MustNew(batch.NewSchema(batch.F("k0", batch.Int64)), []*batch.Column{batch.NewIntColumn(ints)})
}

// FuzzGroupOrderMatchesComparator: whatever the keys, sortedGroups orders
// the groups exactly as sorting them by bytes.Compare over their encoded
// keys does.
func FuzzGroupOrderMatchesComparator(f *testing.F) {
	le := func(ws ...uint64) []byte {
		var b []byte
		for _, w := range ws {
			b = binary.LittleEndian.AppendUint64(b, w)
		}
		return b
	}
	negZero, nan := math.Float64bits(math.Copysign(0, -1)), math.Float64bits(math.NaN())
	f.Add(uint8(0), uint16(1000), uint64(1), le(1_000_000)) // little-endian int64 keys
	f.Add(uint8(0), uint16(100), uint64(7919), le(0))       // below the radix cutoff
	for b := 0; b < 8; b++ {
		// Key bytes b and b+1 vary, the rest tie: each counting pass decides.
		f.Add(uint8(0), uint16(600), uint64(157)<<(8*b), le(0))
	}
	f.Add(uint8(1), uint16(1200), uint64(5), le(42))                         // (int64, int64), prefixes tie
	f.Add(uint8(2), uint16(600), uint64(1), []byte("abcd"))                  // length and 4 chars tie
	f.Add(uint8(2), uint16(50), uint64(3), []byte("ab"))                     // short strings
	f.Add(uint8(3), uint16(8), uint64(1), le(0))                             // 1-byte bool keys
	f.Add(uint8(4), uint16(40), uint64(0), le(0, negZero, nan, 1))           // ±0.0 and NaN
	f.Add(uint8(4), uint16(900), uint64(0x9e3779b97f4a7c15), le(0, negZero)) // floats above the cutoff
	f.Fuzz(func(t *testing.T, shape uint8, n uint16, delta uint64, data []byte) {
		if len(data) > 64 {
			data = data[:64]
		}
		b := fuzzKeyBatch(shape%5, int(n)%3000, delta, data)
		keys := make([]string, len(b.Schema.Fields))
		for i, fl := range b.Schema.Fields {
			keys[i] = fl.Name
		}
		a := NewHashAggSpec(keys, CountStar("n")).New(0, 1).(*HashAgg)
		if _, err := a.Consume(0, b); err != nil {
			t.Fatal(err)
		}
		if a.table == nil || a.table.Len() == 0 {
			return
		}
		want := make([]int, a.table.Len())
		for g := range want {
			want[g] = g
		}
		slices.SortFunc(want, func(x, y int) int { return bytes.Compare(a.table.Key(x), a.table.Key(y)) })
		if got := a.sortedGroups(); !slices.Equal(got, want) {
			t.Fatalf("shape %d, %d groups: sortedGroups is not the comparator's order", shape%5, len(want))
		}
	})
}

// --- allocation guard for wide aggregation --------------------------------

// wideAggBytesPerGroup bounds what a fresh operator allocates per group
// while 65,536 distinct groups arrive: the measured value (x86-64, Go 1.24)
// plus 25 % headroom. Growing each state slice by one zero struct at a time
// allocated well past it.
const wideAggBytesPerGroup = 371

// TestWideAggZeroAllocsPerGroupBound: founding a group costs amortised
// slice growth only — no per-group allocation, and state slices that grow
// by doubling, not by append's 1.25x.
func TestWideAggZeroAllocsPerGroupBound(t *testing.T) {
	const batches, rows = 16, 4096
	s := batch.NewSchema(batch.F("k", batch.Int64), batch.F("v", batch.Float64), batch.F("q", batch.Int64))
	in := make([]*batch.Batch, batches)
	for i := range in {
		ks, vs, qs := make([]int64, rows), make([]float64, rows), make([]int64, rows)
		for r := range ks {
			ks[r] = int64(i*rows+r) * 4 // distinct: every row founds a group
			vs[r], qs[r] = float64(r), int64(r)
		}
		in[i] = batch.MustNew(s, []*batch.Column{batch.NewIntColumn(ks), batch.NewFloatColumn(vs), batch.NewIntColumn(qs)})
	}
	op := NewHashAggSpec([]string{"k"}, Sum("v", expr.C("v")), Sum("q", expr.C("q")), CountStar("n")).New(0, 1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, b := range in {
		if _, err := op.Consume(0, b); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perGroup := float64(after.TotalAlloc-before.TotalAlloc) / (batches * rows)
	t.Logf("wide aggregation: %.1f B allocated per group", perGroup)
	if perGroup > wideAggBytesPerGroup {
		t.Errorf("wide aggregation allocates %.1f B per group, bound %d", perGroup, wideAggBytesPerGroup)
	}
}
