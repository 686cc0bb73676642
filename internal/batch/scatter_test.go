package batch

import (
	"bytes"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"
	"testing/quick"
)

// scatterSource is a random batch of rows rows over every column type,
// keyed by (k Int64, s String). keys bounds the key domain; with one key
// every row goes to one partition. With view set, it is a selection view
// of a larger batch.
func scatterSource(rng *rand.Rand, rows, keys int, view bool) *Batch {
	phys := rows
	if view {
		phys = rows + rng.Intn(8)
	}
	s := NewSchema(F("k", Int64), F("s", String), F("f", Float64), F("b", Bool), F("d", Date))
	ks, ss, fs, bs, ds := make([]int64, phys), make([]string, phys), make([]float64, phys), make([]bool, phys), make([]int64, phys)
	for i := range ks {
		key := rng.Intn(keys)
		ks[i], ss[i] = int64(key%3), string(rune('a' + key))[:min(1, key)]
		fs[i], bs[i], ds[i] = rng.NormFloat64(), rng.Intn(2) == 0, rng.Int63n(1000)
	}
	b := MustNew(s, []*Column{NewIntColumn(ks), NewStringColumn(ss), NewFloatColumn(fs), NewBoolColumn(bs), NewDateColumn(ds)})
	if !view {
		return b
	}
	sel := make([]int32, rows)
	for i := range sel {
		sel[i] = int32(rng.Intn(phys))
	}
	return b.WithSel(sel)
}

// naivePartition is the routing contract spelled out: row r of b goes to
// partition HashKey(AppendKey(r)) mod p, rows in order; empty partitions
// are nil.
func naivePartition(b *Batch, keyIdx []int, p int) []*Batch {
	b = b.Materialize()
	rows := make([][]int, p)
	var key []byte
	for r := 0; r < b.NumRows(); r++ {
		key = AppendKey(key[:0], b, keyIdx, r)
		k := int(HashKey(key) % uint64(p))
		rows[k] = append(rows[k], r)
	}
	out := make([]*Batch, p)
	for k, rs := range rows {
		if len(rs) > 0 {
			out[k] = b.Gather(rs)
		}
	}
	return out
}

// TestQuickScatterMatchesConcatThenPartition: scattering a list of batches
// yields, byte for byte, the partitions of their concatenation under the
// routing contract — across selection views, empty sources, a single
// source, and every row going to one partition.
func TestQuickScatterMatchesConcatThenPartition(t *testing.T) {
	keyIdx := []int{0, 1}
	f := func(seed int64, nsrc, pRaw, keysRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		p := int(pRaw%7) + 1
		keys := 1 + int(keysRaw%12) // 1: every row has the same key
		srcs := make([]*Batch, int(nsrc%5)+1)
		for i := range srcs {
			rows := rng.Intn(40)
			if rng.Intn(4) == 0 {
				rows = 0
			}
			srcs[i] = scatterSource(rng, rows, keys, rng.Intn(3) == 0)
		}
		got, err := Scatter(srcs, keyIdx, p)
		if err != nil {
			t.Log(err)
			return false
		}
		whole, err := Concat(srcs)
		if err != nil {
			t.Log(err)
			return false
		}
		one, err := Scatter([]*Batch{whole}, keyIdx, p)
		if err != nil {
			t.Log(err)
			return false
		}
		want := naivePartition(whole, keyIdx, p)
		for k := 0; k < p; k++ {
			for _, other := range [][]*Batch{one, want} {
				if (got[k] == nil) != (other[k] == nil) {
					t.Logf("p=%d partition %d: nil %v vs %v", p, k, got[k] == nil, other[k] == nil)
					return false
				}
				if got[k] != nil && !bytes.Equal(Encode(got[k]), Encode(other[k])) {
					t.Logf("p=%d partition %d differs", p, k)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestScatterKeepsAWholeSourceUncopied: a lone source without a selection
// whose every row goes to one partition is that partition.
func TestScatterKeepsAWholeSourceUncopied(t *testing.T) {
	b := scatterSource(rand.New(rand.NewSource(1)), 50, 1, false)
	parts, err := Scatter([]*Batch{b}, []int{0, 1}, 4)
	if err != nil {
		t.Fatal(err)
	}
	whole := int(HashKeys(nil, b, []int{0, 1})[0] % 4)
	for k := range parts {
		if (k == whole) != (parts[k] == b) {
			t.Fatalf("partition %d: got %p, source %p", k, parts[k], b)
		}
	}
}

// TestRouteZeroAllocsPerRowBound guards a hash edge's routing cost: routing
// a four-batch, three-column output of 32,768 rows to four channels
// allocates the routed rows' column bytes (24 per row) and little else —
// the key hashes, partition ids and permutation are pooled scratch. The
// bound is the measured 24.1 bytes per row plus 25 %; concatenating first
// and then partitioning with per-channel row lists (append-grown index
// slices, a second copy of every row) allocated 79.7 bytes per row. Under the
// race detector the bound is not asserted (raceEnabled): its sync.Pool drops
// pooled routers at random, and each rebuild costs about 1.6 bytes per row.
func TestRouteZeroAllocsPerRowBound(t *testing.T) {
	const rows, sources, bound = 32768, 4, 30.0
	s := NewSchema(F("k", Int64), F("v", Float64), F("d", Date))
	srcs := make([]*Batch, sources)
	for i := range srcs {
		ks, vs, ds := make([]int64, rows/sources), make([]float64, rows/sources), make([]int64, rows/sources)
		for r := range ks {
			ks[r], vs[r], ds[r] = int64(i*rows+r*7), float64(r), int64(r%365)
		}
		srcs[i] = MustNew(s, []*Column{NewIntColumn(ks), NewFloatColumn(vs), NewDateColumn(ds)})
	}
	route := func() {
		if _, err := Scatter(srcs, []int{0}, 4); err != nil {
			t.Fatal(err)
		}
	}
	route() // warm the pooled scratch
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const runs = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		route()
	}
	runtime.ReadMemStats(&after)
	perRow := float64(after.TotalAlloc-before.TotalAlloc) / (runs * rows)
	t.Logf("routing allocates %.2f bytes per row (race detector: %v)", perRow, raceEnabled)
	if perRow > bound && !raceEnabled {
		t.Errorf("routing allocates %.2f bytes per row, bound %.0f", perRow, bound)
	}
}
