package main

import (
	"fmt"
	"math"
	"sort"

	"quokka/internal/batch"
)

// floatTol is the fault suite's relative float tolerance (internal/tpch
// assertSameResult): the engine folds partial float sums in arrival order,
// so two correct runs may differ in the last bits.
const floatTol = 1e-9

// sameResult reports how got differs from the reference result ref, or nil
// when it does not. The rules:
//
//   - a nil batch is a result of zero rows;
//   - column names and types must match in order, and the row counts;
//   - ints, dates, bools and strings must be equal; float cells must both be
//     NaN or lie within floatTol of each other (so 0.0 matches -0.0);
//   - rows must match in the reference's order. If they do not, both sides
//     are stably re-ordered by their non-float columns and compared again:
//     a sort or top-k on a float key may legally swap rows whose keys
//     differ within the tolerance, and that is the only reordering allowed.
func sameResult(ref, got *batch.Batch) error {
	if rows(ref) == 0 && rows(got) == 0 {
		return nil
	}
	if rows(ref) == 0 || rows(got) == 0 {
		return fmt.Errorf("row counts differ: want %d, got %d", rows(ref), rows(got))
	}
	ref, got = ref.Materialize(), got.Materialize()
	if !ref.Schema.Equal(got.Schema) {
		return fmt.Errorf("schemas differ: want %s, got %s", ref.Schema, got.Schema)
	}
	if ref.NumRows() != got.NumRows() {
		return fmt.Errorf("row counts differ: want %d, got %d", ref.NumRows(), got.NumRows())
	}
	n := ref.NumRows()
	identity := make([]int, n)
	for i := range identity {
		identity[i] = i
	}
	err := compareRows(ref, got, identity, identity)
	if err == nil {
		return nil
	}
	if compareRows(ref, got, exactOrder(ref), exactOrder(got)) == nil {
		return nil
	}
	return err
}

func rows(b *batch.Batch) int {
	if b == nil {
		return 0
	}
	return b.NumRows()
}

// compareRows compares row ra[i] of a with row rb[i] of b for every i.
func compareRows(a, b *batch.Batch, ra, rb []int) error {
	for i := range ra {
		for ci, ca := range a.Cols {
			cb := b.Cols[ci]
			x, y := ca.Value(ra[i]), cb.Value(rb[i])
			if ca.Type == batch.Float64 {
				if !floatsMatch(x.(float64), y.(float64)) {
					return fmt.Errorf("row %d col %s: want %v, got %v", i, a.Schema.Fields[ci].Name, x, y)
				}
			} else if x != y {
				return fmt.Errorf("row %d col %s: want %v, got %v", i, a.Schema.Fields[ci].Name, x, y)
			}
		}
	}
	return nil
}

func floatsMatch(x, y float64) bool {
	if math.IsNaN(x) || math.IsNaN(y) {
		return math.IsNaN(x) && math.IsNaN(y)
	}
	return math.Abs(x-y) <= floatTol*(math.Abs(x)+math.Abs(y))+floatTol
}

// exactOrder returns b's row indexes stably sorted by the key encoding of
// its non-float columns.
func exactOrder(b *batch.Batch) []int {
	var keyIdx []int
	for i, f := range b.Schema.Fields {
		if f.Type != batch.Float64 {
			keyIdx = append(keyIdx, i)
		}
	}
	n := b.NumRows()
	keys := make([]string, n)
	idx := make([]int, n)
	for r := 0; r < n; r++ {
		keys[r] = string(batch.AppendKey(nil, b, keyIdx, r))
		idx[r] = r
	}
	sort.SliceStable(idx, func(i, j int) bool { return keys[idx[i]] < keys[idx[j]] })
	return idx
}
