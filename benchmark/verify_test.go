package main

import (
	"math"
	"testing"

	"quokka/internal/batch"
)

var verifySchema = batch.NewSchema(batch.F("k", batch.Int64), batch.F("name", batch.String), batch.F("v", batch.Float64))

func rowsOf(ks []int64, names []string, vs []float64) *batch.Batch {
	return batch.MustNew(verifySchema, []*batch.Column{
		batch.NewIntColumn(ks), batch.NewStringColumn(names), batch.NewFloatColumn(vs),
	})
}

func TestSameResult(t *testing.T) {
	ref := rowsOf([]int64{1, 2, 3}, []string{"a", "b", "c"}, []float64{1.5, 0, math.NaN()})
	negZero := math.Copysign(0, -1)
	for _, tc := range []struct {
		name string
		got  *batch.Batch
		same bool
	}{
		{"identical", rowsOf([]int64{1, 2, 3}, []string{"a", "b", "c"}, []float64{1.5, 0, math.NaN()}), true},
		{"float within tolerance", rowsOf([]int64{1, 2, 3}, []string{"a", "b", "c"}, []float64{1.5 * (1 + 1e-12), 0, math.NaN()}), true},
		{"float outside tolerance", rowsOf([]int64{1, 2, 3}, []string{"a", "b", "c"}, []float64{1.5001, 0, math.NaN()}), false},
		{"negative zero equals zero", rowsOf([]int64{1, 2, 3}, []string{"a", "b", "c"}, []float64{1.5, negZero, math.NaN()}), true},
		{"NaN only matches NaN", rowsOf([]int64{1, 2, 3}, []string{"a", "b", "c"}, []float64{1.5, 0, 7}), false},
		{"number does not match NaN", rowsOf([]int64{1, 2, 3}, []string{"a", "b", "c"}, []float64{math.NaN(), 0, math.NaN()}), false},
		{"rows swapped, same rows", rowsOf([]int64{2, 1, 3}, []string{"b", "a", "c"}, []float64{0, 1.5, math.NaN()}), true},
		{"rows swapped, floats moved", rowsOf([]int64{2, 1, 3}, []string{"b", "a", "c"}, []float64{1.5, 0, math.NaN()}), false},
		{"int differs", rowsOf([]int64{1, 2, 4}, []string{"a", "b", "c"}, []float64{1.5, 0, math.NaN()}), false},
		{"string differs", rowsOf([]int64{1, 2, 3}, []string{"a", "b", "x"}, []float64{1.5, 0, math.NaN()}), false},
		{"row missing", rowsOf([]int64{1, 2}, []string{"a", "b"}, []float64{1.5, 0}), false},
		{"no result", nil, false},
	} {
		err := sameResult(ref, tc.got)
		if (err == nil) != tc.same {
			t.Errorf("%s: sameResult = %v, want same=%v", tc.name, err, tc.same)
		}
	}
}

func TestSameResultShapes(t *testing.T) {
	empty := batch.Empty(verifySchema)
	if err := sameResult(nil, empty); err != nil {
		t.Errorf("nil and a zero-row batch are the same empty result: %v", err)
	}
	if err := sameResult(empty, nil); err != nil {
		t.Errorf("zero-row batch and nil: %v", err)
	}
	renamed := batch.MustNew(
		batch.NewSchema(batch.F("k", batch.Int64), batch.F("label", batch.String), batch.F("v", batch.Float64)),
		[]*batch.Column{batch.NewIntColumn([]int64{1}), batch.NewStringColumn([]string{"a"}), batch.NewFloatColumn([]float64{1})})
	if err := sameResult(rowsOf([]int64{1}, []string{"a"}, []float64{1}), renamed); err == nil {
		t.Error("a renamed column must not verify")
	}
	// A selection vector is resolved before comparing.
	sel := rowsOf([]int64{9, 1, 2}, []string{"z", "a", "b"}, []float64{0, 1, 2}).WithSel([]int32{1, 2})
	if err := sameResult(rowsOf([]int64{1, 2}, []string{"a", "b"}, []float64{1, 2}), sel); err != nil {
		t.Errorf("selection view: %v", err)
	}
}
