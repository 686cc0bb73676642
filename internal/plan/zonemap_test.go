package plan

import (
	"math"
	"math/rand"
	"testing"

	"quokka/internal/batch"
	"quokka/internal/expr"
)

// zmSchema is the five-column shape every zone-map test batch has: one
// column per statistics type.
var zmSchema = batch.NewSchema(
	batch.F("i", batch.Int64), batch.F("d", batch.Date), batch.F("f", batch.Float64),
	batch.F("s", batch.String), batch.F("b", batch.Bool))

func zmBatch(is, ds []int64, fs []float64, ss []string, bs []bool) *batch.Batch {
	return batch.MustNew(zmSchema, []*batch.Column{
		batch.NewIntColumn(is), batch.NewDateColumn(ds), batch.NewFloatColumn(fs),
		batch.NewStringColumn(ss), batch.NewBoolColumn(bs)})
}

// TestSplitMayMatchArms: one table per arm of splitMayMatch and cmpMayMatch
// over a split with i,d in [10,20], f in [1.5,2.5], s in ["b","d"], b all true.
func TestSplitMayMatchArms(t *testing.T) {
	zm := batch.ComputeZoneMap(zmBatch(
		[]int64{10, 20}, []int64{10, 20}, []float64{1.5, 2.5}, []string{"b", "d"}, []bool{true, true}))
	nan := batch.ComputeZoneMap(zmBatch(
		[]int64{1}, []int64{1}, []float64{math.NaN()}, []string{""}, []bool{false}))
	huge := batch.ComputeZoneMap(zmBatch(
		[]int64{exactFloatInt + 1}, []int64{0}, []float64{0}, []string{""}, []bool{false}))
	i, d, f, s, b := expr.C("i"), expr.C("d"), expr.C("f"), expr.C("s"), expr.C("b")
	for _, c := range []struct {
		name string
		pred expr.Expr
		zm   *batch.ZoneMap
		want bool
	}{
		{"nil predicate", nil, zm, true},
		{"empty and", expr.And(), zm, true},
		{"empty or", expr.Or(), zm, true},
		{"and: one conjunct excluded", expr.And(expr.Ge(i, expr.Int64(10)), expr.Gt(i, expr.Int64(20))), zm, false},
		{"and: all may match", expr.And(expr.Ge(i, expr.Int64(10)), expr.Le(i, expr.Int64(20))), zm, true},
		{"or: one disjunct may match", expr.Or(expr.Gt(i, expr.Int64(20)), expr.Eq(s, expr.Str("c"))), zm, true},
		{"or: every disjunct excluded", expr.Or(expr.Gt(i, expr.Int64(20)), expr.Lt(s, expr.Str("b"))), zm, false},
		{"not: no range reasoning", expr.Not{Of: expr.Le(i, expr.Int64(100))}, zm, true},

		{"in ints: a member in range", expr.InInt(i, 1, 15), zm, true},
		{"in ints: members all outside", expr.InInt(i, 9, 21), zm, false},
		{"in ints: bounds are members", expr.InInt(d, 20), zm, true},
		{"in ints: empty set", expr.InInt(i), zm, false},
		{"in ints: over a float column", expr.InInt(f, 99), zm, true},
		{"in ints: over an expression", expr.InInt(expr.Add(i, expr.Int64(1)), 99), zm, true},
		{"in ints: column unknown", expr.InInt(expr.C("x"), 99), zm, true},
		{"in strings: a member in range", expr.InStr(s, "a", "c"), zm, true},
		{"in strings: members all outside", expr.InStr(s, "a", "e", ""), zm, false},
		{"in strings: over an int column", expr.InStr(i, "a"), zm, true},
		{"in strings: over an expression", expr.InStr(expr.Not{Of: b}, "a"), zm, true},

		{"string: below min", expr.Lt(s, expr.Str("b")), zm, false},
		{"string: eq inside", expr.Eq(s, expr.Str("c")), zm, true},
		{"string: empty literal", expr.Le(s, expr.Str("")), zm, false},
		{"int: eq above max", expr.Eq(i, expr.Int64(21)), zm, false},
		{"int: ne over a range", expr.Ne(i, expr.Int64(10)), zm, true},
		{"date column, int literal", expr.Gt(d, expr.Int64(20)), zm, false},
		{"int column, date literal", expr.Ge(i, expr.DateLit(20)), zm, true},
		{"flipped: 20 < i", expr.Lt(expr.Int64(20), i), zm, false},
		{"flipped: 20 <= i", expr.Le(expr.Int64(20), i), zm, true},
		{"flipped: 10 > i", expr.Gt(expr.Int64(10), i), zm, false},
		{"flipped: 10 >= i", expr.Ge(expr.Int64(10), i), zm, true},
		{"flipped: 9 = i", expr.Eq(expr.Int64(9), i), zm, false},
		{"column against column", expr.Lt(i, d), zm, true},
		{"literal against literal", expr.Lt(expr.Int64(2), expr.Int64(1)), zm, true},
		{"bool: point range, ne", expr.Ne(b, expr.Boolean(true)), zm, false},
		{"bool: point range, eq other", expr.Eq(b, expr.Boolean(false)), zm, false},
		{"bool: point range, eq", expr.Eq(b, expr.Boolean(true)), zm, true},
		{"bool column, int literal", expr.Eq(b, expr.Int64(7)), zm, true},
		{"string column, int literal", expr.Eq(s, expr.Int64(7)), zm, true},

		{"mixed: int column, float literal between", expr.Eq(i, expr.Float64(10.5)), zm, true},
		{"mixed: int column, float literal above", expr.Gt(i, expr.Float64(20.5)), zm, false},
		{"mixed: float column, int literal", expr.Ge(f, expr.Int64(3)), zm, false},
		{"mixed: float column, int literal inside", expr.Le(f, expr.Int64(2)), zm, true},
		{"float: NaN literal keeps", expr.Lt(f, expr.Float64(math.NaN())), zm, true},
		{"float: NaN in the data, no stats", expr.Gt(f, expr.Float64(1e300)), nan, true},
		{"mixed: int bounds past 2^53 keep", expr.Lt(i, expr.Float64(0)), huge, true},
		{"mixed: int literal past 2^53 keeps", expr.Gt(f, expr.Int64(exactFloatInt+1)), zm, true},
	} {
		if got := splitMayMatch(c.pred, c.zm); got != c.want {
			t.Errorf("%s: splitMayMatch(%v) = %v, want %v", c.name, c.pred, got, c.want)
		}
	}
}

func TestZoneMapHelpers(t *testing.T) {
	for op, want := range map[expr.CmpOp]expr.CmpOp{
		expr.OpLt: expr.OpGt, expr.OpLe: expr.OpGe, expr.OpGt: expr.OpLt, expr.OpGe: expr.OpLe,
		expr.OpEq: expr.OpEq, expr.OpNe: expr.OpNe,
	} {
		if got := flipCmp(op); got != want {
			t.Errorf("flipCmp(%v) = %v, want %v", op, got, want)
		}
	}
	// rangeMayMatch over [min,max] = [0,2] (and the point [1,1]) for lit at
	// -1..3: cmpMin = sign(lit-min), cmpMax = sign(lit-max).
	sign := func(x int) int { return min(max(x, -1), 1) }
	for _, r := range [][2]int{{0, 2}, {1, 1}} {
		for lit := -1; lit <= 3; lit++ {
			for _, op := range []expr.CmpOp{expr.OpEq, expr.OpNe, expr.OpLt, expr.OpLe, expr.OpGt, expr.OpGe} {
				want := false
				for v := r[0]; v <= r[1]; v++ {
					c := sign(v - lit)
					want = want || map[expr.CmpOp]bool{expr.OpEq: c == 0, expr.OpNe: c != 0, expr.OpLt: c < 0,
						expr.OpLe: c <= 0, expr.OpGt: c > 0, expr.OpGe: c >= 0}[op]
				}
				if got := rangeMayMatch(op, sign(lit-r[0]), sign(lit-r[1]), r[0] == r[1]); got != want {
					t.Errorf("rangeMayMatch(v %v %d, v in %v) = %v, want %v", op, lit, r, got, want)
				}
			}
		}
	}
	if rangeMayMatch(expr.CmpOp(99), 0, 0, true) != true {
		t.Error("an unknown operator must keep the split")
	}

	for _, c := range []struct {
		cs     batch.ColumnStats
		lo, hi float64
		ok     bool
	}{
		{batch.ColumnStats{Type: batch.Float64, MinFloat: -0.5, MaxFloat: 2}, -0.5, 2, true},
		{batch.ColumnStats{Type: batch.Int64, MinInt: -exactFloatInt, MaxInt: exactFloatInt}, -float64(exactFloatInt), float64(exactFloatInt), true},
		{batch.ColumnStats{Type: batch.Date, MinInt: 3, MaxInt: exactFloatInt + 1}, 0, 0, false},
		{batch.ColumnStats{Type: batch.Int64, MinInt: -exactFloatInt - 1, MaxInt: 0}, 0, 0, false},
		{batch.ColumnStats{Type: batch.String}, 0, 0, false},
	} {
		if lo, hi, ok := floatRange(&c.cs); lo != c.lo || hi != c.hi || ok != c.ok {
			t.Errorf("floatRange(%+v) = %v, %v, %v", c.cs, lo, hi, ok)
		}
	}
	for _, c := range []struct {
		lit  expr.Lit
		want float64
		ok   bool
	}{
		{expr.Float64(-2.5), -2.5, true},
		{expr.Float64(math.Inf(1)), math.Inf(1), true},
		{expr.Float64(math.NaN()), 0, false},
		{expr.Int64(exactFloatInt), float64(exactFloatInt), true},
		{expr.DateLit(-exactFloatInt - 1), 0, false},
		{expr.Str("1"), 0, false},
	} {
		if got, ok := floatLit(c.lit); got != c.want || ok != c.ok {
			t.Errorf("floatLit(%v) = %v, %v", c.lit, got, ok)
		}
	}
}

// TestPruneIsSound is the property pruning stands on: a split the zone map
// excludes holds no row the predicate selects. Random splits — NaN, both
// zeros, infinities, empty strings, single-valued and empty columns — against
// random predicates of every form splitMayMatch reasons about (and some it
// does not), literals drawn from the same small pools so bounds are hit.
func TestPruneIsSound(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	ints := []int64{-3, -1, 0, 1, 2, 7, exactFloatInt, exactFloatInt + 1, -exactFloatInt - 1, math.MaxInt64, math.MinInt64}
	floats := []float64{math.Copysign(0, -1), 0, -1, 0.5, 1, 2, 7, math.Inf(1), math.Inf(-1), math.NaN(), float64(exactFloatInt)}
	strs := []string{"", "a", "ab", "b", "\x00", "z"}
	pick := func(n int) int { return rng.Intn(n) }

	randBatch := func() *batch.Batch {
		rows := pick(5) // 0 rows: no stats at all
		// narrow shrinks a pool to a few neighbouring values, one value often:
		// min == max is where Ne and the point-range arms live.
		lo, width := pick(len(strs)), 1+pick(3)
		at := func(n int) int { return (lo + pick(width)) % n }
		is, ds, fs, ss, bs := make([]int64, rows), make([]int64, rows), make([]float64, rows), make([]string, rows), make([]bool, rows)
		allTrue := pick(3) == 0
		for r := range rows {
			is[r], ds[r], fs[r], ss[r] = ints[at(len(ints))], ints[at(7)], floats[at(len(floats))], strs[at(len(strs))]
			bs[r] = allTrue || pick(2) == 0
		}
		return zmBatch(is, ds, fs, ss, bs)
	}
	cols := []expr.Col{expr.C("i"), expr.C("d"), expr.C("f"), expr.C("s"), expr.C("b")}
	randLit := func() expr.Lit {
		switch pick(5) {
		case 0:
			return expr.Int64(ints[pick(len(ints))])
		case 1:
			return expr.DateLit(ints[pick(7)])
		case 2:
			return expr.Float64(floats[pick(len(floats))])
		case 3:
			return expr.Str(strs[pick(len(strs))])
		}
		return expr.Boolean(pick(2) == 0)
	}
	var randPred func(depth int) expr.Expr
	randPred = func(depth int) expr.Expr {
		switch k := pick(8); {
		case k < 4:
			l, r := expr.Expr(cols[pick(len(cols))]), expr.Expr(randLit())
			if pick(3) == 0 {
				l, r = r, l
			}
			return expr.Cmp{Op: []expr.CmpOp{expr.OpEq, expr.OpNe, expr.OpLt, expr.OpLe, expr.OpGt, expr.OpGe}[pick(6)], L: l, R: r}
		case k == 4:
			set := make([]int64, pick(3))
			for i := range set {
				set[i] = ints[pick(len(ints))]
			}
			return expr.InInt(cols[pick(2)], set...)
		case k == 5:
			set := make([]string, pick(3))
			for i := range set {
				set[i] = strs[pick(len(strs))]
			}
			return expr.InStr(cols[3], set...)
		case depth == 0:
			return expr.Not{Of: expr.Eq(cols[4], expr.Boolean(true))}
		}
		args := make([]expr.Expr, 1+pick(3))
		for i := range args {
			args[i] = randPred(depth - 1)
		}
		return expr.BoolExpr{IsAnd: pick(2) == 0, Args: args}
	}

	pruned, evaluated := 0, 0
	for range 20000 {
		b, pred := randBatch(), randPred(2)
		if splitMayMatch(pred, batch.ComputeZoneMap(b)) {
			continue
		}
		pruned++
		sel, err := expr.EvalBoolInto(pred, b, nil)
		if err != nil {
			continue // a predicate the evaluator refuses selects nothing either
		}
		evaluated++
		for r, hit := range sel {
			if hit {
				t.Fatalf("unsound prune: %v excluded a split whose row %d it selects\ni=%v d=%v f=%v s=%q b=%v",
					pred, r, b.Col("i").Ints, b.Col("d").Ints, b.Col("f").Floats, b.Col("s").Strings, b.Col("b").Bools)
			}
		}
	}
	if pruned < 1000 || evaluated < 500 {
		t.Errorf("only %d of 20000 cases pruned (%d evaluated): the property is nearly vacuous", pruned, evaluated)
	}
}
