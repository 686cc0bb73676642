package expr

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"quokka/internal/batch"
)

func evalBatch(t *testing.T) *batch.Batch {
	t.Helper()
	s := batch.NewSchema(
		batch.F("i", batch.Int64),
		batch.F("f", batch.Float64),
		batch.F("s", batch.String),
		batch.F("d", batch.Date),
	)
	return batch.MustNew(s, []*batch.Column{
		batch.NewIntColumn([]int64{1, 2, 3, 4}),
		batch.NewFloatColumn([]float64{0.5, 1.5, 2.5, 3.5}),
		batch.NewStringColumn([]string{"apple", "banana", "cherry", "promo box"}),
		batch.NewDateColumn([]int64{0, 365, 9131, 10000}),
	})
}

func mustEval(t *testing.T, e Expr, b *batch.Batch) *batch.Column {
	t.Helper()
	c, err := e.Eval(b)
	if err != nil {
		t.Fatalf("Eval(%s): %v", e, err)
	}
	return c
}

func TestColAndLit(t *testing.T) {
	b := evalBatch(t)
	c := mustEval(t, C("i"), b)
	if c.Ints[2] != 3 {
		t.Errorf("col i = %v", c.Ints)
	}
	if _, err := C("nope").Eval(b); err == nil {
		t.Error("want error for missing column")
	}
	l := mustEval(t, Float64(7), b)
	if len(l.Floats) != 4 || l.Floats[0] != 7 {
		t.Errorf("lit broadcast wrong: %v", l.Floats)
	}
}

func TestArith(t *testing.T) {
	b := evalBatch(t)
	sum := mustEval(t, Add(C("i"), Int64(10)), b)
	if sum.Type != batch.Int64 || sum.Ints[3] != 14 {
		t.Errorf("int add: %v", sum)
	}
	mixed := mustEval(t, Mul(C("i"), C("f")), b)
	if mixed.Type != batch.Float64 || mixed.Floats[1] != 3.0 {
		t.Errorf("mixed mul: %v", mixed.Floats)
	}
	div := mustEval(t, Div(C("i"), Int64(2)), b)
	if div.Type != batch.Float64 || div.Floats[0] != 0.5 {
		t.Errorf("div promotes to float: %v", div)
	}
	// The TPC-H revenue expression shape: price * (1 - discount).
	rev := mustEval(t, Mul(C("f"), Sub(Float64(1), Float64(0.1))), b)
	if rev.Floats[0] != 0.5*0.9 {
		t.Errorf("revenue expr: %v", rev.Floats)
	}
}

func TestCmp(t *testing.T) {
	b := evalBatch(t)
	got := mustEval(t, Lt(C("i"), Int64(3)), b)
	want := []bool{true, true, false, false}
	for i := range want {
		if got.Bools[i] != want[i] {
			t.Errorf("lt[%d] = %t, want %t", i, got.Bools[i], want[i])
		}
	}
	ge := mustEval(t, Ge(C("s"), Str("banana")), b)
	if ge.Bools[0] || !ge.Bools[1] || !ge.Bools[2] {
		t.Errorf("string ge: %v", ge.Bools)
	}
	eqf := mustEval(t, Eq(C("f"), Float64(2.5)), b)
	if !eqf.Bools[2] || eqf.Bools[0] {
		t.Errorf("float eq: %v", eqf.Bools)
	}
}

func TestBoolLogic(t *testing.T) {
	b := evalBatch(t)
	e := And(Gt(C("i"), Int64(1)), Lt(C("i"), Int64(4)))
	got := mustEval(t, e, b)
	want := []bool{false, true, true, false}
	for i := range want {
		if got.Bools[i] != want[i] {
			t.Errorf("and[%d] = %t", i, got.Bools[i])
		}
	}
	orExpr := Or(Eq(C("i"), Int64(1)), Eq(C("i"), Int64(4)))
	or := mustEval(t, orExpr, b)
	if !or.Bools[0] || or.Bools[1] || !or.Bools[3] {
		t.Errorf("or: %v", or.Bools)
	}
	not := mustEval(t, Not{Of: orExpr}, b)
	if not.Bools[0] || !not.Bools[1] {
		t.Errorf("not: %v", not.Bools)
	}
	btw := mustEval(t, Between(C("i"), Int64(2), Int64(3)), b)
	if btw.Bools[0] || !btw.Bools[1] || !btw.Bools[2] || btw.Bools[3] {
		t.Errorf("between: %v", btw.Bools)
	}
}

func TestInAndLike(t *testing.T) {
	b := evalBatch(t)
	in := mustEval(t, InStr(C("s"), "apple", "cherry"), b)
	if !in.Bools[0] || in.Bools[1] || !in.Bools[2] {
		t.Errorf("in strings: %v", in.Bools)
	}
	ini := mustEval(t, InInt(C("i"), 2, 4), b)
	if ini.Bools[0] || !ini.Bools[1] || !ini.Bools[3] {
		t.Errorf("in ints: %v", ini.Bools)
	}
	for _, tc := range []struct {
		pattern string
		want    []bool
	}{
		{"%an%", []bool{false, true, false, false}},
		{"promo%", []bool{false, false, false, true}},
		{"%box", []bool{false, false, false, true}},
		{"apple", []bool{true, false, false, false}},
		{"%o%o%", []bool{false, false, false, true}},
		{"%an%an%", []bool{false, true, false, false}},
		{"%", []bool{true, true, true, true}},
	} {
		got := mustEval(t, LikePat(C("s"), tc.pattern), b)
		for i := range tc.want {
			if got.Bools[i] != tc.want[i] {
				t.Errorf("like %q row %d = %t, want %t", tc.pattern, i, got.Bools[i], tc.want[i])
			}
		}
	}
}

func TestCase(t *testing.T) {
	b := evalBatch(t)
	e := CaseWhen(Float64(0),
		When{Cond: Gt(C("i"), Int64(2)), Then: C("f")},
	)
	got := mustEval(t, e, b)
	want := []float64{0, 0, 2.5, 3.5}
	for i := range want {
		if got.Floats[i] != want[i] {
			t.Errorf("case[%d] = %g, want %g", i, got.Floats[i], want[i])
		}
	}
	// First matching branch wins.
	e2 := CaseWhen(Int64(0),
		When{Cond: Gt(C("i"), Int64(1)), Then: Int64(1)},
		When{Cond: Gt(C("i"), Int64(2)), Then: Int64(2)},
	)
	got2 := mustEval(t, e2, b)
	if got2.Ints[2] != 1 {
		t.Errorf("case precedence: %v", got2.Ints)
	}
}

func TestYearAndSubstring(t *testing.T) {
	b := evalBatch(t)
	y := mustEval(t, Year(C("d")), b)
	want := []int64{1970, 1971, 1995, 1997}
	for i := range want {
		if y.Ints[i] != want[i] {
			t.Errorf("year[%d] = %d, want %d", i, y.Ints[i], want[i])
		}
	}
	sub := mustEval(t, Substring(C("s"), 1, 2), b)
	if sub.Strings[0] != "ap" || sub.Strings[3] != "pr" {
		t.Errorf("substr: %v", sub.Strings)
	}
	short := mustEval(t, Substring(C("s"), 4, 100), b)
	if short.Strings[0] != "le" {
		t.Errorf("substr overflow: %v", short.Strings)
	}
}

// Property: the civil-calendar conversions agree with time.Time.
func TestQuickDateConversionsMatchTime(t *testing.T) {
	f := func(raw int32) bool {
		days := int64(raw % 30000) // ±~82 years around the epoch
		tm := time.Unix(0, 0).UTC().AddDate(0, 0, int(days))
		if YearOfDays(days) != tm.Year() {
			return false
		}
		return DaysOfDate(tm.Year(), int(tm.Month()), tm.Day()) == days
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestDaysOfDateKnownValues(t *testing.T) {
	if d := DaysOfDate(1970, 1, 1); d != 0 {
		t.Errorf("epoch = %d", d)
	}
	if d := DaysOfDate(1995, 1, 1); d != 9131 {
		t.Errorf("1995-01-01 = %d, want 9131", d)
	}
	if y := YearOfDays(DaysOfDate(1998, 12, 1)); y != 1998 {
		t.Errorf("round trip year = %d", y)
	}
}

func TestTypeErrors(t *testing.T) {
	b := evalBatch(t)
	if _, err := Add(C("s"), Int64(1)).Eval(b); err == nil {
		t.Error("want error adding string")
	}
	if _, err := LikePat(C("i"), "%x%").Eval(b); err == nil {
		t.Error("want error LIKE over int")
	}
	if _, err := And(C("i"), C("i")).Eval(b); err == nil {
		t.Error("want error AND over non-bool")
	}
	if _, err := (BoolExpr{IsAnd: true}).Eval(b); err == nil {
		t.Error("want error for empty bool expr")
	}
}

// TestQuickCmpLitMatchesColumnCompare: a comparison against a literal (on
// either side) equals the general path's comparison against the literal
// broadcast into a column, for every operator and type family — NaN and
// ±0.0 among the floats, Date columns against Int64 literals, and mixed
// int/float operands, which keep the general path.
func TestQuickCmpLitMatchesColumnCompare(t *testing.T) {
	specials := []float64{math.NaN(), 0, math.Copysign(0, -1), math.Inf(1), -1.5}
	f := func(ints []int64, floats []float64, strs []string, pick uint8, opRaw uint8, litRaw int64) bool {
		n := min(len(ints), len(floats), len(strs))
		ints, floats, strs = ints[:n], floats[:n], strs[:n]
		for i := range floats {
			if ints[i]%3 == 0 {
				floats[i] = specials[uint64(ints[i])%uint64(len(specials))]
			}
			ints[i] %= 8 // small domain: equal values occur
		}
		s := batch.NewSchema(batch.F("i", batch.Int64), batch.F("d", batch.Date),
			batch.F("f", batch.Float64), batch.F("s", batch.String))
		b := batch.MustNew(s, []*batch.Column{batch.NewIntColumn(ints), batch.NewDateColumn(ints),
			batch.NewFloatColumn(floats), batch.NewStringColumn(strs)})
		op := CmpOp(opRaw % 6)
		var col string
		var lit Lit
		switch pick % 6 {
		case 0:
			col, lit = "i", Int64(litRaw%8)
		case 1:
			col, lit = "d", Int64(litRaw%8)
		case 2:
			col, lit = "f", Float64(specials[uint64(litRaw)%uint64(len(specials))])
		case 3:
			col, lit = "f", Float64(float64(litRaw%8)/2)
		case 4:
			col, lit = "s", Str("")
			if n > 0 && litRaw%2 == 0 {
				lit = Str(strs[uint64(litRaw)%uint64(n)])
			}
		case 5:
			col, lit = "i", Float64(float64(litRaw%8)/2)
		}
		lc, err := lit.Eval(b)
		if err != nil {
			return false
		}
		wide := batch.MustNew(batch.NewSchema(append(s.Fields, batch.F("lit", lit.Type))...),
			append(append([]*batch.Column(nil), b.Cols...), lc))
		for _, pair := range [][2]Cmp{
			{{op, C(col), lit}, {op, C(col), C("lit")}},
			{{op, lit, C(col)}, {op, C("lit"), C(col)}},
		} {
			got, err1 := pair[0].EvalBoolInto(b, nil)
			want, err2 := pair[1].EvalBoolInto(wide, nil)
			if err1 != nil || err2 != nil || !slices.Equal(got, want) {
				t.Logf("%s: got %v, want %v (%v, %v)", pair[0], got, want, err1, err2)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
