package expr

import (
	"fmt"
	"strings"
	"sync"

	"quokka/internal/batch"
)

// CmpOp enumerates comparison operators.
type CmpOp uint8

// Comparison operators.
const (
	OpEq CmpOp = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
)

func (op CmpOp) String() string {
	switch op {
	case OpEq:
		return "="
	case OpNe:
		return "!="
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	}
	return "?"
}

// Cmp is a binary comparison producing a Bool column. Numeric operands are
// promoted; string comparisons are lexicographic.
type Cmp struct {
	Op   CmpOp
	L, R Expr
}

// Eq returns l = r.
func Eq(l, r Expr) Cmp { return Cmp{OpEq, l, r} }

// Ne returns l != r.
func Ne(l, r Expr) Cmp { return Cmp{OpNe, l, r} }

// Lt returns l < r.
func Lt(l, r Expr) Cmp { return Cmp{OpLt, l, r} }

// Le returns l <= r.
func Le(l, r Expr) Cmp { return Cmp{OpLe, l, r} }

// Gt returns l > r.
func Gt(l, r Expr) Cmp { return Cmp{OpGt, l, r} }

// Ge returns l >= r.
func Ge(l, r Expr) Cmp { return Cmp{OpGe, l, r} }

func cmpToBool(op CmpOp, c int) bool {
	switch op {
	case OpEq:
		return c == 0
	case OpNe:
		return c != 0
	case OpLt:
		return c < 0
	case OpLe:
		return c <= 0
	case OpGt:
		return c > 0
	case OpGe:
		return c >= 0
	}
	return false
}

// BoolEvaler is implemented by boolean expressions that can evaluate into
// a caller-provided scratch buffer, so hot-path consumers (Filter) avoid
// allocating a result column per batch. Implementations write only into
// dst (grown when needed) — never into batch-owned memory — so the
// returned slice is always safe for the caller to reuse as next dst.
type BoolEvaler interface {
	EvalBoolInto(b *batch.Batch, dst []bool) ([]bool, error)
}

// EvalBoolInto evaluates a boolean expression, reusing dst as scratch when
// the expression supports it; otherwise it falls back to Eval and copies
// into dst (so the result never aliases a batch column).
func EvalBoolInto(e Expr, b *batch.Batch, dst []bool) ([]bool, error) {
	if be, ok := e.(BoolEvaler); ok {
		return be.EvalBoolInto(b, dst)
	}
	v, err := evalBool(e, b)
	if err != nil {
		return nil, err
	}
	out := boolScratch(dst, len(v))
	copy(out, v)
	return out, nil
}

// boolScratch resizes a scratch buffer to n values, reusing capacity.
func boolScratch(dst []bool, n int) []bool {
	if cap(dst) < n {
		return make([]bool, n)
	}
	return dst[:n]
}

// Eval implements Expr.
func (e Cmp) Eval(b *batch.Batch) (*batch.Column, error) {
	out, err := e.EvalBoolInto(b, nil)
	if err != nil {
		return nil, err
	}
	return batch.NewBoolColumn(out), nil
}

// EvalBoolInto implements BoolEvaler. A column compared against a literal
// of its own type family is compared against the literal's value, never a
// broadcast column of it. A literal on the left is swapped to the right,
// with the operator flipped: the three-way comparison below is
// antisymmetric, so the result is the same.
func (e Cmp) EvalBoolInto(b *batch.Batch, dst []bool) ([]bool, error) {
	l, r, op := e.L, e.R, e.Op
	if _, ok := l.(Lit); ok {
		l, r, op = r, l, flipOp(op)
	}
	lc, err := l.Eval(b)
	if err != nil {
		return nil, err
	}
	if lit, ok := r.(Lit); ok {
		if out, ok := cmpLit(op, lc, lit, dst); ok {
			return out, nil
		}
	}
	rc, err := r.Eval(b)
	if err != nil {
		return nil, err
	}
	n := lc.Len()
	out := boolScratch(dst, n)
	switch {
	case lc.Type == batch.String && rc.Type == batch.String:
		for i := 0; i < n; i++ {
			out[i] = cmpToBool(op, strings.Compare(lc.Strings[i], rc.Strings[i]))
		}
	case lc.Type == batch.Bool && rc.Type == batch.Bool:
		for i := 0; i < n; i++ {
			c := 0
			switch {
			case !lc.Bools[i] && rc.Bools[i]:
				c = -1
			case lc.Bools[i] && !rc.Bools[i]:
				c = 1
			}
			out[i] = cmpToBool(op, c)
		}
	case isIntLike(lc.Type) && isIntLike(rc.Type):
		for i := 0; i < n; i++ {
			l, r := lc.Ints[i], rc.Ints[i]
			switch {
			case l < r:
				out[i] = cmpToBool(op, -1)
			case l > r:
				out[i] = cmpToBool(op, 1)
			default:
				out[i] = cmpToBool(op, 0)
			}
		}
	default:
		lf, err := asFloats(lc)
		if err != nil {
			return nil, fmt.Errorf("expr: %s: %w", e, err)
		}
		rf, err := asFloats(rc)
		if err != nil {
			return nil, fmt.Errorf("expr: %s: %w", e, err)
		}
		for i := 0; i < n; i++ {
			switch {
			case lf[i] < rf[i]:
				out[i] = cmpToBool(op, -1)
			case lf[i] > rf[i]:
				out[i] = cmpToBool(op, 1)
			default:
				out[i] = cmpToBool(op, 0)
			}
		}
	}
	return out, nil
}

func (e Cmp) String() string { return fmt.Sprintf("(%s %s %s)", e.L, e.Op, e.R) }

// flipOp is the operator that compares r with l as op compares l with r.
func flipOp(op CmpOp) CmpOp {
	switch op {
	case OpLt:
		return OpGt
	case OpLe:
		return OpGe
	case OpGt:
		return OpLt
	case OpGe:
		return OpLe
	}
	return op
}

// cmpLit evaluates "c op lit" when c is int-like and the literal too, or
// both are floats, or both strings: a scalar loop per operator. Any other
// pairing (mixed int/float, bools) reports !ok and takes the general path.
func cmpLit(op CmpOp, c *batch.Column, lit Lit, dst []bool) ([]bool, bool) {
	switch {
	case isIntLike(c.Type) && isIntLike(lit.Type):
		return cmpConst(op, c.Ints, lit.Int, boolScratch(dst, len(c.Ints))), true
	case c.Type == batch.Float64 && lit.Type == batch.Float64:
		return cmpConst(op, c.Floats, lit.Float, boolScratch(dst, len(c.Floats))), true
	case c.Type == batch.String && lit.Type == batch.String:
		return cmpConst(op, c.Strings, lit.Str, boolScratch(dst, len(c.Strings))), true
	}
	return nil, false
}

// cmpConst writes v op k for every value v into out, under the three-way
// comparison the general path uses: values neither below nor above k are
// equal to it, so a float NaN equals everything and -0.0 equals 0.0.
func cmpConst[T int64 | float64 | string](op CmpOp, vs []T, k T, out []bool) []bool {
	switch op {
	case OpEq:
		for i, v := range vs {
			out[i] = !(v < k || v > k)
		}
	case OpNe:
		for i, v := range vs {
			out[i] = v < k || v > k
		}
	case OpLt:
		for i, v := range vs {
			out[i] = v < k
		}
	case OpLe:
		for i, v := range vs {
			out[i] = !(v > k)
		}
	case OpGt:
		for i, v := range vs {
			out[i] = v > k
		}
	case OpGe:
		for i, v := range vs {
			out[i] = !(v < k)
		}
	}
	return out
}

// BoolExpr combines boolean sub-expressions with AND/OR.
type BoolExpr struct {
	IsAnd bool
	Args  []Expr
}

// And returns the conjunction of the arguments.
func And(args ...Expr) BoolExpr { return BoolExpr{IsAnd: true, Args: args} }

// Or returns the disjunction of the arguments.
func Or(args ...Expr) BoolExpr { return BoolExpr{IsAnd: false, Args: args} }

// Eval implements Expr.
func (e BoolExpr) Eval(b *batch.Batch) (*batch.Column, error) {
	out, err := e.EvalBoolInto(b, nil)
	if err != nil {
		return nil, err
	}
	return batch.NewBoolColumn(out), nil
}

// boolArgs recycles the scratch BoolExpr evaluates its later arguments in.
var boolArgs = sync.Pool{New: func() any { return new([]bool) }}

// EvalBoolInto implements BoolEvaler: the first argument evaluates into
// dst, every later one into one pooled scratch buffer.
func (e BoolExpr) EvalBoolInto(b *batch.Batch, dst []bool) ([]bool, error) {
	if len(e.Args) == 0 {
		return nil, fmt.Errorf("expr: empty boolean expression")
	}
	out, err := EvalBoolInto(e.Args[0], b, dst)
	if err != nil || len(e.Args) == 1 {
		return out, err
	}
	sp := boolArgs.Get().(*[]bool)
	defer boolArgs.Put(sp)
	for _, a := range e.Args[1:] {
		v, err := EvalBoolInto(a, b, *sp)
		if err != nil {
			return nil, err
		}
		*sp = v
		if e.IsAnd {
			for i := range out {
				out[i] = out[i] && v[i]
			}
		} else {
			for i := range out {
				out[i] = out[i] || v[i]
			}
		}
	}
	return out, nil
}

func (e BoolExpr) String() string {
	op := " or "
	if e.IsAnd {
		op = " and "
	}
	parts := make([]string, len(e.Args))
	for i, a := range e.Args {
		parts[i] = a.String()
	}
	return "(" + strings.Join(parts, op) + ")"
}

// Not negates a boolean expression.
type Not struct{ Of Expr }

// Eval implements Expr.
func (e Not) Eval(b *batch.Batch) (*batch.Column, error) {
	out, err := e.EvalBoolInto(b, nil)
	if err != nil {
		return nil, err
	}
	return batch.NewBoolColumn(out), nil
}

// EvalBoolInto implements BoolEvaler.
func (e Not) EvalBoolInto(b *batch.Batch, dst []bool) ([]bool, error) {
	v, err := evalBool(e.Of, b)
	if err != nil {
		return nil, err
	}
	out := boolScratch(dst, len(v))
	for i := range v {
		out[i] = !v[i]
	}
	return out, nil
}

func (e Not) String() string { return fmt.Sprintf("not %s", e.Of) }

func evalBool(e Expr, b *batch.Batch) ([]bool, error) {
	c, err := e.Eval(b)
	if err != nil {
		return nil, err
	}
	if c.Type != batch.Bool {
		return nil, fmt.Errorf("expr: %s is %s, want bool", e, c.Type)
	}
	return c.Bools, nil
}

// Between is sugar for lo <= e AND e <= hi.
func Between(e, lo, hi Expr) Expr { return And(Ge(e, lo), Le(e, hi)) }

// InStrings tests membership of a string column in a fixed set.
type InStrings struct {
	Of  Expr
	Set []string
}

// InStr returns "e IN (set...)" for strings.
func InStr(e Expr, set ...string) InStrings { return InStrings{Of: e, Set: set} }

// Eval implements Expr.
func (e InStrings) Eval(b *batch.Batch) (*batch.Column, error) {
	c, err := e.Of.Eval(b)
	if err != nil {
		return nil, err
	}
	if c.Type != batch.String {
		return nil, fmt.Errorf("expr: IN over %s column", c.Type)
	}
	set := make(map[string]struct{}, len(e.Set))
	for _, s := range e.Set {
		set[s] = struct{}{}
	}
	out := make([]bool, len(c.Strings))
	for i, s := range c.Strings {
		_, out[i] = set[s]
	}
	return batch.NewBoolColumn(out), nil
}

func (e InStrings) String() string {
	return fmt.Sprintf("(%s in %v)", e.Of, e.Set)
}

// InInts tests membership of an integer column in a fixed set.
type InInts struct {
	Of  Expr
	Set []int64
}

// InInt returns "e IN (set...)" for integers.
func InInt(e Expr, set ...int64) InInts { return InInts{Of: e, Set: set} }

// Eval implements Expr.
func (e InInts) Eval(b *batch.Batch) (*batch.Column, error) {
	c, err := e.Of.Eval(b)
	if err != nil {
		return nil, err
	}
	if !isIntLike(c.Type) {
		return nil, fmt.Errorf("expr: IN over %s column", c.Type)
	}
	set := make(map[int64]struct{}, len(e.Set))
	for _, s := range e.Set {
		set[s] = struct{}{}
	}
	out := make([]bool, len(c.Ints))
	for i, v := range c.Ints {
		_, out[i] = set[v]
	}
	return batch.NewBoolColumn(out), nil
}

func (e InInts) String() string { return fmt.Sprintf("(%s in %v)", e.Of, e.Set) }

// Like matches SQL LIKE patterns restricted to the forms TPC-H uses:
// "abc%" (prefix), "%abc" (suffix), "%abc%" (contains), "abc" (exact),
// and "%a%b%" (ordered multi-substring).
type Like struct {
	Of      Expr
	Pattern string
}

// LikePat returns "e LIKE pattern".
func LikePat(e Expr, pattern string) Like { return Like{Of: e, Pattern: pattern} }

// Eval implements Expr.
func (e Like) Eval(b *batch.Batch) (*batch.Column, error) {
	c, err := e.Of.Eval(b)
	if err != nil {
		return nil, err
	}
	if c.Type != batch.String {
		return nil, fmt.Errorf("expr: LIKE over %s column", c.Type)
	}
	match := compileLike(e.Pattern)
	out := make([]bool, len(c.Strings))
	for i, s := range c.Strings {
		out[i] = match(s)
	}
	return batch.NewBoolColumn(out), nil
}

func (e Like) String() string { return fmt.Sprintf("(%s like %q)", e.Of, e.Pattern) }

// compileLike compiles a %-only LIKE pattern to a matcher function.
func compileLike(pattern string) func(string) bool {
	parts := strings.Split(pattern, "%")
	anchoredStart := !strings.HasPrefix(pattern, "%")
	anchoredEnd := !strings.HasSuffix(pattern, "%")
	var segs []string
	for _, p := range parts {
		if p != "" {
			segs = append(segs, p)
		}
	}
	return func(s string) bool {
		if len(segs) == 0 {
			return true
		}
		rest := s
		for i, seg := range segs {
			if i == 0 && anchoredStart {
				if !strings.HasPrefix(rest, seg) {
					return false
				}
				rest = rest[len(seg):]
				continue
			}
			j := strings.Index(rest, seg)
			if j < 0 {
				return false
			}
			rest = rest[j+len(seg):]
		}
		if anchoredEnd {
			last := segs[len(segs)-1]
			if !strings.HasSuffix(s, last) {
				return false
			}
		}
		return true
	}
}

// Case is a searched CASE expression with string results: the first branch
// whose condition is true yields its value, otherwise Else. TPC-H only needs
// numeric CASE via CaseNum below and boolean-to-number via it too.
type Case struct {
	Whens []When
	Else  Expr
}

// When pairs a boolean condition with a result expression.
type When struct {
	Cond Expr
	Then Expr
}

// CaseWhen builds a searched CASE expression.
func CaseWhen(elseExpr Expr, whens ...When) Case { return Case{Whens: whens, Else: elseExpr} }

// Eval implements Expr.
func (e Case) Eval(b *batch.Batch) (*batch.Column, error) {
	elseCol, err := e.Else.Eval(b)
	if err != nil {
		return nil, err
	}
	n := elseCol.Len()
	// Evaluate branches; later branches do not override earlier ones.
	decided := make([]bool, n)
	out := elseCol
	// Copy out so we can overwrite.
	switch out.Type {
	case batch.Int64, batch.Date:
		out = &batch.Column{Type: out.Type, Ints: append([]int64(nil), out.Ints...)}
	case batch.Float64:
		out = batch.NewFloatColumn(append([]float64(nil), out.Floats...))
	case batch.String:
		out = batch.NewStringColumn(append([]string(nil), out.Strings...))
	case batch.Bool:
		out = batch.NewBoolColumn(append([]bool(nil), out.Bools...))
	}
	for _, w := range e.Whens {
		cond, err := evalBool(w.Cond, b)
		if err != nil {
			return nil, err
		}
		val, err := w.Then.Eval(b)
		if err != nil {
			return nil, err
		}
		if val.Type != out.Type {
			// Promote int-vs-float mismatches.
			if out.Type == batch.Float64 && isIntLike(val.Type) {
				f, _ := asFloats(val)
				val = batch.NewFloatColumn(f)
			} else {
				return nil, fmt.Errorf("expr: CASE branch type %s != %s", val.Type, out.Type)
			}
		}
		for i := 0; i < n; i++ {
			if decided[i] || !cond[i] {
				continue
			}
			decided[i] = true
			switch out.Type {
			case batch.Int64, batch.Date:
				out.Ints[i] = val.Ints[i]
			case batch.Float64:
				out.Floats[i] = val.Floats[i]
			case batch.String:
				out.Strings[i] = val.Strings[i]
			case batch.Bool:
				out.Bools[i] = val.Bools[i]
			}
		}
	}
	return out, nil
}

func (e Case) String() string { return "case(...)" }
