package expr

import (
	"errors"
	"fmt"
	"sort"

	"quokka/internal/batch"
)

// Static analysis over expression trees: the query planner needs to know
// which columns an expression reads (projection pruning), how to rewrite
// it through a projection (predicate pushdown), and what type it produces
// over a given schema (plan-time validation, instead of an error deep in
// operator execution).

// Typed static-analysis errors. The planner wraps them with context;
// callers test with errors.Is.
var (
	// ErrUnknownColumn reports a column reference that the input schema
	// does not provide.
	ErrUnknownColumn = errors.New("unknown column")
	// ErrTypeMismatch reports an expression whose operand types cannot be
	// evaluated (string arithmetic, comparing a string with a number, a
	// non-boolean predicate, ...).
	ErrTypeMismatch = errors.New("type mismatch")
)

// Columns returns the sorted, de-duplicated set of column names the
// expression reads.
func Columns(e Expr) []string {
	set := make(map[string]struct{})
	collectColumns(e, set)
	out := make([]string, 0, len(set))
	for c := range set {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

func collectColumns(e Expr, set map[string]struct{}) {
	switch x := e.(type) {
	case Col:
		set[x.Name] = struct{}{}
	case Lit:
	case Arith:
		collectColumns(x.L, set)
		collectColumns(x.R, set)
	case ExtractYear:
		collectColumns(x.Of, set)
	case Substr:
		collectColumns(x.Of, set)
	case Cmp:
		collectColumns(x.L, set)
		collectColumns(x.R, set)
	case BoolExpr:
		for _, a := range x.Args {
			collectColumns(a, set)
		}
	case Not:
		collectColumns(x.Of, set)
	case InStrings:
		collectColumns(x.Of, set)
	case InInts:
		collectColumns(x.Of, set)
	case Like:
		collectColumns(x.Of, set)
	case Case:
		for _, w := range x.Whens {
			collectColumns(w.Cond, set)
			collectColumns(w.Then, set)
		}
		collectColumns(x.Else, set)
	}
}

// Substitute returns the expression with every column reference that has
// an entry in sub replaced by the mapped expression. Expressions are pure,
// so substitution preserves semantics; the planner uses it to rewrite a
// predicate through the projection that defines its inputs.
func Substitute(e Expr, sub map[string]Expr) Expr {
	switch x := e.(type) {
	case Col:
		if r, ok := sub[x.Name]; ok {
			return r
		}
		return x
	case Lit:
		return x
	case Arith:
		return Arith{Op: x.Op, L: Substitute(x.L, sub), R: Substitute(x.R, sub)}
	case ExtractYear:
		return ExtractYear{Of: Substitute(x.Of, sub)}
	case Substr:
		return Substr{Of: Substitute(x.Of, sub), Start: x.Start, Length: x.Length}
	case Cmp:
		return Cmp{Op: x.Op, L: Substitute(x.L, sub), R: Substitute(x.R, sub)}
	case BoolExpr:
		args := make([]Expr, len(x.Args))
		for i, a := range x.Args {
			args[i] = Substitute(a, sub)
		}
		return BoolExpr{IsAnd: x.IsAnd, Args: args}
	case Not:
		return Not{Of: Substitute(x.Of, sub)}
	case InStrings:
		return InStrings{Of: Substitute(x.Of, sub), Set: x.Set}
	case InInts:
		return InInts{Of: Substitute(x.Of, sub), Set: x.Set}
	case Like:
		return Like{Of: Substitute(x.Of, sub), Pattern: x.Pattern}
	case Case:
		whens := make([]When, len(x.Whens))
		for i, w := range x.Whens {
			whens[i] = When{Cond: Substitute(w.Cond, sub), Then: Substitute(w.Then, sub)}
		}
		return Case{Whens: whens, Else: Substitute(x.Else, sub)}
	}
	return e
}

// TypeOf computes the static result type of the expression over the given
// input schema, reproducing Eval's promotion rules exactly. It returns an
// error wrapping ErrUnknownColumn or ErrTypeMismatch when evaluation would
// fail at runtime.
func TypeOf(e Expr, s *batch.Schema) (batch.Type, error) {
	switch x := e.(type) {
	case Col:
		i := s.Index(x.Name)
		if i < 0 {
			return 0, fmt.Errorf("%w: %q not in %s", ErrUnknownColumn, x.Name, s)
		}
		return s.Fields[i].Type, nil
	case Lit:
		return x.Type, nil
	case Arith:
		lt, err := TypeOf(x.L, s)
		if err != nil {
			return 0, err
		}
		rt, err := TypeOf(x.R, s)
		if err != nil {
			return 0, err
		}
		if isIntLike(lt) && isIntLike(rt) && x.Op != OpDiv {
			return batch.Int64, nil
		}
		if !numericLike(lt) || !numericLike(rt) {
			return 0, fmt.Errorf("%w: %s over %s and %s", ErrTypeMismatch, x.Op, lt, rt)
		}
		return batch.Float64, nil
	case ExtractYear:
		t, err := TypeOf(x.Of, s)
		if err != nil {
			return 0, err
		}
		if !isIntLike(t) {
			return 0, fmt.Errorf("%w: year() over %s", ErrTypeMismatch, t)
		}
		return batch.Int64, nil
	case Substr:
		t, err := TypeOf(x.Of, s)
		if err != nil {
			return 0, err
		}
		if t != batch.String {
			return 0, fmt.Errorf("%w: substring over %s", ErrTypeMismatch, t)
		}
		return batch.String, nil
	case Cmp:
		lt, err := TypeOf(x.L, s)
		if err != nil {
			return 0, err
		}
		rt, err := TypeOf(x.R, s)
		if err != nil {
			return 0, err
		}
		switch {
		case lt == batch.String && rt == batch.String:
		case lt == batch.Bool && rt == batch.Bool:
		case numericLike(lt) && numericLike(rt):
		default:
			return 0, fmt.Errorf("%w: %s %s %s", ErrTypeMismatch, lt, x.Op, rt)
		}
		return batch.Bool, nil
	case BoolExpr:
		if len(x.Args) == 0 {
			return 0, fmt.Errorf("%w: empty boolean expression", ErrTypeMismatch)
		}
		for _, a := range x.Args {
			t, err := TypeOf(a, s)
			if err != nil {
				return 0, err
			}
			if t != batch.Bool {
				return 0, fmt.Errorf("%w: %s is %s, want bool", ErrTypeMismatch, a, t)
			}
		}
		return batch.Bool, nil
	case Not:
		t, err := TypeOf(x.Of, s)
		if err != nil {
			return 0, err
		}
		if t != batch.Bool {
			return 0, fmt.Errorf("%w: not over %s", ErrTypeMismatch, t)
		}
		return batch.Bool, nil
	case InStrings:
		t, err := TypeOf(x.Of, s)
		if err != nil {
			return 0, err
		}
		if t != batch.String {
			return 0, fmt.Errorf("%w: IN over %s, want string", ErrTypeMismatch, t)
		}
		return batch.Bool, nil
	case InInts:
		t, err := TypeOf(x.Of, s)
		if err != nil {
			return 0, err
		}
		if !isIntLike(t) {
			return 0, fmt.Errorf("%w: IN over %s, want integer", ErrTypeMismatch, t)
		}
		return batch.Bool, nil
	case Like:
		t, err := TypeOf(x.Of, s)
		if err != nil {
			return 0, err
		}
		if t != batch.String {
			return 0, fmt.Errorf("%w: LIKE over %s", ErrTypeMismatch, t)
		}
		return batch.Bool, nil
	case Case:
		out, err := TypeOf(x.Else, s)
		if err != nil {
			return 0, err
		}
		for _, w := range x.Whens {
			ct, err := TypeOf(w.Cond, s)
			if err != nil {
				return 0, err
			}
			if ct != batch.Bool {
				return 0, fmt.Errorf("%w: CASE condition is %s, want bool", ErrTypeMismatch, ct)
			}
			tt, err := TypeOf(w.Then, s)
			if err != nil {
				return 0, err
			}
			if tt != out && !(out == batch.Float64 && isIntLike(tt)) {
				return 0, fmt.Errorf("%w: CASE branch type %s != %s", ErrTypeMismatch, tt, out)
			}
		}
		return out, nil
	}
	return 0, fmt.Errorf("%w: unsupported expression %s", ErrTypeMismatch, e)
}

func numericLike(t batch.Type) bool { return isIntLike(t) || t == batch.Float64 }
