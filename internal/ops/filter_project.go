package ops

import (
	"fmt"

	"quokka/internal/batch"
	"quokka/internal/expr"
)

// Filter keeps the rows for which the predicate evaluates to true. It is
// stateless and streams.
//
// When most rows survive, the output is a selection-vector view over the
// input's physical columns (batch.Batch.Sel) instead of a gathered copy:
// materialization is deferred to the next batch boundary (shuffle encode,
// stateful-operator insert), which selection-aware consumers never reach.
// Sparse outputs are materialized immediately so a retained view cannot
// pin a mostly-dead batch in memory.
type Filter struct {
	Pred expr.Expr

	// Scratch reused across batches: predicate result and the physical
	// row indexes of kept rows.
	bools []bool
	sel   []int32
}

// selViewMinKeepNum/Den: emit a selection view when at least 3/4 of the
// rows survive; below that, copy. The view costs downstream expression
// evaluation over dead rows and pins the physical columns, so it only
// pays off for high keep rates.
const (
	selViewMinKeepNum = 3
	selViewMinKeepDen = 4
)

// NewFilterSpec builds a Spec for a Filter with the given predicate.
func NewFilterSpec(pred expr.Expr) Spec {
	return filterSpec{Pred: pred}
}

// filterSpec is a data-only Spec (serializable for process mode).
type filterSpec struct{ Pred expr.Expr }

func (s filterSpec) Name() string          { return fmt.Sprintf("filter[%s]", s.Pred) }
func (s filterSpec) New(_, _ int) Operator { return &Filter{Pred: s.Pred} }

// Consume implements Operator.
func (f *Filter) Consume(_ int, b *batch.Batch) ([]*batch.Batch, error) {
	// The predicate evaluates over physical rows (expressions are pure, so
	// rows dropped by an upstream selection are harmless); the selection
	// indirection applies when collecting kept rows.
	phys := b.Phys()
	bools, err := expr.EvalBoolInto(f.Pred, phys, f.bools)
	if err != nil {
		return nil, err
	}
	f.bools = bools
	n := b.NumRows()
	sel := f.sel[:0]
	if b.Sel == nil {
		for i := 0; i < n; i++ {
			if bools[i] {
				sel = append(sel, int32(i))
			}
		}
	} else {
		for _, p := range b.Sel {
			if bools[p] {
				sel = append(sel, p)
			}
		}
	}
	f.sel = sel[:0]
	// The density gate compares against PHYSICAL rows: chained dense
	// filters compose selections, and each stage must re-check that the
	// cumulative selectivity still justifies pinning the physical columns
	// (and re-evaluating downstream predicates over them).
	physRows := phys.NumRows()
	switch {
	case len(sel) == n:
		return single(b), nil
	case len(sel) == 0:
		return nil, nil
	case len(sel)*selViewMinKeepDen >= physRows*selViewMinKeepNum:
		// Dense keep: hand downstream a view. The selection must outlive
		// the scratch buffer, so it is copied (one allocation per batch,
		// amortized zero per row).
		return single(phys.WithSel(append([]int32(nil), sel...))), nil
	default:
		cols := make([]*batch.Column, len(b.Cols))
		for i, c := range b.Cols {
			cols[i] = c.GatherI32(sel)
		}
		return single(&batch.Batch{Schema: b.Schema, Cols: cols}), nil
	}
}

// Finalize implements Operator.
func (f *Filter) Finalize() ([]*batch.Batch, error) { return nil, nil }

// NamedExpr pairs an output column name with the expression producing it.
type NamedExpr struct {
	Name string
	Expr expr.Expr
}

// NE is shorthand for a NamedExpr.
func NE(name string, e expr.Expr) NamedExpr { return NamedExpr{Name: name, Expr: e} }

// KeepCols builds identity projections for the named pass-through columns.
func KeepCols(names ...string) []NamedExpr {
	out := make([]NamedExpr, len(names))
	for i, n := range names {
		out[i] = NamedExpr{Name: n, Expr: expr.C(n)}
	}
	return out
}

// Project computes a new batch with one column per expression. It is
// stateless and streams.
type Project struct {
	Exprs []NamedExpr
}

// NewProjectSpec builds a Spec for a Project.
func NewProjectSpec(exprs ...NamedExpr) Spec {
	return projectSpec{Exprs: exprs}
}

// projectSpec is a data-only Spec (serializable for process mode).
type projectSpec struct{ Exprs []NamedExpr }

func (s projectSpec) Name() string          { return fmt.Sprintf("project[%d cols]", len(s.Exprs)) }
func (s projectSpec) New(_, _ int) Operator { return &Project{Exprs: s.Exprs} }

// Consume implements Operator.
func (p *Project) Consume(_ int, b *batch.Batch) ([]*batch.Batch, error) {
	out, err := p.Apply(b)
	if err != nil {
		return nil, err
	}
	return single(out), nil
}

// Apply projects a single batch; exposed for reuse by fused operators.
// Expressions evaluate over physical rows; an input selection vector is
// carried through to the output unchanged (projection is row-wise, so the
// same physical rows stay selected).
func (p *Project) Apply(b *batch.Batch) (*batch.Batch, error) {
	phys := b.Phys()
	cols := make([]*batch.Column, len(p.Exprs))
	fields := make([]batch.Field, len(p.Exprs))
	for i, ne := range p.Exprs {
		c, err := ne.Expr.Eval(phys)
		if err != nil {
			return nil, fmt.Errorf("ops: project %q: %w", ne.Name, err)
		}
		cols[i] = c
		fields[i] = batch.Field{Name: ne.Name, Type: c.Type}
	}
	out, err := batch.New(batch.NewSchema(fields...), cols)
	if err != nil {
		return nil, err
	}
	out.Sel = b.Sel
	return out, nil
}

// Finalize implements Operator.
func (p *Project) Finalize() ([]*batch.Batch, error) { return nil, nil }

// FilterProject fuses a predicate with a projection, the common shape of
// TPC-H scan pipelines. Pred may be nil (project only). The embedded
// filter is retained across batches so its selection/bool scratch buffers
// are reused (and its selection-vector output flows straight into the
// projection without materializing).
type FilterProject struct {
	Pred  expr.Expr
	Exprs []NamedExpr

	filter *Filter
}

// NewFilterProjectSpec builds a Spec for a fused filter+project.
func NewFilterProjectSpec(pred expr.Expr, exprs ...NamedExpr) Spec {
	return filterProjectSpec{Pred: pred, Exprs: exprs}
}

// filterProjectSpec is a data-only Spec (serializable for process mode).
type filterProjectSpec struct {
	Pred  expr.Expr
	Exprs []NamedExpr
}

func (s filterProjectSpec) Name() string {
	if s.Pred != nil {
		return fmt.Sprintf("map[%s]", s.Pred)
	}
	return "map"
}
func (s filterProjectSpec) New(_, _ int) Operator {
	return &FilterProject{Pred: s.Pred, Exprs: s.Exprs}
}

// Consume implements Operator.
func (fp *FilterProject) Consume(_ int, b *batch.Batch) ([]*batch.Batch, error) {
	if fp.Pred != nil {
		if fp.filter == nil {
			fp.filter = &Filter{Pred: fp.Pred}
		}
		filtered, err := fp.filter.Consume(0, b)
		if err != nil {
			return nil, err
		}
		if len(filtered) == 0 {
			return nil, nil
		}
		b = filtered[0]
	}
	p := Project{Exprs: fp.Exprs}
	return p.Consume(0, b)
}

// Finalize implements Operator.
func (fp *FilterProject) Finalize() ([]*batch.Batch, error) { return nil, nil }
