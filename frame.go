package quokka

import (
	"context"
	"fmt"

	"quokka/internal/engine"
	"quokka/internal/ops"
	"quokka/internal/plan"
)

// Typed plan-time errors. DataFrame methods never fail while a query is
// being built; schema and type problems surface from Collect (or Explain)
// wrapping these sentinels, instead of panicking deep inside operator
// execution. Match with errors.Is.
var (
	// ErrUnknownColumn: an expression, key or sort column no input provides.
	ErrUnknownColumn = plan.ErrUnknownColumn
	// ErrTypeMismatch: an expression over incompatible column types, or a
	// non-boolean filter predicate.
	ErrTypeMismatch = plan.ErrTypeMismatch
	// ErrDuplicateColumn: two output columns with the same name — duplicate
	// Select/Keep names, or a join whose sides collide.
	ErrDuplicateColumn = plan.ErrDuplicateColumn
	// ErrUnknownTable: a Read of a table that was never created.
	ErrUnknownTable = plan.ErrUnknownTable
)

// Session builds queries against a cluster. DataFrames are immutable
// logical-plan fragments; nothing executes until Collect.
type Session struct {
	cluster *Cluster
}

// NewSession creates a query-building session on the cluster. Any options
// are applied to the cluster's shared execution state, exactly as
// c.Configure(opts...) would — sessions are thin and all sessions on one
// cluster share it.
func NewSession(c *Cluster, opts ...Option) *Session {
	if len(opts) > 0 {
		c.Configure(opts...)
	}
	return &Session{cluster: c}
}

// Read scans a table previously loaded with CreateTable or LoadTPCH.
func (s *Session) Read(table string) *DataFrame {
	return &DataFrame{s: s, node: plan.Scan(table)}
}

// DataFrame is a lazy, immutable query fragment: each transformation
// returns a new frame wrapping a new logical-plan node; the shared tree
// underneath means a frame used twice (e.g. joined with its own
// aggregate) executes once. Collect runs the optimizer — constant
// folding, predicate pushdown, projection pruning, filter+project fusion,
// partial aggregation, automatic broadcast-join selection — and then the
// engine. Use Explain to see the optimized plan without running it.
type DataFrame struct {
	s    *Session
	node *plan.Node
}

func (d *DataFrame) wrap(n *plan.Node) *DataFrame { return &DataFrame{s: d.s, node: n} }

// Named pairs an output column name with its defining expression.
type Named struct {
	Name string
	Expr Expr
}

// As names an expression for Select. Duplicate output names within one
// projection are rejected at plan time with ErrDuplicateColumn.
func As(name string, e Expr) Named { return Named{Name: name, Expr: e} }

// Keep produces identity projections for existing columns, for use in
// Select alongside computed columns. Duplicate names — within Keep's own
// arguments or against other Select columns — are rejected at plan time
// with ErrDuplicateColumn rather than silently last-write-winning.
func Keep(names ...string) []Named {
	out := make([]Named, len(names))
	for i, n := range names {
		out[i] = Named{Name: n, Expr: Col(n)}
	}
	return out
}

func toNamedExprs(cols []Named) []ops.NamedExpr {
	out := make([]ops.NamedExpr, len(cols))
	for i, c := range cols {
		out[i] = ops.NamedExpr{Name: c.Name, Expr: c.Expr.e}
	}
	return out
}

// Filter keeps rows satisfying the predicate.
func (d *DataFrame) Filter(pred Expr) *DataFrame {
	return d.wrap(plan.Filter(d.node, pred.e))
}

// Select projects the given (possibly computed) columns.
func (d *DataFrame) Select(cols ...Named) *DataFrame {
	return d.wrap(plan.Project(d.node, toNamedExprs(cols)...))
}

// FilterSelect is Filter followed by Select; the optimizer fuses the pair
// into one FilterProject stage, so the two spellings execute identically.
func (d *DataFrame) FilterSelect(pred Expr, cols ...Named) *DataFrame {
	return d.Filter(pred).Select(cols...)
}

// JoinKind selects join semantics for DataFrame.Join.
type JoinKind = ops.JoinType

// Join kinds.
const (
	Inner     = ops.InnerJoin
	LeftOuter = ops.LeftOuterJoin
	Semi      = ops.SemiJoin
	Anti      = ops.AntiJoin
)

// Join hash-joins d (the probe side) with build. The optimizer picks the
// distribution: the build side is broadcast when catalog statistics say
// it is small, otherwise both sides are co-partitioned on the join keys.
// Output columns are d's columns followed by build's non-key columns;
// name collisions are rejected at plan time with ErrDuplicateColumn.
func (d *DataFrame) Join(build *DataFrame, kind JoinKind, probeKeys, buildKeys []string) *DataFrame {
	return d.wrap(plan.Join(kind, plan.Auto, build.node, buildKeys, d.node, probeKeys))
}

// BroadcastJoin joins against a build side that is always replicated to
// every channel, regardless of statistics; d's rows stay where they are.
func (d *DataFrame) BroadcastJoin(build *DataFrame, kind JoinKind, probeKeys, buildKeys []string) *DataFrame {
	return d.wrap(plan.Join(kind, plan.Broadcast, build.node, buildKeys, d.node, probeKeys))
}

// Agg is one aggregate output column.
type Agg struct {
	spec ops.AggExpr
}

// SumOf returns sum(e) as name.
func SumOf(name string, e Expr) Agg { return Agg{ops.Sum(name, e.e)} }

// CountAll returns count(*) as name.
func CountAll(name string) Agg { return Agg{ops.CountStar(name)} }

// MinOf returns min(e) as name.
func MinOf(name string, e Expr) Agg { return Agg{ops.Min(name, e.e)} }

// MaxOf returns max(e) as name.
func MaxOf(name string, e Expr) Agg { return Agg{ops.Max(name, e.e)} }

// GroupBy aggregates by the key columns; with no keys it computes a
// single global row. The optimizer lowers grouped aggregations to a
// partial aggregate on the producers plus a hash-partitioned final merge,
// so only per-channel partial states cross the shuffle.
func (d *DataFrame) GroupBy(keys []string, aggs ...Agg) *DataFrame {
	specs := make([]ops.AggExpr, len(aggs))
	for i, a := range aggs {
		specs[i] = a.spec
	}
	return d.wrap(plan.Agg(d.node, keys, specs...))
}

// SortKey is one ORDER BY term.
type SortKey = ops.SortKey

// Asc sorts ascending on the column.
func Asc(col string) SortKey { return ops.Asc(col) }

// Desc sorts descending on the column.
func Desc(col string) SortKey { return ops.Desc(col) }

// Sort totally orders the frame on a single output channel. limit > 0
// truncates to the top rows (ORDER BY ... LIMIT).
func (d *DataFrame) Sort(limit int, keys ...SortKey) *DataFrame {
	return d.wrap(plan.Sort(d.node, limit, keys...))
}

// withConstantKey appends a constant key column ("one" = 1) used to join
// a scalar pipeline back against a row pipeline.
func (d *DataFrame) withConstantKey(cols ...Named) *DataFrame {
	all := append([]Named{{Name: "one", Expr: LitI(1)}}, cols...)
	return d.Select(all...)
}

// JoinScalar cross-joins d with a single-row frame (e.g. a global
// aggregate), making the scalar's columns available on every row.
func (d *DataFrame) JoinScalar(scalar *DataFrame, dCols, scalarCols []Named) *DataFrame {
	dk := d.withConstantKey(dCols...)
	sk := scalar.withConstantKey(scalarCols...)
	return dk.BroadcastJoin(sk, Inner, []string{"one"}, []string{"one"})
}

// catalog resolves table metadata from the session's cluster store.
func (d *DataFrame) catalog() plan.Catalog {
	return plan.NewStoreCatalog(d.s.cluster.inner.ObjStore)
}

// optimize validates the frame's logical plan against the cluster catalog
// and runs the rule-based optimizer.
func (d *DataFrame) optimize() (*plan.Node, error) {
	opt, err := plan.Optimize(d.node, d.catalog())
	if err != nil {
		return nil, fmt.Errorf("quokka: invalid query: %w", err)
	}
	return opt, nil
}

// Explain returns the optimized logical plan, one node per line: pushed
// scan predicates, pruned column lists, chosen join strategies. It
// validates the query exactly as Collect does, without executing it.
func (d *DataFrame) Explain() (string, error) {
	opt, err := d.optimize()
	if err != nil {
		return "", err
	}
	return plan.Explain(opt), nil
}

// Collect optimizes the frame's logical plan, lowers it to the engine's
// physical stages and executes it on the session's cluster. Planning is
// deterministic (a pure function of the query and the catalog), so
// write-ahead-lineage replay rebuilds identical stages.
//
// Collect is sugar over Submit + Result: submit the query, wait for it,
// materialize every output row. Use Submit directly to run queries
// concurrently, stream results through a Cursor, or cancel mid-flight.
func (d *DataFrame) Collect(ctx context.Context, cfg RunConfig) (*Result, error) {
	q, err := d.Submit(ctx, cfg)
	if err != nil {
		return nil, err
	}
	return q.Result()
}

// runPlan executes an engine plan on a cluster to completion.
func runPlan(ctx context.Context, c *Cluster, phys *engine.Plan, cfg RunConfig) (*Result, error) {
	q, err := submitPlan(ctx, c, phys, cfg)
	if err != nil {
		return nil, err
	}
	return q.Result()
}
