package tpch

import (
	"fmt"

	"quokka/internal/batch"
	"quokka/internal/engine"
	"quokka/internal/expr"
	"quokka/internal/ops"
	"quokka/internal/plan"
)

// The 22 TPC-H queries, expressed as lazy logical plans the way a
// DataFrame user would type them from the SQL text: full-width scans,
// WHERE predicates where the SQL puts them (often above the joins), no
// hand pruning, and Auto join strategies. The optimizer (internal/plan)
// is what turns these into the engine-shaped physical plans — fused scan
// filters, pruned columns, partial aggregation, broadcast dimensions —
// that earlier revisions of this file wrote by hand; the equivalence
// suite in planner_test.go pins that optimized and naive lowerings agree
// on every query.
//
// Semi/anti-join build sides carry their filters directly (their columns
// do not survive into the join output, so a WHERE above could not name
// them) — exactly the constraint a dataframe user faces.

// Catalog returns the static planning catalog: the spec's schemas plus
// row-count statistics at scale factor sf. Query uses SF 1, so plan
// choices follow the benchmark's table proportions independent of the
// loaded data scale — keeping planning deterministic, as write-ahead-
// lineage replay requires.
func Catalog(sf float64) plan.Catalog {
	return staticCatalog{schemas: TableSchemas(), rows: TableRowsAt(sf)}
}

type staticCatalog struct {
	schemas map[string]*batch.Schema
	rows    map[string]int64
}

func (c staticCatalog) TableSchema(name string) (*batch.Schema, error) {
	s, ok := c.schemas[name]
	if !ok {
		return nil, fmt.Errorf("tpch: no table %q", name)
	}
	return s, nil
}

func (c staticCatalog) TableRows(name string) (int64, bool) {
	r, ok := c.rows[name]
	return r, ok
}

// LogicalQuery returns the lazy logical plan for TPC-H query n (1..22).
func LogicalQuery(n int) (*plan.Node, error) {
	builders := map[int]func() *plan.Node{
		1: Q1, 2: Q2, 3: Q3, 4: Q4, 5: Q5, 6: Q6, 7: Q7, 8: Q8,
		9: Q9, 10: Q10, 11: Q11, 12: Q12, 13: Q13, 14: Q14, 15: Q15,
		16: Q16, 17: Q17, 18: Q18, 19: Q19, 20: Q20, 21: Q21, 22: Q22,
	}
	b, ok := builders[n]
	if !ok {
		return nil, fmt.Errorf("tpch: no query %d", n)
	}
	return b(), nil
}

// Query returns the optimized physical plan for TPC-H query n.
func Query(n int) (*engine.Plan, error) {
	node, err := LogicalQuery(n)
	if err != nil {
		return nil, err
	}
	opt, err := plan.Optimize(node, Catalog(1))
	if err != nil {
		return nil, err
	}
	return plan.Lower(opt, plan.Optimized)
}

// NaiveQuery lowers query n exactly as typed — no pushdown, no pruning,
// no fusion, no partial aggregation, Auto joins shuffling. It is the
// planner benchmark's baseline and the equivalence suite's witness.
func NaiveQuery(n int) (*engine.Plan, error) {
	node, err := LogicalQuery(n)
	if err != nil {
		return nil, err
	}
	if err := plan.Bind(node, Catalog(1)); err != nil {
		return nil, err
	}
	return plan.Lower(node, plan.Naive)
}

// Explain renders the optimized logical plan of query n at the SF-1
// statistics Query plans with.
func Explain(n int) (string, error) { return ExplainAt(n, 1) }

// ExplainAt renders the optimized logical plan of query n planned
// against the spec's catalog statistics at scale factor sf — no data is
// generated or loaded.
func ExplainAt(n int, sf float64) (string, error) {
	node, err := LogicalQuery(n)
	if err != nil {
		return "", err
	}
	opt, err := plan.Optimize(node, Catalog(sf))
	if err != nil {
		return "", err
	}
	return plan.Explain(opt), nil
}

// QueryNumbers lists the implemented queries.
func QueryNumbers() []int {
	out := make([]int, 22)
	for i := range out {
		out[i] = i + 1
	}
	return out
}

// RepresentativeQueries are the paper's 8 ablation queries (§V):
// category I (1, 6), II (3, 10), III (5, 7, 8, 9).
var RepresentativeQueries = []int{1, 6, 3, 10, 5, 7, 8, 9}

// --- query-building shorthand ------------------------------------------

func read(t string) *plan.Node { return plan.Scan(t) }

func filt(in *plan.Node, pred expr.Expr) *plan.Node { return plan.Filter(in, pred) }

func sel(in *plan.Node, cols ...ops.NamedExpr) *plan.Node { return plan.Project(in, cols...) }

// join builds an Auto-strategy join: the optimizer picks broadcast or
// shuffle from the catalog statistics.
func join(jt ops.JoinType, build *plan.Node, bKeys []string, probe *plan.Node, pKeys []string) *plan.Node {
	return plan.Join(jt, plan.Auto, build, bKeys, probe, pKeys)
}

// scalarJoin broadcasts a single-row frame against a row pipeline via the
// constant "one" key (the engine's multi-pipeline synchronization
// pattern, §V-A).
func scalarJoin(scalar, rows *plan.Node) *plan.Node {
	return plan.Join(ops.InnerJoin, plan.Broadcast, scalar, []string{"one"}, rows, []string{"one"})
}

func agg(in *plan.Node, keys []string, aggs ...ops.AggExpr) *plan.Node {
	return plan.Agg(in, keys, aggs...)
}

func sortBy(in *plan.Node, keys ...ops.SortKey) *plan.Node { return plan.Sort(in, 0, keys...) }

func topk(in *plan.Node, limit int, keys ...ops.SortKey) *plan.Node {
	return plan.Sort(in, limit, keys...)
}

func k(names ...string) []string { return names }

func date(y, m, d int) expr.Lit { return expr.DateLit(expr.DaysOfDate(y, m, d)) }

// revenue is l_extendedprice * (1 - l_discount).
func revenue() expr.Expr {
	return expr.Mul(expr.C("l_extendedprice"), expr.Sub(expr.Float64(1), expr.C("l_discount")))
}

// --- the queries --------------------------------------------------------

// Q1: pricing summary report. Scan-heavy (category I): filter lineitem,
// aggregate by returnflag/linestatus, compute averages, order.
func Q1() *plan.Node {
	f := filt(read("lineitem"), expr.Le(expr.C("l_shipdate"), date(1998, 9, 2)))
	a := agg(f, k("l_returnflag", "l_linestatus"),
		ops.Sum("sum_qty", expr.C("l_quantity")),
		ops.Sum("sum_base_price", expr.C("l_extendedprice")),
		ops.Sum("sum_disc_price", revenue()),
		ops.Sum("sum_charge", expr.Mul(revenue(), expr.Add(expr.Float64(1), expr.C("l_tax")))),
		ops.Sum("sum_disc", expr.C("l_discount")),
		ops.CountStar("count_order"),
	)
	p := sel(a,
		ops.NE("l_returnflag", expr.C("l_returnflag")),
		ops.NE("l_linestatus", expr.C("l_linestatus")),
		ops.NE("sum_qty", expr.C("sum_qty")),
		ops.NE("sum_base_price", expr.C("sum_base_price")),
		ops.NE("sum_disc_price", expr.C("sum_disc_price")),
		ops.NE("sum_charge", expr.C("sum_charge")),
		ops.NE("avg_qty", expr.Div(expr.C("sum_qty"), expr.C("count_order"))),
		ops.NE("avg_price", expr.Div(expr.C("sum_base_price"), expr.C("count_order"))),
		ops.NE("avg_disc", expr.Div(expr.C("sum_disc"), expr.C("count_order"))),
		ops.NE("count_order", expr.C("count_order")),
	)
	return sortBy(p, ops.Asc("l_returnflag"), ops.Asc("l_linestatus"))
}

// Q6: forecasting revenue change. Pure scan + global aggregate.
func Q6() *plan.Node {
	f := filt(read("lineitem"), expr.And(
		expr.Ge(expr.C("l_shipdate"), date(1994, 1, 1)),
		expr.Lt(expr.C("l_shipdate"), date(1995, 1, 1)),
		expr.Between(expr.C("l_discount"), expr.Float64(0.05), expr.Float64(0.07)),
		expr.Lt(expr.C("l_quantity"), expr.Float64(24)),
	))
	return agg(f, nil,
		ops.Sum("revenue", expr.Mul(expr.C("l_extendedprice"), expr.C("l_discount"))))
}

// Q3: shipping priority. customer ⋈ orders ⋈ lineitem, top 10.
func Q3() *plan.Node {
	custF := filt(read("customer"), expr.Eq(expr.C("c_mktsegment"), expr.Str("BUILDING")))
	oc := join(ops.SemiJoin, custF, k("c_custkey"), read("orders"), k("o_custkey"))
	j := join(ops.InnerJoin, oc, k("o_orderkey"), read("lineitem"), k("l_orderkey"))
	f := filt(j, expr.And(
		expr.Lt(expr.C("o_orderdate"), date(1995, 3, 15)),
		expr.Gt(expr.C("l_shipdate"), date(1995, 3, 15)),
	))
	a := agg(f, k("l_orderkey", "o_orderdate", "o_shippriority"),
		ops.Sum("revenue", revenue()))
	return topk(a, 10, ops.Desc("revenue"), ops.Asc("o_orderdate"), ops.Asc("l_orderkey"))
}

// Q4: order priority checking. Orders with at least one late lineitem
// (EXISTS unnested into a semi join).
func Q4() *plan.Node {
	late := filt(read("lineitem"), expr.Lt(expr.C("l_commitdate"), expr.C("l_receiptdate")))
	j := join(ops.SemiJoin, late, k("l_orderkey"), read("orders"), k("o_orderkey"))
	f := filt(j, expr.And(
		expr.Ge(expr.C("o_orderdate"), date(1993, 7, 1)),
		expr.Lt(expr.C("o_orderdate"), date(1993, 10, 1)),
	))
	a := agg(f, k("o_orderpriority"), ops.CountStar("order_count"))
	return sortBy(a, ops.Asc("o_orderpriority"))
}

// Q5: local supplier volume. region ⋈ nation ⋈ supplier joined against
// customer ⋈ orders ⋈ lineitem with supplier and customer co-national.
func Q5() *plan.Node {
	rn := join(ops.InnerJoin, read("region"), k("r_regionkey"), read("nation"), k("n_regionkey"))
	sup := join(ops.InnerJoin, rn, k("n_nationkey"), read("supplier"), k("s_nationkey"))
	co := join(ops.InnerJoin, read("customer"), k("c_custkey"), read("orders"), k("o_custkey"))
	col := join(ops.InnerJoin, co, k("o_orderkey"), read("lineitem"), k("l_orderkey"))
	j := join(ops.InnerJoin, sup, k("s_suppkey", "s_nationkey"), col, k("l_suppkey", "c_nationkey"))
	f := filt(j, expr.And(
		expr.Eq(expr.C("r_name"), expr.Str("ASIA")),
		expr.Ge(expr.C("o_orderdate"), date(1994, 1, 1)),
		expr.Lt(expr.C("o_orderdate"), date(1995, 1, 1)),
	))
	a := agg(f, k("n_name"), ops.Sum("revenue", revenue()))
	return sortBy(a, ops.Desc("revenue"), ops.Asc("n_name"))
}

// Q7: volume shipping between FRANCE and GERMANY by year. The filtered
// nation frame is shared by the supplier and customer pipelines.
func Q7() *plan.Node {
	natF := filt(read("nation"), expr.Or(
		expr.Eq(expr.C("n_name"), expr.Str("FRANCE")),
		expr.Eq(expr.C("n_name"), expr.Str("GERMANY")),
	))
	sn := join(ops.InnerJoin, natF, k("n_nationkey"), read("supplier"), k("s_nationkey"))
	snP := sel(sn,
		ops.NE("s_suppkey", expr.C("s_suppkey")),
		ops.NE("supp_nation", expr.C("n_name")),
	)
	cn := join(ops.InnerJoin, natF, k("n_nationkey"), read("customer"), k("c_nationkey"))
	cnP := sel(cn,
		ops.NE("c_custkey", expr.C("c_custkey")),
		ops.NE("cust_nation", expr.C("n_name")),
	)
	co := join(ops.InnerJoin, cnP, k("c_custkey"), read("orders"), k("o_custkey"))
	col := join(ops.InnerJoin, co, k("o_orderkey"), read("lineitem"), k("l_orderkey"))
	j := join(ops.InnerJoin, snP, k("s_suppkey"), col, k("l_suppkey"))
	f := filt(j, expr.And(
		expr.Between(expr.C("l_shipdate"), date(1995, 1, 1), date(1996, 12, 31)),
		expr.Or(
			expr.And(expr.Eq(expr.C("supp_nation"), expr.Str("FRANCE")),
				expr.Eq(expr.C("cust_nation"), expr.Str("GERMANY"))),
			expr.And(expr.Eq(expr.C("supp_nation"), expr.Str("GERMANY")),
				expr.Eq(expr.C("cust_nation"), expr.Str("FRANCE"))),
		),
	))
	m := sel(f,
		ops.NE("supp_nation", expr.C("supp_nation")),
		ops.NE("cust_nation", expr.C("cust_nation")),
		ops.NE("l_year", expr.Year(expr.C("l_shipdate"))),
		ops.NE("volume", revenue()),
	)
	a := agg(m, k("supp_nation", "cust_nation", "l_year"),
		ops.Sum("revenue", expr.C("volume")))
	return sortBy(a, ops.Asc("supp_nation"), ops.Asc("cust_nation"), ops.Asc("l_year"))
}

// Q8: national market share of BRAZIL within AMERICA for a part type.
func Q8() *plan.Node {
	partF := filt(read("part"), expr.Eq(expr.C("p_type"), expr.Str("ECONOMY ANODIZED STEEL")))
	pl := join(ops.SemiJoin, partF, k("p_partkey"), read("lineitem"), k("l_partkey"))
	j1 := join(ops.InnerJoin, read("orders"), k("o_orderkey"), pl, k("l_orderkey"))
	// Customers in region AMERICA.
	regF := filt(read("region"), expr.Eq(expr.C("r_name"), expr.Str("AMERICA")))
	rn := join(ops.InnerJoin, regF, k("r_regionkey"), read("nation"), k("n_regionkey"))
	ca := join(ops.SemiJoin, rn, k("n_nationkey"), read("customer"), k("c_nationkey"))
	j2 := join(ops.SemiJoin, ca, k("c_custkey"), j1, k("o_custkey"))
	// Supplier nation name.
	sn := join(ops.InnerJoin, read("nation"), k("n_nationkey"), read("supplier"), k("s_nationkey"))
	j3 := join(ops.InnerJoin, sn, k("s_suppkey"), j2, k("l_suppkey"))
	f := filt(j3, expr.Between(expr.C("o_orderdate"), date(1995, 1, 1), date(1996, 12, 31)))
	m := sel(f,
		ops.NE("o_year", expr.Year(expr.C("o_orderdate"))),
		ops.NE("volume", revenue()),
		ops.NE("brazil_volume", expr.CaseWhen(expr.Float64(0),
			expr.When{Cond: expr.Eq(expr.C("n_name"), expr.Str("BRAZIL")), Then: revenue()})),
	)
	a := agg(m, k("o_year"),
		ops.Sum("sum_brazil", expr.C("brazil_volume")),
		ops.Sum("sum_all", expr.C("volume")),
	)
	p := sel(a,
		ops.NE("o_year", expr.C("o_year")),
		ops.NE("mkt_share", expr.Div(expr.C("sum_brazil"), expr.C("sum_all"))),
	)
	return sortBy(p, ops.Asc("o_year"))
}

// Q9: product type profit measure, by nation and year, for green parts.
func Q9() *plan.Node {
	partF := filt(read("part"), expr.LikePat(expr.C("p_name"), "%green%"))
	pl := join(ops.SemiJoin, partF, k("p_partkey"), read("lineitem"), k("l_partkey"))
	jps := join(ops.InnerJoin, read("partsupp"), k("ps_partkey", "ps_suppkey"),
		pl, k("l_partkey", "l_suppkey"))
	jo := join(ops.InnerJoin, read("orders"), k("o_orderkey"), jps, k("l_orderkey"))
	sn := join(ops.InnerJoin, read("nation"), k("n_nationkey"), read("supplier"), k("s_nationkey"))
	j := join(ops.InnerJoin, sn, k("s_suppkey"), jo, k("l_suppkey"))
	m := sel(j,
		ops.NE("nation", expr.C("n_name")),
		ops.NE("o_year", expr.Year(expr.C("o_orderdate"))),
		ops.NE("amount", expr.Sub(revenue(),
			expr.Mul(expr.C("ps_supplycost"), expr.C("l_quantity")))),
	)
	a := agg(m, k("nation", "o_year"), ops.Sum("sum_profit", expr.C("amount")))
	return sortBy(a, ops.Asc("nation"), ops.Desc("o_year"))
}

// Q10: returned item reporting. Top 20 customers by lost revenue.
func Q10() *plan.Node {
	co := join(ops.InnerJoin, read("customer"), k("c_custkey"), read("orders"), k("o_custkey"))
	j := join(ops.InnerJoin, co, k("o_orderkey"), read("lineitem"), k("l_orderkey"))
	jn := join(ops.InnerJoin, read("nation"), k("n_nationkey"), j, k("c_nationkey"))
	f := filt(jn, expr.And(
		expr.Ge(expr.C("o_orderdate"), date(1993, 10, 1)),
		expr.Lt(expr.C("o_orderdate"), date(1994, 1, 1)),
		expr.Eq(expr.C("l_returnflag"), expr.Str("R")),
	))
	a := agg(f, k("o_custkey", "c_name", "c_acctbal", "c_phone", "n_name"),
		ops.Sum("revenue", revenue()))
	return topk(a, 20, ops.Desc("revenue"), ops.Asc("o_custkey"))
}

// Q11: important stock identification — two pipelines over the shared
// German partsupp frame, joined through a global scalar threshold.
func Q11() *plan.Node {
	natF := filt(read("nation"), expr.Eq(expr.C("n_name"), expr.Str("GERMANY")))
	sn := join(ops.SemiJoin, natF, k("n_nationkey"), read("supplier"), k("s_nationkey"))
	germanPS := join(ops.SemiJoin, sn, k("s_suppkey"), read("partsupp"), k("ps_suppkey"))
	value := expr.Mul(expr.C("ps_supplycost"), expr.C("ps_availqty"))
	// Pipeline 1: total value (scalar), tagged with a constant join key.
	total := agg(germanPS, nil, ops.Sum("total_value", value))
	totalK := sel(total,
		ops.NE("one", expr.Int64(1)),
		ops.NE("threshold", expr.Mul(expr.C("total_value"), expr.Float64(0.0001))),
	)
	// Pipeline 2: per-part value, filtered by the broadcast threshold.
	perPart := agg(germanPS, k("ps_partkey"), ops.Sum("part_value", value))
	perPartK := sel(perPart,
		ops.NE("one", expr.Int64(1)),
		ops.NE("ps_partkey", expr.C("ps_partkey")),
		ops.NE("part_value", expr.C("part_value")),
	)
	f := filt(scalarJoin(totalK, perPartK), expr.Gt(expr.C("part_value"), expr.C("threshold")))
	p := sel(f,
		ops.NE("ps_partkey", expr.C("ps_partkey")),
		ops.NE("value", expr.C("part_value")),
	)
	return sortBy(p, ops.Desc("value"), ops.Asc("ps_partkey"))
}

// Q12: shipping modes and order priority.
func Q12() *plan.Node {
	j := join(ops.InnerJoin, read("orders"), k("o_orderkey"), read("lineitem"), k("l_orderkey"))
	f := filt(j, expr.And(
		expr.InStr(expr.C("l_shipmode"), "MAIL", "SHIP"),
		expr.Lt(expr.C("l_commitdate"), expr.C("l_receiptdate")),
		expr.Lt(expr.C("l_shipdate"), expr.C("l_commitdate")),
		expr.Ge(expr.C("l_receiptdate"), date(1994, 1, 1)),
		expr.Lt(expr.C("l_receiptdate"), date(1995, 1, 1)),
	))
	urgent := expr.InStr(expr.C("o_orderpriority"), "1-URGENT", "2-HIGH")
	m := sel(f,
		ops.NE("l_shipmode", expr.C("l_shipmode")),
		ops.NE("high", expr.CaseWhen(expr.Int64(0), expr.When{Cond: urgent, Then: expr.Int64(1)})),
		ops.NE("low", expr.CaseWhen(expr.Int64(1), expr.When{Cond: urgent, Then: expr.Int64(0)})),
	)
	a := agg(m, k("l_shipmode"),
		ops.Sum("high_line_count", expr.C("high")),
		ops.Sum("low_line_count", expr.C("low")),
	)
	return sortBy(a, ops.Asc("l_shipmode"))
}

// Q13: customer distribution — left outer join, two aggregations.
func Q13() *plan.Node {
	ordF := filt(read("orders"),
		expr.Not{Of: expr.LikePat(expr.C("o_comment"), "%special%requests%")})
	j := plan.Join(ops.LeftOuterJoin, plan.Auto,
		ordF, k("o_custkey"), read("customer"), k("c_custkey"))
	m := sel(j,
		ops.NE("c_custkey", expr.C("c_custkey")),
		ops.NE("is_order", expr.CaseWhen(expr.Int64(0),
			expr.When{Cond: expr.C("__matched"), Then: expr.Int64(1)})),
	)
	perCust := agg(m, k("c_custkey"), ops.Sum("c_count", expr.C("is_order")))
	dist := agg(perCust, k("c_count"), ops.CountStar("custdist"))
	return sortBy(dist, ops.Desc("custdist"), ops.Desc("c_count"))
}

// Q14: promotion effect — promo revenue share for one month.
func Q14() *plan.Node {
	j := join(ops.InnerJoin, read("part"), k("p_partkey"), read("lineitem"), k("l_partkey"))
	f := filt(j, expr.And(
		expr.Ge(expr.C("l_shipdate"), date(1995, 9, 1)),
		expr.Lt(expr.C("l_shipdate"), date(1995, 10, 1)),
	))
	a := agg(f, nil,
		ops.Sum("sum_promo", expr.CaseWhen(expr.Float64(0),
			expr.When{Cond: expr.LikePat(expr.C("p_type"), "PROMO%"), Then: revenue()})),
		ops.Sum("sum_all", revenue()),
	)
	return sel(a, ops.NE("promo_revenue",
		expr.Mul(expr.Float64(100), expr.Div(expr.C("sum_promo"), expr.C("sum_all")))))
}

// Q15: top supplier — the per-supplier revenue view joined with its own
// maximum (a shared frame and a scalar pipeline).
func Q15() *plan.Node {
	liF := filt(read("lineitem"), expr.And(
		expr.Ge(expr.C("l_shipdate"), date(1996, 1, 1)),
		expr.Lt(expr.C("l_shipdate"), date(1996, 4, 1)),
	))
	perSupp := agg(liF, k("l_suppkey"), ops.Sum("total_revenue", revenue()))
	maxRev := agg(perSupp, nil, ops.Max("max_revenue", expr.C("total_revenue")))
	maxK := sel(maxRev,
		ops.NE("one", expr.Int64(1)),
		ops.NE("max_revenue", expr.C("max_revenue")),
	)
	perSuppK := sel(perSupp,
		ops.NE("one", expr.Int64(1)),
		ops.NE("l_suppkey", expr.C("l_suppkey")),
		ops.NE("total_revenue", expr.C("total_revenue")),
	)
	top := filt(scalarJoin(maxK, perSuppK),
		expr.Eq(expr.C("total_revenue"), expr.C("max_revenue")))
	j := join(ops.InnerJoin, top, k("l_suppkey"), read("supplier"), k("s_suppkey"))
	p := sel(j,
		ops.NE("s_suppkey", expr.C("s_suppkey")),
		ops.NE("s_name", expr.C("s_name")),
		ops.NE("s_phone", expr.C("s_phone")),
		ops.NE("total_revenue", expr.C("total_revenue")),
	)
	return sortBy(p, ops.Asc("s_suppkey"))
}

// Q16: parts/supplier relationship — anti join against complaining
// suppliers, distinct supplier counts per (brand, type, size).
func Q16() *plan.Node {
	supF := filt(read("supplier"),
		expr.LikePat(expr.C("s_comment"), "%Customer%Complaints%"))
	goodPS := plan.Join(ops.AntiJoin, plan.Auto,
		supF, k("s_suppkey"), read("partsupp"), k("ps_suppkey"))
	j := join(ops.InnerJoin, read("part"), k("p_partkey"), goodPS, k("ps_partkey"))
	f := filt(j, expr.And(
		expr.Ne(expr.C("p_brand"), expr.Str("Brand#45")),
		expr.Not{Of: expr.LikePat(expr.C("p_type"), "MEDIUM POLISHED%")},
		expr.InInt(expr.C("p_size"), 49, 14, 23, 45, 19, 3, 36, 9),
	))
	// COUNT(DISTINCT ps_suppkey): dedupe then count.
	distinct := agg(f, k("p_brand", "p_type", "p_size", "ps_suppkey"), ops.CountStar("dummy"))
	cnt := agg(distinct, k("p_brand", "p_type", "p_size"), ops.CountStar("supplier_cnt"))
	return sortBy(cnt, ops.Desc("supplier_cnt"), ops.Asc("p_brand"), ops.Asc("p_type"), ops.Asc("p_size"))
}

// Q17: small-quantity-order revenue — the selected lineitems joined with
// their own per-part average (a shared frame).
func Q17() *plan.Node {
	partF := filt(read("part"), expr.And(
		expr.Eq(expr.C("p_brand"), expr.Str("Brand#23")),
		expr.Eq(expr.C("p_container"), expr.Str("MED BOX")),
	))
	selected := join(ops.SemiJoin, partF, k("p_partkey"), read("lineitem"), k("l_partkey"))
	perPart := agg(selected, k("l_partkey"),
		ops.Sum("sum_qty", expr.C("l_quantity")), ops.CountStar("cnt"))
	avg := sel(perPart,
		ops.NE("l_partkey", expr.C("l_partkey")),
		ops.NE("avg_qty_fifth", expr.Mul(expr.Float64(0.2),
			expr.Div(expr.C("sum_qty"), expr.C("cnt")))),
	)
	j := join(ops.InnerJoin, avg, k("l_partkey"), selected, k("l_partkey"))
	f := filt(j, expr.Lt(expr.C("l_quantity"), expr.C("avg_qty_fifth")))
	a := agg(f, nil, ops.Sum("sum_price", expr.C("l_extendedprice")))
	return sel(a, ops.NE("avg_yearly", expr.Div(expr.C("sum_price"), expr.Float64(7))))
}

// Q18: large volume customers — orders whose lineitems sum to > 300.
func Q18() *plan.Node {
	perOrder := agg(read("lineitem"), k("l_orderkey"), ops.Sum("sum_qty", expr.C("l_quantity")))
	big := filt(perOrder, expr.Gt(expr.C("sum_qty"), expr.Float64(300)))
	j1 := join(ops.InnerJoin, big, k("l_orderkey"), read("orders"), k("o_orderkey"))
	j2 := join(ops.InnerJoin, read("customer"), k("c_custkey"), j1, k("o_custkey"))
	p := sel(j2,
		ops.NE("o_orderkey", expr.C("o_orderkey")),
		ops.NE("o_custkey", expr.C("o_custkey")),
		ops.NE("o_orderdate", expr.C("o_orderdate")),
		ops.NE("o_totalprice", expr.C("o_totalprice")),
		ops.NE("sum_qty", expr.C("sum_qty")),
		ops.NE("c_name", expr.C("c_name")),
	)
	return topk(p, 100, ops.Desc("o_totalprice"), ops.Asc("o_orderdate"), ops.Asc("o_orderkey"))
}

// Q19: discounted revenue — a disjunction of brand/container/quantity
// predicates spanning both join sides, evaluated after the join.
func Q19() *plan.Node {
	j := join(ops.InnerJoin, read("part"), k("p_partkey"), read("lineitem"), k("l_partkey"))
	branch := func(brand string, containers []string, qlo, qhi, sz float64) expr.Expr {
		return expr.And(
			expr.Eq(expr.C("p_brand"), expr.Str(brand)),
			expr.InStr(expr.C("p_container"), containers...),
			expr.Between(expr.C("l_quantity"), expr.Float64(qlo), expr.Float64(qhi)),
			expr.Le(expr.C("p_size"), expr.Float64(sz)),
		)
	}
	f := filt(j, expr.And(
		expr.InStr(expr.C("l_shipmode"), "AIR", "REG AIR"),
		expr.Eq(expr.C("l_shipinstruct"), expr.Str("DELIVER IN PERSON")),
		expr.Or(
			branch("Brand#12", []string{"SM CASE", "SM BOX", "SM PACK", "SM PKG"}, 1, 11, 5),
			branch("Brand#23", []string{"MED BAG", "MED BOX", "MED PKG", "MED PACK"}, 10, 20, 10),
			branch("Brand#34", []string{"LG CASE", "LG BOX", "LG PACK", "LG PKG"}, 20, 30, 15),
		),
	))
	return agg(f, nil, ops.Sum("revenue", revenue()))
}

// Q20: potential part promotion — suppliers with excess stock of forest
// parts, via two correlated pipelines.
func Q20() *plan.Node {
	partF := filt(read("part"), expr.LikePat(expr.C("p_name"), "forest%"))
	liF := filt(read("lineitem"), expr.And(
		expr.Ge(expr.C("l_shipdate"), date(1994, 1, 1)),
		expr.Lt(expr.C("l_shipdate"), date(1995, 1, 1)),
	))
	forestLi := join(ops.SemiJoin, partF, k("p_partkey"), liF, k("l_partkey"))
	shipped := agg(forestLi, k("l_partkey", "l_suppkey"),
		ops.Sum("sum_qty", expr.C("l_quantity")))
	halfShipped := sel(shipped,
		ops.NE("l_partkey", expr.C("l_partkey")),
		ops.NE("l_suppkey", expr.C("l_suppkey")),
		ops.NE("half_qty", expr.Mul(expr.Float64(0.5), expr.C("sum_qty"))),
	)
	j := join(ops.InnerJoin, halfShipped, k("l_partkey", "l_suppkey"),
		read("partsupp"), k("ps_partkey", "ps_suppkey"))
	excess := filt(j, expr.Gt(expr.C("ps_availqty"), expr.C("half_qty")))
	j2 := join(ops.SemiJoin, excess, k("ps_suppkey"), read("supplier"), k("s_suppkey"))
	natF := filt(read("nation"), expr.Eq(expr.C("n_name"), expr.Str("CANADA")))
	j3 := join(ops.SemiJoin, natF, k("n_nationkey"), j2, k("s_nationkey"))
	p := sel(j3,
		ops.NE("s_suppkey", expr.C("s_suppkey")),
		ops.NE("s_name", expr.C("s_name")),
		ops.NE("s_nationkey", expr.C("s_nationkey")),
	)
	return sortBy(p, ops.Asc("s_name"))
}

// Q21: suppliers who kept orders waiting — multi-exists unnested through
// per-order aggregates.
func Q21() *plan.Node {
	late := expr.CaseWhen(expr.Int64(0),
		expr.When{Cond: expr.Gt(expr.C("l_receiptdate"), expr.C("l_commitdate")), Then: expr.Int64(1)})
	perSupp := agg(read("lineitem"), k("l_orderkey", "l_suppkey"), ops.Max("is_late", late))
	perOrder := agg(perSupp, k("l_orderkey"),
		ops.CountStar("n_supp"), ops.Sum("n_late_supp", expr.C("is_late")))
	// Orders with >1 supplier and exactly 1 late supplier qualify.
	qualifying := filt(perOrder, expr.And(
		expr.Gt(expr.C("n_supp"), expr.Int64(1)),
		expr.Eq(expr.C("n_late_supp"), expr.Int64(1)),
	))
	// The late lineitems of F-status orders.
	ordF := filt(read("orders"), expr.Eq(expr.C("o_orderstatus"), expr.Str("F")))
	lateLi := filt(read("lineitem"),
		expr.Gt(expr.C("l_receiptdate"), expr.C("l_commitdate")))
	fLate := join(ops.SemiJoin, ordF, k("o_orderkey"), lateLi, k("l_orderkey"))
	qual := join(ops.SemiJoin, qualifying, k("l_orderkey"), fLate, k("l_orderkey"))
	// Saudi suppliers.
	natF := filt(read("nation"), expr.Eq(expr.C("n_name"), expr.Str("SAUDI ARABIA")))
	saudi := join(ops.SemiJoin, natF, k("n_nationkey"), read("supplier"), k("s_nationkey"))
	j := join(ops.InnerJoin, saudi, k("s_suppkey"), qual, k("l_suppkey"))
	a := agg(j, k("s_name"), ops.CountStar("numwait"))
	return topk(a, 100, ops.Desc("numwait"), ops.Asc("s_name"))
}

// Q22: global sales opportunity — customers in selected country codes
// with above-average balances and no orders.
func Q22() *plan.Node {
	cc := expr.Substring(expr.C("c_phone"), 1, 2)
	sel0 := sel(
		filt(read("customer"),
			expr.InStr(cc, "13", "31", "23", "29", "30", "18", "17")),
		ops.NE("c_custkey", expr.C("c_custkey")),
		ops.NE("cntrycode", cc),
		ops.NE("c_acctbal", expr.C("c_acctbal")),
	)
	positive := filt(sel0, expr.Gt(expr.C("c_acctbal"), expr.Float64(0)))
	avgBal := agg(positive, nil,
		ops.Sum("sum_bal", expr.C("c_acctbal")), ops.CountStar("cnt"))
	avgK := sel(avgBal,
		ops.NE("one", expr.Int64(1)),
		ops.NE("avg_bal", expr.Div(expr.C("sum_bal"), expr.C("cnt"))),
	)
	selK := sel(sel0,
		ops.NE("one", expr.Int64(1)),
		ops.NE("c_custkey", expr.C("c_custkey")),
		ops.NE("cntrycode", expr.C("cntrycode")),
		ops.NE("c_acctbal", expr.C("c_acctbal")),
	)
	richF := filt(scalarJoin(avgK, selK), expr.Gt(expr.C("c_acctbal"), expr.C("avg_bal")))
	noOrders := plan.Join(ops.AntiJoin, plan.Auto,
		read("orders"), k("o_custkey"), richF, k("c_custkey"))
	a := agg(noOrders, k("cntrycode"),
		ops.CountStar("numcust"), ops.Sum("totacctbal", expr.C("c_acctbal")))
	return sortBy(a, ops.Asc("cntrycode"))
}

// Q2: minimum cost supplier. The region-filtered partsupp rows feed both
// a per-part minimum and the final join back against that minimum; the
// shared WHERE frame is what both pipelines observe.
func Q2() *plan.Node {
	rn := join(ops.InnerJoin, read("region"), k("r_regionkey"), read("nation"), k("n_regionkey"))
	sn := join(ops.InnerJoin, rn, k("n_nationkey"), read("supplier"), k("s_nationkey"))
	pps := join(ops.InnerJoin, read("part"), k("p_partkey"), read("partsupp"), k("ps_partkey"))
	full := join(ops.InnerJoin, sn, k("s_suppkey"), pps, k("ps_suppkey"))
	fullF := filt(full, expr.And(
		expr.Eq(expr.C("r_name"), expr.Str("EUROPE")),
		expr.Eq(expr.C("p_size"), expr.Int64(15)),
		expr.LikePat(expr.C("p_type"), "%BRASS"),
	))
	minCost := agg(fullF, k("ps_partkey"), ops.Min("min_cost", expr.C("ps_supplycost")))
	j := join(ops.InnerJoin, minCost, k("ps_partkey"), fullF, k("ps_partkey"))
	f := filt(j, expr.Eq(expr.C("ps_supplycost"), expr.C("min_cost")))
	p := sel(f,
		ops.NE("s_acctbal", expr.C("s_acctbal")),
		ops.NE("s_name", expr.C("s_name")),
		ops.NE("n_name", expr.C("n_name")),
		ops.NE("p_partkey", expr.C("ps_partkey")),
		ops.NE("p_mfgr", expr.C("p_mfgr")),
		ops.NE("s_phone", expr.C("s_phone")),
	)
	return topk(p, 100,
		ops.Desc("s_acctbal"), ops.Asc("n_name"), ops.Asc("s_name"), ops.Asc("p_partkey"))
}
