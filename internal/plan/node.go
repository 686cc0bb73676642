// Package plan implements the logical query plan layered between the
// public DataFrame API and the execution engine: an immutable tree of
// relational nodes, a binder that resolves schemas against a catalog and
// reports column/type errors at plan time, a rule-based optimizer
// (constant folding, predicate pushdown, projection pruning, filter+
// project fusion, automatic broadcast-join selection), a lowering pass
// that turns the tree into the engine's physical stages (reusing a hash
// partitioning where an aggregation's input already has one), and a plan
// printer backing EXPLAIN.
//
// The optimizer only changes WHICH columns and rows flow, and lowering only
// which keys an exchange routes by — never key identity, key encoding or
// the routing function (`fnv-1a mod channels`) — and every pass is a pure
// function of the tree, the catalog and the worker count, so planning is
// deterministic and write-ahead-lineage replay rebuilds identical stages.
package plan

import (
	"errors"
	"fmt"

	"quokka/internal/batch"
	"quokka/internal/expr"
	"quokka/internal/ops"
)

// Typed plan-time errors. Callers match with errors.Is; the messages carry
// the offending column/table and the schema in scope.
var (
	// ErrUnknownColumn reports a column reference no input provides.
	ErrUnknownColumn = expr.ErrUnknownColumn
	// ErrTypeMismatch reports an expression over incompatible types.
	ErrTypeMismatch = expr.ErrTypeMismatch
	// ErrDuplicateColumn reports two output columns with the same name
	// (duplicate projection names, or a join whose sides collide).
	ErrDuplicateColumn = errors.New("duplicate output column")
	// ErrUnknownTable reports a scan of a table the catalog does not have.
	ErrUnknownTable = errors.New("unknown table")
)

// Kind enumerates logical operators.
type Kind uint8

// Logical node kinds.
const (
	KindScan Kind = iota
	KindFilter
	KindProject
	KindJoin
	KindAgg
	KindSort
)

func (k Kind) String() string {
	switch k {
	case KindScan:
		return "scan"
	case KindFilter:
		return "filter"
	case KindProject:
		return "project"
	case KindJoin:
		return "join"
	case KindAgg:
		return "agg"
	case KindSort:
		return "sort"
	}
	return "?"
}

// Strategy selects a join's physical distribution.
type Strategy uint8

// Join distribution strategies.
const (
	// Auto lets the optimizer pick: broadcast when catalog statistics say
	// the build side is small, or small next to the probe side; shuffle
	// otherwise (and always shuffle when statistics are unavailable).
	Auto Strategy = iota
	// Shuffle co-partitions both sides on the join keys.
	Shuffle
	// Broadcast replicates the build side to every channel; the probe side
	// stays where it is.
	Broadcast
)

func (s Strategy) String() string {
	switch s {
	case Shuffle:
		return "shuffle"
	case Broadcast:
		return "broadcast"
	}
	return "auto"
}

// Node is one logical operator. Nodes form a DAG (a frame used twice —
// e.g. a pipeline joined with its own aggregate — shares the subtree by
// pointer), and the optimizer preserves sharing so lowering emits shared
// stages once. Treat nodes as immutable once built: rules rebuild rather
// than mutate, except for the binder filling in schemas.
type Node struct {
	Kind   Kind
	Inputs []*Node // Join: Inputs[0] is the build side, Inputs[1] the probe

	// Scan.
	Table string
	Cols  []string // pruned scan columns in table order (nil = all)
	// Splits is the zone-map pruning survivor list: physical split indexes
	// this scan reads, ascending (nil = all splits; pruning didn't run or
	// removed nothing). TotalSplits is the table's physical split count,
	// recorded when Splits is set.
	Splits      []int
	TotalSplits int

	// Scan (pushed-down) and Filter predicate.
	Pred expr.Expr

	// Project.
	Exprs []ops.NamedExpr

	// Join.
	JoinType  ops.JoinType
	Strategy  Strategy
	BuildKeys []string
	ProbeKeys []string
	// BuildRows and ProbeRows are the row estimates of the build and probe
	// sides the optimizer resolved an Auto join's strategy from (0 = the
	// strategy was not chosen from statistics).
	BuildRows, ProbeRows float64

	// Agg.
	Keys []string
	Aggs []ops.AggExpr

	// Sort.
	SortKeys []ops.SortKey
	Limit    int // 0 = no limit

	schema *batch.Schema // resolved by Bind
}

// Scan reads a catalog table.
func Scan(table string) *Node { return &Node{Kind: KindScan, Table: table} }

// Filter keeps rows satisfying pred.
func Filter(in *Node, pred expr.Expr) *Node {
	return &Node{Kind: KindFilter, Inputs: []*Node{in}, Pred: pred}
}

// Project computes one output column per expression.
func Project(in *Node, exprs ...ops.NamedExpr) *Node {
	return &Node{Kind: KindProject, Inputs: []*Node{in}, Exprs: exprs}
}

// Join hash-joins probe against build on the paired key columns.
func Join(jt ops.JoinType, strategy Strategy, build *Node, buildKeys []string, probe *Node, probeKeys []string) *Node {
	return &Node{
		Kind: KindJoin, Inputs: []*Node{build, probe},
		JoinType: jt, Strategy: strategy, BuildKeys: buildKeys, ProbeKeys: probeKeys,
	}
}

// Agg groups by keys (none = one global row) computing the aggregates.
func Agg(in *Node, keys []string, aggs ...ops.AggExpr) *Node {
	return &Node{Kind: KindAgg, Inputs: []*Node{in}, Keys: keys, Aggs: aggs}
}

// Sort totally orders the input; limit > 0 keeps the top rows.
func Sort(in *Node, limit int, keys ...ops.SortKey) *Node {
	return &Node{Kind: KindSort, Inputs: []*Node{in}, SortKeys: keys, Limit: limit}
}

// shallowCopy clones the node's own fields (inputs slice included) so a
// rule can rewrite without mutating the original tree.
func (n *Node) shallowCopy() *Node {
	cp := *n
	cp.Inputs = append([]*Node(nil), n.Inputs...)
	return &cp
}

// refCounts returns how many parents each node has in the DAG reachable
// from root (root itself counts one). Rules use it to avoid pushing work
// into subtrees another consumer observes.
func refCounts(root *Node) map[*Node]int {
	counts := make(map[*Node]int)
	var walk func(n *Node)
	walk = func(n *Node) {
		counts[n]++
		if counts[n] > 1 {
			return
		}
		for _, in := range n.Inputs {
			walk(in)
		}
	}
	walk(root)
	return counts
}

// topoOrder returns every node reachable from root, parents before
// children, each exactly once — the traversal order for requirement
// propagation over the DAG.
func topoOrder(root *Node) []*Node {
	counts := refCounts(root)
	seen := make(map[*Node]int)
	var out []*Node
	var walk func(n *Node)
	walk = func(n *Node) {
		seen[n]++
		if seen[n] < counts[n] {
			return // wait until every parent has contributed
		}
		out = append(out, n)
		for _, in := range n.Inputs {
			walk(in)
		}
	}
	walk(root)
	return out
}

// describe renders the node's own line for EXPLAIN and error messages.
func (n *Node) describe() string {
	switch n.Kind {
	case KindScan:
		s := "scan " + n.Table
		if n.Cols != nil {
			s += " cols=" + strList(n.Cols)
		}
		if n.Pred != nil {
			s += fmt.Sprintf(" pred=%s", n.Pred)
		}
		if n.Splits != nil {
			s += fmt.Sprintf(" splits=%d/%d", len(n.Splits), n.TotalSplits)
		}
		return s
	case KindFilter:
		return fmt.Sprintf("filter %s", n.Pred)
	case KindProject:
		return "project " + namedExprList(n.Exprs)
	case KindJoin:
		s := fmt.Sprintf("join %s (%s) build=%s probe=%s",
			n.JoinType, n.Strategy, strList(n.BuildKeys), strList(n.ProbeKeys))
		if n.BuildRows > 0 {
			s += fmt.Sprintf(" est=(build ~%.0f, probe ~%.0f)", n.BuildRows, n.ProbeRows)
		}
		return s
	case KindAgg:
		return fmt.Sprintf("agg by %s %s", strList(n.Keys), aggExprList(n.Aggs))
	case KindSort:
		s := fmt.Sprintf("sort %s", sortKeyList(n.SortKeys))
		if n.Limit > 0 {
			s += fmt.Sprintf(" limit=%d", n.Limit)
		}
		return s
	}
	return n.Kind.String()
}
