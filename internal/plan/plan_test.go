package plan

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"quokka/internal/batch"
	"quokka/internal/engine"
	"quokka/internal/expr"
	"quokka/internal/ops"
)

// memCatalog is a static catalog for tests.
type memCatalog struct {
	schemas map[string]*batch.Schema
	rows    map[string]int64
}

func testCatalog() *memCatalog {
	return &memCatalog{
		schemas: map[string]*batch.Schema{
			"sales": batch.NewSchema(
				batch.F("id", batch.Int64),
				batch.F("region", batch.Int64),
				batch.F("amount", batch.Float64),
				batch.F("note", batch.String),
			),
			"regions": batch.NewSchema(
				batch.F("rid", batch.Int64),
				batch.F("rname", batch.String),
			),
		},
		rows: map[string]int64{"sales": 1_000_000, "regions": 64},
	}
}

func (c *memCatalog) TableSchema(name string) (*batch.Schema, error) {
	s, ok := c.schemas[name]
	if !ok {
		return nil, fmt.Errorf("no table %q", name)
	}
	return s, nil
}

func (c *memCatalog) TableRows(name string) (int64, bool) {
	r, ok := c.rows[name]
	return r, ok
}

func mustOptimize(t *testing.T, n *Node) *Node {
	t.Helper()
	out, err := Optimize(n, testCatalog())
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestBindTypedErrors(t *testing.T) {
	cat := testCatalog()
	cases := []struct {
		name string
		node *Node
		want error
	}{
		{"unknown table", Scan("nope"), ErrUnknownTable},
		{"filter unknown column", Filter(Scan("sales"), expr.Gt(expr.C("missing"), expr.Int64(1))), ErrUnknownColumn},
		{"project unknown column", Project(Scan("sales"), ops.NE("x", expr.C("missing"))), ErrUnknownColumn},
		{"non-bool predicate", Filter(Scan("sales"), expr.Add(expr.C("id"), expr.Int64(1))), ErrTypeMismatch},
		{"string arithmetic", Project(Scan("sales"), ops.NE("x", expr.Add(expr.C("note"), expr.Int64(1)))), ErrTypeMismatch},
		{"string vs int compare", Filter(Scan("sales"), expr.Eq(expr.C("note"), expr.Int64(3))), ErrTypeMismatch},
		{"duplicate projection", Project(Scan("sales"), ops.NE("x", expr.C("id")), ops.NE("x", expr.C("region"))), ErrDuplicateColumn},
		{"agg unknown group key", Agg(Scan("sales"), []string{"missing"}, ops.CountStar("n")), ErrUnknownColumn},
		{"agg duplicate output", Agg(Scan("sales"), []string{"region"}, ops.CountStar("region")), ErrDuplicateColumn},
		{"sum over string", Agg(Scan("sales"), nil, ops.Sum("s", expr.C("note"))), ErrTypeMismatch},
		{"sort unknown key", Sort(Scan("sales"), 0, ops.Asc("missing")), ErrUnknownColumn},
		{"join unknown build key", Join(ops.InnerJoin, Auto, Scan("regions"), []string{"missing"}, Scan("sales"), []string{"region"}), ErrUnknownColumn},
		{"join key type mismatch", Join(ops.InnerJoin, Auto, Scan("regions"), []string{"rid"}, Scan("sales"), []string{"amount"}), ErrTypeMismatch},
		{"join output collision", Join(ops.InnerJoin, Auto,
			Project(Scan("regions"), ops.NE("rid", expr.C("rid")), ops.NE("amount", expr.C("rid"))),
			[]string{"rid"}, Scan("sales"), []string{"region"}), ErrDuplicateColumn},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := Bind(tc.node, cat)
			if err == nil {
				t.Fatalf("bind succeeded, want %v", tc.want)
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("error %v, want %v", err, tc.want)
			}
		})
	}
}

// TestPushdownReachesScan: a filter typed after a projection and a join
// ends up fused into both scans' pushed predicates.
func TestPushdownReachesScan(t *testing.T) {
	j := Join(ops.InnerJoin, Auto, Scan("regions"), []string{"rid"}, Scan("sales"), []string{"region"})
	q := Filter(j, expr.And(
		expr.Gt(expr.C("amount"), expr.Float64(10)), // probe side
		expr.Eq(expr.C("rname"), expr.Str("north")), // build side
	))
	root := mustOptimize(t, Project(q, ops.NE("id", expr.C("id")), ops.NE("rname", expr.C("rname"))))
	got := Explain(root)
	if strings.Contains(got, "filter") {
		t.Errorf("filters should have been pushed into the scans:\n%s", got)
	}
	if !strings.Contains(got, "scan sales") || !strings.Contains(got, "(amount > 10)") {
		t.Errorf("probe-side predicate not on sales scan:\n%s", got)
	}
	if !strings.Contains(got, "scan regions") || !strings.Contains(got, `(rname = "north")`) {
		t.Errorf("build-side predicate not on regions scan:\n%s", got)
	}
}

// TestPushdownLeftOuterKeepsBuildPred: build-side predicates must not
// cross a left-outer join (unmatched probe rows would change).
func TestPushdownLeftOuterKeepsBuildPred(t *testing.T) {
	j := Join(ops.LeftOuterJoin, Auto, Scan("regions"), []string{"rid"}, Scan("sales"), []string{"region"})
	q := Filter(j, expr.Eq(expr.C("rname"), expr.Str("north")))
	root := mustOptimize(t, Project(q, ops.NE("id", expr.C("id"))))
	got := Explain(root)
	if !strings.Contains(got, "filter") {
		t.Errorf("build-side predicate should stay above the left-outer join:\n%s", got)
	}
	if strings.Contains(got, `scan regions cols=[rid, rname] pred`) {
		t.Errorf("predicate leaked into the build scan:\n%s", got)
	}
}

// TestPushdownStopsAtTopK: filter does not commute with LIMIT.
func TestPushdownStopsAtTopK(t *testing.T) {
	topk := Sort(Scan("sales"), 5, ops.Desc("amount"))
	root := mustOptimize(t, Filter(topk, expr.Gt(expr.C("amount"), expr.Float64(10))))
	if got := Explain(root); !strings.HasPrefix(got, "filter") {
		t.Errorf("filter must stay above top-k:\n%s", got)
	}
	// Without a limit the filter passes through the sort into the scan.
	root = mustOptimize(t, Filter(Sort(Scan("sales"), 0, ops.Desc("amount")),
		expr.Gt(expr.C("amount"), expr.Float64(10))))
	if got := Explain(root); strings.Contains(got, "filter") {
		t.Errorf("filter should pass through a full sort:\n%s", got)
	}
}

// TestPruneColumns: only needed columns survive each node.
func TestPruneColumns(t *testing.T) {
	q := Agg(Scan("sales"), []string{"region"}, ops.Sum("total", expr.C("amount")))
	root := mustOptimize(t, q)
	got := Explain(root)
	if !strings.Contains(got, "scan sales cols=[region, amount]") {
		t.Errorf("scan not pruned to [region, amount]:\n%s", got)
	}
}

// TestPruneKeepsAtLeastOneColumn: a bare count(*) still needs rows.
func TestPruneKeepsAtLeastOneColumn(t *testing.T) {
	root := mustOptimize(t, Agg(Scan("sales"), nil, ops.CountStar("n")))
	if got := Explain(root); !strings.Contains(got, "scan sales cols=[id]") {
		t.Errorf("count(*) scan should keep exactly one column:\n%s", got)
	}
}

// TestBroadcastSelection: Auto joins pick broadcast from row statistics
// and fall back to shuffle without them.
func TestBroadcastSelection(t *testing.T) {
	build := func() *Node { return Scan("regions") }
	probe := func() *Node { return Scan("sales") }
	mk := func() *Node {
		j := Join(ops.InnerJoin, Auto, build(), []string{"rid"}, probe(), []string{"region"})
		return Project(j, ops.NE("id", expr.C("id")), ops.NE("rname", expr.C("rname")))
	}
	root := mustOptimize(t, mk())
	if got := Explain(root); !strings.Contains(got, "join inner (broadcast)") {
		t.Errorf("small build side should broadcast:\n%s", got)
	}
	// Big build side: shuffle.
	j := Join(ops.InnerJoin, Auto, probe(), []string{"region"}, build(), []string{"rid"})
	root = mustOptimize(t, Project(j, ops.NE("rname", expr.C("rname")), ops.NE("amount", expr.C("amount"))))
	if got := Explain(root); !strings.Contains(got, "join inner (shuffle)") {
		t.Errorf("large build side should shuffle:\n%s", got)
	}
	// No statistics: shuffle.
	cat := testCatalog()
	cat.rows = nil
	root, err := Optimize(mk(), cat)
	if err != nil {
		t.Fatal(err)
	}
	if got := Explain(root); !strings.Contains(got, "join inner (shuffle)") {
		t.Errorf("auto join without statistics should shuffle:\n%s", got)
	}
	// Forced broadcast is never overridden.
	jb := Join(ops.InnerJoin, Broadcast, build(), []string{"rid"}, probe(), []string{"region"})
	root, err = Optimize(Project(jb, ops.NE("id", expr.C("id"))), cat)
	if err != nil {
		t.Fatal(err)
	}
	if got := Explain(root); !strings.Contains(got, "join inner (broadcast)") {
		t.Errorf("explicit broadcast must stay:\n%s", got)
	}
}

// TestConstantFolding: literal subexpressions collapse; WHERE true drops.
func TestConstantFolding(t *testing.T) {
	q := Filter(Scan("sales"), expr.And(
		expr.Boolean(true),
		expr.Gt(expr.C("amount"), expr.Mul(expr.Float64(2), expr.Float64(5))),
	))
	root := mustOptimize(t, Project(q, ops.NE("amount", expr.C("amount"))))
	got := Explain(root)
	if !strings.Contains(got, "(amount > 10)") {
		t.Errorf("2*5 should fold to 10 and the literal true vanish:\n%s", got)
	}
	// A tautological filter disappears entirely.
	root = mustOptimize(t, Project(
		Filter(Scan("sales"), expr.Lt(expr.Int64(1), expr.Int64(2))),
		ops.NE("amount", expr.C("amount"))))
	if got := Explain(root); strings.Contains(got, "pred") {
		t.Errorf("WHERE 1<2 should fold away:\n%s", got)
	}
}

// TestLoweringShapes: the optimized plan fuses filter+project into map
// stages and splits aggregations; naive lowering emits one stage per node.
func TestLoweringShapes(t *testing.T) {
	build := func() *Node {
		f := Filter(Scan("sales"), expr.Gt(expr.C("amount"), expr.Float64(1)))
		p := Project(f, ops.NE("region", expr.C("region")), ops.NE("amount", expr.C("amount")))
		return Agg(p, []string{"region"}, ops.Sum("total", expr.C("amount")))
	}
	cat := testCatalog()

	naiveTree := build()
	if err := Bind(naiveTree, cat); err != nil {
		t.Fatal(err)
	}
	naive, err := Lower(naiveTree, Naive)
	if err != nil {
		t.Fatal(err)
	}
	// scan, filter, select, agg.
	if len(naive.Stages) != 4 {
		t.Errorf("naive stages = %d, want 4: %v", len(naive.Stages), stageNames(naive))
	}

	opt := mustOptimize(t, build())
	lowered, err := Lower(opt, Optimized)
	if err != nil {
		t.Fatal(err)
	}
	// scan reader, fused map, agg-partial, agg.
	if len(lowered.Stages) != 4 {
		t.Errorf("optimized stages = %d, want 4: %v", len(lowered.Stages), stageNames(lowered))
	}
	names := stageNames(lowered)
	if names[1] != "map" || names[2] != "agg-partial" {
		t.Errorf("optimized shape wrong: %v", names)
	}
}

// TestSharedSubtreeLowersOnce: a frame consumed twice becomes one stage
// with two consumers.
func TestSharedSubtreeLowersOnce(t *testing.T) {
	shared := Project(Scan("sales"),
		ops.NE("one", expr.Int64(1)), ops.NE("amount", expr.C("amount")))
	total := Agg(shared, nil, ops.Sum("s", expr.C("amount")))
	totalK := Project(total, ops.NE("one", expr.Int64(1)), ops.NE("s", expr.C("s")))
	j := Join(ops.InnerJoin, Broadcast, totalK, []string{"one"}, shared, []string{"one"})
	root := mustOptimize(t, Project(j, ops.NE("amount", expr.C("amount")), ops.NE("s", expr.C("s"))))

	if got := Explain(root); !strings.Contains(got, "reuse t1") {
		t.Errorf("shared subtree not rendered as reuse:\n%s", got)
	}
	p, err := Lower(root, Optimized)
	if err != nil {
		t.Fatal(err)
	}
	readers := 0
	for _, s := range p.Stages {
		if s.Reader != nil {
			readers++
		}
	}
	if readers != 1 {
		t.Errorf("shared scan lowered %d times, want 1: %v", readers, stageNames(p))
	}
}

func stageNames(p *engine.Plan) []string {
	out := make([]string, len(p.Stages))
	for i, s := range p.Stages {
		out[i] = s.Name
	}
	return out
}
