package plan

import (
	"errors"
	"fmt"
	"slices"
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

// mustOptimize plans n against testCatalog for a cluster of 4 workers.
func mustOptimize(t *testing.T, n *Node) *Node {
	t.Helper()
	out, err := Optimize(n, testCatalog(), 4)
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
	root, err := Optimize(mk(), cat, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := Explain(root); !strings.Contains(got, "join inner (shuffle)") {
		t.Errorf("auto join without statistics should shuffle:\n%s", got)
	}
	// Forced broadcast is never overridden.
	jb := Join(ops.InnerJoin, Broadcast, build(), []string{"rid"}, probe(), []string{"region"})
	root, err = Optimize(Project(jb, ops.NE("id", expr.C("id"))), cat, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := Explain(root); !strings.Contains(got, "join inner (broadcast)") {
		t.Errorf("explicit broadcast must stay:\n%s", got)
	}
}

// TestBroadcastByRelativeSize: a build side too big for the fixed threshold
// is still broadcast when its probe side is at least max(workers, 4) times
// its size — copying it to every worker then moves fewer rows than
// shuffling both sides — and EXPLAIN shows the estimates the choice came
// from.
func TestBroadcastByRelativeSize(t *testing.T) {
	mk := func(buildPred expr.Expr) *Node {
		build := Project(Filter(Scan("sales"), buildPred), ops.NE("sid", expr.C("id")))
		j := Join(ops.SemiJoin, Auto, build, []string{"sid"}, Scan("sales"), []string{"id"})
		return Project(j, ops.NE("amount", expr.C("amount")))
	}
	// region = 3: ~50,000 of 1,000,000 rows, over the threshold; amount > 1:
	// ~300,000 rows, more than a quarter of the probe side.
	small, large := expr.Eq(expr.C("region"), expr.Int64(3)), expr.Gt(expr.C("amount"), expr.Float64(1))
	cases := []struct {
		pred     expr.Expr
		workers  int
		strategy Strategy
		est      string
	}{
		{small, 2, Broadcast, "build ~50000, probe ~1000000"},
		{small, 4, Broadcast, "build ~50000, probe ~1000000"},
		{small, 20, Broadcast, "build ~50000, probe ~1000000"},
		{small, 21, Shuffle, "build ~50000, probe ~1000000"},
		{large, 2, Shuffle, "build ~300000, probe ~1000000"},
	}
	for _, tc := range cases {
		root, err := Optimize(mk(tc.pred), testCatalog(), tc.workers)
		if err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("join semi (%s) build=[sid] probe=[id] est=(%s)", tc.strategy, tc.est)
		if got := Explain(root); !strings.Contains(got, want) {
			t.Errorf("%d workers: want %q in:\n%s", tc.workers, want, got)
		}
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

// TestLoweringShapes: the optimized plan fuses the scan's map, the select
// and the partial aggregate into the reader's stage, leaving the shuffled
// final merge; naive lowering emits one stage per node.
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
	// scan reader with its map, select and agg-partial; agg.
	if len(lowered.Stages) != 2 {
		t.Fatalf("optimized stages = %d, want 2: %v", len(lowered.Stages), stageNames(lowered))
	}
	names := stageNames(lowered)
	if names[0] != "scan-sales▸map▸select▸agg-partial" || names[1] != "agg" {
		t.Errorf("optimized shape wrong: %v", names)
	}
	s := lowered.Stages[0]
	if ch, ok := s.Op.(ops.Chain); s.Reader == nil || !ok || len(ch.Members) != 3 {
		t.Errorf("fused stage: reader %v, op %v; want a reader and a 3-member chain", s.Reader, s.Op)
	}
	if got := strings.Count(s.Detail, " ▸ "); got != 3 {
		t.Errorf("fused detail keeps %d member details, want 4: %q", got+1, s.Detail)
	}
}

// TestAggregationReusesPartitioning: an aggregation over a shuffled join's
// probe key runs as one final aggregate fused behind the join, unless a
// projection between them redefines the key; and an aggregation whose only
// consumer aggregates on a subset of its keys routes by that subset, so the
// consumer fuses behind it. Unpartitioned lowering exchanges every time.
func TestAggregationReusesPartitioning(t *testing.T) {
	overJoin := func(key expr.Expr) *Node {
		build := Project(Scan("sales"), ops.NE("sid", expr.C("id")))
		j := Join(ops.SemiJoin, Shuffle, build, []string{"sid"}, Scan("sales"), []string{"id"})
		p := Project(j, ops.NE("id", key), ops.NE("amount", expr.C("amount")))
		return Agg(p, []string{"id"}, ops.Sum("total", expr.C("amount")))
	}
	twoAggs := func() *Node {
		perPair := Agg(Scan("sales"), []string{"region", "id"}, ops.Max("top", expr.C("amount")))
		return Agg(Filter(perPair, expr.Gt(expr.C("top"), expr.Float64(1))), []string{"region"}, ops.CountStar("n"))
	}
	cases := []struct {
		name  string
		root  *Node
		mode  Mode
		want  []string
		route []string // when set: the keys stage 1's input routes by
	}{
		{"join-key", overJoin(expr.C("id")), Optimized,
			[]string{"scan-sales▸map▸select", "scan-sales▸map", "join▸select▸agg"}, nil},
		{"redefined-key", overJoin(expr.Add(expr.C("id"), expr.Int64(1))), Optimized,
			[]string{"scan-sales▸map▸select", "scan-sales▸map", "join▸select▸agg-partial", "agg"}, nil},
		{"join-key-unpartitioned", overJoin(expr.C("id")), Unpartitioned,
			[]string{"scan-sales▸map▸select", "scan-sales▸map", "join▸select▸agg-partial", "agg"}, nil},
		{"subset", twoAggs(), Optimized,
			[]string{"scan-sales▸map▸agg-partial", "agg▸filter▸agg"}, []string{"region"}},
		{"subset-unpartitioned", twoAggs(), Unpartitioned,
			[]string{"scan-sales▸map▸agg-partial", "agg▸filter▸agg-partial", "agg"}, []string{"region", "id"}},
	}
	for _, tc := range cases {
		p, err := Lower(mustOptimize(t, tc.root), tc.mode)
		if err != nil {
			t.Fatal(err)
		}
		if got := stageNames(p); !slices.Equal(got, tc.want) {
			t.Errorf("%s: stages %v, want %v", tc.name, got, tc.want)
		}
		if tc.route != nil {
			if got := p.Stages[1].Inputs[0].Part.Keys; !slices.Equal(got, tc.route) {
				t.Errorf("%s: the first aggregation routes by %v, want %v", tc.name, got, tc.route)
			}
		}
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
