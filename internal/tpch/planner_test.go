package tpch

// Optimizer equivalence suite: every rewritten TPC-H query must produce
// the same results whether its logical plan is lowered naively (one stage
// per node, exactly as typed) or through the full optimizer (pushdown,
// pruning, fusion, partial aggregation, broadcast selection) — across
// operator parallelism and with and without a memory budget. Non-float
// cells compare exactly; float aggregates use the repository's standard
// cross-run tolerance (dynamic task dependencies reorder float summation
// between runs regardless of planning).

import (
	"context"
	"strings"
	"testing"
	"time"

	"quokka/internal/batch"
	"quokka/internal/engine"
)

// equivalenceQueries covers every plan shape: scan-aggregate (1, 6),
// pipelined joins (3, 18), deep multi-join with semis and broadcasts (5,
// 9), left outer (13), shared frames and scalar pipelines (2, 11, 15).
var equivalenceQueries = []int{1, 2, 3, 5, 6, 9, 11, 13, 15, 18}

func runPhysical(t *testing.T, workers int, phys *engine.Plan, cfg engine.Config) *batch.Batch {
	t.Helper()
	cl := loadCluster(t, workers)
	r, err := engine.NewRunner(cl, phys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	out, _, err := r.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestOptimizerEquivalence(t *testing.T) {
	for _, q := range equivalenceQueries {
		q := q
		t.Run(queryName(q), func(t *testing.T) {
			t.Parallel()
			naive, err := NaiveQuery(q)
			if err != nil {
				t.Fatal(err)
			}
			optimized, err := Query(q)
			if err != nil {
				t.Fatal(err)
			}
			for _, par := range []int{1, 4} {
				for _, budget := range []int64{0, 32_000} {
					cfg := engine.DefaultConfig()
					cfg.Parallelism = par
					cfg.MemoryBudget = budget
					want := runPhysical(t, 4, naive, cfg)
					got := runPhysical(t, 4, optimized, cfg)
					assertSameResult(t, q, want, got)
				}
			}
		})
	}
}

// TestOptimizedPlansAreDeterministic: the same query must lower to an
// identical stage list every time — write-ahead-lineage replay rebuilds
// stages from the plan, so planning may not depend on iteration order or
// anything else nondeterministic.
func TestOptimizedPlansAreDeterministic(t *testing.T) {
	for _, q := range QueryNumbers() {
		a, err := ExplainAt(q, 1)
		if err != nil {
			t.Fatalf("q%d: %v", q, err)
		}
		for i := 0; i < 3; i++ {
			b, err := ExplainAt(q, 1)
			if err != nil {
				t.Fatalf("q%d: %v", q, err)
			}
			if a != b {
				t.Fatalf("q%d: plan changed between runs:\n--- first:\n%s--- then:\n%s", q, a, b)
			}
		}
	}
}

// TestNaiveQueriesRun: the as-typed lowering of every query is itself a
// valid engine plan (the benchmark baseline must not silently break).
func TestNaiveQueriesRun(t *testing.T) {
	for _, q := range QueryNumbers() {
		if _, err := NaiveQuery(q); err != nil {
			t.Errorf("q%d naive lowering: %v", q, err)
		}
	}
}

// TestExplainGoldenQ6 pins the full optimized plan of the simplest query:
// the pushed predicate and the pruned scan columns must render exactly.
func TestExplainGoldenQ6(t *testing.T) {
	got, err := ExplainAt(6, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Join([]string{
		"agg by [] [sum((l_extendedprice * l_discount)) as revenue]",
		"  scan lineitem cols=[l_extendedprice, l_discount] pred=((l_shipdate >= date(8766)) and (l_shipdate < date(9131)) and ((l_discount >= 0.05) and (l_discount <= 0.07)) and (l_quantity < 24))",
		"",
	}, "\n")
	if got != want {
		t.Errorf("q6 explain drifted:\n--- got:\n%s--- want:\n%s", got, want)
	}
}

// TestExplainGoldenQ3 pins a join query: predicate pushdown through two
// joins to three scans, projection pruning between the joins, and the
// statistics-driven broadcasts with the estimates behind them: the filtered
// customer build side under the fixed threshold, the orders build side for
// being an eighth of the lineitem probe side.
func TestExplainGoldenQ3(t *testing.T) {
	got, err := ExplainAt(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Join([]string{
		`sort [revenue desc, o_orderdate, l_orderkey] limit=10`,
		`  agg by [l_orderkey, o_orderdate, o_shippriority] [sum((l_extendedprice * (1 - l_discount))) as revenue]`,
		`    project [l_orderkey, l_extendedprice, l_discount, o_orderdate, o_shippriority]`,
		`      join inner (broadcast) build=[o_orderkey] probe=[l_orderkey] est=(build ~225000, probe ~1800000)`,
		`        project [o_orderkey, o_orderdate, o_shippriority]`,
		`          join semi (broadcast) build=[c_custkey] probe=[o_custkey] est=(build ~7500, probe ~450000)`,
		`            scan customer cols=[c_custkey] pred=(c_mktsegment = "BUILDING")`,
		`            scan orders cols=[o_orderkey, o_custkey, o_orderdate, o_shippriority] pred=(o_orderdate < date(9204))`,
		`        scan lineitem cols=[l_orderkey, l_extendedprice, l_discount] pred=(l_shipdate > date(9204))`,
		``,
	}, "\n")
	if got != want {
		t.Errorf("q3 explain drifted:\n--- got:\n%s--- want:\n%s", got, want)
	}
}

// TestExplainSharedFrame: DAG-shaped queries render shared subtrees once.
func TestExplainSharedFrame(t *testing.T) {
	for _, q := range []int{2, 11, 15, 17, 22} {
		s, err := ExplainAt(q, 1)
		if err != nil {
			t.Fatalf("q%d: %v", q, err)
		}
		if !strings.Contains(s, "[t1]") || !strings.Contains(s, "reuse t1") {
			t.Errorf("q%d: shared frame not tagged/reused in explain:\n%s", q, s)
		}
	}
}

// TestOptimizerPushesAndPrunes: every TPC-H query's optimized plan prunes
// the lineitem scan (no query needs all 15 columns) and never leaves a
// standalone filter above a scan.
func TestOptimizerPushesAndPrunes(t *testing.T) {
	for _, q := range QueryNumbers() {
		s, err := ExplainAt(q, 1)
		if err != nil {
			t.Fatalf("q%d: %v", q, err)
		}
		for _, line := range strings.Split(s, "\n") {
			l := strings.TrimSpace(line)
			// Narrow dimension scans (nation, partsupp in Q11) can
			// legitimately need every column; the 15-column lineitem
			// never does.
			if strings.HasPrefix(l, "scan lineitem") && !strings.Contains(l, "cols=") {
				t.Errorf("q%d: unpruned lineitem scan: %s", q, l)
			}
			if strings.Contains(l, "cols=[l_orderkey, l_partkey, l_suppkey, l_linenumber, l_quantity") {
				t.Errorf("q%d: lineitem scan kept every column: %s", q, l)
			}
		}
	}
}
