package engine

import (
	"context"
	"testing"
	"time"

	"quokka/internal/batch"
	"quokka/internal/cluster"
	"quokka/internal/expr"
	"quokka/internal/ops"
	"quokka/internal/storage"
)

// testCluster builds an n-worker cluster with no I/O sleeps and loads the
// given tables.
func testCluster(t *testing.T, n int, tables map[string][]*batch.Batch) *cluster.Cluster {
	t.Helper()
	cl, err := cluster.New(cluster.Options{Workers: n, Cost: storage.TestCostModel()})
	if err != nil {
		t.Fatal(err)
	}
	for name, splits := range tables {
		WriteTable(cl.HeadObjs, name, splits)
	}
	return cl
}

// numbersTable produces a table of ints 0..n-1 with value column v = i*2,
// split into the given number of splits.
func numbersTable(n, splits int) []*batch.Batch {
	s := batch.NewSchema(batch.F("id", batch.Int64), batch.F("v", batch.Float64))
	per := (n + splits - 1) / splits
	var out []*batch.Batch
	for i := 0; i < n; i += per {
		hi := i + per
		if hi > n {
			hi = n
		}
		ids := make([]int64, hi-i)
		vs := make([]float64, hi-i)
		for j := range ids {
			ids[j] = int64(i + j)
			vs[j] = float64((i + j) * 2)
		}
		out = append(out, batch.MustNew(s, []*batch.Column{
			batch.NewIntColumn(ids), batch.NewFloatColumn(vs),
		}))
	}
	return out
}

// scanFilterAggPlan: read numbers, keep id >= cut, global sum(v) count(*).
func scanFilterAggPlan(cut int64) *Plan {
	return MustPlan(
		&Stage{ID: 0, Name: "read", Reader: &ReaderSpec{Table: "numbers"}},
		&Stage{ID: 1, Name: "filter",
			Op:     ops.NewFilterSpec(expr.Ge(expr.C("id"), expr.Int64(cut))),
			Inputs: []StageInput{{Stage: 0, Part: Direct()}}},
		&Stage{ID: 2, Name: "agg", Parallelism: 1,
			Op:     ops.NewHashAggSpec(nil, ops.Sum("s", expr.C("v")), ops.CountStar("c")),
			Inputs: []StageInput{{Stage: 1, Part: Single()}}},
	)
}

func runPlan(t *testing.T, cl *cluster.Cluster, p *Plan, cfg Config) (*batch.Batch, *Report) {
	t.Helper()
	r, err := NewRunner(cl, p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	out, rep, err := r.Run(ctx)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return out, rep
}

func checkSumCount(t *testing.T, out *batch.Batch, wantSum float64, wantCount int64) {
	t.Helper()
	if out == nil || out.NumRows() != 1 {
		t.Fatalf("result: %v", out)
	}
	if got := out.Col("s").Floats[0]; got != wantSum {
		t.Errorf("sum = %g, want %g", got, wantSum)
	}
	if got := out.Col("c").Ints[0]; got != wantCount {
		t.Errorf("count = %d, want %d", got, wantCount)
	}
}

func TestScanFilterAggregate(t *testing.T) {
	const n = 1000
	cl := testCluster(t, 4, map[string][]*batch.Batch{"numbers": numbersTable(n, 8)})
	out, rep := runPlan(t, cl, scanFilterAggPlan(500), DefaultConfig())
	// ids 500..999, v = 2*id => sum = 2 * (500+...+999)
	var want float64
	for i := 500; i < n; i++ {
		want += float64(2 * i)
	}
	checkSumCount(t, out, want, 500)
	if rep.TasksExecuted == 0 {
		t.Error("no tasks recorded")
	}
	if rep.Recoveries != 0 {
		t.Errorf("unexpected recoveries: %d", rep.Recoveries)
	}
}

func TestScanFilterAggregateSingleWorker(t *testing.T) {
	cl := testCluster(t, 1, map[string][]*batch.Batch{"numbers": numbersTable(100, 3)})
	out, _ := runPlan(t, cl, scanFilterAggPlan(0), DefaultConfig())
	checkSumCount(t, out, float64(99*100), 100)
}

func TestStagewiseMatchesPipelined(t *testing.T) {
	tables := map[string][]*batch.Batch{"numbers": numbersTable(500, 6)}
	for _, cfg := range []Config{DefaultConfig(), SparkConfig()} {
		cl := testCluster(t, 3, tables)
		out, _ := runPlan(t, cl, scanFilterAggPlan(100), cfg)
		var want float64
		for i := 100; i < 500; i++ {
			want += float64(2 * i)
		}
		checkSumCount(t, out, want, 400)
	}
}

func TestStaticDependencyModes(t *testing.T) {
	tables := map[string][]*batch.Batch{"numbers": numbersTable(300, 10)}
	for _, k := range []int{1, 4, 128} {
		cfg := DefaultConfig()
		cfg.Dynamic = false
		cfg.StaticBatch = k
		cl := testCluster(t, 2, tables)
		out, _ := runPlan(t, cl, scanFilterAggPlan(0), cfg)
		checkSumCount(t, out, float64(299*300), 300)
	}
}

// joinTables: dim(k 0..9, name) and fact(k = id%10, v).
func joinTables(nFact int) map[string][]*batch.Batch {
	ds := batch.NewSchema(batch.F("k", batch.Int64), batch.F("name", batch.String))
	dk := make([]int64, 10)
	dn := make([]string, 10)
	for i := range dk {
		dk[i] = int64(i)
		dn[i] = string(rune('a' + i))
	}
	dim := batch.MustNew(ds, []*batch.Column{batch.NewIntColumn(dk), batch.NewStringColumn(dn)})
	fs := batch.NewSchema(batch.F("fk", batch.Int64), batch.F("v", batch.Float64))
	var facts []*batch.Batch
	per := 50
	for i := 0; i < nFact; i += per {
		hi := i + per
		if hi > nFact {
			hi = nFact
		}
		ks := make([]int64, hi-i)
		vs := make([]float64, hi-i)
		for j := range ks {
			ks[j] = int64((i + j) % 10)
			vs[j] = 1
		}
		facts = append(facts, batch.MustNew(fs, []*batch.Column{
			batch.NewIntColumn(ks), batch.NewFloatColumn(vs),
		}))
	}
	return map[string][]*batch.Batch{"dim": {dim}, "fact": facts}
}

// joinPlan: fact JOIN dim ON fk=k, then group by name counting rows.
func joinPlan() *Plan {
	return MustPlan(
		&Stage{ID: 0, Name: "read-dim", Reader: &ReaderSpec{Table: "dim"}},
		&Stage{ID: 1, Name: "read-fact", Reader: &ReaderSpec{Table: "fact"}},
		&Stage{ID: 2, Name: "join",
			Op: ops.NewHashJoinSpec(ops.InnerJoin, []string{"k"}, []string{"fk"}),
			Inputs: []StageInput{
				{Stage: 0, Part: Hash("k"), Phase: 0},
				{Stage: 1, Part: Hash("fk"), Phase: 1},
			}},
		&Stage{ID: 3, Name: "agg", Parallelism: 1,
			Op:     ops.NewHashAggSpec([]string{"name"}, ops.CountStar("c"), ops.Sum("sv", expr.C("v"))),
			Inputs: []StageInput{{Stage: 2, Part: Single()}}},
	)
}

func TestJoinPipeline(t *testing.T) {
	const nFact = 400
	cl := testCluster(t, 4, joinTables(nFact))
	out, _ := runPlan(t, cl, joinPlan(), DefaultConfig())
	if out == nil || out.NumRows() != 10 {
		t.Fatalf("join result: %v", out)
	}
	var total int64
	for i := 0; i < out.NumRows(); i++ {
		total += out.Col("c").Ints[i]
	}
	if total != nFact {
		t.Errorf("join total = %d, want %d", total, nFact)
	}
	// Every key appears nFact/10 times.
	for i := 0; i < out.NumRows(); i++ {
		if out.Col("c").Ints[i] != nFact/10 {
			t.Errorf("group %s count = %d", out.Col("name").Strings[i], out.Col("c").Ints[i])
		}
	}
}

func TestJoinAcrossConfigs(t *testing.T) {
	for _, cfg := range []Config{DefaultConfig(), SparkConfig(), TrinoConfig()} {
		cl := testCluster(t, 3, joinTables(200))
		out, _ := runPlan(t, cl, joinPlan(), cfg)
		if out == nil || out.NumRows() != 10 {
			t.Fatalf("cfg %s/%s: result %v", cfg.Execution, cfg.FT, out)
		}
		var total int64
		for i := 0; i < out.NumRows(); i++ {
			total += out.Col("c").Ints[i]
		}
		if total != 200 {
			t.Errorf("cfg %s/%s: total = %d", cfg.Execution, cfg.FT, total)
		}
	}
}

func TestPlanValidation(t *testing.T) {
	if _, err := NewPlan(); err == nil {
		t.Error("empty plan should fail")
	}
	// Reader with inputs.
	if _, err := NewPlan(&Stage{ID: 0, Reader: &ReaderSpec{Table: "t"},
		Inputs: []StageInput{{Stage: 0}}}); err == nil {
		t.Error("reader with inputs should fail")
	}
	// Two output stages.
	if _, err := NewPlan(
		&Stage{ID: 0, Reader: &ReaderSpec{Table: "a"}},
		&Stage{ID: 1, Reader: &ReaderSpec{Table: "b"}},
	); err == nil {
		t.Error("two sinks should fail")
	}
	// Forward reference.
	if _, err := NewPlan(
		&Stage{ID: 0, Op: ops.NewFilterSpec(expr.Ge(expr.C("id"), expr.Int64(0))), Inputs: []StageInput{{Stage: 0}}},
	); err == nil {
		t.Error("self reference should fail")
	}
	if out, _ := joinPlan().OutputStage(); out != 3 {
		t.Errorf("OutputStage = %d", out)
	}
}
