package engine_test

import (
	"context"
	"testing"
	"time"

	"quokka/internal/batch"
	"quokka/internal/cluster"
	"quokka/internal/engine"
	"quokka/internal/metrics"
	"quokka/internal/ops"
	"quokka/internal/plan"
	"quokka/internal/storage"
	"quokka/internal/tpch"
)

// TestParallelismMatchesSerial: Config.Parallelism has no effect — a stage's
// parallelism is its channel count. A TPC-H join whose output no sort
// reorders, and an aggregate query, run at Parallelism 1 and 4 return the
// same bytes from the same number of tasks. Stagewise execution with a
// static batch makes each channel's lineage — which inputs its tasks take,
// in which order — a function of the plan and the data alone, so the runs
// can be compared byte for byte.
func TestParallelismMatchesSerial(t *testing.T) {
	const sf = 0.002
	cl, err := cluster.New(cluster.Options{Workers: 3, Cost: storage.TestCostModel()})
	if err != nil {
		t.Fatal(err)
	}
	tpch.Load(cl.ObjStore, tpch.Generate(sf), 256)

	join := plan.Project(
		plan.Join(ops.InnerJoin, plan.Shuffle, plan.Scan("orders"), []string{"o_orderkey"},
			plan.Scan("lineitem"), []string{"l_orderkey"}),
		ops.KeepCols("l_orderkey", "l_linenumber", "o_custkey", "l_extendedprice")...)
	opt, err := plan.Optimize(join, tpch.Catalog(sf))
	if err != nil {
		t.Fatal(err)
	}
	joinPlan, err := plan.Lower(opt, plan.Optimized)
	if err != nil {
		t.Fatal(err)
	}
	q1, err := tpch.Query(1)
	if err != nil {
		t.Fatal(err)
	}

	for name, p := range map[string]*engine.Plan{"join": joinPlan, "q1": q1} {
		var want []byte
		var wantTasks int64
		for _, par := range []int{1, 4} {
			cfg := engine.DefaultConfig()
			cfg.Execution, cfg.Dynamic = engine.Stagewise, false
			cfg.Parallelism = par
			r, err := engine.NewRunner(cl, p, cfg)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			out, rep, err := r.Run(ctx)
			cancel()
			if err != nil {
				t.Fatalf("%s at Parallelism %d: %v", name, par, err)
			}
			got, tasks := batch.Encode(out), rep.Metrics[metrics.TasksExecuted]
			if out.NumRows() == 0 || tasks == 0 {
				t.Fatalf("%s at Parallelism %d: %d rows from %d tasks", name, par, out.NumRows(), tasks)
			}
			if par == 1 {
				want, wantTasks = got, tasks
				continue
			}
			if string(got) != string(want) {
				t.Errorf("%s: Parallelism %d returned other bytes than Parallelism 1", name, par)
			}
			if tasks != wantTasks {
				t.Errorf("%s: Parallelism %d ran %d tasks, Parallelism 1 %d", name, par, tasks, wantTasks)
			}
			if n := rep.Metrics[metrics.PartitionTasks]; n != 0 {
				t.Errorf("%s: %d partition tasks at Parallelism %d", name, n, par)
			}
		}
	}
}
