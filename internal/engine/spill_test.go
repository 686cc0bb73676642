package engine

import (
	"fmt"
	"testing"

	"quokka/internal/batch"
	"quokka/internal/cluster"
	"quokka/internal/expr"
	"quokka/internal/metrics"
	"quokka/internal/ops"
)

// Engine-level memory governance: queries under a per-worker budget spill
// operator state through the workers' local disks and still produce
// byte-identical results — across budgets (unlimited / tight /
// pathological), operator parallelism, and worker failures — with no spill
// file outliving its query.
//
// The float aggregates below use integer-valued floats, whose summation is
// exact in any order: the engine's dynamic input choice already reorders
// rows run-to-run, so cross-RUN byte identity requires order-insensitive
// values. Bit-exactness of float summation ORDER under spilling is pinned
// separately at the operator level (ops.TestAggSpillMatchesInMemory).

// spillTables: a build table big enough to dwarf tight budgets (distinct
// string-tagged keys) and a probe side with multi-matches and misses.
func spillTables(buildRows, probeRows int) map[string][]*batch.Batch {
	bs := batch.NewSchema(batch.F("k", batch.Int64), batch.F("tag", batch.String))
	var builds []*batch.Batch
	per := 200
	for lo := 0; lo < buildRows; lo += per {
		hi := lo + per
		if hi > buildRows {
			hi = buildRows
		}
		ks := make([]int64, hi-lo)
		ts := make([]string, hi-lo)
		for j := range ks {
			ks[j] = int64(lo + j)
			ts[j] = fmt.Sprintf("tag-%03d", (lo+j)%97)
		}
		builds = append(builds, batch.MustNew(bs, []*batch.Column{
			batch.NewIntColumn(ks), batch.NewStringColumn(ts)}))
	}
	ps := batch.NewSchema(batch.F("pk", batch.Int64), batch.F("v", batch.Float64))
	var probes []*batch.Batch
	for lo := 0; lo < probeRows; lo += per {
		hi := lo + per
		if hi > probeRows {
			hi = probeRows
		}
		ks := make([]int64, hi-lo)
		vs := make([]float64, hi-lo)
		for j := range ks {
			i := lo + j
			ks[j] = int64((i * 7) % (buildRows + buildRows/4)) // some misses
			vs[j] = float64(i % 11)                            // exact in any summation order
		}
		probes = append(probes, batch.MustNew(ps, []*batch.Column{
			batch.NewIntColumn(ks), batch.NewFloatColumn(vs)}))
	}
	return map[string][]*batch.Batch{"build": builds, "probe": probes}
}

// spillJoinAggPlan: probe JOIN build ON pk=k, grouped by tag.
func spillJoinAggPlan() *Plan {
	return MustPlan(
		&Stage{ID: 0, Name: "read-build", Reader: &ReaderSpec{Table: "build"}},
		&Stage{ID: 1, Name: "read-probe", Reader: &ReaderSpec{Table: "probe"}},
		&Stage{ID: 2, Name: "join",
			Op: ops.NewHashJoinSpec(ops.InnerJoin, []string{"k"}, []string{"pk"}),
			Inputs: []StageInput{
				{Stage: 0, Part: Hash("k"), Phase: 0},
				{Stage: 1, Part: Hash("pk"), Phase: 1},
			}},
		&Stage{ID: 3, Name: "agg", Parallelism: 1,
			Op:     ops.NewHashAggSpec([]string{"tag"}, ops.CountStar("c"), ops.Sum("sv", expr.C("v"))),
			Inputs: []StageInput{{Stage: 2, Part: Single()}}},
	)
}

// spillSortPlan: full ORDER BY over the numbers table.
func spillSortPlan() *Plan {
	return MustPlan(
		&Stage{ID: 0, Name: "read", Reader: &ReaderSpec{Table: "numbers"}},
		&Stage{ID: 1, Name: "sort", Parallelism: 1,
			Op:     ops.NewSortSpec(ops.Desc("v"), ops.Asc("id")),
			Inputs: []StageInput{{Stage: 0, Part: Single()}}},
	)
}

func assertNoSpillFiles(t *testing.T, cl *cluster.Cluster, label string) {
	t.Helper()
	for _, w := range cl.Workers {
		if !w.Alive() {
			continue
		}
		if n := w.Disk.UsedBytesPrefix("spill/"); n != 0 {
			t.Errorf("%s: worker %d leaked %d spill bytes: %v",
				label, w.ID, n, w.Disk.List("spill/"))
		}
	}
}

// TestSpillBudgetSweepByteIdentical is the central engine guarantee: the
// same query under unlimited, tight, and pathological single-batch
// budgets — at Parallelism 1 and 4, which must not matter — produces
// byte-identical results, actually spills when constrained, and leaves no
// spill files behind.
func TestSpillBudgetSweepByteIdentical(t *testing.T) {
	tables := spillTables(3000, 4000)
	plans := map[string]func() *Plan{
		"joinAgg": spillJoinAggPlan,
		"sort":    spillSortPlan,
	}
	numbers := map[string][]*batch.Batch{"numbers": numbersTable(3000, 12)}
	for name, mkPlan := range plans {
		data := tables
		if name == "sort" {
			data = numbers
		}
		for _, par := range []int{1, 4} {
			var want []byte
			for _, budget := range []int64{0, 16_000, 600} {
				cfg := DefaultConfig()
				cfg.Parallelism = par
				cfg.MemoryBudget = budget
				cl := testCluster(t, 4, data)
				out, rep := runPlan(t, cl, mkPlan(), cfg)
				enc := batch.Encode(out)
				if budget == 0 {
					want = enc
					if rep.Metrics[metrics.SpillRuns] != 0 {
						t.Errorf("%s/par%d: unlimited budget spilled", name, par)
					}
				} else {
					if string(enc) != string(want) {
						t.Errorf("%s/par%d/budget%d: result differs from unlimited-budget run",
							name, par, budget)
					}
					if rep.Metrics[metrics.SpillRuns] == 0 {
						t.Errorf("%s/par%d/budget%d: expected spilling, saw none", name, par, budget)
					}
					if rep.Metrics[metrics.SpillWriteBytes] == 0 {
						t.Errorf("%s/par%d/budget%d: spill bytes not counted: %v",
							name, par, budget, rep.Metrics)
					}
					// spill.partitions tracks hash-partition fan-out only
					// (external-sort runs are sequential, not partitions).
					if name == "joinAgg" && rep.Metrics[metrics.SpillPartitions] == 0 {
						t.Errorf("%s/par%d/budget%d: spill partitions not counted: %v",
							name, par, budget, rep.Metrics)
					}
				}
				assertNoSpillFiles(t, cl, fmt.Sprintf("%s/par%d/budget%d", name, par, budget))
			}
		}
	}
}

// TestSpillPeakBoundedByBudget asserts what the accountant guarantees. What it
// admits (TryGrow) fits the budget; what is forced past it — a reservation
// settled to the operator's real size, a partition made resident at the end of
// the recursion, a merge source's chunk — stacks on top of a full budget when
// channels of one worker run at once. So: serially the
// accounted high-water mark respects a workable budget outright, and in the
// default configuration whatever it has above the budget, forced grows put
// there (spill.forced.peak.bytes is how far they went).
func TestSpillPeakBoundedByBudget(t *testing.T) {
	const budget = 16_000
	for _, serial := range []bool{true, false} {
		cfg := DefaultConfig()
		cfg.MemoryBudget = budget
		if serial {
			cfg.ThreadsPerWorker, cfg.Parallelism = 1, 1
		}
		cl := testCluster(t, 4, spillTables(3000, 4000))
		_, rep := runPlan(t, cl, spillJoinAggPlan(), cfg)
		if rep.Metrics[metrics.SpillRuns] == 0 {
			t.Fatal("expected spilling at tight budget")
		}
		peak, forced := rep.Metrics[metrics.SpillPeakBytes], rep.Metrics[metrics.SpillForcedPeak]
		if serial {
			forced = 0
		}
		if peak > budget+forced {
			t.Errorf("serial=%v: accounted peak %d exceeds per-worker budget %d by more than the %d forced bytes",
				serial, peak, budget, forced)
		}
	}
}

// TestSpillNoLeakAcrossRepeatedQueries: with fault tolerance off, spill
// runs are the ONLY local-disk writes, so total UsedBytes must return to
// zero after every query — repeated runs on one cluster cannot
// accumulate anything. (Under FT modes, bk/ backups legitimately persist
// and their task counts jitter with dynamic scheduling, so the no-leak
// assertion there is the spill-prefix check in the other tests.)
func TestSpillNoLeakAcrossRepeatedQueries(t *testing.T) {
	cfg := DefaultConfig()
	cfg.FT = FTNone
	cfg.MemoryBudget = 16_000
	cl := testCluster(t, 4, spillTables(3000, 4000))
	var first []byte
	for i := 0; i < 3; i++ {
		out, rep := runPlan(t, cl, spillJoinAggPlan(), cfg)
		if rep.Metrics[metrics.SpillRuns] == 0 {
			t.Fatal("expected spilling")
		}
		for _, w := range cl.Workers {
			if n := w.Disk.UsedBytes(); n != 0 {
				t.Errorf("run %d: worker %d holds %d disk bytes after completion: %v",
					i, w.ID, n, w.Disk.List(""))
			}
		}
		if i == 0 {
			first = batch.Encode(out)
		} else if string(batch.Encode(out)) != string(first) {
			t.Error("repeated query changed its result")
		}
	}
}

// TestSpillFaultMidQuery: a worker dies while operators are actively
// spilling; recovery replays lineage onto fresh operators (with fresh
// spill namespaces — stale pre-failure run files are on disk and must be
// ignored and swept) and the result is byte-identical to the failure-free
// unlimited-budget run.
func TestSpillFaultMidQuery(t *testing.T) {
	tables := spillTables(3000, 4000)
	clean := testCluster(t, 4, tables)
	wantOut, _ := runPlan(t, clean, spillJoinAggPlan(), DefaultConfig())
	want := batch.Encode(wantOut)

	for _, par := range []int{1, 4} {
		cfg := DefaultConfig()
		cfg.Parallelism = par
		cfg.MemoryBudget = 16_000
		faulty := testCluster(t, 4, tables)
		out, rep, err := runWithFailure(t, faulty, spillJoinAggPlan(), cfg, 1, 6)
		if err != nil {
			t.Fatalf("par%d: %v", par, err)
		}
		if rep.Recoveries == 0 {
			t.Errorf("par%d: worker killed but no recovery ran", par)
		}
		if rep.Metrics[metrics.SpillRuns] == 0 {
			t.Errorf("par%d: expected spilling during the faulty run", par)
		}
		if got := batch.Encode(out); string(got) != string(want) {
			t.Errorf("par%d: result with failure differs from failure-free unlimited run", par)
		}
		assertNoSpillFiles(t, faulty, fmt.Sprintf("fault/par%d", par))
	}
}
