package tpch

// Byte-engine coverage on the real workload: compression transparency
// (shuffle/spill/table bytes shrink, results don't change), zone-map split
// pruning correctness across TPC-H shapes, and fault recovery with the
// compressed codec active end to end.

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"quokka/internal/batch"
	"quokka/internal/cluster"
	"quokka/internal/engine"
	"quokka/internal/expr"
	"quokka/internal/metrics"
	"quokka/internal/ops"
	"quokka/internal/plan"
)

// runPlanRep executes a prebuilt physical plan and returns both the result
// and the per-query report (runQuery discards the report).
func runPlanRep(t *testing.T, cl *cluster.Cluster, p *engine.Plan, cfg engine.Config) (*batch.Batch, *engine.Report) {
	t.Helper()
	r, err := engine.NewRunner(cl, p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	out, rep, err := r.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	return out, rep
}

// prunedQuery plans query q against the cluster's own store catalog, so
// the optimizer sees the zone maps WriteTable recorded and the pruning
// pass is live (the static spec catalog used by Query has no split stats).
func prunedQuery(t *testing.T, cl *cluster.Cluster, q int) *engine.Plan {
	t.Helper()
	node, err := LogicalQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := plan.Optimize(node, plan.NewStoreCatalog(cl.ObjStore))
	if err != nil {
		t.Fatal(err)
	}
	p, err := plan.Lower(opt, plan.Optimized)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestCompressionTransparent is the race-job gate for the byte engine's
// core contract: the compressed (QBA2) codec on shuffle, spool and spill
// must not change any query result, while actually shrinking the bytes on
// the wire. Runs each query on a compression-on cluster (the default) and
// a cluster opted out to encoding 0 via the options API.
func TestCompressionTransparent(t *testing.T) {
	cfg := engine.DefaultConfig()
	cfg.Parallelism = 4
	cfg.MemoryBudget = 32 << 10 // force spilling so compressed runs are exercised
	// Only pieces read on another worker are encoded (the rest are elided), and
	// a query whose are a few hundred bytes of partial aggregates gives no codec
	// anything to shrink: raw and wire bytes are summed over every query's
	// encoded pieces, and the sums compared once all have run.
	var mu sync.Mutex
	var raw, wire int64
	t.Cleanup(func() {
		if wire <= 0 || wire >= raw {
			t.Errorf("compressed shuffle did not shrink over all queries: wire=%d raw=%d", wire, raw)
		}
	})
	for _, q := range []int{1, 3, 6, 18} {
		q := q
		t.Run("Q"+itoa(q), func(t *testing.T) {
			t.Parallel()
			on := loadCluster(t, 4)
			off := loadCluster(t, 4)
			engine.Configure(off, engine.WithShuffleCompression(false), engine.WithSpillCompression(false))
			p, err := Query(q)
			if err != nil {
				t.Fatal(err)
			}
			wantOut, wantRep := runPlanRep(t, off, p, cfg)
			gotOut, gotRep := runPlanRep(t, on, p, cfg)
			assertSameResult(t, q, wantOut, gotOut)
			// Encoding 0 is the identity: wire == raw on the opt-out cluster.
			// (Raw totals are only near-equal across the two runs — dynamic
			// batch boundaries change framing overhead — so the invariants
			// are per-run.)
			if w, r := wantRep.Metrics[metrics.ShuffleWireBytes], wantRep.Metrics[metrics.ShuffleRawBytes]; w != r {
				t.Errorf("q%d: encoding-0 wire bytes %d != raw %d", q, w, r)
			}
			mu.Lock()
			raw += gotRep.Metrics[metrics.ShuffleRawBytes]
			wire += gotRep.Metrics[metrics.ShuffleWireBytes]
			mu.Unlock()
			if spilled := gotRep.Metrics[metrics.SpillWriteBytes]; spilled > 0 {
				if wire := gotRep.Metrics[metrics.SpillWireBytes]; wire <= 0 || wire >= spilled {
					t.Errorf("q%d: compressed spill runs did not shrink: wire=%d raw=%d", q, wire, spilled)
				}
			}
		})
	}
}

// TestZoneMapPruningSweep runs pruned plans (planned against the store
// catalog, zone maps live) against the unpruned baseline (the static spec
// catalog) across parallelism and memory-budget configurations. Results
// must be equal in every cell: pruning may only drop splits no row of
// which can pass the scan predicate.
func TestZoneMapPruningSweep(t *testing.T) {
	for _, par := range []int{1, 4} {
		for _, budget := range []int64{0, 32 << 10} {
			par, budget := par, budget
			name := "par" + itoa(par)
			if budget > 0 {
				name += "-budget32k"
			}
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				cl := loadCluster(t, 4)
				cfg := engine.DefaultConfig()
				cfg.Parallelism = par
				cfg.MemoryBudget = budget
				for _, q := range []int{1, 3, 6, 9, 18} {
					want := runQuery(t, cl, q, cfg) // static catalog: no pruning
					got, _ := runPlanRep(t, cl, prunedQuery(t, cl, q), cfg)
					assertSameResult(t, q, want, got)
				}
			})
		}
	}
}

// selectiveScan is a Q6-style selective scan the split layout can actually
// serve: l_orderkey is clustered (lineitem is generated in orderkey order,
// so each 256-row split covers a narrow key range), and the predicate
// keeps only the lowest tenth of the key space. Zone maps must prune the
// vast majority of splits.
func selectiveScan(hi int64) *plan.Node {
	f := plan.Filter(plan.Scan("lineitem"), expr.And(
		expr.Lt(expr.C("l_orderkey"), expr.Int64(hi)),
		expr.Lt(expr.C("l_quantity"), expr.Float64(24)),
	))
	return plan.Agg(f, nil,
		ops.Sum("qty", expr.C("l_quantity")),
		ops.CountStar("n"))
}

func TestZoneMapPruningPrunesClusteredScan(t *testing.T) {
	cl := loadCluster(t, 4)
	nOrders := int64(testData.Orders.NumRows())
	node := selectiveScan(nOrders / 10)
	cat := plan.NewStoreCatalog(cl.ObjStore)
	opt, err := plan.Optimize(node, cat)
	if err != nil {
		t.Fatal(err)
	}
	// EXPLAIN shows the survivor count on the scan line.
	if ex := plan.Explain(opt); !strings.Contains(ex, "splits=") {
		t.Fatalf("EXPLAIN missing pruned-split annotation:\n%s", ex)
	}
	pruned, err := plan.Lower(opt, plan.Optimized)
	if err != nil {
		t.Fatal(err)
	}

	// Baseline: same logical query, planned without split statistics.
	base, err := plan.Optimize(selectiveScan(nOrders/10), Catalog(1))
	if err != nil {
		t.Fatal(err)
	}
	baseline, err := plan.Lower(base, plan.Optimized)
	if err != nil {
		t.Fatal(err)
	}

	cfg := engine.DefaultConfig()
	want, wantRep := runPlanRep(t, cl, baseline, cfg)
	got, gotRep := runPlanRep(t, cl, pruned, cfg)
	if string(batch.Encode(want)) != string(batch.Encode(got)) {
		t.Fatalf("pruned result differs:\n%s\nvs\n%s", got, want)
	}
	if wantRep.Metrics[metrics.ScanSplitsPruned] != 0 {
		t.Errorf("baseline pruned %d splits, want 0", wantRep.Metrics[metrics.ScanSplitsPruned])
	}
	prunedN := gotRep.Metrics[metrics.ScanSplitsPruned]
	total := int64((testData.Lineitem.NumRows() + 255) / 256)
	if prunedN*10 < total*3 { // the acceptance bar: ≥30% of splits skipped
		t.Errorf("pruned %d of %d splits, want ≥30%%", prunedN, total)
	}
	// The fused projection drops most lineitem columns; the reader must
	// skip their payloads instead of decoding them.
	if gotRep.Metrics[metrics.ScanBytesSkipped] <= 0 {
		t.Error("no scan bytes skipped despite column-pruned reader")
	}
}

// TestCompressedFaultRecovery kills a worker mid-query while both the
// compressed spill path (tight memory budget) and compressed shuffle are
// active: replay must rebuild the same result from compressed backups.
func TestCompressedFaultRecovery(t *testing.T) {
	cfg := engine.DefaultConfig()
	cfg.Parallelism = 4
	cfg.CPUPerWorker = 4
	cfg.MemoryBudget = 32 << 10
	want := runQuery(t, loadCluster(t, 4), 9, cfg)
	got := runQueryWithKill(t, loadCluster(t, 4), 9, cfg, 2, 25)
	assertSameResult(t, 9, want, got)
}
