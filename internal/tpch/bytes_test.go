package tpch

// Byte-engine coverage on the real workload: compression transparency
// (shuffle/spill/table bytes shrink, results don't change), zone-map split
// pruning correctness across TPC-H shapes, and fault recovery with the
// compressed codec active end to end.

import (
	"context"
	"encoding/binary"
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
	opt, err := plan.Optimize(node, plan.NewStoreCatalog(cl.HeadObjs), len(cl.Workers))
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
// the wire. Runs each query under a small memory budget, so it spills
// compressed runs, and compares its result with an unspilled run (budget 0).
func TestCompressionTransparent(t *testing.T) {
	cfg := engine.DefaultConfig()
	cfg.Parallelism = 4
	cfg.MemoryBudget = 32 << 10 // force spilling so compressed runs are exercised
	unspilled := cfg
	unspilled.MemoryBudget = 0
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
			cl := loadCluster(t, 4)
			p, err := Query(q)
			if err != nil {
				t.Fatal(err)
			}
			wantOut, _ := runPlanRep(t, cl, p, unspilled)
			gotOut, gotRep := runPlanRep(t, cl, p, cfg)
			assertSameResult(t, q, wantOut, gotOut)
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
	cat := plan.NewStoreCatalog(cl.HeadObjs)
	opt, err := plan.Optimize(node, cat, len(cl.Workers))
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
	base, err := plan.Optimize(selectiveScan(nOrders/10), Catalog(1), len(cl.Workers))
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

// parentTableBytes is what every table at SF 0.03 cut into 32,768-row
// splits stored before QBA2 had bit-packed encodings (5-7): 8,178,050 bytes.
// packedTableBytes is what they stored with 5-7 but before decimals (8).
const (
	parentTableBytes = 8_178_050
	packedTableBytes = 6_730_632
)

// frameCol is one column of a QBA2 frame: its encoding and payload.
type frameCol struct {
	enc     byte
	payload []byte
}

// frameColumns reads a QBA2 frame's header: each column by name.
func frameColumns(frame []byte) map[string]frameCol {
	u32 := func(at int) int { return int(binary.LittleEndian.Uint32(frame[at:])) }
	var names []string
	var encs []byte
	var lens []int
	pos := 8
	for range u32(4) {
		nl := u32(pos)
		names = append(names, string(frame[pos+4:pos+4+nl]))
		encs = append(encs, frame[pos+4+nl+1])
		lens = append(lens, u32(pos+4+nl+2))
		pos += 4 + nl + 6
	}
	pos += 4 // nrows
	cols := map[string]frameCol{}
	for i, name := range names {
		cols[name] = frameCol{encs[i], frame[pos : pos+lens[i]]}
		pos += lens[i]
	}
	return cols
}

// packedBits is the bits a row a packed float or string column costs: the
// index width of a packed dictionary (encoding 7), or the integer and
// correction widths of a decimal column (encoding 8) together.
func packedBits(t *testing.T, col frameCol, strs bool) int {
	switch col.enc {
	case 7:
		// The width byte follows the dictionary: ndict, then each entry's
		// length and bytes (strings) or bit pattern (floats).
		nd := binary.LittleEndian.Uint32(col.payload)
		at := 4 + 8*int(nd)
		if strs {
			at = 4
			for range nd {
				at += 4 + int(binary.LittleEndian.Uint32(col.payload[at:]))
			}
		}
		return int(col.payload[at])
	case 8:
		return int(col.payload[9]) + int(col.payload[18])
	}
	t.Errorf("encoding %d is not packed", col.enc)
	return 64
}

// TestStoredTableBytes pins what bit-packing and decimals save on the stored
// tables at SF 0.03 in 32,768-row splits — every byte a scan reads — and
// where it comes from: the low-cardinality lineitem strings are packed
// dictionary indexes (encoding 7) of at most 3 bits a row, l_orderkey,
// sorted with small steps, is delta-for (encoding 6), l_extendedprice is
// decimal (encoding 8) of at most 27 bits a row, and l_discount costs 4.
func TestStoredTableBytes(t *testing.T) {
	total := 0
	for name, table := range Generate(0.03).Tables() {
		for i, split := range table.SplitRows(32768) {
			frame := batch.EncodeCompressed(split)
			total += len(frame)
			if name != "lineitem" {
				continue
			}
			cols := frameColumns(frame)
			for _, c := range []string{"l_returnflag", "l_linestatus", "l_shipmode", "l_shipinstruct"} {
				col := cols[c]
				if col.enc != 7 {
					t.Errorf("lineitem split %d: %s in encoding %d, want 7 (dict-packed)", i, c, col.enc)
					continue
				}
				if w := packedBits(t, col, true); w > 3 {
					t.Errorf("lineitem split %d: %s packed at %d bits a row, want at most 3", i, c, w)
				}
			}
			if enc := cols["l_orderkey"].enc; enc != 6 {
				t.Errorf("lineitem split %d: l_orderkey in encoding %d, want 6 (delta-for)", i, enc)
			}
			if col := cols["l_extendedprice"]; col.enc != 8 {
				t.Errorf("lineitem split %d: l_extendedprice in encoding %d, want 8 (decimal)", i, col.enc)
			} else if w := packedBits(t, col, false); w > 27 {
				t.Errorf("lineitem split %d: l_extendedprice packed at %d bits a row, want at most 27", i, w)
			}
			if col := cols["l_discount"]; col.enc != 7 && col.enc != 8 {
				t.Errorf("lineitem split %d: l_discount in encoding %d, want a packed one", i, col.enc)
			} else if w := packedBits(t, col, false); w != 4 {
				t.Errorf("lineitem split %d: l_discount packed at %d bits a row, want 4", i, w)
			}
		}
	}
	t.Logf("stored table bytes: %d (%d before bit-packing, %.1f%% less; %d before decimals, %.1f%% less)",
		total, parentTableBytes, 100*(1-float64(total)/parentTableBytes),
		packedTableBytes, 100*(1-float64(total)/packedTableBytes))
	if total*100 > parentTableBytes*85 {
		t.Errorf("stored table bytes %d, want at most 85%% of %d", total, parentTableBytes)
	}
	if total*100 > packedTableBytes*90 {
		t.Errorf("stored table bytes %d, want at most 90%% of %d", total, packedTableBytes)
	}
}

// TestPlannerMovesFewerBytes guards the planner's data movement, counted as
// the payload bytes pushed to another worker (net.bytes.modelled: a
// broadcast piece counts once for every remote channel it reaches). Q3, Q5
// and Q21, planned for the cluster they run on, move at most half the bytes
// they move when every Auto join is forced to shuffle and lowering reuses no
// partitioning (plan.Unpartitioned) — the plans before relative-size
// broadcasts and partitioning reuse — on 2 and 4 workers, and no more on 16,
// where a broadcast copies its build side 15 times. Results must not change.
func TestPlannerMovesFewerBytes(t *testing.T) {
	shuffleAll := func(q, workers int) *engine.Plan {
		node, err := LogicalQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		seen := make(map[*plan.Node]bool)
		var walk func(n *plan.Node)
		walk = func(n *plan.Node) {
			if seen[n] {
				return
			}
			seen[n] = true
			if n.Kind == plan.KindJoin && n.Strategy == plan.Auto {
				n.Strategy = plan.Shuffle
			}
			for _, in := range n.Inputs {
				walk(in)
			}
		}
		walk(node)
		opt, err := plan.Optimize(node, Catalog(1), workers)
		if err != nil {
			t.Fatal(err)
		}
		p, err := plan.Lower(opt, plan.Unpartitioned)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	for _, tc := range []struct{ workers, ratio int64 }{{2, 2}, {4, 2}, {16, 1}} {
		var got, base int64
		for _, q := range []int{3, 5, 21} {
			p, err := QueryOn(q, int(tc.workers))
			if err != nil {
				t.Fatal(err)
			}
			cfg := engine.DefaultConfig()
			wantOut, baseRep := runPlanRep(t, loadCluster(t, int(tc.workers)), shuffleAll(q, int(tc.workers)), cfg)
			gotOut, gotRep := runPlanRep(t, loadCluster(t, int(tc.workers)), p, cfg)
			assertSameResult(t, q, wantOut, gotOut)
			g, b := gotRep.Metrics[metrics.NetBytesModelled], baseRep.Metrics[metrics.NetBytesModelled]
			t.Logf("%d workers, Q%d: %d bytes to other workers, %d with every join shuffled and no partitioning reuse",
				tc.workers, q, g, b)
			got += g
			base += b
		}
		if got <= 0 || tc.ratio*got > base {
			t.Errorf("%d workers: Q3, Q5 and Q21 moved %d bytes to other workers, want at most 1/%d of %d",
				tc.workers, got, tc.ratio, base)
		}
	}
}
