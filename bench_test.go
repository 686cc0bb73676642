package quokka

// Benchmark harness: one testing.B benchmark per table/figure of the
// paper's evaluation (§V), in modelled time. These run reduced
// configurations so that `go test -bench=.` finishes in minutes;
// `cmd/quokka-bench` runs the full-size versions and prints the paper-style
// tables. Real-time measurement is benchmark/run.sh.

import (
	"io"
	"strconv"
	"testing"

	"quokka/internal/batch"
	"quokka/internal/bench"
	"quokka/internal/expr"
	"quokka/internal/ops"
)

// benchParams returns a reduced configuration for in-test benchmarks.
func benchParams() bench.Params {
	p := bench.DefaultParams(io.Discard)
	p.SF = 0.005
	p.SplitRows = 256
	p.TimeScale = 0.25
	return p
}

var benchHarness *bench.Harness

func harness(b *testing.B) *bench.Harness {
	b.Helper()
	if benchHarness == nil {
		benchHarness = bench.New(benchParams())
	}
	return benchHarness
}

// BenchmarkTable1 renders the fault-tolerance design matrix (Table I).
func BenchmarkTable1(b *testing.B) {
	h := harness(b)
	for i := 0; i < b.N; i++ {
		h.Table1()
	}
}

// BenchmarkFig6 compares Quokka vs the SparkSQL- and Trino-like baselines
// on a representative query subset (Figure 6).
func BenchmarkFig6(b *testing.B) {
	if testing.Short() {
		b.Skip("skipping heavyweight figure benchmark in short mode (CI smoke)")
	}
	h := harness(b)
	for i := 0; i < b.N; i++ {
		if _, err := h.Fig6(4, []int{1, 3, 5, 9}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7 measures pipelined vs stagewise execution (Figure 7).
func BenchmarkFig7(b *testing.B) {
	h := harness(b)
	for i := 0; i < b.N; i++ {
		if _, err := h.Fig7(4); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig8 measures dynamic vs static task dependencies (Figure 8).
func BenchmarkFig8(b *testing.B) {
	h := harness(b)
	for i := 0; i < b.N; i++ {
		if _, err := h.Fig8(4); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig9 measures fault-tolerance overhead: spooling vs
// write-ahead lineage (Figure 9).
func BenchmarkFig9(b *testing.B) {
	if testing.Short() {
		b.Skip("skipping heavyweight figure benchmark in short mode (CI smoke)")
	}
	h := harness(b)
	for i := 0; i < b.N; i++ {
		if _, err := h.Fig9(4); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCheckpointAblation measures checkpointing overhead (§V-C).
func BenchmarkCheckpointAblation(b *testing.B) {
	if testing.Short() {
		b.Skip("skipping heavyweight figure benchmark in short mode (CI smoke)")
	}
	h := harness(b)
	for i := 0; i < b.N; i++ {
		if _, err := h.CheckpointAblation(4); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig10a measures recovery overhead with a worker killed at 50%
// (Figure 10a), on a reduced cluster.
func BenchmarkFig10a(b *testing.B) {
	if testing.Short() {
		b.Skip("skipping heavyweight figure benchmark in short mode (CI smoke)")
	}
	h := harness(b)
	for i := 0; i < b.N; i++ {
		if _, err := h.Fig10a(8); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig10b runs the TPC-H Q9 failure-point case study (Figure 10b).
func BenchmarkFig10b(b *testing.B) {
	if testing.Short() {
		b.Skip("skipping heavyweight figure benchmark in short mode (CI smoke)")
	}
	h := harness(b)
	for i := 0; i < b.N; i++ {
		if _, err := h.Fig10b(8); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig11a measures speedups on a wider cluster (Figure 11a,
// reduced from 32 to 16 workers for bench time).
func BenchmarkFig11a(b *testing.B) {
	if testing.Short() {
		b.Skip("skipping heavyweight figure benchmark in short mode (CI smoke)")
	}
	h := harness(b)
	for i := 0; i < b.N; i++ {
		if _, err := h.Fig6(16, []int{1, 3, 5, 9}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig11b measures recovery overhead on the wider cluster
// (Figure 11b).
func BenchmarkFig11b(b *testing.B) {
	if testing.Short() {
		b.Skip("skipping heavyweight figure benchmark in short mode (CI smoke)")
	}
	h := harness(b)
	for i := 0; i < b.N; i++ {
		if _, err := h.Fig10a(16); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Morsel-parallel operator benchmarks -------------------------------
//
// These measure the real (not cost-modelled) kernel speedup of partition-
// parallel hash join and hash aggregation: the same workload on the serial
// operator vs split into 4 hash partitions on a 4-slot CPU pool, the
// engine's configuration at CPUPerWorker=4.

func morselJoinData() (build, probe *batch.Batch) {
	const nBuild, nProbe = 100_000, 200_000
	bs := batch.NewSchema(batch.F("k", batch.Int64), batch.F("name", batch.String))
	bk := make([]int64, nBuild)
	bn := make([]string, nBuild)
	for i := range bk {
		bk[i] = int64(i)
		bn[i] = "name-" + strconv.Itoa(i%1000)
	}
	ps := batch.NewSchema(batch.F("k", batch.Int64), batch.F("v", batch.Float64))
	pk := make([]int64, nProbe)
	pv := make([]float64, nProbe)
	for i := range pk {
		pk[i] = int64(i % (nBuild * 2)) // half the probes miss
		pv[i] = float64(i)
	}
	build = batch.MustNew(bs, []*batch.Column{batch.NewIntColumn(bk), batch.NewStringColumn(bn)})
	probe = batch.MustNew(ps, []*batch.Column{batch.NewIntColumn(pk), batch.NewFloatColumn(pv)})
	return build, probe
}

func benchMorselJoin(b *testing.B, partitions int) {
	build, probe := morselJoinData()
	spec := ops.NewHashJoinSpec(ops.InnerJoin, []string{"k"}, []string{"k"}).(ops.ParallelSpec)
	pool := ops.NewPool(make(chan struct{}, 4), nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op := spec.NewParallel(0, 1, partitions, pool)
		if _, err := op.Consume(0, build); err != nil {
			b.Fatal(err)
		}
		out, err := op.Consume(1, probe)
		if err != nil {
			b.Fatal(err)
		}
		rows := 0
		for _, o := range out {
			rows += o.NumRows()
		}
		if rows != probe.NumRows()/2 {
			b.Fatalf("join rows = %d", rows)
		}
	}
}

// BenchmarkMorselJoinSerial is the single-threaded hash join baseline.
func BenchmarkMorselJoinSerial(b *testing.B) { benchMorselJoin(b, 1) }

// BenchmarkMorselJoinParallel4 runs the same join split into 4 hash
// partitions on 4 CPU slots; the acceptance bar is >= 1.5x the serial
// baseline on the same machine.
func BenchmarkMorselJoinParallel4(b *testing.B) { benchMorselJoin(b, 4) }

func benchMorselAgg(b *testing.B, partitions int) {
	const nRows, nGroups = 400_000, 100_000
	s := batch.NewSchema(batch.F("g", batch.Int64), batch.F("v", batch.Float64))
	gs := make([]int64, nRows)
	vs := make([]float64, nRows)
	for i := range gs {
		gs[i] = int64(i % nGroups)
		vs[i] = float64(i)
	}
	in := batch.MustNew(s, []*batch.Column{batch.NewIntColumn(gs), batch.NewFloatColumn(vs)})
	spec := ops.NewHashAggSpec([]string{"g"}, ops.Sum("s", expr.C("v")), ops.CountStar("c")).(ops.ParallelSpec)
	pool := ops.NewPool(make(chan struct{}, 4), nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op := spec.NewParallel(0, 1, partitions, pool)
		if _, err := op.Consume(0, in); err != nil {
			b.Fatal(err)
		}
		out, err := op.Finalize()
		if err != nil {
			b.Fatal(err)
		}
		if len(out) != 1 || out[0].NumRows() != nGroups {
			b.Fatalf("agg output: %v", out)
		}
	}
}

// BenchmarkMorselAggSerial is the single-threaded hash aggregation baseline.
func BenchmarkMorselAggSerial(b *testing.B) { benchMorselAgg(b, 1) }

// BenchmarkMorselAggParallel4 runs the same aggregation split into 4 hash
// partitions on 4 CPU slots.
func BenchmarkMorselAggParallel4(b *testing.B) { benchMorselAgg(b, 4) }
