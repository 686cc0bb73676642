package quokka

// Benchmark harness: one testing.B benchmark per table/figure of the
// paper's evaluation (§V), in modelled time. These run reduced
// configurations so that `go test -bench=.` finishes in minutes;
// `cmd/quokka-bench` runs the full-size versions and prints the paper-style
// tables. Real-time measurement is benchmark/run.sh.

import (
	"io"
	"testing"

	"quokka/internal/bench"
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
