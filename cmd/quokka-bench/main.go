// Command quokka-bench regenerates the paper's evaluation tables and
// figures (§V) on the simulated cluster, in modelled time: the cost model
// sleeps for I/O and compute, and every table says so under its title.
// Each experiment prints the same rows/series as the corresponding figure;
// shapes (who wins, by what factor) are the reproduction target, not
// absolute seconds. Real-time measurement is benchmark/run.sh.
//
// Usage:
//
//	quokka-bench -exp all                      # every experiment (slow)
//	quokka-bench -exp fig6 -workers 4          # one experiment
//	quokka-bench -exp fig9 -sf 0.05 -repeats 3
//
// The experiments slice below is the list of names -exp accepts.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"strings"

	"quokka/internal/bench"
	"quokka/internal/tpch"
)

// options are the per-run settings an experiment may consult.
type options struct {
	workers int   // -workers override, 0 = the figure's own sizes
	queries []int // -queries, default all 22
}

// w returns the worker count for a figure whose default is def.
func (o options) w(def int) int {
	if o.workers > 0 {
		return o.workers
	}
	return def
}

// bothSizes runs fn at the paper's 4- and 16-worker cluster sizes, or only
// at the -workers override.
func (o options) bothSizes(fn func(workers int) error) error {
	if o.workers > 0 {
		return fn(o.workers)
	}
	if err := fn(4); err != nil {
		return err
	}
	return fn(16)
}

type experiment struct {
	name string
	run  func(h *bench.Harness, o options) error
}

// experiments is the one list of experiment names, in the order -exp all
// runs them: the flag help and the unknown-name error are printed from it.
var experiments = []experiment{
	{"table1", func(h *bench.Harness, _ options) error { h.Table1(); return nil }},
	{"fig6", func(h *bench.Harness, o options) error {
		return o.bothSizes(func(w int) error { _, err := h.Fig6(w, o.queries); return err })
	}},
	{"fig7", func(h *bench.Harness, o options) error {
		return o.bothSizes(func(w int) error { _, err := h.Fig7(w); return err })
	}},
	{"fig8", func(h *bench.Harness, o options) error {
		return o.bothSizes(func(w int) error { _, err := h.Fig8(w); return err })
	}},
	{"fig9", func(h *bench.Harness, o options) error {
		return o.bothSizes(func(w int) error { _, err := h.Fig9(w); return err })
	}},
	{"ckpt", func(h *bench.Harness, o options) error { _, err := h.CheckpointAblation(o.w(4)); return err }},
	{"fig10a", func(h *bench.Harness, o options) error { _, err := h.Fig10a(o.w(16)); return err }},
	{"fig10b", func(h *bench.Harness, o options) error { _, err := h.Fig10b(o.w(16)); return err }},
	{"fig11a", func(h *bench.Harness, o options) error { _, err := h.Fig6(o.w(32), o.queries); return err }},
	{"fig11b", func(h *bench.Harness, o options) error { _, err := h.Fig10a(o.w(32)); return err }},
}

// experimentNames returns the accepted -exp values joined by sep.
func experimentNames(sep string) string {
	names := make([]string, 0, len(experiments)+1)
	for _, e := range experiments {
		names = append(names, e.name)
	}
	return strings.Join(append(names, "all"), sep)
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its inputs and exit code made explicit.
func run(args []string, stdout, stderr io.Writer) int {
	fail := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "quokka-bench: "+format+"\n", a...)
		return 1
	}
	fs := flag.NewFlagSet("quokka-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp       = fs.String("exp", "all", "experiment: "+experimentNames("|"))
		sf        = fs.Float64("sf", 0.02, "TPC-H scale factor")
		splitRows = fs.Int("split-rows", 512, "rows per table split")
		timeScale = fs.Float64("timescale", 1.0, "I/O cost-model time scale")
		repeats   = fs.Int("repeats", 1, "timing repetitions (mean reported)")
		workers   = fs.Int("workers", 0, "override worker count (0 = per-figure defaults)")
		queries   = fs.String("queries", "", "comma-separated query list for fig6/fig11a (default: all 22)")
		cpuProf   = fs.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	var selected []experiment
	for _, e := range experiments {
		if *exp == "all" || *exp == e.name {
			selected = append(selected, e)
		}
	}
	if len(selected) == 0 {
		return fail("unknown experiment %q (have: %s)", *exp, experimentNames(", "))
	}

	o := options{workers: *workers, queries: tpch.QueryNumbers()}
	if *queries != "" {
		o.queries = nil
		for _, part := range strings.Split(*queries, ",") {
			var q int
			if _, err := fmt.Sscanf(strings.TrimSpace(part), "%d", &q); err != nil {
				return fail("bad -queries entry %q", part)
			}
			o.queries = append(o.queries, q)
		}
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return fail("cpuprofile: %v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			return fail("cpuprofile: %v", err)
		}
		defer pprof.StopCPUProfile()
	}

	p := bench.DefaultParams(stdout)
	p.SF = *sf
	p.SplitRows = *splitRows
	p.TimeScale = *timeScale
	p.Repeats = *repeats
	h := bench.New(p)
	for _, e := range selected {
		if err := e.run(h, o); err != nil {
			return fail("%s: %v", e.name, err)
		}
	}
	return 0
}
