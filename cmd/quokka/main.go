// Command quokka runs one TPC-H query on a simulated cluster and prints
// the result, timings and execution metrics. It is the quickest way to
// poke at the engine's modes:
//
//	quokka -q 5 -workers 8 -sf 0.02                  # Quokka defaults
//	quokka -q 9 -system spark                        # SparkSQL-like baseline
//	quokka -q 3 -ft spool                            # durable spooling
//	quokka -q 9 -kill 0.5                            # kill a worker halfway
//	quokka -q 3 -explain                             # print the optimized plan
//	quokka -q 9 -trace q9.json                       # Perfetto trace of the run
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"quokka"
)

func main() {
	var (
		q         = flag.Int("q", 6, "TPC-H query number (1..22)")
		workers   = flag.Int("workers", 4, "number of simulated workers")
		sf        = flag.Float64("sf", 0.02, "TPC-H scale factor")
		splitRows = flag.Int("split-rows", 512, "rows per table split")
		system    = flag.String("system", "quokka", "engine preset: quokka|spark|trino")
		ft        = flag.String("ft", "", "override fault tolerance: none|wal|spool|checkpoint")
		kill      = flag.Float64("kill", 0, "kill worker 1 at this fraction of the expected runtime (0 = no failure)")
		timeScale = flag.Float64("timescale", 1.0, "I/O cost-model time scale: > 0 sleeps modelled service times, 0 or negative runs in real time")
		showRows  = flag.Bool("rows", true, "print result rows")
		metrics   = flag.Bool("metrics", false, "print all execution counters")
		explain   = flag.Bool("explain", false, "print the optimized logical plan (pushed predicates, pruned columns, join strategies) instead of running the query")
		traceOut  = flag.String("trace", "", "record the query's flight-recorder trace and write it as Chrome trace-event JSON (open in Perfetto) to this file")
	)
	flag.Parse()

	var cfg quokka.RunConfig
	switch *system {
	case "quokka":
		cfg = quokka.DefaultConfig()
	case "spark":
		cfg = quokka.SparkLikeConfig()
	case "trino":
		cfg = quokka.TrinoLikeConfig()
	default:
		fatal("unknown -system %q", *system)
	}
	switch *ft {
	case "":
	case "none":
		cfg.FT = quokka.FTNone
	case "wal":
		cfg.FT = quokka.FTWriteAheadLineage
	case "spool":
		cfg.FT = quokka.FTSpool
	case "checkpoint":
		cfg.FT = quokka.FTCheckpoint
	default:
		fatal("unknown -ft %q", *ft)
	}

	if *explain {
		// Planning needs only the catalog statistics at this scale factor
		// — no cluster, no data generation.
		plan, err := quokka.ExplainTPCHPlan(*q, *sf)
		if err != nil {
			fatal("%v", err)
		}
		fmt.Printf("TPC-H Q%d optimized logical plan at SF %g:\n%s", *q, *sf, plan)
		return
	}

	cl, err := quokka.NewCluster(quokka.ClusterConfig{Workers: *workers, TimeScale: *timeScale},
		quokka.WithTracing(*traceOut != ""))
	if err != nil {
		fatal("%v", err)
	}
	fmt.Printf("loading TPC-H SF %g ...\n", *sf)
	quokka.LoadTPCH(cl, *sf, *splitRows)

	if *kill > 0 {
		// Estimate the failure-free runtime first, then re-run with a
		// scheduled failure, as the paper's recovery experiments do.
		fmt.Printf("estimating failure-free runtime ...\n")
		res, err := quokka.RunTPCH(context.Background(), cl, *q, cfg)
		if err != nil {
			fatal("baseline run: %v", err)
		}
		base := res.Duration()
		fmt.Printf("failure-free: %v; killing worker 1 at %.0f%%\n", base.Round(time.Millisecond), *kill*100)
		time.AfterFunc(time.Duration(float64(base)*(*kill)), func() {
			cl.KillWorker(1)
		})
	}

	query, err := quokka.SubmitTPCH(context.Background(), cl, *q, cfg)
	if err != nil {
		fatal("run: %v", err)
	}
	res, err := query.Result()
	if err != nil {
		fatal("run: %v", err)
	}
	if *traceOut != "" {
		if err := writeTrace(*traceOut, query.Trace()); err != nil {
			fatal("trace: %v", err)
		}
		fmt.Printf("wrote %s (%d spans)\n", *traceOut, query.Trace().Len())
	}
	fmt.Printf("\nTPC-H Q%d on %d workers (%s, ft=%s): %v, %d rows, %d tasks (%d replayed), %d recoveries\n",
		*q, *workers, *system, cfg.FT, res.Duration().Round(time.Millisecond),
		res.NumRows(), res.TasksExecuted(), res.TasksReplayed(), res.Recoveries())
	if *showRows {
		fmt.Println(res)
	}
	if *metrics {
		fmt.Println("metrics:")
		for k, v := range cl.Metrics() {
			fmt.Printf("  %-24s %d\n", k, v)
		}
	}
}

func writeTrace(path string, t *quokka.Trace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "quokka: "+format+"\n", args...)
	os.Exit(1)
}
