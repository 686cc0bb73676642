// Fault tolerance demo: run the same query three times — failure-free,
// with a worker killed mid-query under write-ahead lineage, and with the
// restart-from-scratch strategy — and compare what each failure costs.
// This is a miniature of the paper's Figure 10 experiment.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"quokka"
)

const (
	workers = 8
	sf      = 0.02
	query   = 9 // the paper's case-study query
)

func run(cfg quokka.RunConfig, killAt time.Duration) (*quokka.Result, error) {
	// Modelled time (TimeScale 1): the overheads compared are the cost
	// model's I/O service times, and the kills are placed on its clock.
	cl, err := quokka.NewCluster(quokka.ClusterConfig{Workers: workers, TimeScale: 1})
	if err != nil {
		return nil, err
	}
	quokka.LoadTPCH(cl, sf, 0)
	if killAt > 0 {
		time.AfterFunc(killAt, func() { cl.KillWorker(2) })
	}
	return quokka.RunTPCH(context.Background(), cl, query, cfg)
}

func main() {
	// 1. Failure-free baseline.
	base, err := run(quokka.DefaultConfig(), 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("failure-free:      %v\n", base.Duration().Round(time.Millisecond))
	killAt := base.Duration() / 2

	// 2. Worker killed at 50%, recovered via write-ahead lineage:
	// replay only what the dead worker held, pipeline-parallel.
	wal, err := run(quokka.DefaultConfig(), killAt)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("WAL recovery:      %v  (overhead %.2fx, %d tasks replayed, %d recoveries)\n",
		wal.Duration().Round(time.Millisecond),
		wal.Duration().Seconds()/base.Duration().Seconds(),
		wal.TasksReplayed(), wal.Recoveries())

	// 3. Restart baseline: no fault tolerance; the query dies with the
	// worker and reruns from scratch on the survivors.
	cfg := quokka.DefaultConfig()
	cfg.FT = quokka.FTNone
	start := time.Now()
	if _, err := run(cfg, killAt); err == nil {
		log.Fatal("expected the unprotected run to fail")
	}
	// Rerun on a degraded cluster.
	cl, err := quokka.NewCluster(quokka.ClusterConfig{Workers: workers, TimeScale: 1})
	if err != nil {
		log.Fatal(err)
	}
	quokka.LoadTPCH(cl, sf, 0)
	cl.KillWorker(2)
	if _, err := quokka.RunTPCH(context.Background(), cl, query, cfg); err != nil {
		log.Fatal(err)
	}
	restart := time.Since(start)
	fmt.Printf("restart baseline:  %v  (overhead %.2fx)\n",
		restart.Round(time.Millisecond),
		restart.Seconds()/base.Duration().Seconds())
}
