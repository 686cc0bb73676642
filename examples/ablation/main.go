// Ablation: measure what each fault-tolerance strategy costs during
// normal (failure-free) execution on one query — the essence of the
// paper's Figure 9 and §V-C. Write-ahead lineage should cost a few
// percent; spooling and checkpointing an integer factor.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"quokka"
)

const (
	workers = 4
	sf      = 0.02
	query   = 5
)

func timeRun(cfg quokka.RunConfig) (time.Duration, *quokka.Result) {
	// Modelled time: what spooling and checkpointing cost is the object
	// store's service time, which only the cost model charges here.
	cl, err := quokka.NewCluster(quokka.ClusterConfig{Workers: workers, TimeScale: 1})
	if err != nil {
		log.Fatal(err)
	}
	quokka.LoadTPCH(cl, sf, 0)
	res, err := quokka.RunTPCH(context.Background(), cl, query, cfg)
	if err != nil {
		log.Fatal(err)
	}
	return res.Duration(), res
}

func main() {
	off := quokka.DefaultConfig()
	off.FT = quokka.FTNone
	base, _ := timeRun(off)
	fmt.Printf("TPC-H Q%d, %d workers, fault tolerance OFF: %v\n\n",
		query, workers, base.Round(time.Millisecond))

	fmt.Printf("%-22s %10s %9s %26s\n", "strategy", "runtime", "overhead", "durable bytes written")
	for _, tc := range []struct {
		name string
		ft   quokka.RunConfig
		key  string
	}{
		{"write-ahead lineage", quokka.DefaultConfig(), "gcs.bytes"},
		{"spooling (S3)", withFT(quokka.FTSpool), "spool.write.bytes"},
		{"checkpointing", withFT(quokka.FTCheckpoint), "checkpoint.bytes"},
	} {
		d, res := timeRun(tc.ft)
		fmt.Printf("%-22s %10v %8.2fx %23.2f MB\n",
			tc.name, d.Round(time.Millisecond),
			d.Seconds()/base.Seconds(),
			float64(res.Metric(tc.key))/1e6)
	}
	fmt.Println("\nThe lineage log is the only durable state write-ahead lineage needs —")
	fmt.Println("KBs, not MBs. That is why its overhead is an order of magnitude lower.")
}

// withFT returns the default configuration with a different
// fault-tolerance strategy.
func withFT(ft quokka.FTMode) quokka.RunConfig {
	cfg := quokka.DefaultConfig()
	cfg.FT = ft
	return cfg
}
