package engine_test

import (
	"sync/atomic"
	"testing"

	"quokka/internal/cluster"
	"quokka/internal/engine"
	"quokka/internal/flight"
	"quokka/internal/lineage"
	"quokka/internal/metrics"
	"quokka/internal/storage"
	"quokka/internal/tpch"
)

// probeCounter counts the mailbox probes of the worker it wraps.
type probeCounter struct {
	flight.Mailbox
	n *atomic.Int64
}

func (m probeCounter) Probe(query string, dest lineage.ChannelID, edges []flight.Edge) []int {
	m.n.Add(1)
	return m.Mailbox.Probe(query, dest, edges)
}

// TestStepsPerTask bounds what an executed task costs the poll loop on
// tpch-ctl's shape — every TPC-H query over 128-row splits on 2 workers, where
// tasks are tiny and each commit wakes a round: at most 4 channel steps run
// per task, all told. A round steps only the channels its image changed
// (chanState.idle); re-stepping every channel on every wake ran about 20.
func TestStepsPerTask(t *testing.T) {
	cl, err := cluster.New(cluster.Options{Workers: 2, Cost: storage.TestCostModel()})
	if err != nil {
		t.Fatal(err)
	}
	tpch.Load(cl.HeadObjs, tpch.Generate(0.002), 128)
	var probes atomic.Int64
	for _, w := range cl.Workers {
		w.Mailbox = probeCounter{Mailbox: w.Mailbox, n: &probes}
	}
	var run, skipped, tasks int64
	for _, q := range tpch.QueryNumbers() {
		rep := runTPCH(t, cl, q, engine.DefaultConfig())
		run += rep.Metrics[metrics.StepsRun]
		skipped += rep.Metrics[metrics.StepsSkipped]
		tasks += int64(rep.TasksExecuted)
	}
	perTask := float64(run) / float64(tasks)
	t.Logf("%d tasks: %d steps run (%.2f per task), %d skipped, %d mailbox probes (%.2f per task)",
		tasks, run, perTask, skipped, probes.Load(), float64(probes.Load())/float64(tasks))
	if tasks < 1000 {
		t.Fatalf("%d tasks: too few for tpch-ctl's shape", tasks)
	}
	if perTask > 4 {
		t.Errorf("%.2f channel steps run per executed task, want <= 4", perTask)
	}
}
