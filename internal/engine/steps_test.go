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

// bufferedAtTeardown is a worker's mailbox as the head reaches it, reading
// what the mailbox still buffers when the head sweeps a query.
type bufferedAtTeardown struct {
	flight.Peer
	srv  *flight.Server
	left *atomic.Int64
}

func (b bufferedAtTeardown) DropQuery(query string) {
	b.left.Add(b.srv.BufferedBytes())
	b.Peer.DropQuery(query)
}

// TestDropFreesEveryConsumedSlot: Drop is the mailbox's one release in a
// query's life, and a failure-free run consumes every slot it fills, so each
// TPC-H query on 2 workers leaves 0 bytes buffered on every worker when the
// head sweeps it.
func TestDropFreesEveryConsumedSlot(t *testing.T) {
	cl, err := cluster.New(cluster.Options{Workers: 2, Cost: storage.TestCostModel()})
	if err != nil {
		t.Fatal(err)
	}
	tpch.Load(cl.HeadObjs, tpch.Generate(0.002), 256)
	left := make([]*atomic.Int64, len(cl.Workers))
	for i, w := range cl.Workers {
		left[i] = new(atomic.Int64)
		w.Peer = bufferedAtTeardown{Peer: w.Peer, srv: w.Mailbox.(*flight.Server), left: left[i]}
	}
	for _, q := range tpch.QueryNumbers() {
		runTPCH(t, cl, q, engine.DefaultConfig())
		for i, n := range left {
			if b := n.Swap(0); b != 0 {
				t.Errorf("Q%d: worker %d still buffered %d bytes at teardown", q, i, b)
			}
		}
	}
}

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
