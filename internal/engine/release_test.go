package engine

import (
	"bytes"
	"context"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"quokka/internal/batch"
	"quokka/internal/cluster"
	"quokka/internal/flight"
	"quokka/internal/gcs"
	"quokka/internal/lineage"
)

// staleRounds is a worker's mailbox that plants, beside every replay landing
// in it, a round of the replayed channel's older incarnation on this worker:
// a channel a recovery rewound in place keeps its worker's channel set, so
// the stale-image guard does not stop a round under the pre-recovery image,
// and that round probes at the dead incarnation's watermark. It records the
// highest watermark each edge was probed at here, and when a replay
// (EpochCommitted) lands below it, probes the edge there.
type staleRounds struct {
	flight.Mailbox
	mu      *sync.Mutex
	high    map[staleEdge]int
	planted *atomic.Int64
}

type staleEdge struct {
	query     string
	dest      lineage.ChannelID
	input, up int
}

func (m staleRounds) Probe(query string, dest lineage.ChannelID, edges []flight.Edge) []int {
	m.mu.Lock()
	for _, e := range edges {
		k := staleEdge{query, dest, e.Input, e.UpChannel}
		m.high[k] = max(m.high[k], e.Watermark)
	}
	m.mu.Unlock()
	return m.Mailbox.Probe(query, dest, edges)
}

func (m staleRounds) Push(p flight.Partition) error {
	if err := m.Mailbox.Push(p); err != nil || p.Epoch != flight.EpochCommitted {
		return err
	}
	m.mu.Lock()
	wm := m.high[staleEdge{p.Query, p.Dest, p.Input, p.From.Channel}]
	m.mu.Unlock()
	if p.From.Seq < wm {
		m.planted.Add(1)
		m.Mailbox.Probe(p.Query, p.Dest, []flight.Edge{{Input: p.Input, UpChannel: p.From.Channel, Watermark: wm}})
	}
	return nil
}

// plantStaleRounds puts a staleRounds on every worker of the cluster, as the
// mailbox its owner probes and the one producers push to, and returns the
// count of rounds planted.
func plantStaleRounds(cl *cluster.Cluster) *atomic.Int64 {
	planted := new(atomic.Int64)
	for _, w := range cl.Workers {
		m := staleRounds{Mailbox: w.Mailbox, mu: new(sync.Mutex), high: map[staleEdge]int{}, planted: planted}
		w.Peer, w.Mailbox = m, m
	}
	return planted
}

// TestStaleRoundInPlaceKeepsReplays plants a stale round beside every replay
// on a query whose second recovery rewinds a channel on the worker that
// already hosts it. The join channel on worker 1 is killed past a
// checkpoint mark and restarts from it on worker 3; then the aggregate's
// worker 0 dies, and the second pass cascades the join, from 0, where it
// is. Its inputs are replayed into the mailbox its first incarnation probed
// at a higher watermark; a probe there must leave them, or the new
// incarnation waits for them for good.
func TestStaleRoundInPlaceKeepsReplays(t *testing.T) {
	tables := joinTables(4000)
	cfg := DefaultConfig()
	cfg.FT = FTCheckpoint
	cfg.Recovery = RecoveryDataParallel
	cfg.CheckpointEveryTasks = 2
	cfg.MaxTake = 1
	want, _ := runPlan(t, testCluster(t, 5, tables), joinPlan(), cfg)

	cl := testCluster(t, 5, tables)
	planted := plantStaleRounds(cl)
	r, err := NewRunner(cl, joinPlan(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	join, agg := lineage.ChannelID{Stage: 2, Channel: 1}, lineage.ChannelID{Stage: 3, Channel: 0}
	killInTxn(cl, 1, func(tx *gcs.Txn) bool {
		v, _ := tx.Get(r.keyCheckpoint(join))
		m, err := decodeCheckpoint(v)
		return err == nil && m.Seq >= 4 && txGetInt(tx, r.keyCursor(join), 0) > m.Seq
	})
	var host atomic.Int64 // the join's worker when the second victim dies
	host.Store(-1)
	killInTxn(cl, 0, func(tx *gcs.Txn) bool {
		restart := txGetInt(tx, r.keyRestart(join), 0)
		due := restart > 0 && txGetInt(tx, r.keyCursor(join), 0) > restart+25 &&
			txGetInt(tx, r.keyPlacement(join), -1) != 0 && txGetInt(tx, r.keyPlacement(agg), -1) == 0
		if due {
			host.CompareAndSwap(-1, int64(txGetInt(tx, r.keyPlacement(join), -1)))
		}
		return due
	})
	var inPlace atomic.Bool // a recovery pass rewound the join on its host
	hookTxns(cl, func(tx *gcs.Txn, c committed) {
		if _, ok := c.writes[r.keyChanEpoch(join)]; ok && !c.flush() && host.Load() >= 0 &&
			int64(txGetInt(tx, r.keyPlacement(join), -1)) == host.Load() {
			inPlace.Store(true)
		}
	})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	got, rep, err := r.Run(ctx)
	if err != nil {
		t.Fatalf("Run: %v (%d stale rounds planted)", err, planted.Load())
	}
	if rep.Recoveries < 2 || !inPlace.Load() || planted.Load() == 0 {
		t.Fatalf("%d recoveries, join rewound in place %v, %d stale rounds planted: the scenario did not form",
			rep.Recoveries, inPlace.Load(), planted.Load())
	}
	if !bytes.Equal(batch.Encode(got), batch.Encode(want)) {
		t.Fatalf("result differs from the failure-free run:\nwant %v\ngot  %v", want, got)
	}
}

// zombieReplays is a worker's mailbox that refuses the replays of the tasks
// in owed, as if their server died before any of its pushes landed, until
// requeued says a recovery has queued them on a live worker.
type zombieReplays struct {
	flight.Peer
	mu       *sync.Mutex
	owed     map[lineage.TaskName]bool
	requeued *atomic.Bool
}

func (z zombieReplays) Push(p flight.Partition) error {
	z.mu.Lock()
	owed := z.owed[p.From]
	z.mu.Unlock()
	if owed && p.Epoch == flight.EpochCommitted && !z.requeued.Load() {
		return flight.ErrServerDown
	}
	return z.Peer.Push(p)
}

// TestSpoolReplayOfADeadWorkerIsRequeued: under spool a recovery queues the
// replays a rewound consumer needs round-robin on live workers. The first
// pass rewinds the aggregate with worker 0; a worker holding replay entries
// of producers hosted elsewhere then dies before serving them, while the
// aggregate lives elsewhere too. The second pass rewinds neither the
// aggregate nor those producers, so nobody but the entries' new server owes
// the aggregate those pieces: the pass must move them to a live worker, or
// the aggregate waits for them for good.
func TestSpoolReplayOfADeadWorkerIsRequeued(t *testing.T) {
	const n = 2500
	cl := testCluster(t, 4, map[string][]*batch.Batch{"numbers": numbersTable(n, 30)})
	cfg := DefaultConfig()
	cfg.FT = FTSpool
	r, err := NewRunner(cl, scanMapAggPlan(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	agg := lineage.ChannelID{Stage: 2, Channel: 0} // seeded on worker 0
	killAfterTasks(cl, 0, 12)
	mu, owed, requeued := new(sync.Mutex), map[lineage.TaskName]bool{}, new(atomic.Bool)
	for _, w := range cl.Workers {
		w.Peer = zombieReplays{Peer: w.Peer, mu: mu, owed: owed, requeued: requeued}
	}
	victim := -1 // a live server of the aggregate's replays, killed with them queued
	prefix := r.keyNS() + "rp/"
	entry := func(k string) (int, lineage.TaskName) {
		w, name, _ := strings.Cut(strings.TrimPrefix(k, prefix), "/")
		id, err := strconv.Atoi(w)
		task, err2 := lineage.ParseTaskName(name)
		if err != nil || err2 != nil {
			t.Errorf("replay entry %s: %v, %v", k, err, err2)
		}
		return id, task
	}
	hookTxns(cl, func(tx *gcs.Txn, c committed) {
		if _, ok := c.writes[r.keyGlobalEpoch()]; !ok || c.flush() {
			return
		}
		mu.Lock()
		defer mu.Unlock()
		switch txGetInt(tx, r.keyGlobalEpoch(), 0) {
		case 2:
			// The victim serves entries whose producers live elsewhere: they
			// are not rewound with it, and do not re-push the pieces.
			host := txGetInt(tx, r.keyPlacement(agg), -1)
			for _, k := range tx.List(prefix) {
				id, task := entry(k)
				producer := lineage.ChannelID{Stage: task.Stage, Channel: task.Channel}
				if id != host && (victim < 0 || victim == id) && txGetInt(tx, r.keyPlacement(producer), -1) != id {
					victim, owed[task] = id, true
				}
			}
			if victim >= 0 {
				cl.Worker(cluster.WorkerID(victim)).Kill()
			}
		case 3:
			left := 0
			for _, k := range tx.List(prefix) {
				if id, task := entry(k); owed[task] && id != victim {
					left++
				}
			}
			requeued.Store(left > 0)
		}
	})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	out, rep, err := r.Run(ctx)
	mu.Lock()
	defer mu.Unlock()
	if err != nil {
		t.Fatalf("Run: %v (second victim %d, owed %v)", err, victim, owed)
	}
	if victim < 0 || rep.Recoveries < 2 {
		t.Fatalf("second victim %d, %d recoveries: the scenario did not form", victim, rep.Recoveries)
	}
	var want float64
	for i := 0; i < n; i++ {
		want += float64(2 * i)
	}
	checkSumCount(t, out, want, n)
}
