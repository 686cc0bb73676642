package engine_test

// A same-worker consumer is handed its producer's batch instead of decoding
// the piece; replay decodes the piece. The two must be the same rows — also
// long after the handoff, while the producer's operator has moved on.

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"quokka/internal/batch"
	"quokka/internal/cluster"
	"quokka/internal/engine"
	"quokka/internal/flight"
	"quokka/internal/gcs"
	"quokka/internal/lineage"
	"quokka/internal/storage"
	"quokka/internal/tpch"
)

// handoffLog collects every piece taken with a batch, and what was wrong with
// the ones that were not their piece when taken.
type handoffLog struct {
	mu     sync.Mutex
	handed []flight.Piece
	bad    []error
}

// checkedMailbox is a worker's mailbox whose Take checks every batch it hands
// over against its piece and logs it for a second check after the query.
type checkedMailbox struct {
	flight.Mailbox
	log *handoffLog
}

func (m checkedMailbox) Take(query string, dest lineage.ChannelID, input, upChannel, from, count int) ([]flight.Piece, error) {
	pieces, err := m.Mailbox.Take(query, dest, input, upChannel, from, count)
	for _, pc := range pieces {
		if pc.Batch == nil {
			continue
		}
		bad := isItsPiece(pc)
		m.log.mu.Lock()
		m.log.handed = append(m.log.handed, pc)
		if bad != nil {
			m.log.bad = append(m.log.bad, fmt.Errorf("taken for %s: %w", dest, bad))
		}
		m.log.mu.Unlock()
	}
	return pieces, err
}

// isItsPiece: a handed batch encodes to what its piece decodes to.
func isItsPiece(pc flight.Piece) error {
	want, err := batch.Decode(pc.Data)
	if err != nil {
		return err
	}
	if !bytes.Equal(batch.Encode(pc.Batch), batch.Encode(want)) {
		return fmt.Errorf("a handed batch of %d rows is not its %d-row piece", pc.Batch.NumRows(), want.NumRows())
	}
	return nil
}

// recheck checks every logged batch again, reports what was wrong then or is
// now, empties the log and returns how many batches it held.
func (l *handoffLog) recheck(t *testing.T) int {
	t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, pc := range l.handed {
		if err := isItsPiece(pc); err != nil {
			l.bad = append(l.bad, fmt.Errorf("after the query: %w", err))
		}
	}
	if len(l.bad) > 0 {
		t.Errorf("%d of %d handed batches were not their piece; first: %v", len(l.bad), len(l.handed), l.bad[0])
	}
	n := len(l.handed)
	l.handed, l.bad = nil, nil
	return n
}

// handoffCluster is a TPC-H cluster whose every mailbox is checked.
func handoffCluster(t *testing.T, workers int, data *tpch.Data) (*cluster.Cluster, *handoffLog) {
	t.Helper()
	cl, err := cluster.New(cluster.Options{Workers: workers, Cost: storage.TestCostModel()})
	if err != nil {
		t.Fatal(err)
	}
	tpch.Load(cl.ObjStore, data, 256)
	log := &handoffLog{}
	for _, w := range cl.Workers {
		w.Mailbox = checkedMailbox{Mailbox: w.Mailbox, log: log}
	}
	return cl, log
}

// TestHandedBatchIsItsPiece runs every TPC-H query under each FT mode, on 2
// and 3 workers, with serial and 4-way partitioned operators, and a killed
// worker under each mode that logs lineage: every batch a consumer was handed
// re-encodes to its piece's bytes when taken and again after the query — an
// operator that wrote to an output it had returned, or to an input, would
// show here and nowhere else, since a replay decodes the bytes.
func TestHandedBatchIsItsPiece(t *testing.T) {
	data := tpch.Generate(0.002)
	run := func(t *testing.T, cl *cluster.Cluster, q int, cfg engine.Config) *engine.Report {
		t.Helper()
		plan, err := tpch.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		r, err := engine.NewRunner(cl, plan, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		_, rep, err := r.Run(ctx)
		if err != nil {
			t.Fatalf("q%d: %v", q, err)
		}
		return rep
	}
	for _, ft := range []engine.FTMode{engine.FTWriteAheadLineage, engine.FTNone, engine.FTCheckpoint} {
		cfg := engine.DefaultConfig()
		cfg.FT, cfg.CheckpointEveryTasks = ft, 3
		for _, workers := range []int{2, 3} {
			for _, par := range []int{1, 4} {
				cfg.Parallelism, cfg.CPUPerWorker = par, par
				t.Run(fmt.Sprintf("%s/workers%d/par%d", ft, workers, par), func(t *testing.T) {
					cl, log := handoffCluster(t, workers, data)
					n := 0
					for _, q := range tpch.QueryNumbers() {
						run(t, cl, q, cfg)
						n += log.recheck(t)
					}
					if n == 0 {
						t.Fatal("no batch was handed over")
					}
				})
			}
		}
		if ft == engine.FTNone {
			continue
		}
		t.Run(fmt.Sprintf("%s/kill", ft), func(t *testing.T) {
			cfg.Parallelism, cfg.CPUPerWorker = 1, 1
			cl, log := handoffCluster(t, 3, data)
			var txns atomic.Int64
			engine.KillInTxn(cl, 2, func(*gcs.Txn) bool { return txns.Add(1) > 40 })
			if rep := run(t, cl, 9, cfg); rep.Recoveries == 0 {
				t.Fatal("the kill exercised nothing")
			}
			if log.recheck(t) == 0 {
				t.Fatal("no batch was handed over")
			}
		})
	}
}
