package engine_test

// A same-worker consumer is handed its producer's batch instead of decoding
// the piece; replay decodes the piece. The two must be the same rows — also
// long after the handoff, while the producer's operator has moved on. Where
// the piece was elided, the batch is all there is: it must stay the rows its
// producer pushed.

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
	"quokka/internal/metrics"
	"quokka/internal/storage"
	"quokka/internal/tpch"
)

// handoffLog collects every piece taken with a batch, every elided piece's
// push with the worker it reached and its batch's encoding then, and what was
// wrong with the pieces that were not their producer's when taken.
type handoffLog struct {
	mu     sync.Mutex
	handed []flight.Piece
	elided []elidedPush
	pushed map[*batch.Batch][]byte
	bad    []error
}

// elidedPush is a push without bytes and the worker whose handle it went to.
type elidedPush struct {
	p  flight.Partition
	at int
}

// checkedMailbox is a worker's mailbox whose Take checks every batch it hands
// over against its piece and logs it for a second check after the query.
type checkedMailbox struct {
	flight.Mailbox
	log *handoffLog
}

func (m checkedMailbox) Take(query string, dest lineage.ChannelID, input, upChannel, from, count int) ([]flight.Piece, error) {
	pieces, err := m.Mailbox.Take(query, dest, input, upChannel, from, count)
	m.log.mu.Lock()
	defer m.log.mu.Unlock()
	for _, pc := range pieces {
		if pc.Batch == nil {
			continue
		}
		m.log.handed = append(m.log.handed, pc)
		if bad := m.log.isItsPiece(pc); bad != nil {
			m.log.bad = append(m.log.bad, fmt.Errorf("taken for %s: %w", dest, bad))
		}
	}
	return pieces, err
}

// elidingPeer is worker id's handle, logging every elided piece pushed to it
// and encoding its batch: the bytes its piece would have had.
type elidingPeer struct {
	flight.Peer
	id  int
	log *handoffLog
}

func (p elidingPeer) Push(pt flight.Partition) error {
	if len(pt.Data) == 0 && pt.Batch != nil {
		enc := batch.Encode(pt.Batch)
		p.log.mu.Lock()
		p.log.pushed[pt.Batch] = enc
		p.log.elided = append(p.log.elided, elidedPush{pt, p.id})
		p.log.mu.Unlock()
	}
	return p.Peer.Push(pt)
}

// isItsPiece: a handed batch encodes to what its piece decodes to or, for an
// elided piece, to what the batch encoded to when its producer pushed it.
// The caller holds l.mu.
func (l *handoffLog) isItsPiece(pc flight.Piece) error {
	want, elided := l.pushed[pc.Batch]
	if len(pc.Data) > 0 {
		b, err := batch.Decode(pc.Data)
		if err != nil {
			return err
		}
		want = batch.Encode(b)
	} else if !elided {
		return fmt.Errorf("a handed batch of %d rows came with neither bytes nor a push", pc.Batch.NumRows())
	}
	if !bytes.Equal(batch.Encode(pc.Batch), want) {
		return fmt.Errorf("a handed batch of %d rows is not its piece (elided: %v)", pc.Batch.NumRows(), len(pc.Data) == 0)
	}
	return nil
}

// recheck checks every logged batch again, reports what was wrong then or is
// now, empties the log and returns how many batches it held, and how many of
// them came without bytes.
func (l *handoffLog) recheck(t *testing.T) (handed, elided int) {
	t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, pc := range l.handed {
		if err := l.isItsPiece(pc); err != nil {
			l.bad = append(l.bad, fmt.Errorf("after the query: %w", err))
		}
		if len(pc.Data) == 0 {
			elided++
		}
	}
	if len(l.bad) > 0 {
		t.Errorf("%d of %d handed batches were not their piece; first: %v", len(l.bad), len(l.handed), l.bad[0])
	}
	handed = len(l.handed)
	l.handed, l.elided, l.bad = nil, nil, nil
	clear(l.pushed)
	return handed, elided
}

// handoffCluster is a TPC-H cluster whose every mailbox is checked.
func handoffCluster(t *testing.T, workers int, data *tpch.Data) (*cluster.Cluster, *handoffLog) {
	t.Helper()
	cl, err := cluster.New(cluster.Options{Workers: workers, Cost: storage.TestCostModel()})
	if err != nil {
		t.Fatal(err)
	}
	tpch.Load(cl.HeadObjs, data, 256)
	log := &handoffLog{pushed: map[*batch.Batch][]byte{}}
	for _, w := range cl.Workers {
		w.Mailbox = checkedMailbox{Mailbox: w.Mailbox, log: log}
		w.Peer = elidingPeer{Peer: w.Peer, id: int(w.ID), log: log}
	}
	return cl, log
}

// runTPCH runs TPC-H query q on cl.
func runTPCH(t *testing.T, cl *cluster.Cluster, q int, cfg engine.Config) *engine.Report {
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

// TestHandedBatchIsItsPiece runs every TPC-H query under each FT mode, on 2
// and 3 workers, at Parallelism 1 and 4 (which must not matter), and a killed
// worker under each mode that logs lineage: every batch a consumer was handed
// re-encodes to its piece's bytes — or, elided, to the batch its producer
// pushed — when taken and again after the query. An operator that wrote to
// an output it had returned, or to an input, would show here and nowhere
// else, since a replay decodes the bytes. Pieces go unencoded exactly under
// the policies that elide.
func TestHandedBatchIsItsPiece(t *testing.T) {
	data := tpch.Generate(0.002)
	for _, ft := range []engine.FTMode{engine.FTWriteAheadLineage, engine.FTNone, engine.FTCheckpoint} {
		cfg := engine.DefaultConfig()
		cfg.FT, cfg.CheckpointEveryTasks = ft, 3
		elides := ft != engine.FTCheckpoint
		for _, workers := range []int{2, 3} {
			for _, par := range []int{1, 4} {
				cfg.Parallelism, cfg.CPUPerWorker = par, par
				t.Run(fmt.Sprintf("%s/workers%d/par%d", ft, workers, par), func(t *testing.T) {
					cl, log := handoffCluster(t, workers, data)
					handed, elided := 0, 0
					for _, q := range tpch.QueryNumbers() {
						runTPCH(t, cl, q, cfg)
						h, e := log.recheck(t)
						handed, elided = handed+h, elided+e
					}
					if handed == 0 || elides != (elided > 0) {
						t.Fatalf("%d batches handed over, %d of them elided", handed, elided)
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
			if rep := runTPCH(t, cl, 9, cfg); rep.Recoveries == 0 {
				t.Fatal("the kill exercised nothing")
			}
			if handed, _ := log.recheck(t); handed == 0 {
				t.Fatal("no batch was handed over")
			}
		})
	}
}

// TestLocalPiecesAreNeverEncoded runs TPC-H shapes under every FT mode on 2
// and 3 workers. Under write-ahead lineage and FTNone a non-empty piece whose
// consumer sits on its producer's worker is pushed as its batch alone, and
// only such a piece: every push without bytes reached the producer's own
// worker, where its consumer sat. Under spool and checkpoint, whose stored
// pieces a replay may read after the producer's worker lost its consumer,
// every piece is encoded.
func TestLocalPiecesAreNeverEncoded(t *testing.T) {
	data := tpch.Generate(0.002)
	for _, ft := range []engine.FTMode{engine.FTWriteAheadLineage, engine.FTNone, engine.FTSpool, engine.FTCheckpoint} {
		elides := ft == engine.FTWriteAheadLineage || ft == engine.FTNone
		for _, workers := range []int{2, 3} {
			t.Run(fmt.Sprintf("%s/workers%d", ft, workers), func(t *testing.T) {
				cl, log := handoffCluster(t, workers, data)
				cfg := engine.DefaultConfig()
				cfg.FT = ft
				var counted, pushed int64
				for _, q := range []int{1, 3, 9, 18} {
					counted += runTPCH(t, cl, q, cfg).Metrics[metrics.PiecesElided]
					// Without a kill, channel c of every stage runs on worker c mod W.
					log.mu.Lock()
					for _, e := range log.elided {
						if from, dest := e.p.From.Channel%workers, e.p.Dest.Channel%workers; from != e.at || dest != e.at {
							t.Errorf("%s -> %s went without bytes to worker %d: producer on %d, consumer on %d", e.p.From, e.p.Dest, e.at, from, dest)
						}
					}
					pushed += int64(len(log.elided))
					log.mu.Unlock()
					log.recheck(t)
				}
				if elides != (counted > 0) || elides != (pushed > 0) {
					t.Errorf("%d pieces elided, %d pushed without bytes; want some exactly when the policy elides (%v)", counted, pushed, elides)
				}
			})
		}
	}
}
