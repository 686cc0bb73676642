package engine

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"quokka/internal/batch"
	"quokka/internal/cluster"
	"quokka/internal/expr"
	"quokka/internal/flight"
	"quokka/internal/gcs"
	"quokka/internal/lineage"
	"quokka/internal/metrics"
	"quokka/internal/ops"
)

// pushLog wraps a worker's Flight transport, recording every delivered
// push; fail, when set, may refuse a push before it reaches the mailbox.
type pushLog struct {
	flight.Peer
	mu     *sync.Mutex
	pushes *[]flight.Partition
	fail   func(p flight.Partition) error
}

func (l pushLog) Push(p flight.Partition) error {
	if l.fail != nil {
		if err := l.fail(p); err != nil {
			return err
		}
	}
	if err := l.Peer.Push(p); err != nil {
		return err
	}
	l.mu.Lock()
	*l.pushes = append(*l.pushes, p)
	l.mu.Unlock()
	return nil
}

// logPushes interposes a pushLog on every worker of the cluster.
func logPushes(cl *cluster.Cluster, fail func(p flight.Partition) error) (*sync.Mutex, *[]flight.Partition) {
	mu, pushes := new(sync.Mutex), new([]flight.Partition)
	for _, w := range cl.Workers {
		w.Peer = pushLog{Peer: w.Peer, mu: mu, pushes: pushes, fail: fail}
	}
	return mu, pushes
}

// fullSink is a head-node collector that stays "full" for the first
// refusals offers of every payload, recording where each offered payload
// lives.
type fullSink struct {
	ResultSink
	refusals int

	mu     sync.Mutex
	offers map[lineage.TaskName][]*byte
}

func (s *fullSink) Deliver(t lineage.TaskName, data []byte, epoch int) bool {
	if len(data) > 0 {
		s.mu.Lock()
		s.offers[t] = append(s.offers[t], &data[0])
		refuse := len(s.offers[t]) <= s.refusals
		s.mu.Unlock()
		if refuse {
			return false
		}
	}
	return s.ResultSink.Deliver(t, data, epoch)
}

// TestRetriesDoNotReencode holds tasks pending for many poll rounds — an
// output-stage task behind a full collector, producers behind a consumer
// that refuses their pushes — and checks each output was serialized at most
// once: the collector is offered the very same bytes every round, a retried
// push the same bytes or — elided, to the consumer beside it — the same
// batch and no bytes, and shuffle.bytes.raw (counted per encoded piece) and
// shuffle.pieces.elided end where an undisturbed run's do.
func TestRetriesDoNotReencode(t *testing.T) {
	const n, rounds = 1000, 25
	tables := map[string][]*batch.Batch{"numbers": numbersTable(n, 8)}
	cfg := DefaultConfig()
	cfg.Dynamic, cfg.StaticBatch = false, 1

	_, clean := runPlan(t, testCluster(t, 4, tables), scanFilterAggPlan(0), cfg)

	cl := testCluster(t, 4, tables)
	var mu sync.Mutex
	refused := map[lineage.TaskName]int{}
	type offer struct {
		data  *byte
		batch *batch.Batch
	}
	offers := map[lineage.TaskName][]offer{}
	logPushes(cl, func(p flight.Partition) error {
		// The aggregate's mailbox turns away each filter task's first pushes.
		if p.Dest.Stage != 2 || len(p.Data) == 0 && p.Batch == nil {
			return nil
		}
		o := offer{batch: p.Batch}
		if len(p.Data) > 0 {
			o.data = &p.Data[0]
		}
		mu.Lock()
		defer mu.Unlock()
		offers[p.From] = append(offers[p.From], o)
		if refused[p.From]++; refused[p.From] <= rounds {
			return errors.New("mailbox busy")
		}
		return nil
	})
	r, err := NewRunner(cl, scanFilterAggPlan(0), cfg)
	if err != nil {
		t.Fatal(err)
	}
	sink := &fullSink{ResultSink: r.sink, refusals: rounds, offers: map[lineage.TaskName][]*byte{}}
	r.sink = sink
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	out, rep, err := r.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	checkSumCountFull(t, out, n)

	if len(refused) == 0 {
		t.Fatal("no producer push was refused")
	}
	if len(sink.offers) == 0 {
		t.Fatal("the collector was never offered a payload")
	}
	for task, offers := range sink.offers {
		if len(offers) != rounds+1 {
			t.Errorf("%s: offered %d times, want %d", task, len(offers), rounds+1)
		}
		for _, o := range offers {
			if o != offers[0] {
				t.Fatalf("%s: a retry offered re-encoded bytes", task)
			}
		}
	}
	// A retried push offers the same bytes and, to a consumer on the
	// producer's worker, the same batch — with no bytes at all: the piece was
	// elided, and a retry does not encode it either.
	handed, elided := 0, 0
	for task, all := range offers {
		for _, o := range all {
			if o != all[0] {
				t.Fatalf("%s: a retried push offered other bytes or another batch", task)
			}
		}
		if all[0].batch != nil {
			handed++
		}
		if all[0].data == nil {
			elided++
		}
	}
	if handed == 0 || elided == 0 || elided == len(offers) {
		t.Errorf("of %d producers' pushes to the aggregate, %d carried a batch and %d no bytes: want some of each kind", len(offers), handed, elided)
	}
	for _, name := range []string{metrics.ShuffleRawBytes, metrics.ShuffleWireBytes, metrics.PiecesElided} {
		if got, want := rep.Metrics[name], clean.Metrics[name]; got != want {
			t.Errorf("%s = %d with %d refused rounds per task, %d undisturbed: retries re-encoded", name, got, rounds, want)
		}
	}
}

// sharedSubtreePlan is Q15's shape: stage 1's output feeds two hash edges
// with different keys and a broadcast edge (the join's build side).
//
//	read -> shared -+- hash(g)  -> sums -------------- broadcast -+
//	                +- hash(id) -> ids --- direct -+              |
//	                +- broadcast ----------------> byid - hash(g) -> byg -> total
func sharedSubtreePlan() *Plan {
	return MustPlan(
		&Stage{ID: 0, Name: "read", Reader: &ReaderSpec{Table: "t"}},
		&Stage{ID: 1, Name: "shared",
			Op:     ops.NewFilterSpec(expr.Ge(expr.C("id"), expr.Int64(0))),
			Inputs: []StageInput{{Stage: 0, Part: Direct()}}},
		&Stage{ID: 2, Name: "sums",
			Op:     ops.NewHashAggSpec([]string{"g"}, ops.Sum("sg", expr.C("v"))),
			Inputs: []StageInput{{Stage: 1, Part: Hash("g")}}},
		&Stage{ID: 3, Name: "ids",
			Op:     ops.NewHashAggSpec([]string{"id"}, ops.CountStar("c")),
			Inputs: []StageInput{{Stage: 1, Part: Hash("id")}}},
		&Stage{ID: 4, Name: "byid",
			Op: ops.NewHashJoinSpec(ops.InnerJoin, []string{"id"}, []string{"id"}),
			Inputs: []StageInput{
				{Stage: 1, Part: Broadcast(), Phase: 0},
				{Stage: 3, Part: Direct(), Phase: 1},
			}},
		&Stage{ID: 5, Name: "byg",
			Op: ops.NewHashJoinSpec(ops.InnerJoin, []string{"g"}, []string{"g"}),
			Inputs: []StageInput{
				{Stage: 2, Part: Broadcast(), Phase: 0},
				{Stage: 4, Part: Hash("g"), Phase: 1},
			}},
		&Stage{ID: 6, Name: "total", Parallelism: 1,
			Op:     ops.NewHashAggSpec([]string{"g"}, ops.Sum("v", expr.C("v")), ops.Sum("sg", expr.C("sg")), ops.Sum("c", expr.C("c"))),
			Inputs: []StageInput{{Stage: 5, Part: Single()}}},
	)
}

// sharedSubtreeTable has integer-valued floats, so sums are exact in any
// order and results compare byte for byte.
func sharedSubtreeTable(n, splits int) []*batch.Batch {
	s := batch.NewSchema(batch.F("id", batch.Int64), batch.F("g", batch.Int64), batch.F("v", batch.Float64))
	per := n / splits
	var out []*batch.Batch
	for lo := 0; lo < n; lo += per {
		ids, gs, vs := make([]int64, per), make([]int64, per), make([]float64, per)
		for j := range ids {
			ids[j] = int64(lo + j)
			gs[j] = int64((lo + j) % 7)
			vs[j] = float64((lo + j) % 13)
		}
		out = append(out, batch.MustNew(s, []*batch.Column{
			batch.NewIntColumn(ids), batch.NewIntColumn(gs), batch.NewFloatColumn(vs),
		}))
	}
	return out
}

// TestReplayedPiecesAreTheStoredOnes kills a worker under every mode that
// can recover and checks the recovery pushed, for each of the shared
// producer's three edges, exactly the bytes the original push carried —
// the piece set is the push payload, the backup and the replay source —
// and that the result is the failure-free run's, byte for byte. A piece
// elided under write-ahead lineage was pushed as its batch alone and has no
// stored bytes; its consumer died with it, and so did its producer, whose
// re-execution re-feeds the rewound consumer the very rows it was handed.
func TestReplayedPiecesAreTheStoredOnes(t *testing.T) {
	tables := map[string][]*batch.Batch{"t": sharedSubtreeTable(4000, 40)}
	for _, ft := range []FTMode{FTWriteAheadLineage, FTCheckpoint, FTSpool} {
		t.Run(ft.String(), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.FT = ft
			cfg.CheckpointEveryTasks = 2
			want, _ := runPlan(t, testCluster(t, 4, tables), sharedSubtreePlan(), cfg)
			if want == nil || want.NumRows() != 7 {
				t.Fatalf("failure-free result: %v", want)
			}

			cl := testCluster(t, 4, tables)
			mu, pushes := logPushes(cl, nil)
			r, err := NewRunner(cl, sharedSubtreePlan(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			// Worker 1 hosts channel 1 of every stage. Kill it once the shared
			// stage's channels on two survivors have committed a task over a
			// split of their own reader (the direct edge's other partitions are
			// empty): their backups, or spool objects, then feed the rewound
			// consumers. The victim's own channel must have consumed one too,
			// or under write-ahead lineage no elided reader piece died with it.
			consumedOwn := func(tx *gcs.Txn, ch int) bool {
				wm := committedWatermark(tx, r, lineage.ChannelID{Stage: 1, Channel: ch}, -1)
				return wm[lineage.EdgeChannel{Input: 0, UpChannel: ch}] > 0
			}
			killInTxn(cl, 1, func(tx *gcs.Txn) bool {
				return consumedOwn(tx, 0) && consumedOwn(tx, 1) && consumedOwn(tx, 2)
			})
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			got, rep, err := r.Run(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Recoveries == 0 || rep.Metrics[metrics.RecoveryReplays] == 0 {
				t.Fatalf("recoveries = %d, replays = %d: the kill exercised nothing", rep.Recoveries, rep.Metrics[metrics.RecoveryReplays])
			}
			if !bytes.Equal(batch.Encode(got), batch.Encode(want)) {
				t.Fatalf("result differs from the failure-free run:\nwant %v\ngot  %v", want, got)
			}

			// Every committed-epoch push re-feeds a partition some task pushed
			// before the failure; the first push of that piece is the original.
			mu.Lock()
			defer mu.Unlock()
			type pieceKey struct {
				from  lineage.TaskName
				dest  lineage.ChannelID
				input int
			}
			original := map[pieceKey]flight.Partition{}
			again := map[pieceKey][]flight.Partition{} // a rewound producer's pushes of a piece
			replayedTo := map[int]int{}                // shared stage's pieces, by consumer stage
			for _, p := range *pushes {
				k := pieceKey{p.From, p.Dest, p.Input}
				first, seen := original[k]
				if p.Epoch != flight.EpochCommitted {
					if !seen {
						original[k] = p
					} else if p.Epoch > first.Epoch {
						again[k] = append(again[k], p)
					}
					continue
				}
				if !seen {
					// Its first push went to the worker that then died.
					continue
				}
				if len(first.Data) == 0 && first.Batch != nil {
					t.Fatalf("elided piece %s -> %s input %d was re-pushed as stored bytes", p.From, p.Dest, p.Input)
				}
				if !bytes.Equal(p.Data, first.Data) {
					t.Fatalf("replayed %s -> %s input %d: %d bytes differ from the %d originally pushed",
						p.From, p.Dest, p.Input, len(p.Data), len(first.Data))
				}
				if p.From.Stage == 1 && len(p.Data) > 0 {
					replayedTo[p.Dest.Stage]++
				}
			}
			for _, stage := range []int{2, 3, 4} {
				if replayedTo[stage] == 0 {
					t.Errorf("no stored piece of the shared stage was replayed to stage %d (%s)", stage, fmt.Sprint(replayedTo))
				}
			}
			// rows is what a push carries, as encoded rows: its batch if elided.
			rows := func(p flight.Partition) []byte {
				if len(p.Data) == 0 && p.Batch != nil {
					return batch.Encode(p.Batch)
				}
				b, err := batch.Decode(p.Data)
				if err != nil {
					t.Fatal(err)
				}
				return batch.Encode(b)
			}
			// Every elided reader piece on the victim (channel 1's: a piece is
			// elided only beside its consumer) comes back from the rewound
			// reader's retrace of its split, and nowhere else. Only pieces first
			// pushed before the kill (epoch 0) count: the rewound reader sits
			// beside its rewound consumer again, so its first push of a split it
			// had not reached is elided too.
			refed := 0
			for k, first := range original {
				if k.from.Stage != 0 || k.from.Channel != 1 || first.Epoch != 0 || len(first.Data) > 0 || first.Batch == nil {
					continue
				}
				if len(again[k]) == 0 {
					t.Errorf("elided piece %s -> %s never reached the rewound consumer again", k.from, k.dest)
				}
				for _, p := range again[k] {
					if !bytes.Equal(rows(p), rows(first)) {
						t.Errorf("rewound reader re-fed %s -> %s rows that differ from those first handed over", k.from, k.dest)
					}
				}
				refed++
			}
			if elides := ftTable[ft].elidesLocal(); elides != (refed > 0) {
				t.Errorf("%d elided reader pieces died with their consumer, under a policy that elides: %v", refed, elides)
			}
		})
	}
}
