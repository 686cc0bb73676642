package engine

import (
	"slices"
	"sync"
	"testing"

	"quokka/internal/batch"
	"quokka/internal/expr"
	"quokka/internal/gcs"
	"quokka/internal/lineage"
	"quokka/internal/ops"
	"quokka/internal/storage"
	"quokka/internal/trace"
)

// survivors is a zone-map survivor list over 24 splits: 18 entries, so at
// parallelism 4 and runs of 2 channels 0 and 1 end on a short run of one.
var survivors = []int{0, 1, 2, 4, 5, 6, 9, 10, 11, 12, 13, 14, 16, 17, 18, 19, 20, 21}

// TestReaderRunsCoverTheSplitList: run k of channel c is entries
// c + (kR+i)·P of the split list, i < R — the survivor list when pruned —
// so the channels' runs read every entry exactly once, a short last run
// included, and past the last run there is none.
func TestReaderRunsCoverTheSplitList(t *testing.T) {
	const par, n = 4, 2
	for _, spec := range []*ReaderSpec{{Table: "t"}, {Table: "t", Splits: survivors, TotalSplits: 24}} {
		entries := 24
		if spec.Splits != nil {
			entries = len(spec.Splits)
		}
		var read []int
		short := 0
		for c := range par {
			for k := 0; ; k++ {
				run := readerRun(spec, c, par, n, k, entries)
				if run == nil {
					break
				}
				for i, split := range run {
					want := c + (k*n+i)*par
					if spec.Splits != nil {
						want = spec.Splits[want]
					}
					if split != want {
						t.Errorf("pruned=%v: run %d of channel %d reads split %d at %d, want %d", spec.Splits != nil, k, c, split, i, want)
					}
				}
				if len(run) < n {
					short++
				}
				read = append(read, run...)
			}
		}
		slices.Sort(read)
		want := spec.Splits
		if want == nil {
			for i := range entries {
				want = append(want, i)
			}
		}
		if !slices.Equal(read, want) {
			t.Errorf("pruned=%v: the runs read %v, want each of %v once", spec.Splits != nil, read, want)
		}
		if spec.Splits != nil && short != 2 {
			t.Errorf("%d short last runs over the survivor list, want 2", short)
		}
	}
}

// splitReads counts the object-store reads of each key.
type splitReads struct {
	storage.Objects
	mu sync.Mutex
	n  map[string]int
}

func (s *splitReads) Get(key string) ([]byte, error) {
	return one(s.GetMany([]string{key}))
}

func (s *splitReads) GetMany(keys []string) ([][]byte, error) {
	s.mu.Lock()
	for _, k := range keys {
		s.n[k]++
	}
	s.mu.Unlock()
	return s.Objects.GetMany(keys)
}

func one(vals [][]byte, err error) ([]byte, error) {
	if err != nil {
		return nil, err
	}
	return vals[0], nil
}

// TestRewoundReaderReReadsItsRuns: a reader channel rewound after its second
// run re-reads exactly its runs over a pruned survivor list, the short last
// run included: each task of the new incarnation emits what the same task of
// the old one did, no pruned split is ever read, and the result is the
// failure-free one.
func TestRewoundReaderReReadsItsRuns(t *testing.T) {
	const rows = 2400
	plan := func() *Plan {
		return MustPlan(
			&Stage{ID: 0, Name: "read▸filter", Reader: &ReaderSpec{Table: "numbers", Splits: survivors, TotalSplits: 24},
				Op: ops.NewFilterSpec(expr.Ge(expr.C("id"), expr.Int64(150)))},
			&Stage{ID: 1, Name: "agg", Parallelism: 1,
				Op:     ops.NewHashAggSpec(nil, ops.Sum("s", expr.C("v")), ops.CountStar("c")),
				Inputs: []StageInput{{Stage: 0, Part: Single()}}},
		)
	}
	tables := map[string][]*batch.Batch{"numbers": numbersTable(rows, 24)}
	cfg := DefaultConfig()
	cfg.MinTake = 2
	want, _ := runPlan(t, testCluster(t, 4, tables), plan(), cfg)

	cl := testCluster(t, 4, tables)
	reads := &splitReads{Objects: cl.ObjStore, n: map[string]int{}}
	cl.ObjStore = reads
	Configure(cl, WithTracing(true))
	r, err := NewRunner(cl, plan(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Channel 1 sits on worker 1 and has runs of entries {1,5}, {9,13}, {17}
	// of the survivor list — physical splits {1,6}, {12,17}, {21} — and a
	// last task.
	ch := lineage.ChannelID{Stage: 0, Channel: 1}
	killInTxn(cl, 1, func(tx *gcs.Txn) bool { return txGetInt(tx, r.keyCursor(ch), 0) >= 2 })
	q := r.Start(t.Context())
	got, rep, err := q.Result()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Recoveries == 0 {
		t.Fatal("the kill exercised no recovery")
	}
	if string(batch.Encode(got)) != string(batch.Encode(want)) {
		t.Fatalf("result %v, want %v", got, want)
	}

	// What each incarnation's task k of the channel emitted.
	out := map[int]map[int]int64{} // epoch -> seq -> rows out
	for _, s := range q.Trace().Snapshot() {
		if s.Kind == trace.KindTask && s.Stage == ch.Stage && s.Channel == ch.Channel {
			if out[s.Epoch] == nil {
				out[s.Epoch] = map[int]int64{}
			}
			out[s.Epoch][s.Seq] = s.OutRows
		}
	}
	rerun := 0
	for epoch, tasks := range out {
		if epoch == 0 {
			continue
		}
		if len(tasks) != 4 {
			t.Errorf("incarnation %d ran tasks %v, want the 3 runs and the last task", epoch, tasks)
		}
		for seq, n := range tasks {
			if first, ok := out[0][seq]; ok {
				rerun++
				if n != first {
					t.Errorf("task %d emitted %d rows in incarnation %d, %d in the first", seq, n, epoch, first)
				}
			}
		}
	}
	if rerun < 2 {
		t.Errorf("%d tasks ran in both incarnations, want the 2 runs committed before the kill", rerun)
	}
	reads.mu.Lock()
	defer reads.mu.Unlock()
	for i := range 24 {
		n := reads.n[tableSplitKey("numbers", i)]
		switch {
		case !slices.Contains(survivors, i) && n != 0:
			t.Errorf("pruned split %d read %d times", i, n)
		case slices.Contains(survivors, i) && n == 0:
			t.Errorf("survivor %d never read", i)
		}
	}
	for _, split := range []int{1, 6, 12, 17} {
		if n := reads.n[tableSplitKey("numbers", split)]; n < 2 {
			t.Errorf("split %d of the rewound channel's first two runs read %d times, want a re-read", split, n)
		}
	}
}

// fusedJoinPlan is joinPlan as the Optimized lowering would fuse it: the fact
// reader runs a filter, and the join's channels run a select and a partial
// aggregate in the join's task, ahead of the final merge.
func fusedJoinPlan() *Plan {
	return MustPlan(
		&Stage{ID: 0, Name: "read-dim", Reader: &ReaderSpec{Table: "dim"}},
		&Stage{ID: 1, Name: "read-fact▸filter", Reader: &ReaderSpec{Table: "fact"},
			Op: ops.NewFilterSpec(expr.Ge(expr.C("v"), expr.Float64(0)))},
		&Stage{ID: 2, Name: "join▸select▸agg-partial",
			Op: ops.Chain{Members: []ops.Spec{
				ops.NewHashJoinSpec(ops.InnerJoin, []string{"k"}, []string{"fk"}),
				ops.NewProjectSpec(ops.NE("name", expr.C("name")), ops.NE("v", expr.C("v"))),
				ops.NewHashAggPartialSpec([]string{"name"}, ops.CountStar("c"), ops.Sum("sv", expr.C("v"))),
			}},
			Inputs: []StageInput{
				{Stage: 0, Part: Hash("k"), Phase: 0},
				{Stage: 1, Part: Hash("fk"), Phase: 1},
			}},
		&Stage{ID: 3, Name: "agg", Parallelism: 1,
			Op:     ops.NewHashAggSpec([]string{"name"}, ops.Sum("c", expr.C("c")), ops.Sum("sv", expr.C("sv"))),
			Inputs: []StageInput{{Stage: 2, Part: Single()}}},
	)
}

// TestFusedChainRecovery: a worker killed mid-query under a fused plan — a
// reader running a filter, a join running a select and a partial aggregate —
// recovers in every FT mode that recovers: rewound readers re-read their
// runs through their chain, rewound joins retrace their ranges through
// theirs, and the result is the failure-free one.
func TestFusedChainRecovery(t *testing.T) {
	tables := joinTables(4000)
	for _, ft := range []FTMode{FTWriteAheadLineage, FTCheckpoint, FTSpool} {
		t.Run(ft.String(), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.FT = ft
			cfg.MinTake = 1
			want, _ := runPlan(t, testCluster(t, 4, tables), fusedJoinPlan(), cfg)
			if want == nil || want.NumRows() != 10 {
				t.Fatalf("failure-free result: %v", want)
			}
			got, rep, err := runWithFailure(t, testCluster(t, 4, tables), fusedJoinPlan(), cfg, 2, 30)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if rep.Recoveries == 0 {
				t.Error("the kill exercised no recovery")
			}
			if string(batch.Encode(got)) != string(batch.Encode(want)) {
				t.Fatalf("result differs from the failure-free run:\nwant %v\ngot  %v", want, got)
			}
		})
	}
}
