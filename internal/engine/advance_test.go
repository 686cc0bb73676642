package engine

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"strconv"
	"testing"
	"time"

	"quokka/internal/batch"
	"quokka/internal/expr"
	"quokka/internal/gcs"
	"quokka/internal/lineage"
	"quokka/internal/metrics"
	"quokka/internal/ops"
)

// The committer advances the image past its own flush instead of letting the
// next round reload it (groupCommitter.advanceImage). These tests pin the two
// halves of that rule: an advanced image is the image a load at its version
// reads, and a flush that was not the only write since the image advances
// nothing.

// q1ShapedPlan is TPC-H Q1's shape over the join tests' fact table: a scan, a
// filter, a grouped aggregate behind a hash shuffle and a sort on one channel.
func q1ShapedPlan() *Plan {
	return MustPlan(
		&Stage{ID: 0, Name: "read", Reader: &ReaderSpec{Table: "fact"}},
		&Stage{ID: 1, Name: "filter",
			Op:     ops.NewFilterSpec(expr.Ge(expr.C("v"), expr.Float64(0))),
			Inputs: []StageInput{{Stage: 0, Part: Direct()}}},
		&Stage{ID: 2, Name: "agg",
			Op:     ops.NewHashAggSpec([]string{"fk"}, ops.Sum("sv", expr.C("v")), ops.CountStar("c")),
			Inputs: []StageInput{{Stage: 1, Part: Hash("fk")}}},
		&Stage{ID: 3, Name: "sort", Parallelism: 1,
			Op:     ops.NewSortSpec(ops.Asc("fk")),
			Inputs: []StageInput{{Stage: 2, Part: Single()}}},
	)
}

// imageDiff describes how two images of one version differ, or is "": in
// epoch, replay entries and rows — a row's coordinates and the record a step
// at its cursor retraces. loaded read every retrace afresh at the version's
// cursors, where advanced carries its epoch's: the records agree at every
// cursor, and the mark is the epoch's restart mark, which a load past the
// restart does not find.
func imageDiff(advanced, loaded *snapshot) string {
	keys := func(s *snapshot) (k []string) {
		for _, e := range s.replays {
			k = append(k, e.key)
		}
		return k
	}
	rows := func(s *snapshot) (out []string) {
		for _, row := range s.chans {
			for _, m := range row {
				out = append(out, fmt.Sprintf("%d/%d/%d/%d %v", m.place, m.cep, m.cursor, m.done, m.record()))
			}
		}
		return out
	}
	if advanced.ver == loaded.ver && advanced.gep == loaded.gep &&
		slices.Equal(rows(advanced), rows(loaded)) && slices.Equal(keys(advanced), keys(loaded)) {
		return ""
	}
	return fmt.Sprintf("version %d/%d: advanced gep %d rows %v replays %v; loaded gep %d rows %v replays %v",
		advanced.ver, loaded.ver, advanced.gep, rows(advanced), keys(advanced), loaded.gep, rows(loaded), keys(loaded))
}

// imageCheck compares every image the committer advances with one loaded at
// the same version. After each committed flush it loads the image of the
// flush's version — when nothing else wrote the namespace before the load
// ended — and when the next flush starts, by which time the committer has
// published whatever it advanced, it compares the two. Apply is the
// committer's alone, and its flushes run one at a time (each on the thread of
// a requester), so none of this runs concurrently with itself.
type imageCheck struct {
	gcs.Backend
	store  *gcs.Store
	r      *Runner
	failed context.CancelFunc // ends the query at the first difference

	loaded   *snapshot // the image loaded at the last flush's version
	advances int64     // the runner's advances when it was loaded
	compared int
	diffs    []string

	// What the last flush committed of a rewound channel: any task, and a
	// consumer's retraced one; and the advances past such flushes.
	rewoundCommit, retraceCommit     bool
	rewoundAdvances, retraceAdvances int
}

func (c *imageCheck) Apply(entries []gcs.Entry) ([]bool, error) {
	c.compare()
	ctx, ns := context.Background(), c.r.keyNS()
	ver := c.store.AwaitNS(ctx, ns, 0, 0) + 1 // the version this flush commits, if nothing comes before it
	applied, err := c.Backend.Apply(entries)
	puts, guards := map[string][]byte{}, map[string]int64{}
	for i, e := range entries {
		if err == nil && applied[i] && e.NS == ns {
			for _, p := range e.Puts {
				puts[p.Key] = p.Val
			}
			for _, g := range e.Guards {
				guards[g.Key] = g.Want
			}
		}
	}
	if len(puts) == 0 || c.store.AwaitNS(ctx, ns, 0, 0) != ver {
		return applied, err
	}
	// A retraced task commits a cursor and no record of its own, under a
	// channel epoch above 0.
	c.rewoundCommit, c.retraceCommit = false, false
	c.store.ViewNS(ns, func(tx *gcs.Txn) error {
		for st, stage := range c.r.plan.Stages {
			for ch := 0; ch < c.r.par[st]; ch++ {
				id := lineage.ChannelID{Stage: st, Channel: ch}
				cur := puts[c.r.keyCursor(id)]
				if cur == nil || guards[c.r.keyChanEpoch(id)] == 0 {
					continue
				}
				c.rewoundCommit = true
				if len(stage.Inputs) == 0 {
					continue
				}
				seq, _ := strconv.Atoi(string(cur))
				rec := c.r.keyLineage(lineage.TaskName{Stage: st, Channel: ch, Seq: seq - 1})
				if _, logged := puts[rec]; !logged {
					if _, ok := tx.Get(rec); ok {
						c.retraceCommit = true
					}
				}
			}
		}
		return nil
	})
	c.advances = c.r.qmet.Get(metrics.ImageAdvances)
	if s, lerr := c.r.loadSnapshot(ver, nil); lerr == nil && c.store.AwaitNS(ctx, ns, 0, 0) == ver {
		c.loaded = s
	}
	return applied, err
}

// compare checks the image the last flush advanced, if it did and nothing
// newer has replaced it: an advance never publishes over a newer image, and a
// load never over one as new.
func (c *imageCheck) compare() {
	if advanced := c.r.qmet.Get(metrics.ImageAdvances) != c.advances; advanced && c.rewoundCommit {
		c.rewoundAdvances++
		if c.retraceCommit {
			c.retraceAdvances++
		}
	}
	c.rewoundCommit, c.retraceCommit = false, false
	loaded := c.loaded
	c.loaded = nil
	s := c.r.snap.Load()
	if loaded == nil || c.r.qmet.Get(metrics.ImageAdvances) == c.advances || s.ver != loaded.ver {
		return
	}
	c.compared++
	if d := imageDiff(s, loaded); d != "" {
		c.diffs = append(c.diffs, d)
		c.failed()
	}
}

// TestAdvancedImageEqualsLoadedImage: an image the committer advanced past
// its flush equals the image a load at that version reads, row for row and
// replay entry for replay entry — for a join and a Q1-shaped plan, in every
// FT mode, with and without a worker killed mid-query (after which rewound
// consumers retrace their records and replay entries retire). The advanced
// image carries its epoch's retraces, the load reads them afresh from each
// cursor, and a step finds the same record in both. A flush carrying a
// rewound channel's commit advances: every kill that recovers shows one, and
// some kill shows one past a consumer's retraced task.
func TestAdvancedImageEqualsLoadedImage(t *testing.T) {
	// Eight times the fact splits the one-split reader tasks ran over: runs of
	// MinTake splits give the readers as many tasks, and the kill lands mid-query.
	tables := joinTables(96000)
	plans := []struct {
		name string
		plan func() *Plan
	}{{"join", joinPlan}, {"q1", q1ShapedPlan}}
	retraceAdvances := 0
	for _, p := range plans {
		for _, ft := range []FTMode{FTWriteAheadLineage, FTNone, FTCheckpoint, FTSpool} {
			for _, kill := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/%s/kill=%v", p.name, ft, kill), func(t *testing.T) {
					cl := testCluster(t, 4, tables)
					cfg := DefaultConfig()
					cfg.FT = ft
					r, err := NewRunner(cl, p.plan(), cfg)
					if err != nil {
						t.Fatal(err)
					}
					store := cl.GCS.(*gcs.Store)
					if kill {
						killAfterTasks(cl, 1, 200)
					}
					ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
					defer cancel()
					check := &imageCheck{Backend: cl.GCS, store: store, r: r, failed: cancel}
					cl.GCS = check
					_, rep, err := r.Run(ctx)
					check.compare()
					if len(check.diffs) > 0 {
						t.Fatalf("%d advanced images differ from the loaded ones; first: %s", len(check.diffs), check.diffs[0])
					}
					if err != nil && !(kill && ft == FTNone && err == ErrQueryFailed) {
						t.Fatalf("Run: %v", err)
					}
					t.Logf("%d advanced images compared", check.compared)
					if check.compared < 50 {
						t.Errorf("%d advanced images compared, want >= 50", check.compared)
					}
					if kill && ft != FTNone && rep.Recoveries == 0 {
						t.Error("the kill exercised no recovery")
					}
					if kill && ft != FTNone && check.rewoundAdvances == 0 {
						t.Error("no advance folded a rewound channel's commit")
					}
					retraceAdvances += check.retraceAdvances
				})
			}
		}
	}
	t.Logf("%d advances past a consumer's retraced task", retraceAdvances)
	if retraceAdvances == 0 {
		t.Error("no advance folded a consumer's retraced task: no kill made one retrace")
	}
}

// foreignWrite commits one write of someone else's into the query's namespace
// right after the armed flush committed — after loading and publishing the
// image at that flush's version, so that an image taken after the commit
// would be stamped with it. It records whether the committer advanced the
// image past that flush.
type foreignWrite struct {
	gcs.Backend
	r      *Runner
	failed context.CancelFunc
	write  func(tx *gcs.Txn) error

	flushes  int
	armedAt  uint64 // the version the armed flush committed; 0 until it has
	advances int64  // the runner's advances just before the foreign write
	loads    int64  // the runner's loads just after it
	pending  bool   // the armed flush's outcome is not checked yet
	advanced bool
	err      error // the foreign write's own failure
}

// check records, once the armed flush has been acked, whether its committer
// advanced the image: only the committer advances, one flush at a time.
func (f *foreignWrite) check() {
	if f.pending {
		f.pending = false
		if f.advanced = f.r.qmet.Get(metrics.ImageAdvances) != f.advances; f.advanced {
			f.failed()
		}
	}
}

func (f *foreignWrite) Apply(entries []gcs.Entry) ([]bool, error) {
	f.check()
	applied, err := f.Backend.Apply(entries)
	if f.flushes++; err != nil || !slices.Contains(applied, true) || f.armedAt != 0 || f.flushes < 5 {
		return applied, err
	}
	ver := f.Backend.AwaitNS(context.Background(), f.r.keyNS(), 0, 0)
	if _, serr := f.r.snapshotAt(ver); serr != nil {
		return applied, err
	}
	f.armedAt, f.advances, f.pending = ver, f.r.qmet.Get(metrics.ImageAdvances), true
	if f.err = f.r.gcsUpdate(f.write); f.err != nil {
		f.failed()
	}
	f.loads = f.r.qmet.Get(metrics.ImageLoads)
	return applied, err
}

// TestAdvanceRefusedAfterAForeignWrite: a flush followed, before its committer
// probes, by someone else's write to the namespace — an inert key, or the
// recovery transaction itself — is not the only write since the image, so the
// committer advances nothing, the next round loads, and the result is the
// failure-free run's. Advancing there would publish an image missing that
// write: after a recovery, one whose global epoch every later flush is
// refused against.
func TestAdvanceRefusedAfterAForeignWrite(t *testing.T) {
	tables := joinTables(2000)
	want, _ := runPlan(t, testCluster(t, 4, tables), joinPlan(), DefaultConfig())
	writes := map[string]func(r *Runner) func(tx *gcs.Txn) error{
		"inert-key": func(r *Runner) func(tx *gcs.Txn) error {
			return func(tx *gcs.Txn) error { tx.Put(r.keyNS()+"test/inert", []byte("x")); return nil }
		},
		"recover": func(r *Runner) func(tx *gcs.Txn) error {
			return func(tx *gcs.Txn) error {
				if err := r.reconcile(tx); err != nil {
					return err
				}
				txPutInt(tx, r.keyGlobalEpoch(), txGetInt(tx, r.keyGlobalEpoch(), 0)+1)
				return nil
			}
		},
	}
	for name, write := range writes {
		t.Run(name, func(t *testing.T) {
			cl := testCluster(t, 4, tables)
			r, err := NewRunner(cl, joinPlan(), DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			f := &foreignWrite{Backend: cl.GCS, r: r, failed: cancel, write: write(r)}
			cl.GCS = f
			got, rep, err := r.Run(ctx)
			f.check()
			if f.armedAt == 0 || f.err != nil {
				t.Fatalf("no flush was followed by a foreign write (%v)", f.err)
			}
			if f.advanced {
				t.Fatalf("the committer advanced the image past the flush at version %d, followed by a foreign write", f.armedAt)
			}
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if rep.Metrics[metrics.ImageLoads] <= f.loads {
				t.Errorf("no image was loaded after the foreign write (%d loads)", rep.Metrics[metrics.ImageLoads])
			}
			if !bytes.Equal(batch.Encode(got), batch.Encode(want)) {
				t.Fatalf("result differs from the failure-free run:\nwant %v\ngot  %v", want, got)
			}
		})
	}
}
