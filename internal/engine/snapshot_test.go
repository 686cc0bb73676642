package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"quokka/internal/batch"
	"quokka/internal/expr"
	"quokka/internal/gcs"
	"quokka/internal/lineage"
	"quokka/internal/metrics"
	"quokka/internal/ops"
)

// The snapshot is the one read path of Algorithm 1; these tests pin what the
// design leans on: a stale image is rejected at step time, an unchanged
// version costs no transaction, a version change costs one view per process,
// and an image is never stamped newer than its content.

// gcsVersion and snapshot are a scan's two reads as these tests take them: a
// probe of the namespace version, and the image of the version it returned.
func (r *Runner) gcsVersion() uint64 { return r.gcsAwait(context.Background(), 0, 0) }

func (r *Runner) snapshot() (*snapshot, error) { return r.snapshotAt(r.gcsVersion()) }

// TestStepRejectsStaleSnapshot drives step under images the channel has
// moved past — a lower cursor at the same epoch, and the same cursor at a
// lower epoch, whose replayRec-less row would otherwise pass for "choose
// fresh inputs at seq 1". Each must do nothing at all: no push, no lineage
// write, no cursor movement. This is the exactly-once hazard of the "stale
// poll snapshots" invariant.
func TestStepRejectsStaleSnapshot(t *testing.T) {
	cl := testCluster(t, 1, map[string][]*batch.Batch{"numbers": numbersTable(400, 4)})
	mu, pushes := logPushes(cl, nil)
	// A seeded query and worker 0's task manager, threads not started: the
	// test drives step itself.
	r, err := NewRunner(cl, scanFilterAggPlan(0), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := r.seed(); err != nil {
		t.Fatal(err)
	}
	tm := newTaskManager(r, cl.Worker(0))
	reader := lineage.ChannelID{Stage: 0, Channel: 0}

	image := func() *snapshot {
		t.Helper()
		s, err := r.snapshot()
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	step := func(cs *chanState, s *snapshot) bool {
		t.Helper()
		cs.protocol.Lock()
		defer cs.protocol.Unlock()
		ok, err := tm.step(cs, s)
		if err != nil {
			t.Fatal(err)
		}
		return ok
	}
	// committed is everything a step may leave behind: pushes delivered, and
	// the namespace's lineage records and cursor.
	committed := func() (n int, state string) {
		mu.Lock()
		n = len(*pushes)
		mu.Unlock()
		r.cl.GCS.ViewNS(r.keyNS(), func(tx *gcs.Txn) error {
			cur, _ := tx.Get(r.keyCursor(reader))
			state = "cur=" + string(cur) + " " + strings.Join(tx.List(r.keyNS()+"lin/"), ",")
			return nil
		})
		return n, state
	}
	rejects := func(cs *chanState, stale *snapshot, why string) {
		t.Helper()
		n, state := committed()
		cursor := cs.cursor
		if step(cs, stale) {
			t.Errorf("%s: step made progress", why)
		}
		if n2, state2 := committed(); n2 != n || state2 != state || cs.cursor != cursor {
			t.Errorf("%s: %d pushes, %s, cursor %d -> %d pushes, %s, cursor %d",
				why, n, state, cursor, n2, state2, cs.cursor)
		}
	}

	atSeed := image()
	tm.refreshChannels(atSeed)
	cs := tm.channels[reader]
	if cs == nil || !step(cs, atSeed) || cs.cursor != 1 {
		t.Fatalf("the first reader task did not commit (channel %v)", cs)
	}
	afterOne := image()
	if m := afterOne.chans[0][0]; m.cursor != 1 || m.cep != 0 || afterOne.ver <= atSeed.ver {
		t.Fatalf("image after one commit: cursor %d, epoch %d, version %d -> %d", m.cursor, m.cep, atSeed.ver, afterOne.ver)
	}
	rejects(cs, atSeed, "previous image (cursor 0, channel at 1)")

	// Rewind the channel as reconcile would, and let it retrace task 0 under
	// the new epoch: it stands at cursor 1 again, epoch 1. Its row carries no
	// record, as a reader re-derives its split from the cursor.
	if err := r.gcsUpdate(func(tx *gcs.Txn) error {
		txPutInt(tx, r.keyChanEpoch(reader), 1)
		txPutInt(tx, r.keyCursor(reader), 0)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	rewound := image()
	if m := rewound.chans[0][0]; m.cep != 1 || m.cursor != 0 || m.rt != nil {
		t.Fatalf("the rewound image: epoch %d, cursor %d, retrace %v; want epoch 1, cursor 0 and no retrace", m.cep, m.cursor, m.rt)
	}
	if !step(cs, rewound) || cs.cep != 1 || cs.cursor != 1 {
		t.Fatalf("replay under the new epoch: epoch %d, cursor %d", cs.cep, cs.cursor)
	}
	rejects(cs, afterOne, "image of the previous epoch (same cursor)")
	rejects(cs, rewound, "image the replay already consumed")
}

// TestChangesFor pins the idle rule's comparison (chanState.idle): a channel
// whose step found nothing to do under s is stepped again under n only when n
// changes what that step read — the global epoch, a replay entry that names
// it (in either image), its own row, the row of a stage it consumes — whether
// n was advanced from s, its
// untouched rows shared, or loaded, every row built afresh.
func TestChangesFor(t *testing.T) {
	// Stages: 0 and 3 read; 1 consumes 0; 2 consumes 1. The channel is (1, 0).
	id, inputs := lineage.ChannelID{Stage: 1, Channel: 0}, []StageInput{{Stage: 0}}
	row := func(cursors ...int) []chanMeta {
		r := make([]chanMeta, len(cursors))
		for c, cur := range cursors {
			r[c] = chanMeta{place: c % 2, cursor: cur, done: -1}
		}
		return r
	}
	s := &snapshot{ver: 7, gep: 2, chans: [][]chanMeta{row(3, 2), row(1, 1), row(0), row(5, 4)}}
	advanced := func(st, c int) *snapshot {
		t.Helper()
		n := s.advance(s.ver+1, s.gep, []*commitReq{{id: lineage.ChannelID{Stage: st, Channel: c},
			task: lineage.TaskName{Stage: st, Channel: c, Seq: s.chans[st][c].cursor}}})
		if n == nil {
			t.Fatalf("advance of (%d, %d) refused", st, c)
		}
		return n
	}
	// loaded is s as a load at ver+1 would build it: no row shared, each
	// row's retrace carried, as at one global epoch; edit changes the copy.
	loaded := func(from *snapshot, edit func(n *snapshot)) *snapshot {
		n := &snapshot{ver: from.ver + 1, gep: from.gep, chans: make([][]chanMeta, len(from.chans))}
		for st, r := range from.chans {
			n.chans[st] = slices.Clone(r)
		}
		if edit != nil {
			edit(n)
		}
		return n
	}
	withReplays := func(from *snapshot, rp ...replayEntry) *snapshot {
		n := *from
		n.replays = rp
		return &n
	}
	entry := replayEntry{key: "q/q1/rp/1/0.1.0", worker: 1, task: lineage.TaskName{Stage: 0, Channel: 1},
		dests: []lineage.ChannelID{{Stage: 2, Channel: 0}, id}}
	other := replayEntry{key: "q/q1/rp/1/0.1.1", worker: 1, task: lineage.TaskName{Stage: 0, Channel: 1, Seq: 1},
		dests: []lineage.ChannelID{{Stage: 1, Channel: 1}}}
	// A rewound channel's row carries its epoch's retrace: two records from
	// its cursor on, and its restart mark.
	rewound := loaded(s, func(n *snapshot) {
		n.chans[1][0].cep = 1
		n.chans[1][0].rt = &retrace{from: 1, recs: []lineage.Record{{UpChannel: 1, Count: 2}, {UpChannel: 0, Count: 1}},
			mark: &checkpointMark{Seq: 1, ObjKey: "ck/1.0", WM: lineage.Watermark{{UpChannel: 1}: 2}}}
	})
	advancedRewound := rewound.advance(rewound.ver+1, rewound.gep, []*commitReq{{id: id, task: lineage.TaskName{Stage: 1, Seq: 1}}})

	for _, tc := range []struct {
		name string
		s, n *snapshot
		want bool
	}{
		{"same image", s, s, false},
		{"advance of an unrelated stage", s, advanced(3, 1), false},
		{"advance of a consuming stage", s, advanced(2, 0), false},
		{"advance of a sibling channel", s, advanced(1, 1), false},
		{"advance of its own row", s, advanced(1, 0), true},
		{"advance of an input stage's row", s, advanced(0, 1), true},
		{"another global epoch", s, loaded(s, func(n *snapshot) { n.gep++ }), true},
		{"an entry naming it appears", s, withReplays(s, entry), true},
		{"an entry naming it is retired", withReplays(s, entry, other), withReplays(s, other), true},
		{"an entry naming it is unchanged", withReplays(s, entry), withReplays(advanced(3, 0), entry), true},
		{"only an entry naming another channel is retired", withReplays(s, other), s, false},
		{"an entry naming another channel is unchanged", withReplays(s, other), withReplays(advanced(3, 0), other), false},
		{"load, same content", s, loaded(s, nil), false},
		{"load of a rewound row, same content", rewound, loaded(rewound, nil), false},
		{"load, unrelated stage moved", s, loaded(s, func(n *snapshot) { n.chans[3][0].cursor++ }), false},
		{"load, own cursor moved", s, loaded(s, func(n *snapshot) { n.chans[1][0].cursor++ }), true},
		{"load, own epoch moved", s, loaded(s, func(n *snapshot) { n.chans[1][0].cep++ }), true},
		{"load, input finished", s, loaded(s, func(n *snapshot) { n.chans[0][1].done = 2 }), true},
		{"load, input moved worker", s, loaded(s, func(n *snapshot) { n.chans[0][0].place = 1 }), true},
		{"advance of a rewound row to its next record", rewound, advancedRewound, true},
		{"advance of an unrelated stage, a rewound row carried", rewound, rewound.advance(rewound.ver+1, rewound.gep,
			[]*commitReq{{id: lineage.ChannelID{Stage: 3}, task: lineage.TaskName{Stage: 3, Seq: 5}}}), false},
		{"load at the next epoch, the retrace read again", rewound, loaded(rewound, func(n *snapshot) {
			n.gep++
			n.chans[1][0].rt = &retrace{from: 1, recs: rewound.chans[1][0].rt.recs}
		}), true},
	} {
		if got := tc.s.changesFor(tc.n, id, inputs); got != tc.want {
			t.Errorf("%s: changesFor = %v, want %v", tc.name, got, tc.want)
		}
	}
	if rec := advancedRewound.chans[1][0].record(); rec == nil || *rec != rewound.chans[1][0].rt.recs[1] {
		t.Errorf("advanced past its first retraced task, the rewound row's record is %v, want the retrace's second", rec)
	}
}

// TestSnapshotSkipsNeverRewoundChannels: the image reads a retrace — the
// lineage records from the cursor on, and the checkpoint mark — only for a
// channel some recovery rewound (epoch above 0), as only reconcile leaves a
// record at a cursor, and only at the first image of a global epoch: later
// images at that epoch carry it while the cursor moves through it, and the
// next epoch's first image reads it again. Records planted at the cursor of an
// epoch-0 channel are not loaded; the same records at an epoch-1 channel are.
func TestSnapshotSkipsNeverRewoundChannels(t *testing.T) {
	cl := testCluster(t, 2, map[string][]*batch.Batch{"numbers": numbersTable(400, 4)})
	cfg := DefaultConfig()
	cfg.FT = FTCheckpoint
	r, err := NewRunner(cl, scanFilterAggPlan(0), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.seed(); err != nil {
		t.Fatal(err)
	}
	fresh, rewound := lineage.ChannelID{Stage: 1, Channel: 0}, lineage.ChannelID{Stage: 1, Channel: 1}
	update := func(fn func(tx *gcs.Txn)) *snapshot {
		t.Helper()
		if err := r.gcsUpdate(func(tx *gcs.Txn) error { fn(tx); return nil }); err != nil {
			t.Fatal(err)
		}
		s, err := r.snapshot()
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	recs := []lineage.Record{lineage.Consume(0, 1, 0, 1), lineage.Consume(0, 1, 1, 2)}
	s := update(func(tx *gcs.Txn) {
		for _, id := range []lineage.ChannelID{fresh, rewound} {
			for q, rec := range recs {
				tx.Put(r.keyLineage(lineage.TaskName{Stage: id.Stage, Channel: id.Channel, Seq: q}), rec.Encode())
			}
			tx.Put(r.keyCheckpoint(id), encodeCheckpoint(checkpointMark{Seq: 1, ObjKey: "ckpt/x"}))
		}
		txPutInt(tx, r.keyChanEpoch(rewound), 1)
	})
	if m := s.chans[fresh.Stage][fresh.Channel]; m.rt != nil {
		t.Errorf("epoch-0 channel %s: retrace %v loaded", fresh, m.rt)
	}
	m := s.chans[rewound.Stage][rewound.Channel]
	if m.rt == nil || m.rt.from != 0 || !slices.Equal(m.rt.recs, recs) || m.rt.mark == nil || m.rt.mark.Seq != 1 {
		t.Fatalf("epoch-1 channel %s: retrace %+v, want records %v from cursor 0 and the mark at 1", rewound, m.rt, recs)
	}
	if rec := m.record(); rec == nil || *rec != recs[0] {
		t.Errorf("epoch-1 channel %s at cursor 0: record %v, want %v", rewound, rec, recs[0])
	}

	// The channel retraces task 0, and a record appears past the retrace: a
	// later image at the epoch reads neither again, and carries the retrace
	// to the new cursor.
	s = update(func(tx *gcs.Txn) {
		tx.Put(r.keyLineage(lineage.TaskName{Stage: rewound.Stage, Channel: rewound.Channel, Seq: 2}), recs[1].Encode())
		txPutInt(tx, r.keyCursor(rewound), 1)
	})
	if n := s.chans[rewound.Stage][rewound.Channel]; n.rt != m.rt {
		t.Errorf("a second image at the epoch read the retrace again: %+v", n.rt)
	} else if rec := n.record(); rec == nil || *rec != recs[1] {
		t.Errorf("at cursor 1: record %v, want %v", rec, recs[1])
	}
	// The next epoch's first image reads it from the cursor.
	s = update(func(tx *gcs.Txn) { txPutInt(tx, r.keyGlobalEpoch(), 2) })
	if n := s.chans[rewound.Stage][rewound.Channel]; n.rt == m.rt || n.rt.from != 1 || len(n.rt.recs) != 2 {
		t.Errorf("the next epoch's image: retrace %+v, want the records at 1 and 2 read afresh", n.rt)
	}
}

// TestStaleImageDoesNotRunANewChannelSet: a round does not run under an image
// older than the recovery that made the worker's channel set. A channel a
// recovery has just placed on this worker starts blank, so step's checks
// cannot tell its pre-rewind row — the dead incarnation's epoch, cursor and
// watermark — from news: it would adopt the row and run the dead
// incarnation's round, its retrace or its choice of inputs, as its own.
func TestStaleImageDoesNotRunANewChannelSet(t *testing.T) {
	cl := testCluster(t, 2, map[string][]*batch.Batch{"numbers": numbersTable(400, 4)})
	r, err := NewRunner(cl, scanFilterAggPlan(0), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := r.seed(); err != nil {
		t.Fatal(err)
	}
	tm := newTaskManager(r, cl.Worker(0))
	old, err := r.snapshot()
	if err != nil {
		t.Fatal(err)
	}
	moved := lineage.ChannelID{Stage: 1, Channel: 1} // a filter channel, seeded on worker 1
	if !tm.refreshChannels(old) || tm.channels[moved] != nil {
		t.Fatalf("seed image: channel %s on worker 0: %v", moved, tm.channels[moved])
	}
	// Worker 1's channels as a recovery leaves them: re-placed on worker 0
	// under a new epoch, and the global epoch bumped.
	if err := r.gcsUpdate(func(tx *gcs.Txn) error {
		for s := range r.par {
			for c := 1; c < r.par[s]; c += 2 {
				id := lineage.ChannelID{Stage: s, Channel: c}
				txPutInt(tx, r.keyPlacement(id), 0)
				txPutInt(tx, r.keyChanEpoch(id), 1)
			}
		}
		txPutInt(tx, r.keyGlobalEpoch(), 2)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	fresh, err := r.snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !tm.refreshChannels(fresh) || tm.channels[moved] == nil {
		t.Fatalf("image after the recovery: channel %s not on worker 0", moved)
	}
	// A slow thread still holds the old image: its round runs nothing.
	r.snap.Store(old)
	if progressed, scanned := tm.poll(old.ver, func() {}); progressed || scanned != old.ver {
		t.Errorf("a round under the pre-recovery image: progressed %v under version %d (image %d)", progressed, scanned, old.ver)
	}
	if cs := tm.channels[moved]; cs.cep != -1 || cs.op != nil {
		t.Errorf("the pre-recovery image reached channel %s: epoch %d", moved, cs.cep)
	}
	r.snap.Store(fresh)
	if progressed, _ := tm.poll(fresh.ver, func() {}); !progressed {
		t.Error("a round under the current image ran nothing")
	}
}

// hookedStore runs after once a view has read and before its caller sees the
// answer: a commit that races the view.
type hookedStore struct {
	gcs.Backend
	after func()
}

func (s *hookedStore) ViewNS(ns string, fn func(tx *gcs.Txn) error) error {
	err := s.Backend.ViewNS(ns, fn)
	if s.after != nil {
		s.after()
	}
	return err
}

// TestSnapshotOneViewPerVersion: while the namespace version stands still,
// any number of rounds on any number of threads cost no transaction; one
// commit is followed by exactly one view, whoever asks first; and an image
// whose view raced a commit is stamped with the version probed before the
// view, so the next round does not take it for current.
func TestSnapshotOneViewPerVersion(t *testing.T) {
	cl := testCluster(t, 4, map[string][]*batch.Batch{"numbers": numbersTable(400, 4)})
	store := &hookedStore{Backend: cl.GCS}
	cl.GCS = store
	r, err := NewRunner(cl, scanFilterAggPlan(0), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := r.seed(); err != nil {
		t.Fatal(err)
	}
	txns := func() int64 { return cl.Metrics.Get(metrics.GCSTxns) }
	// everyone polls from 4 workers x 8 threads at once and returns the one
	// image they must all have been served.
	everyone := func(rounds int) *snapshot {
		t.Helper()
		const pollers = 32
		got := make([]*snapshot, pollers)
		var wg sync.WaitGroup
		for i := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for n := 0; n < rounds; n++ {
					s, err := r.snapshot()
					if err != nil {
						t.Error(err)
						return
					}
					got[i] = s
				}
			}()
		}
		wg.Wait()
		for _, s := range got {
			if s != got[0] {
				t.Fatalf("pollers at one version were served different images (%p, %p)", s, got[0])
			}
		}
		return got[0]
	}
	commit := func(key string, v int) {
		t.Helper()
		if err := r.gcsUpdate(func(tx *gcs.Txn) error { txPutInt(tx, key, v); return nil }); err != nil {
			t.Fatal(err)
		}
	}

	base := txns()
	first := everyone(1)
	if got := txns() - base; got != 1 {
		t.Errorf("first image: %d transactions, want the one view", got)
	}
	if again := everyone(50); again != first || txns()-base != 1 {
		t.Errorf("unchanged version: image %p -> %p, %d transactions since the first view", first, again, txns()-base-1)
	}

	commit(r.keyGlobalEpoch(), 3)
	base = txns()
	second := everyone(20)
	if got := txns() - base; got != 1 {
		t.Errorf("after one commit: %d views for 32 pollers, want 1", got)
	}
	if second == first || second.gep != 3 || second.ver <= first.ver {
		t.Errorf("after one commit: gep %d at version %d (was %d)", second.gep, second.ver, first.ver)
	}

	// A commit lands between a view's read and its return. The image must not
	// claim the version that commit produced.
	commit(r.keyGlobalEpoch(), 4)
	store.after = func() {
		store.after = nil
		commit(r.keyGlobalEpoch(), 5)
	}
	raced, err := r.snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if now := r.gcsVersion(); raced.gep != 4 || raced.ver >= now {
		t.Fatalf("raced image: gep %d stamped %d, namespace at %d", raced.gep, raced.ver, now)
	}
	base = txns()
	if next := everyone(10); next.gep != 5 || next.ver != r.gcsVersion() || txns()-base != 1 {
		t.Errorf("after the race: gep %d at version %d (namespace at %d), %d views", next.gep, next.ver, r.gcsVersion(), txns()-base)
	}
}

// viewCounter counts the views of the control store and, of them, the ones
// loadSnapshot makes: the images loaded. fail, if set, is asked before each
// view; an error it returns fails the view with its body unrun, as a lost
// exchange would.
type viewCounter struct {
	gcs.Backend
	views, loads atomic.Int64
	fail         func() error
}

func (v *viewCounter) ViewNS(ns string, fn func(tx *gcs.Txn) error) error {
	v.views.Add(1)
	pcs := make([]uintptr, 64)
	frames := runtime.CallersFrames(pcs[:runtime.Callers(2, pcs)])
	for f, more := frames.Next(); ; f, more = frames.Next() {
		if strings.HasSuffix(f.Function, ".(*Runner).loadSnapshot") {
			v.loads.Add(1)
			break
		}
		if !more {
			break
		}
	}
	if v.fail != nil {
		if err := v.fail(); err != nil {
			return err
		}
	}
	return v.Backend.ViewNS(ns, fn)
}

// TestEveryWorkerReadIsAnImageLoad: a worker reads the control store only by
// loading an image, through a recovery and the replay drain after it — the
// replay queue and the lineage record a rewound channel retraces come with the
// image, so the views equal the images loaded. And a view that fails after the recovery
// committed is a failed image load: the query ends, with its result or with
// that error, and never waits for a replay nobody will run.
func TestEveryWorkerReadIsAnImageLoad(t *testing.T) {
	errLost := errors.New("view lost")
	// run kills worker 1 once the fact readers on the other three have each
	// committed two splits, so the recovery queues backups to replay and a
	// lost reader retraces its splits; failAt > 0 fails the failAt-th view
	// after the recovery transaction.
	run := func(t *testing.T, failAt int64) (*viewCounter, *Report, error) {
		t.Helper()
		cl := testCluster(t, 4, joinTables(1200))
		r, err := NewRunner(cl, joinPlan(), DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		killInTxn(cl, 1, func(tx *gcs.Txn) bool {
			for _, c := range []int{0, 2, 3} {
				if txGetInt(tx, r.keyCursor(lineage.ChannelID{Stage: 1, Channel: c}), 0) < 2 {
					return false
				}
			}
			return true
		})
		var recovered atomic.Bool
		var after atomic.Int64
		hookTxns(cl, func(tx *gcs.Txn, c committed) {
			if _, ok := c.writes[r.keyGlobalEpoch()]; ok && txGetInt(tx, r.keyGlobalEpoch(), 0) > 1 {
				recovered.Store(true)
			}
		})
		// Outermost: the hooks' own views of what a flush applied are no
		// worker's reads.
		views := &viewCounter{Backend: cl.GCS}
		cl.GCS = views
		views.fail = func() error {
			if failAt > 0 && recovered.Load() && after.Add(1) == failAt {
				return errLost
			}
			return nil
		}
		defer func() {
			if failAt > 0 && after.Load() < failAt {
				t.Errorf("%d views after the recovery: none failed", after.Load())
			}
		}()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		out, rep, err := r.Run(ctx)
		if ctx.Err() != nil {
			t.Fatalf("the query stalled: %v", err)
		}
		if err == nil && (out == nil || out.NumRows() != 10) {
			t.Fatalf("result: %v", out)
		}
		return views, rep, err
	}

	views, rep, err := run(t, 0)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Recoveries == 0 || rep.Metrics[metrics.RecoveryReplays] == 0 {
		t.Fatalf("%d recoveries, %d replays: the kill exercised nothing", rep.Recoveries, rep.Metrics[metrics.RecoveryReplays])
	}
	if v, l := views.views.Load(), views.loads.Load(); v != l || l == 0 {
		t.Errorf("%d views of the control store for %d images loaded: a worker read outside the image", v, l)
	}
	// The image advances past every commit, a rewound channel's included, so a
	// recovery is followed by one load in nearly every run; a later one
	// happens only by scheduling. The failure goes to that first load.
	t.Run("view-1-after-recovery-fails", func(t *testing.T) {
		if _, _, err := run(t, 1); err != nil && !errors.Is(err, errLost) {
			t.Fatalf("Run: %v, want the result or %v", err, errLost)
		}
	})
}

// flushGuards counts the guard keys of every flush entry by class: what a
// flush reads of the control store is its guards and nothing else.
type flushGuards struct {
	gcs.Backend
	mu      sync.Mutex
	guarded map[string]int
}

func (f *flushGuards) Apply(entries []gcs.Entry) ([]bool, error) {
	f.mu.Lock()
	for _, e := range entries {
		for _, g := range e.Guards {
			class, _, _ := strings.Cut(strings.TrimPrefix(g.Key, e.NS), "/")
			f.guarded[class]++
		}
	}
	f.mu.Unlock()
	return f.Backend.Apply(entries)
}

// TestFlushReadsOnlyItsFences: a flush reads the control store only through
// its entries' guards — data the store checks, where a body could once read
// anything — and every guard key is a fence: the global epoch of the entry's
// query, or the channel epoch of a task commit. In every FT mode, with and
// without a kill. What a commit needs of the control store came with the image
// its task ran under: a rewound channel's next record is its image's retrace,
// and a backup's owner is the owner rule's, not a key the commit writes.
func TestFlushReadsOnlyItsFences(t *testing.T) {
	tables := joinTables(800)
	for _, ft := range []FTMode{FTNone, FTWriteAheadLineage, FTSpool, FTCheckpoint} {
		for _, kill := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/kill=%v", ft, kill), func(t *testing.T) {
				cl := testCluster(t, 4, tables)
				cfg := DefaultConfig()
				cfg.FT = ft
				cfg.CheckpointEveryTasks = 2
				r, err := NewRunner(cl, joinPlan(), cfg)
				if err != nil {
					t.Fatal(err)
				}
				if kill {
					// Worker 2 dies once its join channel has logged two
					// ranges, one of them above its checkpoint mark if it has
					// one: the rewound channel then retraces it.
					join := lineage.ChannelID{Stage: 2, Channel: 2}
					killInTxn(cl, 2, func(tx *gcs.Txn) bool {
						v, _ := tx.Get(r.keyCheckpoint(join))
						m, _ := decodeCheckpoint(v)
						cur := txGetInt(tx, r.keyCursor(join), 0)
						return cur > 2 && cur > m.Seq
					})
				}
				guards := &flushGuards{Backend: cl.GCS, guarded: map[string]int{}}
				cl.GCS = guards
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				defer cancel()
				_, rep, err := r.Run(ctx)
				if (err != nil) != (kill && ft == FTNone) || kill && ft != FTNone && rep.Recoveries == 0 {
					t.Fatalf("Run: %v (report %+v)", err, rep)
				}
				guards.mu.Lock()
				defer guards.mu.Unlock()
				for class, n := range guards.guarded {
					if class != "gep" && class != "cep" {
						t.Errorf("flush entries are guarded on %q %d times: a flush reads only gep and cep", class, n)
					}
				}
				if guards.guarded["gep"] == 0 || guards.guarded["cep"] == 0 {
					t.Errorf("flush entries are guarded on %v: no fence recorded", guards.guarded)
				}
				if kill && ft != FTNone && rep.Metrics[metrics.TasksReplayed] == 0 {
					t.Error("no task was retraced: the kill exercised no rewound consumer's commit")
				}
			})
		}
	}
}

// q3Tables and q3ShapedPlan are TPC-H Q3's shape over toy tables: two joins
// down a build chain, a grouped aggregate and a top-k.
func q3Tables(orders, items int) map[string][]*batch.Batch {
	split := func(n, per int, mk func(lo, hi int) *batch.Batch) (out []*batch.Batch) {
		for lo := 0; lo < n; lo += per {
			out = append(out, mk(lo, min(lo+per, n)))
		}
		return out
	}
	ints := func(lo, hi int, f func(i int) int64) *batch.Column {
		v := make([]int64, hi-lo)
		for i := range v {
			v[i] = f(lo + i)
		}
		return batch.NewIntColumn(v)
	}
	cust := batch.NewSchema(batch.F("ck", batch.Int64))
	ord := batch.NewSchema(batch.F("ok", batch.Int64), batch.F("ock", batch.Int64))
	item := batch.NewSchema(batch.F("iok", batch.Int64), batch.F("price", batch.Float64))
	return map[string][]*batch.Batch{
		"cust": split(20, 5, func(lo, hi int) *batch.Batch {
			return batch.MustNew(cust, []*batch.Column{ints(lo, hi, func(i int) int64 { return int64(i) })})
		}),
		"ord": split(orders, 25, func(lo, hi int) *batch.Batch {
			return batch.MustNew(ord, []*batch.Column{
				ints(lo, hi, func(i int) int64 { return int64(i) }),
				ints(lo, hi, func(i int) int64 { return int64(i % 40) }), // half match a customer
			})
		}),
		"item": split(items, 25, func(lo, hi int) *batch.Batch {
			price := make([]float64, hi-lo)
			for i := range price {
				price[i] = float64((lo + i) % 17)
			}
			return batch.MustNew(item, []*batch.Column{
				ints(lo, hi, func(i int) int64 { return int64(i % orders) }), batch.NewFloatColumn(price),
			})
		}),
	}
}

func q3ShapedPlan() *Plan {
	return MustPlan(
		&Stage{ID: 0, Name: "cust", Reader: &ReaderSpec{Table: "cust"}},
		&Stage{ID: 1, Name: "ord", Reader: &ReaderSpec{Table: "ord"}},
		&Stage{ID: 2, Name: "item", Reader: &ReaderSpec{Table: "item"}},
		&Stage{ID: 3, Name: "cust-ord",
			Op: ops.NewHashJoinSpec(ops.InnerJoin, []string{"ck"}, []string{"ock"}),
			Inputs: []StageInput{
				{Stage: 0, Part: Hash("ck"), Phase: 0},
				{Stage: 1, Part: Hash("ock"), Phase: 1},
			}},
		&Stage{ID: 4, Name: "ord-item",
			Op: ops.NewHashJoinSpec(ops.InnerJoin, []string{"ok"}, []string{"iok"}),
			Inputs: []StageInput{
				{Stage: 3, Part: Hash("ok"), Phase: 0},
				{Stage: 2, Part: Hash("iok"), Phase: 1},
			}},
		&Stage{ID: 5, Name: "revenue",
			Op:     ops.NewHashAggSpec([]string{"iok"}, ops.Sum("rev", expr.C("price"))),
			Inputs: []StageInput{{Stage: 4, Part: Hash("iok")}}},
		&Stage{ID: 6, Name: "top", Parallelism: 1,
			Op:     ops.NewTopKSpec(10, ops.Desc("rev"), ops.Asc("iok")),
			Inputs: []StageInput{{Stage: 5, Part: Single()}}},
	)
}

// TestTxnsPerTask bounds what a committed task costs the control store, all
// told — its flush plus its share of every image load, seed and teardown: at
// most 1.2 transactions, and at most 0.1 image loads. In memory every commit
// is the runner's own, so the committer advances the image past it and loads
// are left to the head's writes. The five caches the snapshot replaced read
// 2.7 to 3.6 per task on this shape, and reloading after every flush 1.6 to
// 1.8.
func TestTxnsPerTask(t *testing.T) {
	// Eight times the splits the one-split reader tasks ran over: runs of
	// MinTake splits give the readers as many tasks to amortise over.
	cl := testCluster(t, 2, q3Tables(6400, 32000))
	out, rep := runPlan(t, cl, q3ShapedPlan(), DefaultConfig())
	if out == nil || out.NumRows() != 10 {
		t.Fatalf("result: %v", out)
	}
	txns, loads, tasks := rep.Metrics[metrics.GCSTxns], rep.Metrics[metrics.ImageLoads], rep.TasksExecuted
	perTask, loadsPerTask := float64(txns)/float64(tasks), float64(loads)/float64(tasks)
	t.Logf("%d transactions / %d tasks = %.2f per task (%d flushes, %d image loads, %d advances)",
		txns, tasks, perTask, rep.Metrics[metrics.LineageFlushes], loads, rep.Metrics[metrics.ImageAdvances])
	if tasks < 100 {
		t.Fatalf("%d tasks: too few to amortise the query's fixed transactions", tasks)
	}
	if perTask > 1.2 {
		t.Errorf("%.2f GCS transactions per committed task, want <= 1.2", perTask)
	}
	if loadsPerTask > 0.1 {
		t.Errorf("%.3f image loads per committed task, want <= 0.1", loadsPerTask)
	}
}
