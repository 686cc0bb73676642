package engine

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
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
	"quokka/internal/storage"
	"quokka/internal/trace"
)

// killAfterTasks kills the given worker from inside the flush that carries
// the cluster's n-th task commit: placed by a commit, so never past the
// query's last one, however fast it runs. Install it before the query starts.
func killAfterTasks(cl *cluster.Cluster, victim int, n int) {
	killOnCommits(cl, victim, func(commits map[string]int) bool {
		total := 0
		for _, c := range commits {
			total += c
		}
		return total >= n
	})
}

// killOnCommits kills the given worker from inside the first flush after
// which due holds of the task commits flushed so far — cur/ puts, counted
// per query id.
func killOnCommits(cl *cluster.Cluster, victim int, due func(commits map[string]int) bool) {
	kill := cl.Worker(cluster.WorkerID(victim)).Kill // idempotent
	var mu sync.Mutex
	commits := map[string]int{}
	hookTxns(cl, func(_ *gcs.Txn, c committed) {
		if !c.flush() {
			return
		}
		mu.Lock()
		defer mu.Unlock()
		for k, v := range c.writes {
			if qid, rest, _ := strings.Cut(strings.TrimPrefix(k, "q/"), "/"); v != nil && strings.HasPrefix(rest, "cur/") {
				commits[qid]++
			}
		}
		if due(commits) {
			kill()
		}
	})
}

// killInTxn kills the given worker from inside the first write to the
// cluster's control store that leaves cond true — a head transaction, or the
// flush whose entries are not acknowledged yet: placed by what has been
// committed, and never late — a poller can sample its way past a short
// query's last commit and then wait for good. Install it before the query
// starts.
func killInTxn(cl *cluster.Cluster, victim int, cond func(tx *gcs.Txn) bool) {
	kill := cl.Worker(cluster.WorkerID(victim)).Kill // idempotent
	hookTxns(cl, func(tx *gcs.Txn, _ committed) {
		if cond(tx) {
			kill()
		}
	})
}

// txnHook shows every committed write to the control store: a head
// transaction from inside it, once its body returned nil, with the keys the
// body changed; a flush as soon as it applied, before its requesters hear of
// it, with a view of each namespace it wrote and the entries applied there.
type txnHook struct {
	gcs.Backend
	head  gcs.Head
	after func(tx *gcs.Txn, c committed)
}

// committed is one committed write as a txnHook shows it: the keys it wrote
// (nil value: deleted) and, for a flush, the entries it applied.
type committed struct {
	writes  map[string][]byte
	entries []gcs.Entry // nil for a head transaction
}

func (c committed) flush() bool { return c.entries != nil }

// hookTxns puts a txnHook calling after on both of cl's write paths.
func hookTxns(cl *cluster.Cluster, after func(tx *gcs.Txn, c committed)) {
	h := &txnHook{Backend: cl.GCS, head: cl.Head, after: after}
	cl.GCS, cl.Head = h, h
}

func (h *txnHook) UpdateNS(ns string, fn func(tx *gcs.Txn) error) error {
	return h.head.UpdateNS(ns, func(tx *gcs.Txn) error {
		before := nsImage(tx, ns)
		if err := fn(tx); err != nil {
			return err
		}
		writes := map[string][]byte{}
		after := nsImage(tx, ns)
		for k, v := range after {
			if w, ok := before[k]; !ok || !bytes.Equal(v, w) {
				writes[k] = v
			}
		}
		for k := range before {
			if _, ok := after[k]; !ok {
				writes[k] = nil
			}
		}
		h.after(tx, committed{writes: writes})
		return nil
	})
}

// nsImage is every key of ns as tx reads it, with its value.
func nsImage(tx *gcs.Txn, ns string) map[string][]byte {
	m := map[string][]byte{}
	for _, k := range tx.List(ns) {
		m[k], _ = tx.Get(k)
	}
	return m
}

func (h *txnHook) Apply(entries []gcs.Entry) ([]bool, error) {
	applied, err := h.Backend.Apply(entries)
	if err != nil {
		return applied, err
	}
	var nss []string
	byNS := map[string][]gcs.Entry{}
	for i, e := range entries {
		if applied[i] {
			if byNS[e.NS] == nil {
				nss = append(nss, e.NS)
			}
			byNS[e.NS] = append(byNS[e.NS], e)
		}
	}
	for _, ns := range nss {
		c := committed{writes: map[string][]byte{}, entries: byNS[ns]}
		for _, e := range c.entries {
			for _, p := range e.Puts {
				c.writes[p.Key] = p.Val
			}
			for _, k := range e.Deletes {
				c.writes[k] = nil
			}
		}
		h.Backend.ViewNS(ns, func(tx *gcs.Txn) error {
			h.after(tx, c)
			return nil
		})
	}
	return applied, err
}

// committedWatermark folds a channel's committed lineage — its first n lin/
// records, all of them below cur/ for n < 0 — into the watermark it has
// consumed up to, for a kill condition: the control store keeps no watermark,
// only what derives one (docs/contracts/control-store.md).
func committedWatermark(tx *gcs.Txn, r *Runner, id lineage.ChannelID, n int) lineage.Watermark {
	if n < 0 {
		n = txGetInt(tx, r.keyCursor(id), 0)
	}
	wm := lineage.Watermark{}
	for q := range n {
		v, _ := tx.Get(r.keyLineage(lineage.TaskName{Stage: id.Stage, Channel: id.Channel, Seq: q}))
		if rec, err := lineage.DecodeRecord(v); err == nil {
			wm[lineage.EdgeChannel{Input: rec.Input, UpChannel: rec.UpChannel}] += rec.Count
		}
	}
	return wm
}

// backupAudit is a worker's disk that checks every upstream backup a replay
// reads against the replay entry asking for it: a read whose destinations
// name an elided slot is the one the write-ahead lineage argument says never
// happens (ROADMAP, "A task's output is serialised at most once").
type backupAudit struct {
	storage.Disk
	r   *Runner
	w   int
	log *auditLog
}

// auditLog is what the audited disks of one query saw: backup reads, how many
// of them were of a set holding an elided slot, and every elided slot a
// replay named.
type auditLog struct {
	mu            sync.Mutex
	reads, beside int
	named         []string
}

func (d backupAudit) Read(key string) ([]byte, error) {
	data, err := d.Disk.Read(key)
	name, isBackup := strings.CutPrefix(key, backupQueryPrefix(d.r.qid))
	if err != nil || !isBackup {
		return data, err
	}
	task, err := lineage.ParseTaskName(name)
	if err != nil {
		return nil, err
	}
	ps, err := parsePieceSet(data)
	if err != nil {
		return nil, err
	}
	var dests []lineage.ChannelID
	d.r.cl.GCS.ViewNS(d.r.keyNS(), func(tx *gcs.Txn) error {
		v, _ := tx.Get(d.r.keyReplay(d.w, task))
		dests, err = parseReplayDests(v)
		return err
	})
	d.log.mu.Lock()
	defer d.log.mu.Unlock()
	d.log.reads++
	if slices.ContainsFunc(ps, func(e edgePieces) bool { return e.elided != nil }) {
		d.log.beside++
	}
	for _, dest := range dests {
		for ei, e := range d.r.plan.Consumers(task.Stage) {
			if _, _, err := ps.piece(ei, dest.Channel); e.To == dest.Stage && errors.Is(err, errElidedPiece) {
				d.log.named = append(d.log.named, fmt.Sprintf("%s -> %s", task, dest))
			}
		}
	}
	return data, nil
}

// auditBackups puts a backupAudit on every worker of r's cluster; the test
// fails if any replay named an elided slot. Install it before the query starts.
func auditBackups(t *testing.T, r *Runner) *auditLog {
	log := &auditLog{}
	for _, w := range r.cl.Workers {
		w.Disk = backupAudit{Disk: w.Disk, r: r, w: int(w.ID), log: log}
	}
	t.Cleanup(func() {
		if len(log.named) > 0 {
			t.Errorf("%d backup reads named an elided slot: %v", len(log.named), log.named)
		}
	})
	return log
}

// backupLog is a worker's disk that counts the upstream backups written, by
// the producing task's stage.
type backupLog struct {
	storage.Disk
	r       *Runner
	mu      *sync.Mutex
	byStage map[int]int
}

func (d backupLog) Write(key string, value []byte) error {
	if name, ok := strings.CutPrefix(key, backupQueryPrefix(d.r.qid)); ok {
		task, err := lineage.ParseTaskName(name)
		if err != nil {
			return err
		}
		d.mu.Lock()
		d.byStage[task.Stage]++
		d.mu.Unlock()
	}
	return d.Disk.Write(key, value)
}

// TestOutputStageWritesNoBackup: no replay entry ever names an output-stage
// task — the head holds its results — so under every policy that backs up,
// with and without a kill, no backup is written for one, and one is for
// every other stage. The kill takes the output stage's host, so its channel
// runs again after the recovery.
func TestOutputStageWritesNoBackup(t *testing.T) {
	for _, ft := range []FTMode{FTWriteAheadLineage, FTCheckpoint} {
		for _, kill := range []bool{false, true} {
			t.Run(ft.String()+map[bool]string{false: "/no-fault", true: "/one-kill"}[kill], func(t *testing.T) {
				cl := testCluster(t, 4, joinTables(800))
				cfg := DefaultConfig()
				cfg.FT = ft
				cfg.CheckpointEveryTasks = 2
				r, err := NewRunner(cl, joinPlan(), cfg)
				if err != nil {
					t.Fatal(err)
				}
				var mu sync.Mutex
				written := map[int]int{}
				for _, w := range cl.Workers {
					w.Disk = backupLog{Disk: w.Disk, r: r, mu: &mu, byStage: written}
				}
				if kill {
					killInTxn(cl, 0, func(tx *gcs.Txn) bool {
						return txGetInt(tx, r.keyCursor(lineage.ChannelID{Stage: 2, Channel: 0}), 0) > 0
					})
				}
				ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
				defer cancel()
				out, rep, err := r.Run(ctx)
				if err != nil || out == nil || out.NumRows() != 10 || kill && rep.Recoveries == 0 {
					t.Fatalf("Run: %v, result %v, %d recoveries", err, out, rep.Recoveries)
				}
				mu.Lock()
				defer mu.Unlock()
				for s := range r.plan.Stages {
					output := len(r.plan.Consumers(s)) == 0
					if output && written[s] > 0 {
						t.Errorf("%d backups written for output stage %d", written[s], s)
					}
					if !output && written[s] == 0 {
						t.Errorf("no backup written for stage %d", s)
					}
				}
			})
		}
	}
}

func runWithFailure(t *testing.T, cl *cluster.Cluster, p *Plan, cfg Config, victim int, afterTasks int) (*batch.Batch, *Report, error) {
	t.Helper()
	r, err := NewRunner(cl, p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	auditBackups(t, r)
	killAfterTasks(cl, victim, afterTasks)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	return r.Run(ctx)
}

func TestRecoveryScanAggregate(t *testing.T) {
	const n = 2000
	cl := testCluster(t, 4, map[string][]*batch.Batch{"numbers": numbersTable(n, 24)})
	out, rep, err := runWithFailure(t, cl, scanFilterAggPlan(0), DefaultConfig(), 1, 5)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	var want float64
	for i := 0; i < n; i++ {
		want += float64(2 * i)
	}
	checkSumCount(t, out, want, n)
	if rep.Recoveries == 0 {
		t.Error("expected at least one recovery")
	}
}

func TestRecoveryJoin(t *testing.T) {
	const nFact = 1000
	cl := testCluster(t, 4, joinTables(nFact))
	out, rep, err := runWithFailure(t, cl, joinPlan(), DefaultConfig(), 2, 6)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if out == nil || out.NumRows() != 10 {
		t.Fatalf("result: %v", out)
	}
	for i := 0; i < out.NumRows(); i++ {
		if out.Col("c").Ints[i] != nFact/10 {
			t.Errorf("group %q count = %d, want %d",
				out.Col("name").Strings[i], out.Col("c").Ints[i], nFact/10)
		}
	}
	if rep.Recoveries == 0 {
		t.Error("expected a recovery")
	}
}

// The core correctness property of write-ahead lineage: the query result
// with a failure equals the result without one (channels that did not fail
// are never rewound, and replays regenerate identical partitions).
func TestFailureResultEqualsFailureFreeResult(t *testing.T) {
	tables := joinTables(800)
	clean := testCluster(t, 4, tables)
	wantOut, _ := runPlan(t, clean, joinPlan(), DefaultConfig())

	faulty := testCluster(t, 4, tables)
	gotOut, rep, err := runWithFailure(t, faulty, joinPlan(), DefaultConfig(), 1, 4)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Recoveries == 0 {
		t.Error("expected a recovery")
	}
	wantEnc := batch.Encode(wantOut)
	gotEnc := batch.Encode(gotOut)
	if string(wantEnc) != string(gotEnc) {
		t.Fatalf("results differ:\nwant %v\ngot  %v", wantOut, gotOut)
	}
}

func TestRecoverySparkMode(t *testing.T) {
	cl := testCluster(t, 4, joinTables(600))
	out, rep, err := runWithFailure(t, cl, joinPlan(), SparkConfig(), 3, 4)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if out == nil || out.NumRows() != 10 {
		t.Fatalf("result: %v", out)
	}
	if rep.Recoveries == 0 {
		t.Error("expected a recovery")
	}
}

func TestRecoverySpoolMode(t *testing.T) {
	cl := testCluster(t, 4, joinTables(600))
	cfg := TrinoConfig()
	out, rep, err := runWithFailure(t, cl, joinPlan(), cfg, 1, 4)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if out == nil || out.NumRows() != 10 {
		t.Fatalf("result: %v", out)
	}
	if rep.Metrics[metrics.SpoolWriteBytes] == 0 {
		t.Error("spool mode should write spool bytes")
	}
	if rep.Recoveries == 0 {
		t.Error("expected a recovery")
	}
}

// TestSpoolOverwritesARefusedIncarnationsObject: a task that spooled and pushed
// and then lost its worker before committing leaves its object behind, and the
// rewound channel re-executes that sequence number with freshly chosen inputs.
// The object is planted here, in the cluster's store, as that leftover; the
// incarnation that commits must store its own bytes over it, or a later replay
// from the spool re-pushes the dead incarnation's pieces against the new one's
// lineage. Teardown then sweeps it with the rest of the query's objects.
func TestSpoolOverwritesARefusedIncarnationsObject(t *testing.T) {
	cl := testCluster(t, 2, map[string][]*batch.Batch{"numbers": numbersTable(400, 8)})
	cfg := DefaultConfig()
	cfg.FT = FTSpool
	r, err := NewRunner(cl, scanFilterAggPlan(0), cfg)
	if err != nil {
		t.Fatal(err)
	}
	key := spoolKey(r.qid, lineage.TaskName{Stage: 1, Channel: 0, Seq: 0}) // the filter feeds the aggregate: spooled
	if err := cl.ObjStore.Put(key, []byte("zombie")); err != nil {
		t.Fatal(err)
	}
	puts := &objPuts{Objects: cl.ObjStore, last: map[string][]byte{}}
	cl.ObjStore = puts
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, _, err := r.Run(ctx); err != nil {
		t.Fatalf("Run: %v", err)
	}
	v, ok := puts.get(key)
	if _, perr := parsePieceSet(v); !ok || perr != nil {
		t.Errorf("the committed task's spool object is %q (%v): the leftover shadows it", v, perr)
	}
	if _, err := cl.HeadObjs.Get(key); err == nil {
		t.Error("the spool object outlived the query")
	}
}

// objPuts records the last value put under each key on its way to the store.
type objPuts struct {
	storage.Objects
	mu   sync.Mutex
	last map[string][]byte
	fail error // when set, every Put fails with it and stores nothing
}

func (o *objPuts) Put(key string, value []byte) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.fail != nil {
		return o.fail
	}
	o.last[key] = value
	return o.Objects.Put(key, value)
}

func (o *objPuts) get(key string) ([]byte, bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	v, ok := o.last[key]
	return v, ok
}

// TestPerQueryObjectsAreSwept: spool and checkpoint store objects under the
// query's ft/ prefix of the cluster's store while it runs, and teardown
// leaves none behind, killed or not — while the tables stay.
func TestPerQueryObjectsAreSwept(t *testing.T) {
	for _, mode := range []FTMode{FTSpool, FTCheckpoint} {
		for _, kill := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/kill=%v", mode, kill), func(t *testing.T) {
				cl := testCluster(t, 4, joinTables(800))
				tables := cl.HeadObjs.PutGen()
				puts := &objPuts{Objects: cl.ObjStore, last: map[string][]byte{}}
				cl.ObjStore = puts
				cfg := DefaultConfig()
				cfg.FT = mode
				cfg.CheckpointEveryTasks = 2
				r, err := NewRunner(cl, joinPlan(), cfg)
				if err != nil {
					t.Fatal(err)
				}
				if kill {
					killAfterTasks(cl, 2, 8)
				}
				ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
				defer cancel()
				out, rep, err := r.Run(ctx)
				if err != nil || out == nil || out.NumRows() != 10 {
					t.Fatalf("Run: %v, %v", out, err)
				}
				if kill && rep.Recoveries == 0 {
					t.Error("the kill exercised no recovery")
				}
				puts.mu.Lock()
				stored := len(puts.last)
				for k := range puts.last {
					if qid, ok := ObjectQuery(k); !ok || qid != r.qid {
						t.Errorf("object %q is not under the query's prefix", k)
					}
				}
				puts.mu.Unlock()
				if stored == 0 {
					t.Fatal("the query stored no object")
				}
				if n := cl.HeadObjs.DeletePrefix(ObjectPrefix(r.qid)); n != 0 {
					t.Errorf("%d of the query's %d objects outlived it", n, stored)
				}
				if _, err := TableSplits(cl.ObjStore, "fact"); err != nil || cl.HeadObjs.PutGen() != tables {
					t.Errorf("the sweep touched the tables: %v, put generation %d -> %d", err, tables, cl.HeadObjs.PutGen())
				}
			})
		}
	}
}

// TestFailedSpoolPutFailsTheQuery: a spool object that could not be stored
// fails its task before the push — no piece of the spooled stage reaches a
// consumer, so nothing of it is committed either — and the query fails with
// the store's error, the worker being alive. A checkpoint that could not be
// stored only goes unmarked.
func TestFailedSpoolPutFailsTheQuery(t *testing.T) {
	cl := testCluster(t, 2, map[string][]*batch.Batch{"numbers": numbersTable(400, 8)})
	storeDown := errors.New("store unreachable")
	cl.ObjStore = &objPuts{Objects: cl.ObjStore, last: map[string][]byte{}, fail: storeDown}
	mu, pushes := logPushes(cl, nil)
	cfg := DefaultConfig()
	cfg.FT = FTSpool
	r, err := NewRunner(cl, scanFilterAggPlan(0), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, _, err := r.Run(ctx); !errors.Is(err, storeDown) {
		t.Fatalf("Run: %v, want the put's error", err)
	}
	mu.Lock()
	for _, p := range *pushes {
		if p.From.Stage == 1 { // the filter, the spooled stage
			t.Errorf("%s pushed past a failed spool put", p.From)
		}
	}
	mu.Unlock()

	// A snapshot that could not be stored is not marked: the commit goes
	// ahead without it and the query completes.
	cfg.FT, cfg.CheckpointEveryTasks = FTCheckpoint, 1
	ck, err := NewRunner(cl, scanFilterAggPlan(0), cfg)
	if err != nil {
		t.Fatal(err)
	}
	out, rep, err := ck.Run(ctx)
	if err != nil || out == nil || out.NumRows() != 1 || rep.Metrics[metrics.CheckpointBytes] != 0 {
		t.Fatalf("checkpoint run over a failing store: %v, %v, %d checkpoint bytes", out, err, rep.Metrics[metrics.CheckpointBytes])
	}
}

func TestRecoveryCheckpointMode(t *testing.T) {
	cl := testCluster(t, 4, joinTables(800))
	cfg := DefaultConfig()
	cfg.FT = FTCheckpoint
	cfg.CheckpointEveryTasks = 2
	out, rep, err := runWithFailure(t, cl, joinPlan(), cfg, 2, 8)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if out == nil || out.NumRows() != 10 {
		t.Fatalf("result: %v", out)
	}
	var total int64
	for i := 0; i < out.NumRows(); i++ {
		total += out.Col("c").Ints[i]
	}
	if total != 800 {
		t.Errorf("total = %d, want 800", total)
	}
	if rep.Metrics[metrics.CheckpointBytes] == 0 {
		t.Error("checkpoint mode should persist state bytes")
	}
	if rep.Recoveries == 0 {
		t.Error("expected a recovery")
	}
}

// TestDirectPartnersShareAWorker: reconcile keeps a narrow chain — the
// channels Direct edges at equal parallelism join — on one worker, as seed
// placed it, so the chain's pieces pass as batches after a recovery too. Two
// kills in turn, the second on the worker the first recovery moved the victim's
// filter channel to, under every mode that recovers: after each recovery pass
// every such edge has its producer and consumer channel on one worker, and the
// result is the failure-free run's, byte for byte.
func TestDirectPartnersShareAWorker(t *testing.T) {
	tables := map[string][]*batch.Batch{"t": sharedSubtreeTable(12000, 120)}
	for _, ft := range []FTMode{FTWriteAheadLineage, FTCheckpoint, FTSpool} {
		t.Run(ft.String(), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.FT = ft
			cfg.CheckpointEveryTasks = 2
			want, _ := runPlan(t, testCluster(t, 4, tables), sharedSubtreePlan(), cfg)

			cl := testCluster(t, 4, tables)
			r, err := NewRunner(cl, sharedSubtreePlan(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			auditBackups(t, r)
			// apart names an edge a recovery pass left across two workers.
			apart := func(tx *gcs.Txn) string {
				for s, st := range r.plan.Stages {
					for _, in := range st.Inputs {
						for c := 0; in.Part.Kind == PartitionDirect && r.par[in.Stage] == r.par[s] && c < r.par[s]; c++ {
							up, down := lineage.ChannelID{Stage: in.Stage, Channel: c}, lineage.ChannelID{Stage: s, Channel: c}
							if a, b := txGetInt(tx, r.keyPlacement(up), -1), txGetInt(tx, r.keyPlacement(down), -1); a != b {
								return fmt.Sprintf("%s on worker %d, %s on worker %d", up, a, down, b)
							}
						}
					}
				}
				return ""
			}
			filter := lineage.ChannelID{Stage: 1, Channel: 1} // seeded on worker 1, the first victim
			var mu sync.Mutex
			var passes []string // per recovery pass, the edge it left apart or ""
			second := -1        // the second victim
			hookTxns(cl, func(tx *gcs.Txn, c committed) {
				mu.Lock()
				defer mu.Unlock()
				gep := txGetInt(tx, r.keyGlobalEpoch(), 0)
				if _, ok := c.writes[r.keyGlobalEpoch()]; ok && gep > 1 {
					passes = append(passes, apart(tx))
				}
				switch flush := c.flush(); {
				case gep == 1 && flush:
					for c := range r.par[filter.Stage] {
						if txGetInt(tx, r.keyCursor(lineage.ChannelID{Stage: filter.Stage, Channel: c}), 0) < 2 {
							return
						}
					}
					cl.Worker(1).Kill()
				case gep == 2 && flush && second < 0 && c.writes[r.keyCursor(filter)] != nil:
					second = txGetInt(tx, r.keyPlacement(filter), -1)
					cl.Worker(cluster.WorkerID(second)).Kill()
				}
			})
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			got, rep, err := r.Run(ctx)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			mu.Lock()
			defer mu.Unlock()
			if second < 0 || second == 1 || rep.Recoveries < 2 {
				t.Fatalf("second victim %d, %d recoveries: the kills did not land in turn", second, rep.Recoveries)
			}
			for i, a := range passes {
				if a != "" {
					t.Errorf("recovery pass %d left a Direct edge across workers: %s", i+1, a)
				}
			}
			if !bytes.Equal(batch.Encode(got), batch.Encode(want)) {
				t.Fatalf("result differs from the failure-free run:\nwant %v\ngot  %v", want, got)
			}
		})
	}
}

func TestNoFaultToleranceFailsQuery(t *testing.T) {
	cl := testCluster(t, 4, map[string][]*batch.Batch{"numbers": numbersTable(2000, 24)})
	cfg := DefaultConfig()
	cfg.FT = FTNone
	_, _, err := runWithFailure(t, cl, scanFilterAggPlan(0), cfg, 1, 5)
	if !errors.Is(err, ErrQueryFailed) {
		t.Fatalf("err = %v, want ErrQueryFailed", err)
	}
}

func TestNestedFailures(t *testing.T) {
	const nFact = 1500
	cl := testCluster(t, 5, joinTables(nFact))
	r, err := NewRunner(cl, joinPlan(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	auditBackups(t, r)
	killAfterTasks(cl, 1, 4)
	killAfterTasks(cl, 3, 12)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	out, rep, runErr := r.Run(ctx)
	if runErr != nil {
		t.Fatalf("Run: %v", runErr)
	}
	if out == nil || out.NumRows() != 10 {
		t.Fatalf("result: %v", out)
	}
	for i := 0; i < out.NumRows(); i++ {
		if out.Col("c").Ints[i] != nFact/10 {
			t.Errorf("group %q count = %d", out.Col("name").Strings[i], out.Col("c").Ints[i])
		}
	}
	// Both kills may land within one heartbeat tick, in which case a
	// single reconciliation pass handles them together — also correct.
	if rep.Recoveries < 1 {
		t.Errorf("recoveries = %d, want >= 1", rep.Recoveries)
	}
}

// flushHold holds the first flush — the one Apply caller — that starts once
// armed is set: it kills victim, then lets the flush run only when the query's
// global epoch has reached 2 (a recovery committed), or after 10 s. The
// flush's outcome goes to held.
type flushHold struct {
	gcs.Backend
	r      *Runner
	victim *cluster.Worker
	armed  atomic.Bool
	taken  atomic.Bool
	held   chan heldFlush
}

// heldFlush is what the held flush carried and what came of it.
type heldFlush struct {
	entries int
	applied []bool
	err     error
}

func (h *flushHold) Apply(entries []gcs.Entry) ([]bool, error) {
	if !h.armed.Load() || h.taken.Swap(true) {
		return h.Backend.Apply(entries)
	}
	h.victim.Kill()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for ver, gep := uint64(0), 0; gep < 2 && ctx.Err() == nil; {
		ver = h.Backend.AwaitNS(ctx, h.r.keyNS(), ver, time.Second)
		h.Backend.ViewNS(h.r.keyNS(), func(tx *gcs.Txn) error {
			gep = txGetInt(tx, h.r.keyGlobalEpoch(), 0)
			return nil
		})
	}
	applied, err := h.Backend.Apply(entries)
	h.held <- heldFlush{len(entries), applied, err}
	return applied, err
}

// TestFlushAcrossRecoveryIsFenced pins the fence that makes a recovery one
// transaction: a flush whose entries were prepared before a recovery and that
// reaches the store after it applies nothing, and the query recovers and
// completes. With one thread per worker, the threads whose tasks are in the
// held flush cannot step until it resolves, so recovery must not wait for
// them.
func TestFlushAcrossRecoveryIsFenced(t *testing.T) {
	tables := joinTables(800)
	cfg := DefaultConfig()
	cfg.ThreadsPerWorker = 1
	want, _ := runPlan(t, testCluster(t, 4, tables), joinPlan(), cfg)

	cl := testCluster(t, 4, tables)
	r, err := NewRunner(cl, joinPlan(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Arm inside the first flush after which stage-1 channels 0 and 2 have both
	// committed; the next flush kills worker 2 as it starts, so every entry it
	// carries was prepared under the seeded epoch, and is held across the
	// recovery that follows.
	hold := &flushHold{r: r, victim: cl.Worker(2), held: make(chan heldFlush, 1)}
	cur := func(tx *gcs.Txn, c int) int {
		return txGetInt(tx, r.keyCursor(lineage.ChannelID{Stage: 1, Channel: c}), 0)
	}
	hookTxns(cl, func(tx *gcs.Txn, c committed) {
		if c.flush() && cur(tx, 0) > 0 && cur(tx, 2) > 0 {
			hold.armed.Store(true)
		}
	})
	hold.Backend = cl.GCS
	cl.GCS = hold
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	got, rep, err := r.Run(ctx)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	select {
	case h := <-hold.held:
		if h.err != nil || slices.Contains(h.applied, true) {
			t.Errorf("the flush held across the recovery applied %v (%v), want nothing: it applied entries prepared under the old epoch", h.applied, h.err)
		}
		if fenced := rep.Metrics[metrics.EntriesFenced]; fenced < int64(h.entries) {
			t.Errorf("%s = %d, want at least the %d entries the held flush carried", metrics.EntriesFenced, fenced, h.entries)
		}
	default:
		t.Fatal("no flush was held")
	}
	if rep.Recoveries < 1 {
		t.Errorf("recoveries = %d, want >= 1", rep.Recoveries)
	}
	if !bytes.Equal(batch.Encode(got), batch.Encode(want)) {
		t.Fatalf("result differs from the failure-free run:\nwant %v\ngot  %v", want, got)
	}
}

// TestKillInsideRecovery: a second worker dies inside the recovery
// transaction itself — which may just have placed rewound channels on it — so
// the pass it commits is already stale; the next pass reconciles again, and
// the result is whole.
func TestKillInsideRecovery(t *testing.T) {
	const nFact = 1500
	cl := testCluster(t, 5, joinTables(nFact))
	r, err := NewRunner(cl, joinPlan(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	auditBackups(t, r)
	killInTxn(cl, 1, func(tx *gcs.Txn) bool {
		return txGetInt(tx, r.keyCursor(lineage.ChannelID{Stage: 1, Channel: 1}), 0) > 0
	})
	hookTxns(cl, func(_ *gcs.Txn, c committed) {
		if v, ok := c.writes[r.keyGlobalEpoch()]; ok && string(v) == "2" {
			cl.Worker(3).Kill()
		}
	})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	out, rep, err := r.Run(ctx)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Recoveries < 2 {
		t.Errorf("recoveries = %d, want >= 2", rep.Recoveries)
	}
	if out == nil || out.NumRows() != 10 {
		t.Fatalf("result: %v", out)
	}
	for i := 0; i < out.NumRows(); i++ {
		if out.Col("c").Ints[i] != nFact/10 {
			t.Errorf("group %q count = %d, want %d", out.Col("name").Strings[i], out.Col("c").Ints[i], nFact/10)
		}
	}
}

func TestAllWorkersDead(t *testing.T) {
	cl := testCluster(t, 2, map[string][]*batch.Batch{"numbers": numbersTable(4000, 40)})
	r, err := NewRunner(cl, scanFilterAggPlan(0), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Both die inside a transaction once three tasks ran: a poller could
	// sample its way past the query's last commit.
	ran3 := func(*gcs.Txn) bool { return cl.Metrics.Get(metrics.TasksExecuted) >= 3 }
	killInTxn(cl, 0, ran3)
	killInTxn(cl, 1, ran3)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_, _, runErr := r.Run(ctx)
	if !errors.Is(runErr, ErrNoWorkers) {
		t.Fatalf("err = %v, want ErrNoWorkers", runErr)
	}
}

// scanMapAggPlan inserts a narrow map stage between scan and aggregate, so
// spool-mode recovery must cascade through a non-spooled stage.
func scanMapAggPlan() *Plan {
	return MustPlan(
		&Stage{ID: 0, Name: "read", Reader: &ReaderSpec{Table: "numbers"}},
		&Stage{ID: 1, Name: "map",
			Op:     ops.NewFilterProjectSpec(nil, ops.NE("v", expr.C("v"))),
			Inputs: []StageInput{{Stage: 0, Part: Direct()}}},
		&Stage{ID: 2, Name: "agg", Parallelism: 1,
			Op:     ops.NewHashAggSpec(nil, ops.Sum("s", expr.C("v")), ops.CountStar("c")),
			Inputs: []StageInput{{Stage: 1, Part: Single()}}},
	)
}

func TestRecoverySpoolModeWithNarrowStage(t *testing.T) {
	const n = 2500
	cl := testCluster(t, 4, map[string][]*batch.Batch{"numbers": numbersTable(n, 30)})
	cfg := DefaultConfig()
	cfg.FT = FTSpool
	out, rep, err := runWithFailure(t, cl, scanMapAggPlan(), cfg, 2, 6)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	var want float64
	for i := 0; i < n; i++ {
		want += float64(2 * i)
	}
	checkSumCount(t, out, want, n)
	if rep.Recoveries == 0 {
		t.Error("expected a recovery")
	}
}

// TestFailureRecoveryWithParallelOperators kills a worker mid-probe while a
// join stage runs in parallel across four channels, one per worker: the
// replayed channels must rebuild identical join state (a hash edge routes a
// key to its channel by a pure function of the key), so the result equals
// the failure-free result byte for byte.
func TestFailureRecoveryWithParallelOperators(t *testing.T) {
	tables := joinTables(800)
	cfg := DefaultConfig()

	clean := testCluster(t, 4, tables)
	wantOut, _ := runPlan(t, clean, joinPlan(), cfg)

	faulty := testCluster(t, 4, tables)
	// The dim build side commits within the first few tasks; by task 8 the
	// join channels are probing fact batches, so the kill lands mid-probe.
	gotOut, rep, err := runWithFailure(t, faulty, joinPlan(), cfg, 1, 8)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Recoveries == 0 {
		t.Error("expected at least one recovery")
	}
	if string(batch.Encode(gotOut)) != string(batch.Encode(wantOut)) {
		t.Fatalf("results differ:\nwant %v\ngot  %v", wantOut, gotOut)
	}
}

// readerChainAggPlan is one reader-rooted stage whose runs go through a map
// and a global partial aggregate, fused: an output stage whose state lives
// with a reader.
func readerChainAggPlan() *Plan {
	return MustPlan(&Stage{ID: 0, Name: "read▸map▸agg-partial", Reader: &ReaderSpec{Table: "numbers"},
		Op: ops.Chain{Members: []ops.Spec{
			ops.NewFilterProjectSpec(nil, ops.NE("v", expr.C("v"))),
			ops.NewHashAggPartialSpec(nil, ops.Sum("s", expr.C("v")), ops.CountStar("c")),
		}}})
}

// TestCheckpointRestartRestoresState: the one kind of channel that restarts
// from a checkpoint mark — an output-stage channel, which no rewound consumer
// needs re-produced — does: killed past a mark, the channel comes back at the
// mark's Seq, not at 0, with the snapshot's state and the mark's watermark
// (the only stored one there is: it equals the fold of the lineage below the
// mark), and the result is the no-fault run's byte for byte. Both a sort fed
// by a shuffle and a reader-rooted chain, whose partial aggregate is
// checkpointed and whose restart is at a run boundary: its next task re-reads
// the run at the mark's Seq, and none below it.
func TestCheckpointRestartRestoresState(t *testing.T) {
	const n = 6000
	tables := map[string][]*batch.Batch{"numbers": numbersTable(n, 120)}
	for _, tc := range []struct {
		name string
		plan func() *Plan
		ch   lineage.ChannelID
		rows int // the failure-free result's: the sort's input, a partial row a chain channel
	}{
		// The sort channel is seeded on worker 0, and so is the chain's
		// channel 0.
		{"sort", spillSortPlan, lineage.ChannelID{Stage: 1, Channel: 0}, n},
		{"reader-chain", readerChainAggPlan, lineage.ChannelID{Stage: 0, Channel: 0}, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.FT = FTCheckpoint
			cfg.CheckpointEveryTasks = 2
			cfg.MaxTake = 2 // many small sort tasks: marks land while there is work left
			cfg.MinTake = 2 // reader runs of 2 splits: 15 tasks to a chain channel
			want, _ := runPlan(t, testCluster(t, 4, tables), tc.plan(), cfg)
			if want == nil || want.NumRows() != tc.rows {
				t.Fatalf("failure-free result: %v, want %d rows", want, tc.rows)
			}

			cl := testCluster(t, 4, tables)
			Configure(cl, WithTracing(true))
			r, err := NewRunner(cl, tc.plan(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			// Kill worker 0 once the channel has committed past a mark, so
			// the restart has tasks above the mark to run again as well.
			var mark checkpointMark
			var folded lineage.Watermark
			var cep int
			killInTxn(cl, 0, func(tx *gcs.Txn) bool {
				v, _ := tx.Get(r.keyCheckpoint(tc.ch))
				m, err := decodeCheckpoint(v)
				if err != nil || m.Seq == 0 || txGetInt(tx, r.keyCursor(tc.ch), 0) <= m.Seq {
					return false
				}
				if mark.Seq == 0 {
					mark, folded = m, committedWatermark(tx, r, tc.ch, m.Seq)
					cep = txGetInt(tx, r.keyChanEpoch(tc.ch), 0)
				}
				return true
			})
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			q := r.Start(ctx)
			got, rep, err := q.Result()
			if err != nil {
				t.Fatal(err)
			}
			if rep.Recoveries == 0 {
				t.Fatal("no kill, or none the query noticed: nothing recovered")
			}
			if !reflect.DeepEqual(mark.WM, folded) {
				t.Errorf("mark at task %d carries watermark %v, its lineage folds to %v", mark.Seq, mark.WM, folded)
			}
			// The object is stored before the commit carrying the mark, under
			// the committing incarnation's epoch: a refused one cannot
			// overwrite it.
			if want := fmt.Sprintf("%sckpt/%s.e%d/%d", ObjectPrefix(r.qid), tc.ch, cep, mark.Seq); mark.ObjKey != want {
				t.Errorf("mark at task %d names object %q, want %q", mark.Seq, mark.ObjKey, want)
			}
			if !bytes.Equal(batch.Encode(got), batch.Encode(want)) {
				t.Fatalf("result differs from the failure-free run: %d rows, want %d", got.NumRows(), want.NumRows())
			}
			// The restarted incarnation: its first task is at a mark (the one
			// the kill saw, or a later one); a consumer consumed fewer rows
			// than the table has, and a reader read fewer runs than its
			// channel has — the rest came out of the snapshot.
			first, rows, tasks := -1, int64(0), 0
			for _, s := range q.Trace().Snapshot() {
				if s.Kind == trace.KindTask && s.Stage == tc.ch.Stage && s.Channel == tc.ch.Channel && s.Epoch > 0 {
					if first < 0 || s.Seq < first {
						first = s.Seq
					}
					rows += s.InRows
					tasks++
				}
			}
			if first < mark.Seq || rows >= n {
				t.Errorf("the rewound channel restarted at task %d having consumed %d of %d rows: want a start at or past the mark (task %d) and the rest from its snapshot", first, rows, n, mark.Seq)
			}
			if tc.ch.Stage == 0 && tasks >= 16 {
				t.Errorf("the rewound reader ran %d tasks, its channel's whole 15 runs and last task: nothing came from the snapshot", tasks)
			}
		})
	}
}

// TestCheckpointRestartKeepsDeliveredResults: an output-stage operator that
// emits before it finalizes — a hash join — restarts from its mark after its
// worker dies, and the results its tasks below the mark delivered and
// committed are still the head's: nothing re-delivers them, so the head must
// have held them since their commit. The rows are the failure-free run's (as a
// multiset: which pieces a task takes, and so the row order, varies by run).
func TestCheckpointRestartKeepsDeliveredResults(t *testing.T) {
	tables := joinTables(4000)
	p := MustPlan(joinPlan().Stages[:3]...) // the join is the output stage
	cfg := DefaultConfig()
	cfg.FT = FTCheckpoint
	cfg.CheckpointEveryTasks = 2
	cfg.MaxTake = 1
	want, _ := runPlan(t, testCluster(t, 4, tables), p, cfg)

	cl := testCluster(t, 4, tables)
	r, err := NewRunner(cl, p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Join channel 1 is seeded on worker 1: kill it once the channel has
	// committed past a mark that has results below it. Past means one task:
	// a mark rides every second commit here, so a cursor two past its mark
	// is only the channel's finalize, and a kill there could come after the
	// query's last commit, with nothing left to recover.
	joinCh := lineage.ChannelID{Stage: 2, Channel: 1}
	killInTxn(cl, 1, func(tx *gcs.Txn) bool {
		v, _ := tx.Get(r.keyCheckpoint(joinCh))
		m, err := decodeCheckpoint(v)
		return err == nil && m.Seq >= 10 && txGetInt(tx, r.keyCursor(joinCh), 0) > m.Seq
	})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	got, rep, err := r.Start(ctx).Result()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Recoveries == 0 {
		t.Fatal("no kill, or none the query noticed: nothing recovered")
	}
	if g, w := rowMultiset(got), rowMultiset(want); !slices.Equal(g, w) {
		t.Fatalf("result differs from the failure-free run: %d rows, want %d", len(g), len(w))
	}
}

// TestOwnerBelowARestartHasDied: under checkpoint a channel that restarted
// from a mark keeps its tasks below the mark, and their backups died with the
// worker that committed them. The join channel on worker 1 is killed past a
// mark and restarts from it on a survivor; then the aggregate's worker 0 dies,
// and the rewound aggregate needs every join task re-fed: those at or above
// the join's restart cursor from its new host, those below it from no one — so
// the second pass cascades the join, from 0, and drops its restart cursor. The
// result is the failure-free run's byte for byte.
func TestOwnerBelowARestartHasDied(t *testing.T) {
	tables := joinTables(4000)
	cfg := DefaultConfig()
	cfg.FT = FTCheckpoint
	cfg.CheckpointEveryTasks = 2
	cfg.MaxTake = 1
	want, _ := runPlan(t, testCluster(t, 4, tables), joinPlan(), cfg)

	cl := testCluster(t, 4, tables)
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
	// Worker 0 hosts the aggregate; it dies once the join, restarted on
	// another worker, has committed past its restart cursor.
	killInTxn(cl, 0, func(tx *gcs.Txn) bool {
		restart := txGetInt(tx, r.keyRestart(join), 0)
		return restart > 0 && txGetInt(tx, r.keyCursor(join), 0) > restart &&
			txGetInt(tx, r.keyPlacement(join), -1) != 0 && txGetInt(tx, r.keyPlacement(agg), -1) == 0
	})
	var kept, dropped atomic.Bool // a pass kept the join's restart cursor; a later one dropped it
	hookTxns(cl, func(_ *gcs.Txn, c committed) {
		if v, ok := c.writes[r.keyRestart(join)]; ok && !c.flush() {
			if v != nil {
				kept.Store(true)
			} else if kept.Load() {
				dropped.Store(true)
			}
		}
	})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	got, rep, err := r.Run(ctx)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Recoveries < 2 || !kept.Load() || !dropped.Load() {
		t.Fatalf("%d recoveries; restart cursor kept %v, dropped %v: want the join restarted from a mark, then cascaded from 0",
			rep.Recoveries, kept.Load(), dropped.Load())
	}
	if !bytes.Equal(batch.Encode(got), batch.Encode(want)) {
		t.Fatalf("result differs from the failure-free run:\nwant %v\ngot  %v", want, got)
	}
}

// rowMultiset renders every row of b and sorts them.
func rowMultiset(b *batch.Batch) []string {
	var rows []string
	for i := 0; b != nil && i < b.NumRows(); i++ {
		var row strings.Builder
		for _, c := range b.Cols {
			fmt.Fprintf(&row, "|%v", c.Value(i))
		}
		rows = append(rows, row.String())
	}
	slices.Sort(rows)
	return rows
}

// TestFatalTaskErrorFailsQuery: an error retrying cannot fix — here a split
// object that does not decode — ends Run with that error, under a deadline
// that a task manager retrying it forever would run out.
func TestFatalTaskErrorFailsQuery(t *testing.T) {
	cl := testCluster(t, 2, map[string][]*batch.Batch{"numbers": numbersTable(400, 8)})
	cl.HeadObjs.PutFree(tableSplitKey("numbers", 3), []byte("not a batch"))
	r, err := NewRunner(cl, scanFilterAggPlan(0), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_, _, err = r.Run(ctx)
	if err == nil || ctx.Err() != nil || errors.Is(err, ErrQueryFailed) {
		t.Fatalf("Run over a corrupt split: %v (deadline: %v), want the decode error", err, ctx.Err())
	}
	assertNoQueryState(t, cl, "after a fatal task error")
}

// TestFatalTaskErrorIsNeverCommitted: a task whose output cannot be routed —
// a shuffle key its output lacks — fails on every step, a retry of it
// included, and commits nothing. From a worker process the failure reaches
// the coordinator asynchronously, so a retry that committed what the failed
// encode dropped would finish the query first, with an empty result.
func TestFatalTaskErrorIsNeverCommitted(t *testing.T) {
	cl := testCluster(t, 1, map[string][]*batch.Batch{"numbers": numbersTable(400, 4)})
	bad := MustPlan(
		&Stage{ID: 0, Name: "read", Reader: &ReaderSpec{Table: "numbers"}},
		&Stage{ID: 1, Name: "count", Parallelism: 1,
			Op:     ops.NewHashAggSpec(nil, ops.CountStar("c")),
			Inputs: []StageInput{{Stage: 0, Part: Hash("no_such_column")}}},
	)
	r, err := NewRunner(cl, bad, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := r.seed(); err != nil {
		t.Fatal(err)
	}
	tm := newTaskManager(r, cl.Worker(0))
	snap, err := r.snapshot()
	if err != nil {
		t.Fatal(err)
	}
	tm.refreshChannels(snap)
	reader := lineage.ChannelID{Stage: 0, Channel: 0}
	cs := tm.channels[reader]
	for i := 0; i < 3; i++ {
		cs.protocol.Lock()
		ok, err := tm.step(cs, snap)
		cs.protocol.Unlock()
		if ok || err == nil || !strings.Contains(err.Error(), "no_such_column") {
			t.Fatalf("step %d: progressed %v, error %v; want the partition-key error", i, ok, err)
		}
	}
	cl.GCS.ViewNS(r.keyNS(), func(tx *gcs.Txn) error {
		if cur := txGetInt(tx, r.keyCursor(reader), 0); cur != 0 {
			t.Errorf("the failing reader committed %d tasks", cur)
		}
		return nil
	})
}

// TestElidedPieceIsNeverRead: under write-ahead lineage a survivor's backup is
// read only for consumers whose worker died, and so never for a piece that
// was elided — its consumer shared the survivor's worker. The audit sees
// backups holding elided slots read and none named. The guards behind the
// argument hold where it would break: a replay entry naming an elided slot
// fails the query with errElidedPiece, as does an elided piece offered to
// another worker by a live producer; a dead producer's offer is refused like
// any push from the dead.
func TestElidedPieceIsNeverRead(t *testing.T) {
	t.Run("kill", func(t *testing.T) {
		cl := testCluster(t, 4, joinTables(1200))
		r, err := NewRunner(cl, joinPlan(), DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		log := auditBackups(t, r)
		// Kill worker 1 once the fact readers on the three others have each
		// committed two splits: every split holds every join key, so each of
		// their backups elides the piece for the join channel beside it, and
		// the rewound join channel 1 needs them all re-fed.
		killInTxn(cl, 1, func(tx *gcs.Txn) bool {
			for _, c := range []int{0, 2, 3} {
				if txGetInt(tx, r.keyCursor(lineage.ChannelID{Stage: 1, Channel: c}), 0) < 2 {
					return false
				}
			}
			return true
		})
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		out, rep, err := r.Run(ctx)
		if err != nil || out == nil || out.NumRows() != 10 {
			t.Fatalf("Run: %v, %v", out, err)
		}
		if rep.Recoveries == 0 || log.beside == 0 {
			t.Fatalf("%d recoveries, %d backup reads, %d of sets holding an elided slot: the kill exercised nothing", rep.Recoveries, log.reads, log.beside)
		}
	})

	t.Run("guards", func(t *testing.T) {
		cl := testCluster(t, 2, map[string][]*batch.Batch{"numbers": numbersTable(400, 4)})
		r, err := NewRunner(cl, scanFilterAggPlan(0), DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if err := r.seed(); err != nil {
			t.Fatal(err)
		}
		log := &auditLog{}
		w0 := cl.Worker(0)
		w0.Disk = backupAudit{Disk: w0.Disk, r: r, w: 0, log: log}
		tm := newTaskManager(r, w0)
		// A reader task on worker 0 whose direct-edge piece went to the filter
		// channel beside it, elided; backed up as the policy keeps it.
		task := lineage.TaskName{Stage: 0, Channel: 0, Seq: 0}
		rows := numbersTable(10, 1)[0]
		edges := r.plan.Consumers(task.Stage)
		beside := func(stage, ch int) bool { return ch == 0 }
		set, pieces, err := tm.encodePieces(&taskOutput{outs: []*batch.Batch{rows}}, edges, task.Channel, beside)
		if err != nil {
			t.Fatal(err)
		}
		if err := tm.disk.Write(backupKey(r.qid, task), set); err != nil {
			t.Fatal(err)
		}
		// A replay entry naming it, as no reconcile under this policy writes —
		// in a transaction that moves the global epoch, as every one that does.
		if err := r.gcsUpdate(func(tx *gcs.Txn) error {
			addReplayDest(tx, r.keyReplay(0, task), lineage.ChannelID{Stage: 1, Channel: 0})
			txPutInt(tx, r.keyGlobalEpoch(), 2)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		snap, err := r.snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if tm.runReplays(snap, func() {}) {
			t.Error("a replay of an elided piece ran")
		}
		select {
		case err := <-r.failCh:
			if !errors.Is(err, errElidedPiece) {
				t.Errorf("the replay failed the query with %v, want errElidedPiece", err)
			}
		default:
			t.Error("a replay named an elided slot and the query goes on")
		}
		if len(log.named) != 1 {
			t.Errorf("the audit recorded %v, want the one elided slot named", log.named)
		}

		// The same piece offered to channel 1 of the filter stage, on worker 1.
		_, b, err := pieces.piece(0, 0)
		if err != nil || b == nil {
			t.Fatalf("built elided piece: %v, %v", b, err)
		}
		away := lineage.ChannelID{Stage: 1, Channel: 1}
		if err := tm.pushPiece(snap, task, away, 0, nil, b, 0); !errors.Is(err, errElidedPiece) {
			t.Errorf("a live producer's elided piece pushed to another worker: %v, want errElidedPiece", err)
		}
		w0.Kill()
		if err := tm.pushPiece(snap, task, away, 0, nil, b, 0); !errors.Is(err, flight.ErrServerDown) {
			t.Errorf("a dead producer's elided piece pushed to another worker: %v, want flight.ErrServerDown", err)
		}
	})
}
