package engine

import (
	"context"
	"fmt"
	"maps"
	"os"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"quokka/internal/gcs"
	"quokka/internal/lineage"
)

// schemaRecorder notes what every committed write wrote, by key class — the
// segment after q/<qid>/ — and keeps the flushes apart: each is the write set
// of a batch of task commits and replay retirements, read from the entries it
// applied. Every head transaction is counted; the first, the seed, is kept,
// and so are those that move the global epoch past the seeded 1: each is a
// recovery pass. A checkpoint mark a flush writes is checked against the entry
// it rides in, and the latest head transaction's per-key writes are counted:
// the last is cleanup, which drops the namespace instead. Its record is a
// txnHook's after.
type schemaRecorder struct {
	mu         sync.Mutex
	written    map[string]bool
	flushes    []flushWrites
	updates    int              // committed head transactions
	seed       map[string]int   // the first of them: class -> keys put
	recoveries []map[string]int // per epoch-moving one: class -> keys put
	lastWrites int              // per-key writes of the latest of them
	badMarks   []string
	badRestart []string // rs puts that are not the restart cursor, above 0, beside them
}

// flushWrites is one flush's write set: class -> keys put, and keys deleted;
// and per task commit, the task ("<s>.<c>.<q>", from the cursor it moved)
// and whether it finished its channel, beside the tasks whose lin/ it wrote.
type flushWrites struct {
	puts, deletes map[string]int
	commits       map[string]bool // task -> wrote its channel's done/
	lin           map[string]bool
}

// keyClass splits an engine key into its namespace, class and the rest.
func keyClass(k string) (ns, class, ch string) {
	ns, rest, _ := strings.Cut(strings.TrimPrefix(k, "q/"), "/")
	class, ch, _ = strings.Cut(rest, "/")
	return "q/" + ns + "/", class, ch
}

func (s *schemaRecorder) record(tx *gcs.Txn, c committed) {
	puts, deletes := map[string]int{}, map[string]int{}
	for k, v := range c.writes {
		if _, class, _ := keyClass(k); v == nil {
			deletes[class]++
		} else {
			puts[class]++
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for class := range puts {
		s.written[class] = true
	}
	if c.flush() {
		f := flushWrites{puts, deletes, map[string]bool{}, map[string]bool{}}
		for _, e := range c.entries {
			s.recordEntry(e, f)
		}
		s.flushes = append(s.flushes, f)
		return
	}
	recovery := false
	for k, v := range c.writes {
		ns, class, ch := keyClass(k)
		recovery = recovery || class == "gep" && v != nil && string(v) != "1"
		if v != nil && (class == "rs" || class == "cur" && string(v) != "0") {
			// A pass keeps a restart cursor for, and only for, a channel it
			// restarts from a mark: the cursor it leaves beside it, above 0.
			cur, _ := tx.Get(ns + "cur/" + ch)
			rs, _ := tx.Get(ns + "rs/" + ch)
			if string(cur) != string(rs) || string(rs) == "0" {
				s.badRestart = append(s.badRestart, fmt.Sprintf("rs/%s = %q beside cur %q", ch, rs, cur))
			}
		}
	}
	s.updates++
	s.lastWrites = len(c.writes)
	if s.seed == nil {
		s.seed = puts
	}
	if recovery {
		s.recoveries = append(s.recoveries, puts)
	}
}

// recordEntry notes one flush entry's task commit into f: the task its cursor
// names, whether it wrote done and lin, and whether a mark beside it names that
// cursor and an object of the epoch its cep guard fenced it on.
func (s *schemaRecorder) recordEntry(e gcs.Entry, f flushWrites) {
	vals := map[string][]byte{}
	for _, p := range e.Puts {
		vals[p.Key] = p.Val
	}
	for _, p := range e.Puts {
		ns, class, ch := keyClass(p.Key)
		switch class {
		case "cur":
			seq, _ := strconv.Atoi(string(p.Val))
			f.commits[ch+"."+strconv.Itoa(seq-1)] = vals[ns+"done/"+ch] != nil
		case "lin":
			f.lin[ch] = true
		case "ck":
			// The mark's Seq is the cursor committed beside it, and its object
			// is the committing incarnation's: named under the epoch the entry
			// was fenced on.
			cep := int64(-1)
			for _, g := range e.Guards {
				if g.Key == ns+"cep/"+ch {
					cep = g.Want
				}
			}
			m, err := decodeCheckpoint(p.Val)
			cur := vals[ns+"cur/"+ch]
			if err != nil || strconv.Itoa(m.Seq) != string(cur) || !strings.Contains(m.ObjKey, fmt.Sprintf("/%s.e%d/", ch, cep)) {
				s.badMarks = append(s.badMarks, fmt.Sprintf("%s = %q beside cur %q at cep %d", p.Key, p.Val, cur, cep))
			}
		}
	}
}

// TestControlStoreSchema holds the engine to docs/contracts/control-store.md:
// under every FT mode, with and without a kill, every key class written has a
// row on the page, every flush writes per task commit exactly what the page's
// "A task commit" table says for the mode — lin for a consume task's first
// execution alone, never for a reader's task, a last task or a retrace of a
// record already written; a ck mark only under checkpoint,
// naming the cursor beside it and an object of the committing epoch — and
// deletes nothing but the replay entries it retires, each recovery pass is one
// update writing only what reconcile and the epoch bump write, the head's
// seed — which writes placements and the global epoch alone — recovery
// passes and cleanup are the only updates that are no flush, cleanup drops
// the namespace with no per-key write and leaves nothing of it, and no row on
// the page goes unwritten by all of them. Under checkpoint a pass writes rs
// for, and only for, a channel it restarts from a mark.
func TestControlStoreSchema(t *testing.T) {
	page, err := os.ReadFile("../../docs/contracts/control-store.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, _ := strings.Cut(string(page), "\n## Key classes")
	table, _, _ = strings.Cut(table, "\n## ")
	onPage := map[string]bool{}
	for _, m := range regexp.MustCompile("(?m)^\\| `([a-z]+)` \\|").FindAllStringSubmatch(table, -1) {
		onPage[m[1]] = true
	}
	if len(onPage) == 0 {
		t.Fatal("no key classes parsed from the contract page")
	}

	anyMode := map[string]bool{}
	anyRetired, anyRetraced := false, false
	for _, ft := range []FTMode{FTNone, FTWriteAheadLineage, FTSpool, FTCheckpoint} {
		for _, kill := range []bool{false, true} {
			name := ft.String() + map[bool]string{false: "/no-fault", true: "/one-kill"}[kill]
			t.Run(name, func(t *testing.T) {
				cl := testCluster(t, 4, joinTables(800))
				rec := &schemaRecorder{written: map[string]bool{}}
				store, head := cl.GCS, cl.Head
				hookTxns(cl, rec.record)
				cfg := DefaultConfig()
				cfg.FT = ft
				cfg.CheckpointEveryTasks = 2
				r, err := NewRunner(cl, joinPlan(), cfg)
				if err != nil {
					t.Fatal(err)
				}
				if kill {
					// Worker 2 dies once its own fact-reader channel, a
					// survivor's and its own join channel have committed:
					// recovery then has a backup to replay (rp), a lost one its
					// rewound reader re-reads, and a logged range the rewound
					// join retraces.
					cur := func(tx *gcs.Txn, s, c int) int {
						return txGetInt(tx, r.keyCursor(lineage.ChannelID{Stage: s, Channel: c}), 0)
					}
					// Under checkpoint the join channel has a mark to restart
					// from, which the pass keeps in rs.
					killInTxn(cl, 2, func(tx *gcs.Txn) bool {
						_, marked := tx.Get(r.keyCheckpoint(lineage.ChannelID{Stage: 2, Channel: 2}))
						return cur(tx, 1, 2) > 0 && cur(tx, 1, 0) > 0 && cur(tx, 2, 2) > 0 && (marked || ft != FTCheckpoint)
					})
				}
				ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
				defer cancel()
				_, rep, err := r.Run(ctx)
				if (err != nil) != (kill && ft == FTNone) || kill && ft != FTNone && rep.Recoveries == 0 {
					t.Fatalf("Run: %v (report %+v)", err, rep)
				}
				cl.GCS, cl.Head = store, head
				assertNoQueryState(t, cl, name)

				rec.mu.Lock()
				defer rec.mu.Unlock()
				for class := range rec.written {
					anyMode[class] = true
					if !onPage[class] {
						t.Errorf("key class %q is written and has no row on the contract page", class)
					}
				}
				caps := ftTable[ft]
				retired := 0
				logged := map[string]bool{} // tasks whose lin/ an earlier flush wrote
				for _, f := range rec.flushes {
					puts := f.puts
					n := puts["cur"] // task commits in this flush
					maxCk := 0
					if caps.has(capCheckpoint) {
						maxCk = n
					}
					// Only a consume task's first execution logs its range: a
					// reader's split and a last task are re-derived, and a
					// retraced task's record is written already.
					wantLin := map[string]bool{}
					for task, final := range f.commits {
						if logged[task] {
							anyRetraced = true
						}
						name, err := lineage.ParseTaskName(task)
						if err != nil {
							t.Fatal(err)
						}
						if caps.has(capLineage) && len(r.plan.Stages[name.Stage].Inputs) > 0 && !final && !logged[task] {
							wantLin[task] = true
						}
					}
					if !maps.Equal(f.lin, wantLin) {
						t.Errorf("a flush committing tasks %v (true: it finished its channel) wrote lin for %v, want %v", f.commits, f.lin, wantLin)
					}
					maps.Copy(logged, f.lin)
					other := 0
					for class := range puts {
						if !slices.Contains([]string{"cur", "lin", "done", "ck"}, class) {
							other++
						}
					}
					// What a flush deletes is replay entries it retires, and
					// nothing else.
					for class, k := range f.deletes {
						if class != "rp" {
							t.Errorf("a flush deleted %v: only rp entries are retired", f.deletes)
						}
						retired += k
					}
					if n == 0 && len(f.deletes) == 0 || len(f.commits) != n || puts["done"] > n || puts["ck"] > maxCk || other != 0 {
						t.Errorf("a flush of %d task commits wrote %v, want at most %d done, at most %d ck and nothing else", n, puts, n, maxCk)
					}
				}
				if len(rec.flushes) == 0 {
					t.Error("no flush recorded")
				}
				for _, m := range rec.badMarks {
					t.Errorf("a flush wrote a mark that is not its entry's: %s", m)
				}
				for _, m := range rec.badRestart {
					t.Errorf("a recovery pass wrote a restart cursor it did not restart at: %s", m)
				}
				// Every other write is a head transaction: seed, each recovery
				// pass, cleanup. A worker writes through the flush alone.
				if want := 2 + r.recovered; rec.updates != want {
					t.Errorf("%d head transactions, want %d: seed, %d recovery passes, cleanup", rec.updates, want, r.recovered)
				}
				if rec.lastWrites != 0 {
					t.Errorf("cleanup buffered %d per-key writes, want the namespace dropped with none", rec.lastWrites)
				}
				if rec.seed["pl"] == 0 || rec.seed["gep"] != 1 || len(rec.seed) != 2 {
					t.Errorf("the seed wrote %v, want placements and gep alone", rec.seed)
				}
				// A recovery pass is one transaction: the update that moves the
				// epoch writes the whole reconciliation, and nothing else does.
				if err == nil && len(rec.recoveries) != rep.Recoveries {
					t.Errorf("%d updates moved the global epoch, want one per recovery (%d)", len(rec.recoveries), rep.Recoveries)
				}
				queued := 0
				for _, puts := range rec.recoveries {
					if puts["pl"] == 0 || puts["cep"] == 0 {
						t.Errorf("the update that moved the epoch wrote %v: no rewind", puts)
					}
					for class := range puts {
						if !slices.Contains([]string{"pl", "cep", "cur", "rp", "gep", "rs"}, class) || class == "rs" && !caps.has(capCheckpoint) {
							t.Errorf("a recovery pass under %s wrote %v: %q is outside pl, cep, cur, rp, gep (and rs under checkpoint)", ft, puts, class)
						}
					}
					queued += puts["rp"]
				}
				if queued > 0 && retired == 0 {
					t.Errorf("recovery queued %d replay entries and no flush retired one", queued)
				}
				anyRetired = anyRetired || retired > 0
			})
		}
	}
	if !anyRetired {
		t.Error("no mode retired a replay entry: the kills exercised nothing")
	}
	if !anyRetraced {
		t.Error("no mode committed a task whose record was logged already: no kill made a consumer retrace")
	}
	for _, class := range slices.Sorted(maps.Keys(onPage)) {
		if !anyMode[class] {
			t.Errorf("key class %q has a row on the contract page and no mode writes it", class)
		}
	}
}
