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

// schemaRecorder notes what every committed update wrote, by key class —
// the segment after q/<qid>/ — and keeps the flushes apart: each is the write
// set of a batch of task commits and replay retirements. Every other update
// is counted; the first, the seed, is kept, and so are those that move the
// global epoch past the seeded 1: each is a recovery pass. A checkpoint mark a flush writes is
// checked against the entry beside it, and the latest update's per-key writes
// are counted: the last is cleanup, which drops the namespace instead. Its
// record is a txnHook's after.
type schemaRecorder struct {
	mu         sync.Mutex
	written    map[string]bool
	flushes    []flushWrites
	updates    int              // committed updates that are no flush
	seed       map[string]int   // the first of them: class -> keys put
	recoveries []map[string]int // per epoch-moving update: class -> keys put
	lastWrites int              // per-key writes of the latest of them
	badMarks   []string
}

// flushWrites is one flush's write set: class -> keys put, and keys deleted.
type flushWrites struct{ puts, deletes map[string]int }

func (s *schemaRecorder) record(tx *gcs.Txn, flush bool) {
	puts, deletes := map[string]int{}, map[string]int{}
	recovery := false
	var badMarks []string
	for k, v := range tx.Writes() {
		ns, rest, _ := strings.Cut(strings.TrimPrefix(k, "q/"), "/")
		class, ch, _ := strings.Cut(rest, "/")
		if v == nil {
			deletes[class]++
			continue
		}
		puts[class]++
		recovery = recovery || class == "gep" && string(v) != "1"
		if flush && class == "ck" {
			// The mark's Seq is the cursor committed beside it, and its object
			// is the committing incarnation's: named under the epoch the entry
			// was fenced on.
			ns = "q/" + ns + "/"
			m, err := decodeCheckpoint(v)
			cur := tx.Writes()[ns+"cur/"+ch]
			cep := txGetInt(tx, ns+"cep/"+ch, 0)
			if err != nil || strconv.Itoa(m.Seq) != string(cur) || !strings.Contains(m.ObjKey, fmt.Sprintf("/%s.e%d/", ch, cep)) {
				badMarks = append(badMarks, fmt.Sprintf("%s = %q beside cur %q at cep %d", k, v, cur, cep))
			}
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for class := range puts {
		s.written[class] = true
	}
	s.badMarks = append(s.badMarks, badMarks...)
	if flush {
		s.flushes = append(s.flushes, flushWrites{puts, deletes})
		return
	}
	s.updates++
	s.lastWrites = len(tx.Writes())
	if s.seed == nil {
		s.seed = puts
	}
	if recovery {
		s.recoveries = append(s.recoveries, puts)
	}
}

// TestControlStoreSchema holds the engine to docs/contracts/control-store.md:
// under every FT mode, with and without a kill, every key class written has a
// row on the page, every flush writes per task commit exactly what the page's
// "A task commit" table says for the mode — a ck mark only under checkpoint,
// naming the cursor beside it and an object of the committing epoch — and
// deletes nothing but the replay entries it retires, each recovery pass is one
// update writing only what reconcile and the epoch bump write, the head's
// seed — which writes placements and the global epoch alone — recovery
// passes and cleanup are the only updates that are no flush, cleanup drops
// the namespace with no per-key write and leaves nothing of it, and no row on
// the page goes unwritten by all of them.
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
	anyRetired := false
	for _, ft := range []FTMode{FTNone, FTWriteAheadLineage, FTSpool, FTCheckpoint} {
		for _, kill := range []bool{false, true} {
			name := ft.String() + map[bool]string{false: "/no-fault", true: "/one-kill"}[kill]
			t.Run(name, func(t *testing.T) {
				cl := testCluster(t, 4, joinTables(800))
				rec := &schemaRecorder{written: map[string]bool{}}
				store := cl.GCS
				cl.GCS = txnHook{Backend: cl.GCS, after: rec.record}
				cfg := DefaultConfig()
				cfg.FT = ft
				cfg.CheckpointEveryTasks = 2
				r, err := NewRunner(cl, joinPlan(), cfg)
				if err != nil {
					t.Fatal(err)
				}
				if kill {
					// Worker 2 dies once its own fact-reader channel and a
					// survivor's have committed: recovery then has a backup to
					// replay (rp) and a lost one its rewound reader re-reads.
					cur := func(tx *gcs.Txn, c int) int {
						return txGetInt(tx, r.keyCursor(lineage.ChannelID{Stage: 1, Channel: c}), 0)
					}
					killInTxn(cl, 2, func(tx *gcs.Txn) bool { return cur(tx, 2) > 0 && cur(tx, 0) > 0 })
				}
				ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
				defer cancel()
				_, rep, err := r.Run(ctx)
				if (err != nil) != (kill && ft == FTNone) || kill && ft != FTNone && rep.Recoveries == 0 {
					t.Fatalf("Run: %v (report %+v)", err, rep)
				}
				cl.GCS = store
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
				for _, f := range rec.flushes {
					puts := f.puts
					n := puts["cur"] // task commits in this flush
					wantLin, wantPD, maxCk := 0, 0, 0
					if caps.has(capLineage) {
						wantLin = n
					}
					// Under wal the owner of a backup is its channel's pl/:
					// only a checkpoint restart keeps owners pd/ must name.
					if caps.has(capCheckpoint) {
						wantPD, maxCk = n, n
					}
					// A replayed task retraces its record and writes none.
					okLin := puts["lin"] == wantLin || kill && puts["lin"] < wantLin
					other := 0
					for class := range puts {
						if !slices.Contains([]string{"cur", "lin", "pd", "done", "ck"}, class) {
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
					if n == 0 && len(f.deletes) == 0 || !okLin || puts["pd"] != wantPD || puts["done"] > n || puts["ck"] > maxCk || other != 0 {
						t.Errorf("a flush of %d task commits wrote %v, want lin %d, pd %d, at most %d done, at most %d ck and nothing else", n, puts, wantLin, wantPD, n, maxCk)
					}
				}
				if len(rec.flushes) == 0 {
					t.Error("no flush recorded")
				}
				for _, m := range rec.badMarks {
					t.Errorf("a flush wrote a mark that is not its entry's: %s", m)
				}
				// Every other update is the head's: seed, each recovery pass,
				// cleanup. A worker writes through the flush alone.
				if want := 2 + r.recovered; rec.updates != want {
					t.Errorf("%d updates were no flush, want %d: seed, %d recovery passes, cleanup", rec.updates, want, r.recovered)
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
						if !slices.Contains([]string{"pl", "cep", "cur", "rp", "gep"}, class) {
							t.Errorf("a recovery pass wrote %v: %q is outside pl, cep, cur, rp, gep", puts, class)
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
	for _, class := range slices.Sorted(maps.Keys(onPage)) {
		if !anyMode[class] {
			t.Errorf("key class %q has a row on the contract page and no mode writes it", class)
		}
	}
}
