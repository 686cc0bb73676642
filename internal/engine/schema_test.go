package engine

import (
	"context"
	"maps"
	"os"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"quokka/internal/gcs"
	"quokka/internal/lineage"
)

// schemaRecorder notes what every committed update wrote, by key class —
// the segment after q/<qid>/ — and keeps the flushes apart: each is the write
// set of a batch of task commits. So are the other updates that move the
// global epoch past the seeded 1: each is a recovery pass. Its record is a
// txnHook's after.
type schemaRecorder struct {
	mu         sync.Mutex
	written    map[string]bool
	flushes    []map[string]int // per flush: class -> keys put
	recoveries []map[string]int // per epoch-moving update: the same
}

func (s *schemaRecorder) record(tx *gcs.Txn, flush bool) {
	puts := map[string]int{}
	recovery := false
	for k, v := range tx.Writes() {
		if v != nil {
			_, rest, _ := strings.Cut(strings.TrimPrefix(k, "q/"), "/")
			class, _, _ := strings.Cut(rest, "/")
			puts[class]++
			recovery = recovery || class == "gep" && string(v) != "1"
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for class := range puts {
		s.written[class] = true
	}
	if flush {
		s.flushes = append(s.flushes, puts)
	} else if recovery {
		s.recoveries = append(s.recoveries, puts)
	}
}

// TestControlStoreSchema holds the engine to docs/contracts/control-store.md:
// under every FT mode, with and without a kill, every key class written has a
// row on the page, every flush writes per task commit exactly what the page's
// "A task commit" table says for the mode, each recovery pass is one update
// writing only what reconcile and the epoch bump write, and no row on the page
// goes unwritten by all of them.
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
	for _, ft := range []FTMode{FTNone, FTWriteAheadLineage, FTSpool, FTCheckpoint} {
		for _, kill := range []bool{false, true} {
			name := ft.String() + map[bool]string{false: "/no-fault", true: "/one-kill"}[kill]
			t.Run(name, func(t *testing.T) {
				cl := testCluster(t, 4, joinTables(800))
				rec := &schemaRecorder{written: map[string]bool{}}
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
					// replay (rp) and a lost one to re-read (rpi).
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

				rec.mu.Lock()
				defer rec.mu.Unlock()
				for class := range rec.written {
					anyMode[class] = true
					if !onPage[class] {
						t.Errorf("key class %q is written and has no row on the contract page", class)
					}
				}
				caps := ftTable[ft]
				for _, puts := range rec.flushes {
					n := puts["cur"] // task commits in this flush
					wantLin, wantPD := 0, 0
					if caps.has(capLineage) {
						wantLin = n
					}
					if caps.has(capBackup) {
						wantPD = n
					}
					// A replayed task retraces its record and writes none.
					okLin := puts["lin"] == wantLin || kill && puts["lin"] < wantLin
					other := 0
					for class := range puts {
						if !slices.Contains([]string{"cur", "lin", "pd", "done"}, class) {
							other++
						}
					}
					if n == 0 || !okLin || puts["pd"] != wantPD || puts["done"] > n || other != 0 {
						t.Errorf("a flush of %d task commits wrote %v, want lin %d, pd %d, at most %d done and nothing else", n, puts, wantLin, wantPD, n)
					}
				}
				if len(rec.flushes) == 0 {
					t.Error("no flush recorded")
				}
				// A recovery pass is one transaction: the update that moves the
				// epoch writes the whole reconciliation, and nothing else does.
				if err == nil && len(rec.recoveries) != rep.Recoveries {
					t.Errorf("%d updates moved the global epoch, want one per recovery (%d)", len(rec.recoveries), rep.Recoveries)
				}
				for _, puts := range rec.recoveries {
					if puts["pl"] == 0 || puts["cep"] == 0 {
						t.Errorf("the update that moved the epoch wrote %v: no rewind", puts)
					}
					for class := range puts {
						if !slices.Contains([]string{"pl", "cep", "cur", "rp", "rpi", "gep"}, class) {
							t.Errorf("a recovery pass wrote %v: %q is outside pl, cep, cur, rp, rpi, gep", puts, class)
						}
					}
				}
			})
		}
	}
	for _, class := range slices.Sorted(maps.Keys(onPage)) {
		if !anyMode[class] {
			t.Errorf("key class %q has a row on the contract page and no mode writes it", class)
		}
	}
}
