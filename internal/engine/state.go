package engine

import (
	"fmt"
	"strconv"
	"strings"

	"quokka/internal/gcs"
	"quokka/internal/lineage"
)

// GCS key schema. Everything the engine coordinates through lives in the
// GCS under the owning query's namespace q/<qid>/ (§IV-B: "the single source
// of truth for the execution state of the entire system"), so any number of
// in-flight queries coexist in one GCS without clobbering each other's
// lineage, cursors, epochs or recovery queues, and a query's whole
// namespace is dropped in one step when it finishes (gcs.Txn.DeleteNS).
// docs/contracts/control-store.md is the normative table — value, the one
// writer, every reader and lifetime of each class; a class nothing reads is
// not written — and TestControlStoreSchema holds this package to it. In short:
//
//	pl/<s>.<c>  cep/<s>.<c>  cur/<s>.<c>  done/<s>.<c>  ck/<s>.<c>
//	            a channel's placement, epoch, task cursor, finished task
//	            count, checkpoint mark "<seq> <objkey> <watermark>"
//	lin/<s>.<c>.<q>  pd/<s>.<c>.<q>
//	            a task's committed lineage record; the worker holding its
//	            upstream backup (written under checkpoint only: under wal the
//	            owner of every task below a channel's cursor is its pl/)
//	gep
//	            global placement epoch (seeded 1, +1 per recovery, in the
//	            transaction that reconciles)
//	rp/<w>/<s>.<c>.<q>
//	            replay queues: worker w re-pushes its stored piece set of the
//	            task for the consumer channels in the value ("ds.dc;...")
//
// The key helpers are Runner methods because the Runner owns the query id;
// epochs and replay queues are per query, which is what lets one query
// recover from a worker failure without quiescing the others.

// QueryNamespace is query qid's GCS namespace, spelled here and nowhere else;
// exported for the process-mode worker, which drops its replica of it.
func QueryNamespace(qid string) string { return "q/" + qid + "/" }

// keyNS is the query's namespace, built once by newRunner: a flush formats
// several keys per entry from it.
func (r *Runner) keyNS() string { return r.ns }

// Disk key schema. Worker-local disk state is namespaced per query just
// like the GCS: spill run files under spill/<qid>/, upstream partition
// backups under bk/<qid>/. Each prefix has exactly ONE construction site
// below — the nskey invariant analyzer (internal/lint) fails the build if
// a raw prefix literal appears anywhere else, so a sweep can never hit a
// bare prefix and take another query's state with it.

// spillQueryPrefix is the blessed construction site of the "spill/"
// namespace: every spill run file of one query lives under it, and the
// per-query teardown sweep deletes exactly this prefix.
func spillQueryPrefix(qid string) string { return "spill/" + qid + "/" }

// spillChanPrefix covers every incarnation (all epochs) of one channel's
// spill runs; resetChannel sweeps it so a rewound channel's replacement
// operator never reads pre-failure run files.
func spillChanPrefix(qid string, id lineage.ChannelID) string {
	return spillQueryPrefix(qid) + id.String() + "."
}

// spillNS is the disk-key namespace for one channel incarnation's spill
// run files ("spill/<qid>/<id>.e<cep>"): keyed by query, channel AND
// channel epoch, so concurrent queries' and successive incarnations'
// files never collide.
func spillNS(qid string, id lineage.ChannelID, cep int) string {
	return fmt.Sprintf("%se%d", spillChanPrefix(qid, id), cep)
}

// backupQueryPrefix is the blessed construction site of the "bk/"
// namespace: upstream partition backups, swept per query at teardown.
func backupQueryPrefix(qid string) string { return "bk/" + qid + "/" }

// backupKey locates one task's partition backup on its worker's disk.
func backupKey(qid string, t lineage.TaskName) string {
	return backupQueryPrefix(qid) + t.String()
}

// chanKeys holds one channel's prebuilt GCS key strings. A snapshot load
// builds keys for every channel of the plan, so the per-channel keys are
// formatted once at runner setup and the table is read-only (hence
// lock-free) afterwards.
type chanKeys struct {
	place, cep, cursor, done, ck string
}

// buildKeys precomputes the per-channel key table, indexed [stage][channel]
// like a snapshot. Called once from newRunner, after stage parallelism is
// resolved; it covers every channel of the plan.
func (r *Runner) buildKeys() {
	ns := r.keyNS()
	r.keys = make([][]chanKeys, len(r.par))
	for s, n := range r.par {
		r.keys[s] = make([]chanKeys, n)
		for c := range r.keys[s] {
			cs := lineage.ChannelID{Stage: s, Channel: c}.String()
			r.keys[s][c] = chanKeys{
				place:  ns + "pl/" + cs,
				cep:    ns + "cep/" + cs,
				cursor: ns + "cur/" + cs,
				done:   ns + "done/" + cs,
				ck:     ns + "ck/" + cs,
			}
		}
	}
}

func (r *Runner) keyPlacement(c lineage.ChannelID) string  { return r.keys[c.Stage][c.Channel].place }
func (r *Runner) keyChanEpoch(c lineage.ChannelID) string  { return r.keys[c.Stage][c.Channel].cep }
func (r *Runner) keyCursor(c lineage.ChannelID) string     { return r.keys[c.Stage][c.Channel].cursor }
func (r *Runner) keyDone(c lineage.ChannelID) string       { return r.keys[c.Stage][c.Channel].done }
func (r *Runner) keyCheckpoint(c lineage.ChannelID) string { return r.keys[c.Stage][c.Channel].ck }

func (r *Runner) keyLineage(t lineage.TaskName) string { return r.keyNS() + "lin/" + t.String() }
func (r *Runner) keyPartDir(t lineage.TaskName) string { return r.keyNS() + "pd/" + t.String() }
func (r *Runner) keyGlobalEpoch() string               { return r.keyNS() + "gep" }

func (r *Runner) keyReplay(w int, t lineage.TaskName) string {
	return fmt.Sprintf("%srp/%d/%s", r.keyNS(), w, t)
}

// addReplayDest appends a consumer channel to a replay entry's destination
// list, deduplicating. One replay entry per (worker, task) re-reads the
// backup once and re-pushes a piece to every rewound consumer.
func addReplayDest(tx *gcs.Txn, key string, dest lineage.ChannelID) {
	v, _ := tx.Get(key)
	ds := string(v)
	for _, d := range strings.Split(ds, ";") {
		if d == dest.String() {
			return
		}
	}
	if ds != "" {
		ds += ";"
	}
	tx.Put(key, []byte(ds+dest.String()))
}

// parseReplayDests decodes a replay entry's destination list.
func parseReplayDests(v []byte) ([]lineage.ChannelID, error) {
	var out []lineage.ChannelID
	for _, part := range strings.Split(string(v), ";") {
		if part == "" {
			continue
		}
		d, err := lineage.ParseChannelID(part)
		if err != nil {
			return nil, err
		}
		out = append(out, d)
	}
	return out, nil
}

// Typed accessors over a gcs.Txn.

func txGetInt(tx *gcs.Txn, key string, def int) int {
	v, ok := tx.Get(key)
	if !ok {
		return def
	}
	n, err := strconv.Atoi(string(v))
	if err != nil {
		return def
	}
	return n
}

func txPutInt(tx *gcs.Txn, key string, v int) {
	tx.Put(key, []byte(strconv.Itoa(v)))
}

// checkpointMark is the decoded ck/ value.
type checkpointMark struct {
	Seq    int
	ObjKey string
	WM     lineage.Watermark
}

func encodeCheckpoint(m checkpointMark) []byte {
	return []byte(fmt.Sprintf("%d %s %s", m.Seq, m.ObjKey, m.WM.Encode()))
}

func decodeCheckpoint(data []byte) (checkpointMark, error) {
	var m checkpointMark
	parts := strings.SplitN(string(data), " ", 3)
	if len(parts) < 2 {
		return m, fmt.Errorf("engine: bad checkpoint marker %q", data)
	}
	seq, err := strconv.Atoi(parts[0])
	if err != nil {
		return m, fmt.Errorf("engine: bad checkpoint seq %q", data)
	}
	m.Seq = seq
	m.ObjKey = parts[1]
	if len(parts) == 3 && parts[2] != "" {
		wm, err := lineage.DecodeWatermark([]byte(parts[2]))
		if err != nil {
			return m, err
		}
		m.WM = wm
	} else {
		m.WM = lineage.Watermark{}
	}
	return m, nil
}
