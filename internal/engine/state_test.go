package engine

import (
	"context"
	"reflect"
	"testing"
	"time"

	"quokka/internal/gcs"
	"quokka/internal/lineage"
	"quokka/internal/metrics"
	"quokka/internal/storage"
)

func TestKeySchema(t *testing.T) {
	// Every key lives under the owning query's namespace: that prefix is
	// what lets concurrent queries share one GCS without collisions.
	r := &Runner{qid: "q7", par: []int{1, 1, 6}}
	r.buildKeys()
	c := lineage.ChannelID{Stage: 2, Channel: 5}
	n := lineage.TaskName{Stage: 2, Channel: 5, Seq: 9}
	for key, want := range map[string]string{
		r.keyPlacement(c):    "q/q7/pl/2.5",
		r.keyChanEpoch(c):    "q/q7/cep/2.5",
		r.keyCursor(c):       "q/q7/cur/2.5",
		r.keyLineage(n):      "q/q7/lin/2.5.9",
		r.keyDone(c):         "q/q7/done/2.5",
		r.keyPartDir(n):      "q/q7/pd/2.5.9",
		r.keyCheckpoint(c):   "q/q7/ck/2.5",
		r.keyReplay(3, n):    "q/q7/rp/3/2.5.9",
		r.keyBarrier():       "q/q7/bar",
		r.keyOpParallelism(): "q/q7/opp",
	} {
		if key != want {
			t.Errorf("key = %q, want %q", key, want)
		}
	}
}

func TestReplayDestRoundTrip(t *testing.T) {
	r := &Runner{qid: "q1"}
	store := gcs.New(storage.TestCostModel(), &metrics.Collector{})
	task := lineage.TaskName{Stage: 1, Channel: 2, Seq: 3}
	d1 := lineage.ChannelID{Stage: 4, Channel: 0}
	d2 := lineage.ChannelID{Stage: 5, Channel: 7}
	store.Update(func(tx *gcs.Txn) error {
		addReplayDest(tx, r.keyReplay(0, task), d1)
		addReplayDest(tx, r.keyReplay(0, task), d2)
		addReplayDest(tx, r.keyReplay(0, task), d1) // dedup
		return nil
	})
	store.View(func(tx *gcs.Txn) error {
		v, ok := tx.Get(r.keyReplay(0, task))
		if !ok {
			t.Fatal("replay entry missing")
		}
		dests, err := parseReplayDests(v)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(dests, []lineage.ChannelID{d1, d2}) {
			t.Errorf("dests = %v", dests)
		}
		return nil
	})
	if _, err := parseReplayDests([]byte("garbage")); err == nil {
		t.Error("want error for malformed dests")
	}
	if got, err := parseReplayDests(nil); err != nil || got != nil {
		t.Errorf("empty dests = %v, %v", got, err)
	}
}

func TestCheckpointMarkRoundTrip(t *testing.T) {
	m := checkpointMark{
		Seq:    7,
		ObjKey: "ckpt/1.2/7",
		WM:     lineage.Watermark{{Input: 0, UpChannel: 3}: 11},
	}
	got, err := decodeCheckpoint(encodeCheckpoint(m))
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != m.Seq || got.ObjKey != m.ObjKey || !reflect.DeepEqual(got.WM, m.WM) {
		t.Errorf("round trip: %+v vs %+v", got, m)
	}
	// Empty watermark form.
	m2 := checkpointMark{Seq: 1, ObjKey: "k", WM: lineage.Watermark{}}
	got2, err := decodeCheckpoint(encodeCheckpoint(m2))
	if err != nil || got2.Seq != 1 || len(got2.WM) != 0 {
		t.Errorf("empty wm round trip: %+v, %v", got2, err)
	}
	for _, bad := range []string{"", "x", "notanint key"} {
		if _, err := decodeCheckpoint([]byte(bad)); err == nil {
			t.Errorf("decodeCheckpoint(%q) should fail", bad)
		}
	}
}

func TestTxHelpers(t *testing.T) {
	store := gcs.New(storage.TestCostModel(), &metrics.Collector{})
	store.Update(func(tx *gcs.Txn) error {
		txPutInt(tx, "n", 42)
		tx.Put("bad", []byte("not-a-number"))
		return nil
	})
	store.View(func(tx *gcs.Txn) error {
		if got := txGetInt(tx, "n", -1); got != 42 {
			t.Errorf("txGetInt = %d", got)
		}
		if got := txGetInt(tx, "missing", 7); got != 7 {
			t.Errorf("default = %d", got)
		}
		if got := txGetInt(tx, "bad", 9); got != 9 {
			t.Errorf("malformed should yield default, got %d", got)
		}
		return nil
	})
}

// TestFTModeCapabilities pins Table I as data — what each mode does — and
// the one process-mode predicate on both sides of the wire: a mode that
// writes through the runner's private object store cannot be encoded for,
// nor decoded by, a worker process.
func TestFTModeCapabilities(t *testing.T) {
	want := map[FTMode]ftCaps{
		FTNone:              0,
		FTWriteAheadLineage: capLineage | capBackup,
		FTSpool:             capLineage | capSpool,
		FTCheckpoint:        capLineage | capBackup | capCheckpoint,
		FTMode(99):          0, // an unknown mode does nothing
	}
	for mode, caps := range want {
		if got := ftTable[mode]; got != caps {
			t.Errorf("%s: capabilities %04b, want %04b", mode, got, caps)
		}
		cfg := DefaultConfig()
		cfg.FT = mode
		pol, err := resolve(cfg, clusterOptions{})
		if err != nil {
			t.Fatal(err)
		}
		spec := &WorkerQuerySpec{QueryID: "q1", Plan: scanFilterAggPlan(0), Cfg: pol}
		data, err := spec.Encode()
		if refused := err != nil; refused != caps.needsSharedStore() {
			t.Errorf("%s: Encode error %v, needs a shared store = %v", mode, err, caps.needsSharedStore())
		}
		if err != nil {
			continue
		}
		got, err := DecodeWorkerSpec(data)
		if err != nil {
			t.Fatalf("%s: decode: %v", mode, err)
		}
		if !reflect.DeepEqual(got.Cfg, pol) {
			t.Errorf("%s: policy changed across the wire:\n got %+v\nwant %+v", mode, got.Cfg, pol)
		}
	}
	// The worker side asks the same predicate of what it decoded.
	if err := (&WorkerQuerySpec{Cfg: Policy{Config: Config{FT: FTSpool}}}).shippable(); err == nil {
		t.Error("a decoded spool-mode spec was accepted")
	}
}

// TestCollectorFences: the head's one kind of entry is a payload, and what
// fences it is the task name and the producing epoch. A lower-epoch (zombie)
// delivery never replaces a higher-epoch one; once a channel's committed task
// count is known, a delivery at or past it is a leftover and is dropped, the
// buffered one included; and the cursor consumes nothing above the committed
// count.
func TestCollectorFences(t *testing.T) {
	c := newCollector(0, 1)
	task := func(seq int) lineage.TaskName { return lineage.TaskName{Seq: seq} }
	c.Deliver(task(0), []byte("fresh"), 2)
	c.Deliver(task(0), []byte("zombie"), 1)
	if got := c.snapshot()[task(0)]; string(got) != "fresh" {
		t.Errorf("after a zombie delivery the entry is %q, want fresh", got)
	}
	c.Deliver(task(1), []byte("one"), 2)
	c.Deliver(task(2), []byte("leftover"), 1)
	if c.bytes != int64(len("fresh")+len("one")+len("leftover")) {
		t.Errorf("buffered %d bytes", c.bytes)
	}
	c.setDoneCount(0, 2)
	if c.has(task(2)) || c.bytes != int64(len("fresh")+len("one")) {
		t.Errorf("a leftover past the committed count survived: %d bytes", c.bytes)
	}
	if !c.Deliver(task(3), []byte("late"), 3) || c.has(task(3)) {
		t.Error("a late leftover was refused or kept")
	}

	c = newCollector(0, 1)
	c.Deliver(task(0), []byte("uncommitted"), 0)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	defer context.AfterFunc(ctx, c.wake)()
	if _, _, err := c.next(ctx); err != context.DeadlineExceeded {
		t.Fatalf("the cursor read a delivery not yet committed: %v", err)
	}
	c.setCommitted(0, 1)
	if data, ok, err := c.next(context.Background()); !ok || err != nil || string(data) != "uncommitted" {
		t.Fatalf("after the commit: %q, %v, %v", data, ok, err)
	}
	if !c.Deliver(task(0), []byte("rerun"), 1) || len(c.parts) != 0 {
		t.Error("a rerun below the read watermark was buffered again")
	}
}
