package engine

import (
	"slices"
	"sync"
	"testing"

	"quokka/internal/gcs"
	"quokka/internal/lineage"
	"quokka/internal/metrics"
)

// TestReplayRoundRetiresOnce: a survivor that drains several replay entries
// in one round retires them all in one flush entry — one write, one version
// bump — and a channel no entry names is not stepped again because of it.
// Worker 0 runs its channels of a Q1-shaped plan to a standstill by hand (no
// threads; worker 1 runs nothing), then a recovery is planted as reconcile
// would write it: the global epoch moved, and two of the filter's backed-up
// tasks queued on worker 0 for the aggregate channel on worker 1.
func TestReplayRoundRetiresOnce(t *testing.T) {
	// Eight times the splits the one-split reader tasks ran over: runs of
	// MinTake splits give each reader channel as many tasks, and the filter
	// commits several.
	cl := testCluster(t, 2, joinTables(8000))
	r, err := NewRunner(cl, q1ShapedPlan(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var retirements [][]string // the rp/ keys each flush deleted
	hookTxns(cl, func(_ *gcs.Txn, c committed) {
		var keys []string
		for _, e := range c.entries {
			keys = append(keys, e.Deletes...)
		}
		if keys != nil {
			mu.Lock()
			retirements = append(retirements, keys)
			mu.Unlock()
		}
	})
	if err := r.seed(); err != nil {
		t.Fatal(err)
	}
	tm := newTaskManager(r, cl.Worker(0))
	poll := func() bool {
		t.Helper()
		progressed, _ := tm.poll(r.gcsVersion(), func() {})
		return progressed
	}
	for i := 0; poll(); i++ {
		if i > 1000 {
			t.Fatal("worker 0's channels never came to a standstill")
		}
	}
	filter, agg := lineage.ChannelID{Stage: 1, Channel: 0}, lineage.ChannelID{Stage: 2, Channel: 1}
	if n := tm.channels[filter].cursor; n < 2 {
		t.Fatalf("filter channel %s committed %d tasks, want >= 2", filter, n)
	}
	var queued []string
	if err := r.gcsUpdate(func(tx *gcs.Txn) error {
		for seq := range 2 {
			key := r.keyReplay(0, lineage.TaskName{Stage: filter.Stage, Channel: filter.Channel, Seq: seq})
			addReplayDest(tx, key, agg)
			queued = append(queued, key)
		}
		txPutInt(tx, r.keyGlobalEpoch(), 2)
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	// The round under the recovery's image drains both entries, and steps
	// every channel once: the global epoch moved.
	poll()
	if replays := r.qmet.Get(metrics.RecoveryReplays); replays != 2 {
		t.Fatalf("%d replays ran, want 2", replays)
	}
	mu.Lock()
	got := slices.Clone(retirements)
	mu.Unlock()
	if len(got) != 1 {
		t.Fatalf("%d flushes retired replay entries (%v), want 1", len(got), got)
	}
	if slices.Sort(got[0]); !slices.Equal(got[0], queued) {
		t.Errorf("the retirement deleted %v, want %v", got[0], queued)
	}
	s, err := r.snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(s.replays) != 0 {
		t.Fatalf("the image after the retirement lists %d replay entries", len(s.replays))
	}

	// No channel of worker 0 is named by an entry, so the retirement wakes
	// none of them: the next round steps nothing.
	steps := r.qmet.Get(metrics.StepsRun)
	if poll() {
		t.Error("the round after the retirement made progress")
	}
	if n := r.qmet.Get(metrics.StepsRun) - steps; n != 0 {
		t.Errorf("the round after the retirement stepped %d channels, want 0: none is named by a retired entry", n)
	}
}
