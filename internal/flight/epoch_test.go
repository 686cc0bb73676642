package flight

import (
	"testing"

	"quokka/internal/lineage"
)

// Zombie-push fencing: a worker declared dead can still be mid-push, and
// its delivery may land after the rewound channel's new incarnation
// re-pushed the same sequence number with different content. Lower-epoch
// pushes must never replace higher-epoch slots.

func TestPushEpochFencesZombies(t *testing.T) {
	s := newServer()
	dest := lineage.ChannelID{Stage: 1, Channel: 0}
	from := lineage.TaskName{Stage: 0, Channel: 0, Seq: 3}
	push := func(data string, epoch int) {
		if err := s.Push(Partition{Query: "q", From: from, Dest: dest, Input: 0,
			Data: []byte(data), Epoch: epoch, Local: true}); err != nil {
			t.Fatal(err)
		}
	}
	take := func() string {
		d, err := s.Take("q", dest, 0, 0, 3, 1)
		if err != nil {
			t.Fatal(err)
		}
		return string(d[0].Data)
	}

	push("old-incarnation", 0)
	push("new-incarnation", 1)
	if got := take(); got != "new-incarnation" {
		t.Fatalf("after re-push: %q", got)
	}
	// The zombie's late delivery must not clobber the replacement.
	push("old-incarnation", 0)
	if got := take(); got != "new-incarnation" {
		t.Fatalf("zombie push replaced slot: %q", got)
	}
	// Same-epoch retries stay idempotent overwrites.
	push("new-retry", 1)
	if got := take(); got != "new-retry" {
		t.Fatalf("same-epoch retry: %q", got)
	}
	// Committed replays always win.
	push("committed", EpochCommitted)
	if got := take(); got != "committed" {
		t.Fatalf("committed replay: %q", got)
	}
}

func TestSpoolResultEpochFencesZombies(t *testing.T) {
	s := newServer()
	task := rtask(0)
	s.SpoolResult("q", task, []byte("stale"), 2)
	s.SpoolResult("q", task, []byte("zombie"), 1)
	if got, _ := s.FetchResult("q", task); string(got) != "stale" {
		t.Fatalf("zombie spool replaced payload: %q", got)
	}
	s.SpoolResult("q", task, []byte("fresh"), 3)
	if got, _ := s.FetchResult("q", task); string(got) != "fresh" {
		t.Fatalf("higher-epoch spool: %q", got)
	}
}
