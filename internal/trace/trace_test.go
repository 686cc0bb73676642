package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilRecorderIsNoop(t *testing.T) {
	var r *Recorder
	r.Record(Span{Kind: KindTask})
	if got := r.Len(); got != 0 {
		t.Fatalf("Len on nil = %d", got)
	}
	if got := r.Snapshot(); got != nil {
		t.Fatalf("Snapshot on nil = %v", got)
	}
	if got := r.Dropped(); got != 0 {
		t.Fatalf("Dropped on nil = %d", got)
	}
	if err := r.WriteJSON(&bytes.Buffer{}); err == nil {
		t.Fatal("WriteJSON on nil recorder should error")
	}
}

// Disabled tracing is a nil recorder: the hot-path guard must cost no
// allocations, on Record and on the engine's `rec != nil` checks alike.
func TestNilRecorderRecordAllocationFree(t *testing.T) {
	var r *Recorder
	s := Span{Kind: KindTask, Worker: 2, Seq: 7}
	if n := testing.AllocsPerRun(100, func() { r.Record(s) }); n != 0 {
		t.Fatalf("nil Record allocates %v per call", n)
	}
}

// An enabled recorder's append path must not allocate either, once the
// shard slice has grown to capacity.
func TestRecordAllocationFree(t *testing.T) {
	r := New(1, 1<<12, nil)
	s := Span{Kind: KindTask, Worker: 0}
	for i := 0; i < 1<<11; i++ {
		r.Record(s) // warm the shard slice
	}
	if n := testing.AllocsPerRun(100, func() { r.Record(s) }); n != 0 {
		t.Fatalf("Record allocates %v per call", n)
	}
}

func TestRecordAndSnapshotSorted(t *testing.T) {
	r := New(2, 0, []string{"scan", "agg"})
	base := time.Now()
	r.Record(Span{Kind: KindTask, Worker: 1, Stage: 1, Start: base.Add(2 * time.Millisecond)})
	r.Record(Span{Kind: KindTask, Worker: 0, Stage: 0, Start: base})
	r.Record(Span{Kind: KindAdmission, Worker: -1, Stage: -1, Start: base.Add(time.Millisecond)})
	if got := r.Len(); got != 3 {
		t.Fatalf("Len = %d, want 3", got)
	}
	snap := r.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("Snapshot len = %d, want 3", len(snap))
	}
	for i := 1; i < len(snap); i++ {
		if snap[i].Start.Before(snap[i-1].Start) {
			t.Fatalf("snapshot not sorted by start: %v before %v", snap[i].Start, snap[i-1].Start)
		}
	}
	if snap[0].Stage != 0 || snap[1].Kind != KindAdmission || snap[2].Worker != 1 {
		t.Fatalf("unexpected order: %+v", snap)
	}
}

func TestBoundedShards(t *testing.T) {
	r := New(1, 4, nil)
	for i := 0; i < 10; i++ {
		r.Record(Span{Kind: KindTask, Worker: 0, Seq: i})
	}
	// Head shard has its own budget.
	r.Record(Span{Kind: KindAdmission, Worker: -1})
	if got := r.Len(); got != 5 {
		t.Fatalf("Len = %d, want 5 (4 worker + 1 head)", got)
	}
	if got := r.Dropped(); got != 6 {
		t.Fatalf("Dropped = %d, want 6", got)
	}
}

func TestConcurrentRecord(t *testing.T) {
	r := New(4, 0, nil)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Record(Span{Kind: KindTask, Worker: w, Seq: i})
			}
		}(w)
	}
	wg.Wait()
	if got := r.Len(); got != 2000 {
		t.Fatalf("Len = %d, want 2000", got)
	}
}

func TestWriteJSONValidChromeTrace(t *testing.T) {
	r := New(2, 0, []string{"scan-lineitem", "agg"})
	now := time.Now()
	r.Record(Span{Kind: KindTask, Worker: 0, Stage: 0, Channel: 0, Seq: 3, Epoch: 1,
		Start: now, Dur: 250 * time.Microsecond, InRows: 10, OutRows: 5, OutBytes: 123})
	r.Record(Span{Kind: KindTask, Replay: true, Worker: 1, Stage: 1, Channel: 1, Seq: 0, Epoch: 2,
		Start: now.Add(time.Millisecond), Dur: 90 * time.Microsecond})
	r.Record(Span{Kind: KindRewind, Worker: 1, Stage: 1, Channel: 1, Seq: -1, Epoch: 2,
		Start: now.Add(500 * time.Microsecond)})
	r.Record(Span{Kind: KindAdmission, Worker: -1, Stage: -1, Start: now, Dur: time.Microsecond})

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("export is not valid JSON: %v\n%s", err, buf.String())
	}
	// 3 process_name metadata rows (2 workers + head) + 4 spans.
	if len(events) != 7 {
		t.Fatalf("got %d events, want 7", len(events))
	}
	var sawReplay, sawRewind, sawStageName bool
	for _, ev := range events {
		name, _ := ev["name"].(string)
		if strings.Contains(name, "replay") {
			sawReplay = true
		}
		if ph, _ := ev["ph"].(string); ph == "i" {
			sawRewind = true
			args := ev["args"].(map[string]any)
			if args["epoch"].(float64) != 2 {
				t.Fatalf("rewind epoch = %v, want 2", args["epoch"])
			}
		}
		if strings.Contains(name, "scan-lineitem") {
			sawStageName = true
		}
	}
	if !sawReplay || !sawRewind || !sawStageName {
		t.Fatalf("missing expected events: replay=%t rewind=%t stageName=%t\n%s",
			sawReplay, sawRewind, sawStageName, buf.String())
	}
}

func TestKindString(t *testing.T) {
	want := map[Kind]string{
		KindTask: "task", KindPush: "push", KindFlush: "flush",
		KindAdmission: "admission", KindRewind: "rewind", KindRecovery: "recovery",
	}
	for k, s := range want {
		if k.String() != s {
			t.Fatalf("Kind(%d).String() = %q, want %q", k, k.String(), s)
		}
	}
	if got := Kind(99).String(); got != "kind(99)" {
		t.Fatalf("unknown kind string = %q", got)
	}
}
