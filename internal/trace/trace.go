// Package trace is the engine's per-query flight recorder: a bounded
// in-memory log of epoch-stamped spans for every unit of work a query
// performs — task executions, partition pushes, lineage flushes, admission
// waits, recovery rewinds and replays. One Recorder belongs to exactly one
// query (it lives on the Runner and dies with it, like every other
// per-query namespace); appends go to per-worker shards under a shard-local
// mutex, so tracing never serializes the workers against each other.
//
// Tracing observes and never gates: a span records what already happened,
// recorders are bounded (appends beyond the shard cap count as dropped and
// are discarded), and a nil *Recorder is a safe no-op on every method — the
// engine's hot paths guard with a nil check and pay zero allocations when
// tracing is off.
package trace

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Kind classifies a span.
type Kind uint8

// Span kinds.
const (
	// KindTask is one committed task execution (Algorithm 1 step):
	// consume/read, push, commit. Replay carries whether it re-executed
	// under logged lineage.
	KindTask Kind = iota
	// KindPush is the push phase of one task: partitioning its output and
	// delivering the pieces to consumer workers (or the head collector).
	KindPush
	// KindFlush is one group-commit flush transaction (recorded on the
	// flush's lead query).
	KindFlush
	// KindAdmission is the time a query waited in the admission queue
	// before execution began.
	KindAdmission
	// KindRewind marks a channel rewound by recovery; Epoch is the NEW
	// channel epoch the replacement incarnation executes under.
	KindRewind
	// KindRecovery is one whole recovery pass (one transaction: reconcile
	// and epoch bump); Epoch is the recovery generation.
	KindRecovery
)

var kindNames = [...]string{"task", "push", "flush", "admission", "rewind", "recovery"}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Span is one recorded unit of work. Worker -1 means the head node. Stage,
// Channel and Seq locate the task for stage-scoped kinds (-1 when not
// applicable); Epoch is the channel epoch (task/push/rewind) or recovery
// generation the work executed under — a KillWorker run's trace shows the
// rewind/replay wave as spans whose Epoch differs from the steady state's.
type Span struct {
	Kind    Kind
	Replay  bool // task executed under logged lineage (recovery replay)
	Worker  int
	Stage   int
	Channel int
	Seq     int
	Epoch   int
	Start   time.Time
	Dur     time.Duration
	InRows  int64
	InBytes int64
	// OutRows/OutBytes: task output size (encoded bytes for push spans).
	OutRows  int64
	OutBytes int64
	// SpillBytes/SpillRuns: spill-run volume this task's operator wrote
	// while executing (raw framed size, matching the spill.bytes counter).
	SpillBytes int64
	SpillRuns  int64
}

// DefaultShardCap bounds spans kept per shard; appends beyond it are
// counted in Dropped and discarded, so a runaway query cannot grow the
// recorder without bound (~2 MiB per shard at the default).
const DefaultShardCap = 1 << 14

type shard struct {
	mu    sync.Mutex
	spans []Span
}

// Recorder is one query's flight recorder. The zero value is not usable;
// build with New. All methods are safe on a nil receiver (no-ops), which
// is how disabled tracing stays free.
type Recorder struct {
	epoch      time.Time
	cap        int
	shards     []shard
	stageNames []string
	dropped    atomic.Int64
}

// New builds a recorder with `workers` per-worker shards plus one head
// shard, each bounded to shardCap spans (<=0 uses DefaultShardCap).
// stageNames, when non-nil, label stages in the Chrome trace export.
func New(workers, shardCap int, stageNames []string) *Recorder {
	if shardCap <= 0 {
		shardCap = DefaultShardCap
	}
	if workers < 1 {
		workers = 1
	}
	return &Recorder{
		epoch:      time.Now(),
		cap:        shardCap,
		shards:     make([]shard, workers+1),
		stageNames: stageNames,
	}
}

// Record appends a span to the shard of its worker (Span.Worker -1 or out
// of range lands on the head shard). Lock-cheap: one shard-local mutex,
// no allocation beyond amortized slice growth up to the shard cap.
func (r *Recorder) Record(s Span) {
	if r == nil {
		return
	}
	i := s.Worker
	if i < 0 || i >= len(r.shards)-1 {
		i = len(r.shards) - 1 // head shard
	}
	sh := &r.shards[i]
	sh.mu.Lock()
	if len(sh.spans) < r.cap {
		sh.spans = append(sh.spans, s)
		sh.mu.Unlock()
		return
	}
	sh.mu.Unlock()
	r.dropped.Add(1)
}

// Dropped returns how many spans were discarded at full shards.
func (r *Recorder) Dropped() int64 {
	if r == nil {
		return 0
	}
	return r.dropped.Load()
}

// Len returns the number of spans currently held.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	n := 0
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.Lock()
		n += len(sh.spans)
		sh.mu.Unlock()
	}
	return n
}

// Snapshot returns a copy of every span, merged across shards and sorted
// by start time.
func (r *Recorder) Snapshot() []Span {
	if r == nil {
		return nil
	}
	var out []Span
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.Lock()
		out = append(out, sh.spans...)
		sh.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start.Before(out[j].Start) })
	return out
}

// stageName labels a stage for the export.
func (r *Recorder) stageName(s int) string {
	if s >= 0 && s < len(r.stageNames) && r.stageNames[s] != "" {
		return r.stageNames[s]
	}
	return fmt.Sprintf("stage%d", s)
}

// WriteJSON exports the recorded spans as a Chrome trace-event JSON array
// (the format Perfetto and chrome://tracing load): one process per worker
// (plus the head node), one thread per channel, complete ("X") events for
// timed spans and instant ("i") events for rewind marks. Timestamps are
// microseconds from the recorder's epoch.
func (r *Recorder) WriteJSON(w io.Writer) error {
	if r == nil {
		return fmt.Errorf("trace: recorder is nil (tracing was not enabled)")
	}
	spans := r.Snapshot()
	head := len(r.shards) - 1
	bw := &errWriter{w: w}
	bw.printf("[\n")
	// Process-name metadata rows: workers then the head node.
	for p := 0; p <= head; p++ {
		name := fmt.Sprintf("worker %d", p)
		if p == head {
			name = "head"
		}
		bw.printf("  {\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":0,\"args\":{\"name\":%q}},\n", p, name)
	}
	for i, s := range spans {
		pid := s.Worker
		if pid < 0 || pid > head {
			pid = head
		}
		tid := 0
		name := s.Kind.String()
		if s.Stage >= 0 {
			// One track per channel: stage*1000+channel keeps channels of
			// one stage adjacent in the Perfetto track list.
			tid = s.Stage*1000 + s.Channel
			name = fmt.Sprintf("%s %s#%d", r.stageName(s.Stage), s.Kind, s.Seq)
			if s.Replay {
				name = fmt.Sprintf("%s replay#%d", r.stageName(s.Stage), s.Seq)
			}
		}
		ts := float64(s.Start.Sub(r.epoch)) / float64(time.Microsecond)
		if i > 0 {
			bw.printf(",\n")
		}
		if s.Kind == KindRewind {
			bw.printf("  {\"name\":%q,\"cat\":%q,\"ph\":\"i\",\"s\":\"p\",\"ts\":%.3f,\"pid\":%d,\"tid\":%d,\"args\":{\"epoch\":%d}}",
				name, s.Kind, ts, pid, tid, s.Epoch)
			continue
		}
		bw.printf("  {\"name\":%q,\"cat\":%q,\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":%d,\"tid\":%d,"+
			"\"args\":{\"epoch\":%d,\"replay\":%t,\"in_rows\":%d,\"in_bytes\":%d,\"out_rows\":%d,\"out_bytes\":%d,\"spill_bytes\":%d,\"spill_runs\":%d}}",
			name, s.Kind, ts, float64(s.Dur)/float64(time.Microsecond), pid, tid,
			s.Epoch, s.Replay, s.InRows, s.InBytes, s.OutRows, s.OutBytes, s.SpillBytes, s.SpillRuns)
	}
	if len(spans) > 0 {
		bw.printf("\n")
	}
	bw.printf("]\n")
	return bw.err
}

// errWriter latches the first write error so the export reads linearly.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) printf(format string, args ...any) {
	if e.err != nil {
		return
	}
	_, e.err = fmt.Fprintf(e.w, format, args...)
}
