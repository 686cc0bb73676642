// Package metrics provides lightweight atomic counters shared by the
// simulated services (network, disks, object store, GCS). The benchmark
// harness reads them to report the quantities the paper discusses: bytes
// spooled, bytes backed up, GCS transactions, lineage log size, recovery
// work.
package metrics

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Collector is a set of named monotonic counters, high-water-mark gauges
// and latency histograms. The zero value is ready to use. It is safe for
// concurrent use.
type Collector struct {
	// counters maps a name to its *atomic.Int64: a name seen before costs
	// a lock-free load, so concurrent counting serialises on nothing.
	counters sync.Map
	mu       sync.Mutex // guards hists
	hists    map[string]*Histogram

	// fan, when non-nil, makes this collector a write-only tee: Add and
	// Max forward to every target and nothing is recorded locally. Reads
	// (Get, Snapshot) come from the LAST target — by convention the most
	// specific one (e.g. the per-query collector behind a cluster-wide one).
	fan []*Collector
}

// Tee returns a write-only collector forwarding Add and Max to every
// target. The engine uses it to count one event into both the cluster-wide
// collector and a per-query collector without double bookkeeping at every
// call site. Reads resolve against the last target.
func Tee(targets ...*Collector) *Collector {
	fan := make([]*Collector, 0, len(targets))
	for _, t := range targets {
		if t != nil {
			fan = append(fan, t)
		}
	}
	return &Collector{fan: fan}
}

// Counter names used across the engine. Keeping them centralized makes the
// benchmark reports consistent.
const (
	NetworkBytes     = "network.bytes"      // shuffle traffic between workers
	NetworkPushes    = "network.pushes"     // partition pushes
	NetBytesModelled = "net.bytes.modelled" // shuffle payload bytes the cost model charged as network transfers
	NetBytesWire     = "net.bytes.wire"     // real socket bytes moved by the process-mode wire transport (both directions)
	DiskWriteBytes   = "disk.write.bytes"   // upstream backup writes
	DiskReadBytes    = "disk.read.bytes"    // replay reads
	ObjWriteBytes    = "objstore.write.bytes"
	ObjReadBytes     = "objstore.read.bytes"
	ObjWrites        = "objstore.writes"
	ObjReads         = "objstore.reads"
	GCSTxns          = "gcs.txns"
	GCSBytes         = "gcs.bytes"       // bytes written into the GCS (lineage log size)
	GCSTxnBatched    = "gcs.txn.batched" // GCS transactions saved by folding task commits into shared flushes
	LineageFlushes   = "lineage.flushes" // group-commit flush transactions issued
	TasksExecuted    = "tasks.executed"
	TasksReplayed    = "tasks.replayed"
	PartitionsMoved  = "partitions.moved"
	PartitionTasks   = "partition.tasks" // always 0: operators run serially in their channel; kept for benchmark/result.go
	CheckpointBytes  = "checkpoint.bytes"
	RecoveryTasks    = "recovery.tasks"
	RecoveryReplays  = "recovery.replays"
	RecoveryRewinds  = "recovery.rewinds"
	LineageRecords   = "lineage.records"
	SpoolWriteBytes  = "spool.write.bytes"
	PiecesHanded     = "shuffle.pieces.handed"  // pieces consumed as the batch a same-worker producer built
	PiecesDecoded    = "shuffle.pieces.decoded" // pieces consumed by decoding (cross-worker pushes, replays)
	PiecesElided     = "shuffle.pieces.elided"  // non-empty pieces never encoded: their consumer shares the producer's worker
	BackupWriteBytes = "backup.write.bytes"
	SpillWriteBytes  = "spill.bytes"        // operator state spilled to local disk (raw framed size)
	SpillWireBytes   = "spill.bytes.wire"   // spill run bytes as written (post-compression)
	SpillReadBytes   = "spill.read.bytes"   // spilled state read back
	ShuffleRawBytes  = "shuffle.bytes.raw"  // encoded shuffle pieces' bytes before compression
	ShuffleWireBytes = "shuffle.bytes.wire" // encoded shuffle pieces' bytes as encoded for the wire
	ScanSplitsPruned = "scan.splits.pruned" // table splits zone-map pruning removed before scheduling
	ScanBytesSkipped = "scan.bytes.skipped" // encoded column bytes whose decode the scan skipped
	SpillRuns        = "spill.runs"         // run files written
	SpillPartitions  = "spill.partitions"   // spill partitions that received data
	SpillPeakBytes   = "spill.peak.bytes"   // high-water mark of accounted operator memory (gauge)
	QueriesAdmitted  = "queries.admitted"   // queries admitted to execute
	QueriesQueued    = "queries.queued"     // queries that waited in the admission queue
	QueriesActive    = "queries.active"     // currently admitted queries (up/down counter)
	QueriesPeak      = "queries.peak"       // high-water mark of concurrently admitted queries (gauge)
	WorkerMemPeak    = "mem.worker.peak"    // peak accounted operator bytes on any worker, across queries (gauge)
)

// SpillForcedPeak is how far forced reservations, which skip the budget check,
// took a worker's accounted bytes past its budget (gauge): SpillPeakBytes
// exceeds the budget by this much and no more.
const SpillForcedPeak = "spill.forced.peak.bytes"

// How the control plane's parked waits (engine.Runner.gcsAwait) ended.
const (
	WaitWakes        = "engine.wait.wakes"         // the namespace version moved
	WaitFallbacks    = "engine.wait.fallbacks"     // a timer or an early return, version unchanged
	WaitFallbackHits = "engine.wait.fallback_hits" // of those, found work nothing else was going to do: a lost wake-up
)

// How a process came by each image of a query's namespace (engine.snapshot):
// read in one view of the control store, or advanced by the group committer
// past a flush that was the only write since the image's stamp.
const (
	ImageLoads    = "engine.image.loads"
	ImageAdvances = "engine.image.advances"
)

// What a poll round did with each channel it claimed: stepped it, or skipped
// it because the round's image changes nothing its last, fruitless step read.
const (
	StepsRun     = "engine.steps.run"
	StepsSkipped = "engine.steps.skipped"
)

// Process-mode traffic by message type, counted by the listener that serves it
// (a worker's reaches the head with its counter report): WireFrames+<op> request
// frames, WireBytes+<op> their bytes plus the answers'. <op>, at the head
// (wire.headOps): gcs_commit gcs_follow obj_put obj_get sink_deliver; at a
// worker's mailbox (wire.mailboxOps): fl_push fl_drop_query.
const (
	WireFrames        = "wire.frames."
	WireBytes         = "wire.bytes."
	WireFramesRefused = "wire.frames.refused" // op frames of a retired or unassigned type
)

// Histogram names used across the engine. All values are durations in
// nanoseconds observed via Collector.Observe.
const (
	TaskLatencyNS   = "task.latency.ns"   // task creation -> committed
	AdmissionWaitNS = "admission.wait.ns" // admission queue wait before execution
	FlushLatencyNS  = "flush.latency.ns"  // lineage group-commit enqueue -> durable
	CursorStallNS   = "cursor.stall.ns"   // time a cursor consumer blocked waiting for the next chunk
)

// gaugeNames are high-water marks set via Max, not monotonic counters.
// Report renderers group them separately: summing or diffing a gauge the
// way counters are diffed is meaningless.
var gaugeNames = map[string]bool{
	SpillPeakBytes:  true,
	SpillForcedPeak: true,
	QueriesPeak:     true,
	WorkerMemPeak:   true,
}

// IsGauge reports whether name is a high-water-mark gauge (set via Max)
// rather than a monotonic counter.
func IsGauge(name string) bool { return gaugeNames[name] }

// Counter returns the named counter itself, for call sites hot enough to
// resolve it once and pay one atomic add per event (the histogram analogue
// is Hist). A nil Collector and a tee return a counter nothing reads.
func (c *Collector) Counter(name string) *atomic.Int64 {
	if c == nil || c.fan != nil {
		return new(atomic.Int64)
	}
	if v, ok := c.counters.Load(name); ok {
		return v.(*atomic.Int64)
	}
	v, _ := c.counters.LoadOrStore(name, new(atomic.Int64))
	return v.(*atomic.Int64)
}

// Add increments the named counter by delta. A nil Collector is a no-op,
// so services can be constructed without metrics.
func (c *Collector) Add(name string, delta int64) {
	if c == nil {
		return
	}
	if c.fan != nil {
		for _, t := range c.fan {
			t.Add(name, delta)
		}
		return
	}
	c.Counter(name).Add(delta)
}

// Max raises the named counter to v if v is larger — a high-water-mark
// gauge (e.g. peak accounted operator memory) alongside the monotonic
// counters. A nil Collector is a no-op.
func (c *Collector) Max(name string, v int64) {
	if c == nil {
		return
	}
	if c.fan != nil {
		for _, t := range c.fan {
			t.Max(name, v)
		}
		return
	}
	ctr := c.Counter(name)
	for {
		cur := ctr.Load()
		if v <= cur || ctr.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Get returns the current value of the named counter.
func (c *Collector) Get(name string) int64 {
	if c == nil {
		return 0
	}
	if c.fan != nil {
		if len(c.fan) == 0 {
			return 0
		}
		return c.fan[len(c.fan)-1].Get(name)
	}
	v, ok := c.counters.Load(name)
	if !ok {
		return 0
	}
	return v.(*atomic.Int64).Load()
}

// Snapshot returns a copy of all counters.
func (c *Collector) Snapshot() map[string]int64 {
	if c == nil {
		return nil
	}
	if c.fan != nil {
		if len(c.fan) == 0 {
			return map[string]int64{}
		}
		return c.fan[len(c.fan)-1].Snapshot()
	}
	out := make(map[string]int64)
	c.counters.Range(func(k, v any) bool {
		out[k.(string)] = v.(*atomic.Int64).Load()
		return true
	})
	return out
}

// String renders counters sorted by name, one per line, with gauges in
// their own section (they are levels, not totals) and any histograms last.
func (c *Collector) String() string {
	snap := c.Snapshot()
	var counters, gauges []string
	for k := range snap {
		if IsGauge(k) {
			gauges = append(gauges, k)
		} else {
			counters = append(counters, k)
		}
	}
	sort.Strings(counters)
	sort.Strings(gauges)
	var b strings.Builder
	for _, k := range counters {
		fmt.Fprintf(&b, "%-24s %d\n", k, snap[k])
	}
	if len(gauges) > 0 {
		b.WriteString("-- gauges (high-water marks) --\n")
		for _, k := range gauges {
			fmt.Fprintf(&b, "%-24s %d\n", k, snap[k])
		}
	}
	hists := c.Histograms()
	if len(hists) > 0 {
		names := make([]string, 0, len(hists))
		for k := range hists {
			names = append(names, k)
		}
		sort.Strings(names)
		b.WriteString("-- histograms --\n")
		for _, k := range names {
			h := hists[k]
			fmt.Fprintf(&b, "%-24s n=%d p50=%d p99=%d max=%d\n",
				k, h.Count, h.Quantile(0.50), h.Quantile(0.99), h.Max)
		}
	}
	return b.String()
}

// HistBuckets is the number of fixed log2 buckets per histogram: bucket i
// holds values v with bits.Len64(v) == i, i.e. [2^(i-1), 2^i). 64 buckets
// cover the full non-negative int64 range — nanosecond latencies from <1ns
// to ~292 years without configuration.
const HistBuckets = 64

// Histogram is a fixed-bucket log2 latency histogram. Observe is
// allocation-free and lock-free (atomic adds), cheap enough for per-task
// hot paths. The zero value is ready to use.
type Histogram struct {
	buckets [HistBuckets]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
}

// Observe records one value (negative values clamp to 0).
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.buckets[bits.Len64(uint64(v))&(HistBuckets-1)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
}

// Snapshot copies the histogram's state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	if h == nil {
		return s
	}
	s.Count = h.count.Load()
	s.Sum = h.sum.Load()
	s.Max = h.max.Load()
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	return s
}

// HistogramSnapshot is a point-in-time copy of a Histogram.
type HistogramSnapshot struct {
	Count   int64
	Sum     int64
	Max     int64
	Buckets [HistBuckets]int64
}

// Mean returns the arithmetic mean of observed values (0 when empty).
func (s HistogramSnapshot) Mean() int64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / s.Count
}

// Quantile returns an upper bound on the q-quantile (0 <= q <= 1): the
// inclusive upper edge of the bucket holding the q*Count-th observation.
// With log2 buckets the bound is within 2x of the true value.
func (s HistogramSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	rank := int64(q * float64(s.Count))
	if rank >= s.Count {
		rank = s.Count - 1
	}
	var seen int64
	for i, n := range s.Buckets {
		seen += n
		if seen > rank {
			if i == 0 {
				return 0
			}
			hi := int64(1)<<uint(i) - 1 // upper edge of [2^(i-1), 2^i)
			if hi > s.Max {
				hi = s.Max
			}
			return hi
		}
	}
	return s.Max
}

func (c *Collector) hist(name string) *Histogram {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.hists == nil {
		c.hists = make(map[string]*Histogram)
	}
	h, ok := c.hists[name]
	if !ok {
		h = new(Histogram)
		c.hists[name] = h
	}
	return h
}

// Hist returns the named histogram, creating it on first use. Call sites
// on hot paths should resolve the histogram once and call Observe on it
// directly, skipping the map lookup per event. A nil Collector returns
// nil (and a nil *Histogram's Observe is a no-op). On a tee, Hist resolves
// against the last target — observations through it reach only that
// target, so tees that must fan out use Collector.Observe instead.
func (c *Collector) Hist(name string) *Histogram {
	if c == nil {
		return nil
	}
	if c.fan != nil {
		if len(c.fan) == 0 {
			return nil
		}
		return c.fan[len(c.fan)-1].Hist(name)
	}
	return c.hist(name)
}

// Observe records one value into the named histogram. On a tee the
// observation fans out to every target, mirroring Add and Max. A nil
// Collector is a no-op.
func (c *Collector) Observe(name string, v int64) {
	if c == nil {
		return
	}
	if c.fan != nil {
		for _, t := range c.fan {
			t.Observe(name, v)
		}
		return
	}
	c.hist(name).Observe(v)
}

// Histograms returns a snapshot of every histogram. On a tee, reads
// resolve against the last target, like Get and Snapshot.
func (c *Collector) Histograms() map[string]HistogramSnapshot {
	if c == nil {
		return nil
	}
	if c.fan != nil {
		if len(c.fan) == 0 {
			return map[string]HistogramSnapshot{}
		}
		return c.fan[len(c.fan)-1].Histograms()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]HistogramSnapshot, len(c.hists))
	for k, h := range c.hists {
		out[k] = h.Snapshot()
	}
	return out
}
