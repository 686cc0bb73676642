// Package spill is the memory-governance subsystem: a per-worker
// accountant for operator state bytes plus disk-backed run files that let
// the stateful operators (hash join, hash aggregation, sort) run
// out-of-core when their state exceeds engine.Config.MemoryBudget.
//
// Spill partitions are selected from the TOP bits of the per-row 64-bit
// key hash (batch.HashKeys): level L uses bits [64-(L+1)*bits, 64-L*bits).
// A hash edge routes a row to channel hash mod channels, which is dominated
// by the LOW bits, so spill partitioning subdivides a channel's keys
// without interacting with the routing invariant — and there is no second
// hash function (rows read back from disk recompute the identical fnv-1a
// hash).
//
// The load-bearing property of the whole subsystem is that spilling is
// OUTPUT-TRANSPARENT: an operator's task outputs are a pure function of
// its consumed inputs, byte-identical whether or not (and whenever) state
// spilled. Recovery replay therefore never needs spill decisions to be
// reproducible — the accountant can be shared across a worker's channels
// and react to live memory pressure without perturbing lineage replay.
//
// Run files live on the worker's volatile LocalDisk under the per-query,
// per-channel namespace "spill/<qid>/<stage>.<channel>.e<epoch>/..." and
// are read strictly through the operator's in-memory manifest: stale files
// left behind by a pre-failure incarnation of a channel are invisible to
// the replacement operator and are swept on channel reset and at query
// teardown — completion, failure or cancellation — without touching the
// namespaces of concurrent queries on the same worker.
package spill

import (
	"fmt"
	"sort"
	"sync/atomic"

	"quokka/internal/batch"
	"quokka/internal/metrics"
	"quokka/internal/storage"
)

// DefaultPartitions is the spill fan-out per recursion level. Must be a
// power of two (partition index = a bit field of the key hash).
const DefaultPartitions = 16

// MaxDepth bounds recursive re-partitioning. A partition that still does
// not fit at MaxDepth is loaded anyway (ForceReserve): with the default
// fan-out that is 16^4 partitions, beyond any plausible skew short of a
// single giant key, which no amount of hash partitioning can split.
const MaxDepth = 4

// Accountant tracks accounted operator state bytes for one worker under a
// budget. Safe for concurrent use: a worker's channels share one
// accountant, so spill pressure reflects the worker's total state, like a
// real memory pool.
// When several queries run concurrently, each query has its own accountant
// per worker (its MemoryBudget is a per-query knob).
type Accountant struct {
	budget int64
	met    *metrics.Collector
	cur    atomic.Int64
	peak   atomic.Int64
}

// NewAccountant creates an accountant with the given budget in bytes.
func NewAccountant(budget int64, met *metrics.Collector) *Accountant {
	return &Accountant{budget: budget, met: met}
}

// Budget returns the configured budget.
func (a *Accountant) Budget() int64 { return a.budget }

// Peak returns the high-water mark of accounted bytes.
func (a *Accountant) Peak() int64 { return a.peak.Load() }

// Grow adds delta to the accounted bytes unconditionally and updates the
// peak. Callers try TryGrow first and spill instead when it fails; growing
// past the budget is reserved for ForceReserve-style last resorts, the only
// way past it: SpillForcedPeak is how far they took it.
func (a *Accountant) Grow(delta int64) {
	cur := a.cur.Add(delta)
	a.bumpPeak(cur)
	a.met.Max(metrics.SpillForcedPeak, cur-a.budget)
}

// Release subtracts delta from the accounted bytes.
func (a *Accountant) Release(delta int64) {
	a.cur.Add(-delta)
}

// TryGrow atomically grows by delta only if the result stays within the
// budget (no check-then-grow race between a worker's channels).
func (a *Accountant) TryGrow(delta int64) bool {
	for {
		cur := a.cur.Load()
		if cur+delta > a.budget {
			return false
		}
		if a.cur.CompareAndSwap(cur, cur+delta) {
			a.bumpPeak(cur + delta)
			return true
		}
	}
}

func (a *Accountant) bumpPeak(cur int64) {
	for {
		p := a.peak.Load()
		if cur <= p || a.peak.CompareAndSwap(p, cur) {
			break
		}
	}
	a.met.Max(metrics.SpillPeakBytes, cur)
}

// Context binds the spill subsystem to one worker: its local disk (spill
// I/O is charged on the same calibrated cost model as upstream backup),
// the shared accountant, metrics, and the partition fan-out.
type Context struct {
	disk  storage.Disk
	acct  *Accountant
	met   *metrics.Collector
	parts int
	bits  uint
	// compress selects the QBA2 compressed frame codec for run files (the
	// default) over raw encoding-0 frames. Decoding is self-describing
	// (RunIter dispatches on each frame's magic), and spilling stays
	// output-transparent either way: decoded frames are byte-identical
	// regardless of encoding.
	compress bool
}

// SetCompression selects compressed (QBA2) or raw (encoding-0) run files
// for subsequent writes. The engine never calls it; the benchmark's spill
// layer does.
func (c *Context) SetCompression(on bool) { c.compress = on }

// NewContext creates a worker spill context. parts must be a power of two.
func NewContext(disk storage.Disk, acct *Accountant, met *metrics.Collector, parts int) *Context {
	if parts <= 1 || parts&(parts-1) != 0 {
		panic(fmt.Sprintf("spill: partitions must be a power of two > 1, got %d", parts))
	}
	bits := uint(0)
	for 1<<bits < parts {
		bits++
	}
	return &Context{disk: disk, acct: acct, met: met, parts: parts, bits: bits, compress: true}
}

// Accountant returns the worker's shared accountant.
func (c *Context) Accountant() *Accountant { return c.acct }

// Partitions returns the fan-out per recursion level.
func (c *Context) Partitions() int { return c.parts }

// PartitionAt extracts the spill partition of a key hash at the given
// recursion level: level 0 uses the topmost bits, each deeper level the
// next group down. Low bits stay untouched for hash mod P routing.
func (c *Context) PartitionAt(hash uint64, level int) int {
	shift := 64 - c.bits*uint(level+1)
	return int(hash>>shift) & (c.parts - 1)
}

// NewOp creates an operator spill handle rooted at the given disk key
// namespace (level 0: top hash bits). The root and every Child level
// derived from it share one write-totals block, so the engine can
// attribute spill volume to the owning channel no matter how deep the
// recursion went.
func (c *Context) NewOp(ns string) *Op {
	return &Op{c: c, ns: ns, totals: &opTotals{}}
}

// opTotals accumulates run-file writes across an Op tree (root + Child
// levels), all written by the owning channel's thread.
type opTotals struct {
	bytes int64 // raw framed size, matching metrics.SpillWriteBytes
	runs  int64
}

// Kind tags a run: raw input rows vs a serialized operator-state snapshot.
type Kind uint8

// Run kinds.
const (
	Raw   Kind = iota // input rows in arrival order
	State             // operator state snapshot (e.g. partial agg groups)
)

// Run is one spilled run file, described by the in-memory manifest.
type Run struct {
	Key   string
	Kind  Kind
	Bytes int64
	Rows  int
}

type partMeta struct {
	runs    []Run
	bytes   int64
	rows    int
	resplit bool
}

// Op is one operator instance's spill handle: a manifest of the run files
// it wrote per spill partition, plus child handles for recursive
// re-partitioning. Not safe for concurrent use — each operator owns its
// own Op.
type Op struct {
	c        *Context
	ns       string
	level    int
	reserved int64 // bytes this op accounted for its in-memory state
	seq      int
	parts    map[int]*partMeta
	children map[int]*Op
	totals   *opTotals // shared write totals across the whole Op tree
}

// WrittenBytes returns the raw framed bytes written across the whole Op
// tree (root and children) since NewOp. Monotonic — Drop does not
// reset it, so callers can diff it to attribute spill volume per task.
func (o *Op) WrittenBytes() int64 {
	if o == nil || o.totals == nil {
		return 0
	}
	return o.totals.bytes
}

// WrittenRuns returns the run files written across the whole Op tree since
// NewOp. Monotonic like WrittenBytes.
func (o *Op) WrittenRuns() int64 {
	if o == nil || o.totals == nil {
		return 0
	}
	return o.totals.runs
}

// Context returns the worker spill context the op is bound to.
func (o *Op) Context() *Context { return o.c }

// Level returns the op's recursion level (0 = top hash bits).
func (o *Op) Level() int { return o.level }

// PartitionOf returns the spill partition of a key hash at this op's level.
func (o *Op) PartitionOf(hash uint64) int { return o.c.PartitionAt(hash, o.level) }

// Child returns the handle for recursive re-partitioning of one spill
// partition: one level deeper, namespaced under the partition. Memoized.
func (o *Op) Child(part int) *Op {
	if c, ok := o.children[part]; ok {
		return c
	}
	if o.level+1 >= MaxDepth {
		panic(fmt.Sprintf("spill: recursion past MaxDepth=%d", MaxDepth))
	}
	c := &Op{c: o.c, ns: fmt.Sprintf("%s/p%02d", o.ns, part), level: o.level + 1, totals: o.totals}
	if o.children == nil {
		o.children = make(map[int]*Op)
	}
	o.children[part] = c
	return c
}

// Member returns the handle of member i of a fused operator chain: a root
// of its own, namespaced under this one, sharing its write totals so the
// chain's volume stays attributed to its channel.
func (o *Op) Member(i int) *Op {
	return &Op{c: o.c, ns: fmt.Sprintf("%s/m%d", o.ns, i), level: o.level, totals: o.totals}
}

// Reserve accounts delta bytes of in-memory operator state if it fits the
// budget; it reports false (without reserving) when the operator should
// spill instead.
func (o *Op) Reserve(delta int64) bool {
	if !o.c.acct.TryGrow(delta) {
		return false
	}
	o.reserved += delta
	return true
}

// SyncTo settles the op's reservation to the operator's actual state
// bytes once they are known exactly — growing past the budget if the
// estimate undershot (the memory is genuinely in use).
func (o *Op) SyncTo(total int64) {
	if total < 0 {
		total = 0
	}
	if d := total - o.reserved; d > 0 {
		o.ForceReserve(d)
	} else if d < 0 {
		o.Release(-d)
	}
}

// ForceReserve accounts delta bytes regardless of the budget — the last
// resort when recursion bottoms out or a single batch exceeds the budget.
func (o *Op) ForceReserve(delta int64) {
	o.c.acct.Grow(delta)
	o.reserved += delta
}

// Release returns delta previously reserved bytes.
func (o *Op) Release(delta int64) {
	if delta > o.reserved {
		delta = o.reserved
	}
	o.reserved -= delta
	o.c.acct.Release(delta)
}

// ReleaseAll returns every reserved byte (state was just spilled).
func (o *Op) ReleaseAll() {
	o.c.acct.Release(o.reserved)
	o.reserved = 0
}

// Reserved returns the op's currently accounted in-memory bytes.
func (o *Op) Reserved() int64 { return o.reserved }

// WriteRun writes the given batches as one framed run file for a hash
// spill partition, appending it to the manifest. Charged through
// LocalDisk's NVMe cost model like any other disk write.
func (o *Op) WriteRun(part int, kind Kind, bs ...*batch.Batch) error {
	return o.writeRun(part, kind, true, bs...)
}

// WriteSeqRun writes a run under a sequential run ordinal rather than a
// hash partition (external-sort runs): identical storage and manifest
// semantics, but it does not count toward the spill.partitions metric,
// which tracks hash-partition fan-out.
func (o *Op) WriteSeqRun(seq int, kind Kind, bs ...*batch.Batch) error {
	return o.writeRun(seq, kind, false, bs...)
}

func (o *Op) writeRun(part int, kind Kind, countPart bool, bs ...*batch.Batch) error {
	var data []byte
	rows := 0
	raw := int64(0)
	for _, b := range bs {
		if b == nil || b.NumRows() == 0 {
			continue
		}
		if o.c.compress {
			data = batch.AppendFramedCompressed(data, b)
		} else {
			data = batch.AppendFramed(data, b)
		}
		raw += int64(4 + batch.RawEncodedSize(b))
		rows += b.NumRows()
	}
	if len(data) == 0 {
		return nil
	}
	key := fmt.Sprintf("%s/p%02d/%06d", o.ns, part, o.seq)
	o.seq++
	if err := o.c.disk.Write(key, data); err != nil {
		return err
	}
	if o.parts == nil {
		o.parts = make(map[int]*partMeta)
	}
	pm := o.parts[part]
	if pm == nil {
		pm = &partMeta{}
		o.parts[part] = pm
		if countPart {
			o.c.met.Add(metrics.SpillPartitions, 1)
		}
	}
	pm.runs = append(pm.runs, Run{Key: key, Kind: kind, Bytes: int64(len(data)), Rows: rows})
	pm.bytes += int64(len(data))
	pm.rows += rows
	// spill.bytes keeps its historical meaning (raw framed size of the
	// spilled state); spill.bytes.wire is what actually hit the disk.
	o.c.met.Add(metrics.SpillWriteBytes, raw)
	o.c.met.Add(metrics.SpillWireBytes, int64(len(data)))
	o.c.met.Add(metrics.SpillRuns, 1)
	if o.totals != nil {
		o.totals.bytes += raw
		o.totals.runs++
	}
	return nil
}

// Runs returns the manifest of one partition, in write order. Only
// manifest runs are ever read back — stale disk files from a previous
// channel incarnation are invisible.
func (o *Op) Runs(part int) []Run {
	if pm := o.parts[part]; pm != nil {
		return pm.runs
	}
	return nil
}

// Parts returns the spill partitions with at least one run, ascending.
func (o *Op) Parts() []int {
	out := make([]int, 0, len(o.parts))
	for p := range o.parts {
		out = append(out, p)
	}
	sort.Ints(out)
	return out
}

// PartBytes returns the total run-file bytes of one partition.
func (o *Op) PartBytes(part int) int64 {
	if pm := o.parts[part]; pm != nil {
		return pm.bytes
	}
	return 0
}

// PartRows returns the total spilled rows of one partition.
func (o *Op) PartRows(part int) int {
	if pm := o.parts[part]; pm != nil {
		return pm.rows
	}
	return 0
}

// ReadRun reads one run file back and returns its framed batches in
// order. The read is charged on the disk cost model.
func (o *Op) ReadRun(r Run) ([]*batch.Batch, error) {
	data, err := o.c.disk.Read(r.Key)
	if err != nil {
		return nil, err
	}
	o.c.met.Add(metrics.SpillReadBytes, int64(len(data)))
	var out []*batch.Batch
	it := batch.NewRunIter(data)
	for {
		b, err := it.Next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			return out, nil
		}
		out = append(out, b)
	}
}

// PartCursor iterates the framed batches of one partition's runs in write
// order, decoding lazily frame by frame so the caller holds one chunk's
// columns at a time.
type PartCursor struct {
	o    *Op
	runs []Run
	ri   int
	it   *batch.RunIter
}

// OpenPart returns a cursor over one partition's runs.
func (o *Op) OpenPart(part int) *PartCursor {
	return &PartCursor{o: o, runs: o.Runs(part)}
}

// Next returns the next framed batch, or (nil, nil) when exhausted.
func (c *PartCursor) Next() (*batch.Batch, error) {
	for {
		if c.it != nil {
			b, err := c.it.Next()
			if err != nil || b != nil {
				return b, err
			}
			c.it = nil
		}
		if c.ri >= len(c.runs) {
			return nil, nil
		}
		data, err := c.o.c.disk.Read(c.runs[c.ri].Key)
		if err != nil {
			return nil, err
		}
		c.o.c.met.Add(metrics.SpillReadBytes, int64(len(data)))
		c.ri++
		c.it = batch.NewRunIter(data)
	}
}

// DropPart deletes one partition's run files and forgets its manifest
// (the partition has been fully consumed). Child handles are untouched:
// a re-split partition's data lives in its child.
func (o *Op) DropPart(part int) {
	pm := o.parts[part]
	if pm == nil {
		return
	}
	for _, r := range pm.runs {
		o.c.disk.Delete(r.Key)
	}
	delete(o.parts, part)
}

// MarkResplit records that a partition's runs were re-partitioned into
// its child handle: the parent run files are deleted, the partition stays
// in the manifest flagged so readers descend instead of loading.
func (o *Op) MarkResplit(part int) {
	pm := o.parts[part]
	if pm == nil {
		pm = &partMeta{}
		if o.parts == nil {
			o.parts = make(map[int]*partMeta)
		}
		o.parts[part] = pm
	}
	for _, r := range pm.runs {
		o.c.disk.Delete(r.Key)
	}
	pm.runs, pm.bytes, pm.rows, pm.resplit = nil, 0, 0, true
}

// IsResplit reports whether a partition was re-partitioned into its child.
func (o *Op) IsResplit(part int) bool {
	pm := o.parts[part]
	return pm != nil && pm.resplit
}

// Drop releases every reservation and deletes every run file of this op,
// and of its children. The op remains usable afterwards (a
// restored operator may spill again).
func (o *Op) Drop() {
	o.ReleaseAll()
	for _, pm := range o.parts {
		for _, r := range pm.runs {
			o.c.disk.Delete(r.Key)
		}
	}
	o.parts = nil
	for _, c := range o.children {
		c.Drop()
	}
	o.children = nil
}
