package ops

import (
	"fmt"
	"sync"

	"quokka/internal/batch"
	"quokka/internal/spill"
)

// This file implements morsel-driven, partition-parallel execution for the
// stateful operators (hash join and hash aggregation). The operator's state
// is split into P hash-partitioned sub-tables; incoming batches are fanned
// out to partitions by key hash and each partition's build/probe/accumulate
// runs on its own goroutine from a shared, CPU-bounded pool. Each partition
// is owned by exactly one goroutine per task, so no locks guard operator
// state.
//
// Determinism invariant (recovery depends on it): the partition of a row is
// a pure function of its encoded key — fnv-1a(batch.AppendKey(row)) mod P — and P
// is fixed for the lifetime of a query. Replaying a channel's logged inputs
// through a fresh partitioned operator therefore rebuilds byte-identical
// per-partition state, which is what lets write-ahead lineage recovery
// (§III of the paper) coexist with intra-operator parallelism.

// Pool runs partition tasks concurrently, bounded by a shared slot
// semaphore — typically the worker's CPU slots, so intra-operator
// parallelism and inter-channel parallelism compete for the same modelled
// cores. A nil Pool (or one with a nil slot channel) runs tasks serially,
// which keeps the serial execution path byte-identical.
type Pool struct {
	slots   chan struct{}
	onTasks func(n int) // metrics hook: partition tasks dispatched
}

// NewPool wraps a slot semaphore in a Pool. onTasks, if non-nil, is called
// with the fan-out width of every parallel dispatch (metrics).
func NewPool(slots chan struct{}, onTasks func(n int)) *Pool {
	return &Pool{slots: slots, onTasks: onTasks}
}

// Run executes fn(0..n-1) and returns the first error. Tasks run
// concurrently when the pool has slots; every task acquires a slot for its
// duration, so total in-flight compute stays bounded by the semaphore.
// Run returns only after every task finished, which gives successive Run
// calls a happens-before edge: partition state written by one task is
// visible to the next task that owns the partition.
func (p *Pool) Run(n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if p == nil || p.slots == nil || n == 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	if p.onTasks != nil {
		p.onTasks(n)
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p.slots <- struct{}{}
			defer func() { <-p.slots }()
			errs[i] = fn(i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Partitioned is implemented by operators whose execution fans out across
// partition lanes. The engine uses it to spread modelled kernel cost over
// the lanes that actually execute concurrently.
type Partitioned interface {
	// Partitions is the operator's configured partition count.
	Partitions() int
	// SharesFor returns how many lanes a batch of the given row count
	// actually fans out over — small batches may run on a single lane,
	// and the modelled kernel cost must match what really executes.
	SharesFor(rows int) int
}

// ParallelSpec is implemented by Specs whose operators support
// partition-parallel execution. NewParallel instantiates the operator with
// its state split into the given number of hash partitions, executing on
// the given pool. Implementations must fall back to the serial operator
// when partitions <= 1 or the operator cannot be partitioned (e.g. a
// global aggregate).
type ParallelSpec interface {
	Spec
	NewParallel(channel, channels, partitions int, pool *Pool) Operator
}

// PartitionOf returns the partition owning an encoded key: fnv-1a of the
// key encoding, mod partitions (see internal/batch/key.go for the
// determinism contract). Exported so tests can craft same-partition key
// collisions deliberately.
func PartitionOf(key []byte, partitions int) int {
	return int(batch.HashKey(key) % uint64(partitions))
}

// minHashScanRows is the smallest batch worth fanning the partition-hash
// scan itself out over row ranges; below it, goroutine overhead beats the
// win. (The partition *execution* of hash-partitioned operators fans out
// at any size — only the routing scan is gated.)
const minHashScanRows = 4096

// rowHashes computes every logical row's 64-bit key hash in one vectorized
// column-at-a-time pass (batch.HashKeys, bit-identical to fnv-1a over the
// encoded key). The scan is itself morsel-parallel for large batches —
// disjoint row ranges write disjoint slice ranges.
func rowHashes(b *batch.Batch, keyIdx []int, pool *Pool) []uint64 {
	n := b.NumRows()
	if n < minHashScanRows || pool == nil || pool.slots == nil {
		return batch.HashKeys(nil, b, keyIdx)
	}
	hashes := make([]uint64, n)
	m := (n + minHashScanRows - 1) / minHashScanRows
	step := (n + m - 1) / m
	pool.Run(m, func(i int) error {
		lo := i * step
		hi := lo + step
		if hi > n {
			hi = n
		}
		if lo < hi {
			sub := batch.HashKeys(hashes[lo:lo], b.Slice(lo, hi), keyIdx)
			copy(hashes[lo:hi], sub)
		}
		return nil
	})
	return hashes
}

// splitByPartition gathers b's rows into one sub-batch per partition —
// partition = hash mod partitions — by batch.ScatterHashed's counting sort,
// preserving row order within each partition and carrying each row's hash
// alongside so partition operators never re-hash. Empty partitions yield an
// empty batch with b's schema when keepEmpty is set (build sides need the
// schema), nil otherwise.
func splitByPartition(b *batch.Batch, hashes []uint64, partitions int, keepEmpty bool) ([]*batch.Batch, [][]uint64) {
	out, outHashes := batch.ScatterHashed(b, hashes, partitions)
	if keepEmpty {
		for p := range out {
			if out[p] == nil {
				out[p] = batch.Empty(b.Schema)
				// Non-nil so downstream knows the (zero) hashes are present;
				// a nil slice would make the build side fall back to
				// re-hashing the whole merged batch.
				outHashes[p] = []uint64{}
			}
		}
	}
	return out, outHashes
}

// routeByKey partitions a batch by the named key columns, returning the
// per-partition sub-batches and their rows' cached key hashes.
func routeByKey(b *batch.Batch, keyIdx []int, partitions int, pool *Pool, keepEmpty bool) ([]*batch.Batch, [][]uint64) {
	return splitByPartition(b, rowHashes(b, keyIdx, pool), partitions, keepEmpty)
}

// rowwiseSpec wraps the factory of a stateless, row-wise operator (filter,
// project, fused filter+project) whose output for a batch is the
// concatenation of its outputs for any row-range split of that batch. Such
// operators parallelize by contiguous row-range morsels — no key hashing
// needed — and the morsel outputs concatenate back in range order, so the
// task-level output bytes are identical to the serial path.
type rowwiseSpec struct {
	label   string
	factory func() Operator
}

// Name implements Spec.
func (s rowwiseSpec) Name() string { return s.label }

// New implements Spec.
func (s rowwiseSpec) New(_, _ int) Operator { return s.factory() }

// NewParallel implements ParallelSpec.
func (s rowwiseSpec) NewParallel(channel, channels, partitions int, pool *Pool) Operator {
	return rowwiseParallel(partitions, pool, s.factory)
}

// rowwiseParallel instantiates a stateless row-wise operator across
// row-range morsel lanes (serial below two partitions). Shared by every
// rowwise spec, closure-based or data-only.
func rowwiseParallel(partitions int, pool *Pool, factory func() Operator) Operator {
	if partitions <= 1 {
		return factory()
	}
	parts := make([]Operator, partitions)
	for i := range parts {
		parts[i] = factory()
	}
	return &morselOp{parts: parts, pool: pool}
}

// minRowwiseMorselRows is the smallest batch a row-wise operator splits
// into row-range morsels; below it the whole batch runs on a single lane
// (and SharesFor reports 1, keeping the modelled cost honest).
const minRowwiseMorselRows = 1024

// morselOp runs a stateless row-wise operator over contiguous row-range
// morsels of each batch, one lane per morsel, concatenating lane outputs in
// range order.
type morselOp struct {
	parts []Operator
	pool  *Pool
}

// Partitions implements Partitioned.
func (m *morselOp) Partitions() int { return len(m.parts) }

// SharesFor implements Partitioned: batches below the morsel threshold run
// on a single lane.
func (m *morselOp) SharesFor(rows int) int {
	if rows < minRowwiseMorselRows || rows < len(m.parts) {
		return 1
	}
	return len(m.parts)
}

// Consume implements Operator.
func (m *morselOp) Consume(input int, b *batch.Batch) ([]*batch.Batch, error) {
	n := b.NumRows()
	p := len(m.parts)
	if m.SharesFor(n) == 1 {
		// Single lane: row-wise operators are selection-aware, keep any
		// view intact.
		return m.parts[0].Consume(input, b)
	}
	// Multi-lane fan-out resolves a selection view first: row-range lanes
	// evaluate expressions over physical rows, so handing each lane a view
	// of the same full-width physical columns would multiply that work by
	// the lane count.
	b = b.Materialize()
	step := (n + p - 1) / p
	outs := make([][]*batch.Batch, p)
	err := m.pool.Run(p, func(i int) error {
		lo := i * step
		hi := lo + step
		if hi > n {
			hi = n
		}
		if lo >= hi {
			return nil
		}
		o, err := m.parts[i].Consume(input, b.Slice(lo, hi))
		outs[i] = o
		return err
	})
	if err != nil {
		return nil, err
	}
	var flat []*batch.Batch
	for _, o := range outs {
		flat = append(flat, o...)
	}
	return flat, nil
}

// Finalize implements Operator. Row-wise operators hold no state, but the
// lanes are flushed in order for interface fidelity.
func (m *morselOp) Finalize() ([]*batch.Batch, error) {
	var flat []*batch.Batch
	for _, part := range m.parts {
		o, err := part.Finalize()
		if err != nil {
			return nil, err
		}
		flat = append(flat, o...)
	}
	return flat, nil
}

// parallelJoin is the partition-parallel HashJoin: P sub-joins, each owning
// the build rows (and the hash index over them) whose build key hashes to
// its partition. Probe batches are routed by probe key, so every probe row
// meets exactly the sub-table that can match it. Output row order is
// partition-grouped — a deterministic function of the input, but not the
// serial operator's probe-row order; the row multiset is identical.
type parallelJoin struct {
	typ       JoinType
	buildKeys []string
	probeKeys []string
	parts     []*HashJoin
	pool      *Pool
	sp        *spill.Op // channel spill handle; lanes hold Subs of it

	buildKeyIx []int // resolved from the first build batch
	probeKeyIx []int // resolved from the first probe batch
}

// Partitions implements Partitioned.
func (j *parallelJoin) Partitions() int { return len(j.parts) }

// SharesFor implements Partitioned: hash-routed execution fans out across
// every partition regardless of batch size.
func (j *parallelJoin) SharesFor(int) int { return len(j.parts) }

// Consume implements Operator.
func (j *parallelJoin) Consume(input int, b *batch.Batch) ([]*batch.Batch, error) {
	switch input {
	case 0:
		if j.buildKeyIx == nil {
			ix, err := keyIndexes(b.Schema, j.buildKeys)
			if err != nil {
				return nil, err
			}
			j.buildKeyIx = ix
		}
		// Keep empty sub-batches: a partition that never sees a build row
		// still needs the build schema to emit schema-consistent output.
		subs, hashes := routeByKey(b, j.buildKeyIx, len(j.parts), j.pool, true)
		return nil, j.pool.Run(len(j.parts), func(p int) error {
			_, err := j.parts[p].consumeHashed(0, subs[p], hashes[p])
			return err
		})
	case 1:
		if j.probeKeyIx == nil {
			ix, err := keyIndexes(b.Schema, j.probeKeys)
			if err != nil {
				return nil, err
			}
			j.probeKeyIx = ix
		}
		subs, hashes := routeByKey(b, j.probeKeyIx, len(j.parts), j.pool, false)
		outs := make([][]*batch.Batch, len(j.parts))
		err := j.pool.Run(len(j.parts), func(p int) error {
			if subs[p] == nil {
				return nil
			}
			o, err := j.parts[p].consumeHashed(1, subs[p], hashes[p])
			outs[p] = o
			return err
		})
		if err != nil {
			return nil, err
		}
		var flat []*batch.Batch
		for _, o := range outs {
			flat = append(flat, o...)
		}
		return flat, nil
	default:
		return nil, fmt.Errorf("ops: join input %d out of range", input)
	}
}

// Finalize implements Operator.
func (j *parallelJoin) Finalize() ([]*batch.Batch, error) {
	var flat []*batch.Batch
	for _, part := range j.parts {
		o, err := part.Finalize()
		if err != nil {
			return nil, err
		}
		flat = append(flat, o...)
	}
	return flat, nil
}

// StateBytes implements Snapshotter.
func (j *parallelJoin) StateBytes() int64 {
	var n int64
	for _, part := range j.parts {
		n += part.StateBytes()
	}
	return n
}

// Snapshot implements Snapshotter: the union of the partitions' build rows,
// in the same single-batch format the serial join uses. Restore re-routes,
// so partition boundaries need not be recorded.
func (j *parallelJoin) Snapshot() ([]byte, error) {
	var all []*batch.Batch
	for _, part := range j.parts {
		if part.spSpilled {
			return nil, errSpilled
		}
		all = append(all, part.buildState()...)
	}
	merged, err := batch.Concat(all)
	if err != nil {
		return nil, err
	}
	if merged == nil || merged.NumRows() == 0 {
		return nil, nil
	}
	return batch.Encode(merged), nil
}

// Restore implements Snapshotter by re-routing the snapshotted build rows
// through the same pure key-hash partitioning used during normal execution,
// rebuilding identical per-partition state.
func (j *parallelJoin) Restore(data []byte) error {
	j.DropSpill()
	for p := range j.parts {
		j.parts[p] = &HashJoin{Type: j.typ, BuildKeys: j.buildKeys, ProbeKeys: j.probeKeys}
	}
	if j.sp != nil {
		j.SetSpill(j.sp) // fresh lanes need fresh spill handles
	}
	j.buildKeyIx = nil
	j.probeKeyIx = nil
	if len(data) == 0 {
		return nil
	}
	b, err := batch.Decode(data)
	if err != nil {
		return err
	}
	_, err = j.Consume(0, b)
	return err
}

// parallelAgg is the partition-parallel HashAgg: P sub-aggregations, each
// owning the groups whose key hashes to its partition. A group's rows all
// land in one partition in arrival order, so every per-group aggregate is
// bit-identical to the serial operator's. Finalize merges the partitions'
// outputs back into the serial operator's global key-sorted order, making
// the finalized output byte-identical to the serial path.
type parallelAgg struct {
	groupBy []string
	aggs    []AggExpr
	partial bool // forwards a batch that would not reduce, as HashAgg.Partial does
	parts   []*HashAgg
	pool    *Pool
	sp      *spill.Op // channel spill handle; lanes hold Subs of it
}

// Partitions implements Partitioned.
func (a *parallelAgg) Partitions() int { return len(a.parts) }

// SharesFor implements Partitioned: hash-routed execution fans out across
// every partition regardless of batch size.
func (a *parallelAgg) SharesFor(int) int { return len(a.parts) }

// Consume implements Operator.
func (a *parallelAgg) Consume(_ int, b *batch.Batch) ([]*batch.Batch, error) {
	keyIdx, err := keyIndexes(b.Schema, a.groupBy)
	if err != nil {
		return nil, err
	}
	hashes := rowHashes(b, keyIdx, a.pool)
	if a.partial && distinctOverHalf(hashes) {
		// Decided over the whole batch, before routing: the serial
		// operator's choice, emitting the serial operator's rows.
		return forwardStates(b, keyIdx, a.aggs)
	}
	subs, subHashes := splitByPartition(b, hashes, len(a.parts), false)
	return nil, a.pool.Run(len(a.parts), func(p int) error {
		if subs[p] == nil {
			return nil
		}
		_, err := a.parts[p].consumeHashed(0, subs[p], subHashes[p])
		return err
	})
}

// Finalize implements Operator: finalize every partition concurrently, then
// merge the per-partition outputs into global key-encoding order — exactly
// the order the serial operator emits.
func (a *parallelAgg) Finalize() ([]*batch.Batch, error) {
	outs := make([]*batch.Batch, len(a.parts))
	err := a.pool.Run(len(a.parts), func(p int) error {
		o, err := a.parts[p].Finalize()
		if err != nil {
			return err
		}
		if len(o) == 1 {
			outs[p] = o[0]
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	merged, err := mergeGroupOutputs(outs, a.groupBy)
	if err != nil || merged == nil {
		return nil, err
	}
	return single(merged), nil
}

// StateBytes implements Snapshotter.
func (a *parallelAgg) StateBytes() int64 {
	var n int64
	for _, part := range a.parts {
		n += part.StateBytes()
	}
	return n
}

// Snapshot implements Snapshotter: the union of the partitions' group
// states in the serial snapshot format.
func (a *parallelAgg) Snapshot() ([]byte, error) {
	var all []*batch.Batch
	for _, part := range a.parts {
		data, err := part.Snapshot()
		if err != nil {
			return nil, err
		}
		if len(data) == 0 {
			continue
		}
		b, err := batch.Decode(data)
		if err != nil {
			return nil, err
		}
		all = append(all, b)
	}
	merged, err := batch.Concat(all)
	if err != nil {
		return nil, err
	}
	if merged == nil || merged.NumRows() == 0 {
		return nil, nil
	}
	return batch.Encode(merged), nil
}

// Restore implements Snapshotter by routing the snapshotted groups back to
// their owning partitions by key hash.
func (a *parallelAgg) Restore(data []byte) error {
	a.DropSpill()
	for p := range a.parts {
		a.parts[p] = &HashAgg{GroupBy: a.groupBy, Aggs: a.aggs}
	}
	if a.sp != nil {
		a.SetSpill(a.sp) // fresh lanes need fresh spill handles
	}
	if len(data) == 0 {
		return nil
	}
	b, err := batch.Decode(data)
	if err != nil {
		return err
	}
	nk := b.Schema.Len() - len(a.aggs)*6
	if nk < 0 {
		return fmt.Errorf("ops: agg snapshot has %d columns for %d aggs", b.Schema.Len(), len(a.aggs))
	}
	keyIdx := make([]int, nk)
	for i := range keyIdx {
		keyIdx[i] = i
	}
	subs, _ := routeByKey(b, keyIdx, len(a.parts), a.pool, false)
	for p, sub := range subs {
		if sub == nil {
			continue
		}
		if err := a.parts[p].Restore(batch.Encode(sub)); err != nil {
			return err
		}
	}
	return nil
}
