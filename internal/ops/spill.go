package ops

import (
	"bytes"
	"errors"
	"fmt"

	"quokka/internal/batch"
	"quokka/internal/spill"
)

// This file is the operators' out-of-core execution path. When the engine
// configures a memory budget (engine.Config.MemoryBudget), each stateful
// operator gets a spill.Op handle; state that would exceed the worker's
// shared budget moves to per-partition run files on the worker's local
// disk, partitioned by the TOP bits of the same 64-bit key hash the
// hash-edge router computes (batch.HashKeys) — disjoint in effect from the
// channel routing `hash mod channels`, which reads the low bits, with no
// second hash function (spilled rows read back from disk recompute the
// identical fnv-1a hash).
//
// INVARIANT (recovery depends on it): spilling is output-transparent.
// Every operator's task outputs are byte-identical — content AND order —
// whether or not, and whenever, its state spilled:
//
//   - HashJoin probes resolve each probe batch completely: rows landing in
//     spilled build partitions are probed against partition sub-joins
//     loaded from disk, and the per-partition match fragments are merged
//     back into probe-row order before the batch's output is emitted.
//     Per-key build rows keep arrival order inside their partition, so
//     match order is unchanged too.
//   - HashAgg freezes its group table into per-partition state snapshots
//     (exact: floats round-trip via Float64bits) and spills subsequent
//     raw input rows in arrival order; finalize restores each partition's
//     snapshot and replays its raw rows sequentially, reproducing the
//     exact update order — including float summation order — of the
//     in-memory path, then re-sorts all groups into the global
//     key-encoding order.
//   - Sort writes stable-sorted runs in arrival order and k-way merges
//     them with ties broken by run index, which is exactly the stable
//     sort of the whole input.
//
// Because outputs never depend on spill decisions, the accountant may be
// shared across a worker's channels and react to live, non-deterministic
// memory pressure without perturbing write-ahead-lineage replay.

// Spillable is implemented by operators that can run out-of-core. The
// engine calls SetSpill right after instantiating the operator and
// DropSpill when the channel finishes or is rewound (releasing accounted
// memory and deleting the operator's run files).
type Spillable interface {
	SetSpill(o *spill.Op)
	DropSpill()
}

// errSpilled marks operator state that has partially moved to disk:
// checkpoint snapshots of such state are not supported (the engine skips
// the checkpoint and relies on lineage replay instead).
var errSpilled = errors.New("ops: operator state is spilled; snapshot unsupported")

// spillIndexBytesPerRow approximates the hash-index overhead per build or
// group row (cached hash, slot directory with growth slack, CSR refs,
// arena key copy) for residency estimates.
const spillIndexBytesPerRow = 48

// sortRunChunkRows bounds the frame granularity of sorted runs: the merge
// holds one chunk per run, not whole runs. sortChunkRows shrinks the
// chunk so ~64 concurrent chunks fit the budget (the merge is k-way).
const sortRunChunkRows = 1024

func sortChunkRows(budget, runBytes int64, runRows int) int {
	if runRows == 0 {
		return sortRunChunkRows
	}
	rowBytes := runBytes / int64(runRows)
	if rowBytes <= 0 {
		rowBytes = 1
	}
	rows := int(budget / 64 / rowBytes)
	if rows < 16 {
		rows = 16
	}
	if rows > sortRunChunkRows {
		rows = sortRunChunkRows
	}
	return rows
}

// spillPosName is the synthetic probe-position column used to restore
// probe-row order across per-partition join fragments.
const spillPosName = "__spill_pos"

// spillRouteAt groups logical row indexes by spill partition at o's level.
func spillRouteAt(hashes []uint64, o *spill.Op) [][]int {
	out := make([][]int, o.Context().Partitions())
	for i, h := range hashes {
		p := o.PartitionOf(h)
		out[p] = append(out[p], i)
	}
	return out
}

// gatherU64 gathers hash values at the given row indexes.
func gatherU64(hs []uint64, rows []int) []uint64 {
	out := make([]uint64, len(rows))
	for i, r := range rows {
		out[i] = hs[r]
	}
	return out
}

// dropField returns b without the named column.
func dropField(b *batch.Batch, name string) *batch.Batch {
	ix := b.Schema.MustIndex(name)
	fields := make([]batch.Field, 0, b.Schema.Len()-1)
	cols := make([]*batch.Column, 0, len(b.Cols)-1)
	for i, f := range b.Schema.Fields {
		if i == ix {
			continue
		}
		fields = append(fields, f)
		cols = append(cols, b.Cols[i])
	}
	return batch.MustNew(batch.NewSchema(fields...), cols)
}

// mergeGroupOutputs merges per-spill-partition aggregation outputs, each
// already in key-encoding order (HashAgg.Finalize sorts), into the in-memory
// operator's global key-encoding order. A group lives in exactly one
// partition, so the merge order is the global order, and a spilled finalize
// is byte-identical to the in-memory path by construction.
func mergeGroupOutputs(outs []*batch.Batch, groupBy []string) (*batch.Batch, error) {
	var runs []*batch.Batch
	for _, o := range outs {
		if o != nil && o.NumRows() > 0 {
			runs = append(runs, o)
		}
	}
	merged, err := batch.Concat(runs)
	if err != nil || len(runs) <= 1 {
		return merged, err
	}
	keyIdx, err := keyIndexes(merged.Schema, groupBy)
	if err != nil {
		return nil, err
	}
	// Every row's key encoding in one arena: row r's ends at ends[r], and
	// its 8-byte prefix is prefixes[r].
	n := merged.NumRows()
	var arena []byte
	ends := make([]int, n+1)
	prefixes := make([]uint64, n)
	for r := 0; r < n; r++ {
		arena = batch.AppendKey(arena, merged, keyIdx, r)
		ends[r+1] = len(arena)
		prefixes[r] = keyPrefix(arena[ends[r]:])
	}
	key := func(r int) []byte { return arena[ends[r]:ends[r+1]] }
	less := func(r, s int) bool {
		if prefixes[r] != prefixes[s] {
			return prefixes[r] < prefixes[s]
		}
		return bytes.Compare(key(r), key(s)) < 0
	}
	// Run i's next row in merged is heads[i], until it reaches limits[i].
	heads, limits := make([]int, len(runs)), make([]int, len(runs))
	for i, run := range runs {
		limits[i] = heads[i] + run.NumRows()
		if i+1 < len(runs) {
			heads[i+1] = limits[i]
		}
	}
	idx := make([]int, 0, n)
	for len(idx) < n {
		best := -1
		for i := range runs {
			if heads[i] < limits[i] && (best < 0 || less(heads[i], heads[best])) {
				best = i
			}
		}
		idx = append(idx, heads[best])
		heads[best]++
	}
	return merged.Gather(idx), nil
}

// ---------------------------------------------------------------------------
// HashJoin: Grace-hash build spilling with order-preserving probes.

// SetSpill implements Spillable.
func (j *HashJoin) SetSpill(o *spill.Op) { j.sp = o }

// DropSpill implements Spillable.
func (j *HashJoin) DropSpill() {
	j.dropResident()
	if j.sp != nil {
		j.sp.Drop()
	}
}

// spillBuild moves the entire retained build side to per-partition run
// files (arrival order preserved within each partition) and releases the
// accounted memory. Subsequent build batches go straight to disk.
func (j *HashJoin) spillBuild() error {
	if j.buildKeyIx == nil {
		ix, err := keyIndexes(j.spBuildSchema, j.BuildKeys)
		if err != nil {
			return err
		}
		j.buildKeyIx = ix
	}
	for _, bb := range j.build {
		if err := j.spillBuildBatch(bb); err != nil {
			return err
		}
	}
	j.build = nil
	j.stateBytes = 0
	j.sp.ReleaseAll()
	j.spSpilled = true
	return nil
}

// spillBuildBatch routes one build batch directly to disk.
func (j *HashJoin) spillBuildBatch(b *batch.Batch) error {
	if b.NumRows() == 0 {
		return nil
	}
	return j.spillBuildRows(b, batch.HashKeys(nil, b, j.buildKeyIx))
}

func (j *HashJoin) spillBuildRows(b *batch.Batch, hashes []uint64) error {
	for p, rows := range spillRouteAt(hashes, j.sp) {
		if len(rows) == 0 {
			continue
		}
		if err := j.sp.WriteRun(p, spill.Raw, b.Gather(rows)); err != nil {
			return err
		}
	}
	return nil
}

// probeSpilled resolves one probe batch against the spilled build side.
// Rows are routed to their build partition by the top hash bits, probed
// against per-partition sub-joins, and the resulting fragments are merged
// back into probe-row order, so the batch's output is byte-identical to
// the in-memory path's.
func (j *HashJoin) probeSpilled(pb *batch.Batch, hashes []uint64) ([]*batch.Batch, error) {
	n := pb.NumRows()
	if n == 0 {
		return nil, nil
	}
	// Augment the probe rows with their batch position: the column rides
	// through the per-partition sub-joins (probe columns pass through all
	// join types) and keys the merge back into probe order.
	phys := pb.Materialize()
	pos := make([]int64, n)
	for i := range pos {
		pos[i] = int64(i)
	}
	fields := append(append([]batch.Field(nil), phys.Schema.Fields...), batch.F(spillPosName, batch.Int64))
	cols := append(append([]*batch.Column(nil), phys.Cols...), batch.NewIntColumn(pos))
	aug := batch.MustNew(batch.NewSchema(fields...), cols)

	var frags []*batch.Batch
	for p, rows := range spillRouteAt(hashes, j.sp) {
		if len(rows) == 0 {
			continue
		}
		frag, err := j.probeShard(j.sp, p, aug.Gather(rows), gatherU64(hashes, rows))
		if err != nil {
			return nil, err
		}
		if frag != nil && frag.NumRows() > 0 {
			frags = append(frags, frag)
		}
	}
	if len(frags) == 0 {
		return nil, nil
	}
	all, err := batch.Concat(frags)
	if err != nil {
		return nil, err
	}
	// Stable counting sort by probe position: every probe row's matches
	// live contiguously in exactly one fragment, already in build arrival
	// order, so this reproduces the in-memory probe's output order.
	posCol := all.Col(spillPosName).Ints
	offs := make([]int, n+1)
	for _, p := range posCol {
		offs[p+1]++
	}
	for i := 0; i < n; i++ {
		offs[i+1] += offs[i]
	}
	order := make([]int, len(posCol))
	for r, p := range posCol {
		order[offs[p]] = r
		offs[p]++
	}
	return single(dropField(all.Gather(order), spillPosName)), nil
}

// probeShard probes one spill partition's rows (sub, in probe order, with
// the position column) against that partition's build side, loading it
// from disk — or recursing one level deeper when it does not fit.
func (j *HashJoin) probeShard(o *spill.Op, part int, sub *batch.Batch, subHashes []uint64) (*batch.Batch, error) {
	acct := o.Context().Accountant()
	est := 2*o.PartBytes(part) + int64(o.PartRows(part))*spillIndexBytesPerRow
	needLoad := !(j.resJoin != nil && j.resOp == o && j.resPart == part)
	reserved := false
	if needLoad {
		// Evict the previous partition BEFORE sizing this one, or its
		// residency would spuriously (and stickily) force a re-split of a
		// partition that fits on its own. The load-vs-recurse decision
		// reserves atomically (TryGrow): a worker's channels race for the
		// budget, and the loser recurses instead of forcing past it.
		j.dropResident()
		if !o.IsResplit(part) && o.Level()+1 < spill.MaxDepth && o.PartBytes(part) > 0 {
			reserved = acct.TryGrow(est)
		}
	}
	if needLoad && (o.IsResplit(part) ||
		(o.Level()+1 < spill.MaxDepth && o.PartBytes(part) > 0 && !reserved)) {
		// Partition too large (or already re-split): push its runs one
		// level deeper and probe the children this batch actually touches.
		if err := j.resplitBuild(o, part); err != nil {
			return nil, err
		}
		child := o.Child(part)
		var frags []*batch.Batch
		for cp, rows := range spillRouteAt(subHashes, child) {
			if len(rows) == 0 {
				continue
			}
			frag, err := j.probeShard(child, cp, sub.Gather(rows), gatherU64(subHashes, rows))
			if err != nil {
				return nil, err
			}
			if frag != nil && frag.NumRows() > 0 {
				frags = append(frags, frag)
			}
		}
		// Fragment order inside a shard is irrelevant: the caller's
		// position sort restores global probe order.
		return batch.Concat(frags)
	}
	if needLoad {
		if err := j.loadResident(o, part, sub.Schema, est, reserved); err != nil {
			return nil, err
		}
	}
	outs, err := j.resJoin.probe(sub, subHashes)
	if err != nil {
		return nil, err
	}
	return batch.Concat(outs)
}

// loadResident makes one spill partition's sub-join resident (a 1-entry
// cache: hash-routed probes have no partition locality worth more).
// reserved reports whether the caller already won the budget reservation;
// otherwise recursion is exhausted and residency is forced — hash
// partitioning cannot split a single giant key further.
func (j *HashJoin) loadResident(o *spill.Op, part int, probeSchema *batch.Schema, est int64, reserved bool) error {
	acct := o.Context().Accountant()
	if !reserved && !acct.TryGrow(est) {
		acct.Grow(est)
	}
	inner := &HashJoin{Type: j.Type, BuildKeys: j.BuildKeys, ProbeKeys: j.ProbeKeys}
	// Seed the build schema even for empty partitions so output schemas
	// stay consistent across fragments.
	if _, err := inner.Consume(0, batch.Empty(j.spBuildSchema)); err != nil {
		return err
	}
	for _, r := range o.Runs(part) {
		bs, err := o.ReadRun(r)
		if err != nil {
			return err
		}
		for _, b := range bs {
			if _, err := inner.Consume(0, b); err != nil {
				return err
			}
		}
	}
	if err := inner.buildIndex(probeSchema); err != nil {
		return err
	}
	j.resJoin, j.resOp, j.resPart, j.resBytes = inner, o, part, est
	return nil
}

// dropResident evicts the loaded spill partition and its accounting.
func (j *HashJoin) dropResident() {
	if j.resJoin == nil {
		return
	}
	j.resOp.Context().Accountant().Release(j.resBytes)
	j.resJoin, j.resOp, j.resBytes = nil, nil, 0
}

// resplitBuild re-partitions one spill partition's build runs one level
// deeper (arrival order preserved: runs are read and re-written in order).
func (j *HashJoin) resplitBuild(o *spill.Op, part int) error {
	if o.IsResplit(part) {
		return nil
	}
	child := o.Child(part)
	for _, r := range o.Runs(part) {
		bs, err := o.ReadRun(r)
		if err != nil {
			return err
		}
		for _, b := range bs {
			hs := batch.HashKeys(nil, b, j.buildKeyIx)
			for cp, rows := range spillRouteAt(hs, child) {
				if len(rows) == 0 {
					continue
				}
				if err := child.WriteRun(cp, r.Kind, b.Gather(rows)); err != nil {
					return err
				}
			}
		}
	}
	o.MarkResplit(part)
	return nil
}

// ---------------------------------------------------------------------------
// HashAgg: frozen state snapshot + raw-row runs, exact replay at finalize.

// SetSpill implements Spillable.
func (a *HashAgg) SetSpill(o *spill.Op) { a.sp = o }

// DropSpill implements Spillable.
func (a *HashAgg) DropSpill() {
	if a.sp != nil {
		a.sp.Drop()
	}
}

// spillAggBatchEst is the worst-case state growth of consuming b: every
// row founds a new group (key payload + agg states + index overhead).
func spillAggBatchEst(b *batch.Batch, nAggs int) int64 {
	return b.ByteSize() + int64(b.NumRows())*(int64(nAggs)*aggStateSize+spillIndexBytesPerRow)
}

// spillState freezes the in-memory group table: the exact aggregate states
// (floats round-trip via Float64bits) are snapshotted into per-partition
// State runs, the table is cleared, and every subsequent input row goes to
// a Raw run in arrival order. Finalize restores each partition's snapshot
// and replays its raw rows sequentially, so per-group update order — and
// with it float summation order — is identical to the in-memory path.
func (a *HashAgg) spillState() error {
	a.spSpilled = true
	if a.table != nil && a.table.Len() > 0 {
		snap := a.snapshotBatch()
		nk := a.keySchema.Len()
		keyIdx := make([]int, nk)
		for i := range keyIdx {
			keyIdx[i] = i
		}
		// The snapshot's key columns carry the same encoding as the input
		// rows' key columns, so the state lands in the same partition its
		// raw rows will.
		hs := batch.HashKeys(nil, snap, keyIdx)
		for p, rows := range spillRouteAt(hs, a.sp) {
			if len(rows) == 0 {
				continue
			}
			if err := a.sp.WriteRun(p, spill.State, snap.Gather(rows)); err != nil {
				return err
			}
		}
		a.table = batch.NewHashTable(0)
		a.floats, a.ints, a.flags, a.strs = nil, nil, nil, nil
		for i := range a.keyCols {
			a.keyCols[i] = batch.NewColumn(a.keySchema.Fields[i].Type, 0)
		}
		a.stateBytes = 0
	}
	a.sp.ReleaseAll()
	return nil
}

// spillConsume routes one input batch's rows to Raw runs by group-key
// hash, preserving arrival order within each partition.
func (a *HashAgg) spillConsume(b *batch.Batch, hashes []uint64) error {
	if b.NumRows() == 0 {
		return nil
	}
	if hashes == nil {
		a.hashScratch = batch.HashKeys(a.hashScratch, b, a.keyIdx)
		hashes = a.hashScratch
	}
	for p, rows := range spillRouteAt(hashes, a.sp) {
		if len(rows) == 0 {
			continue
		}
		if err := a.sp.WriteRun(p, spill.Raw, b.Gather(rows)); err != nil {
			return err
		}
	}
	return nil
}

// finalizeSpilled rebuilds and finalizes each spill partition in turn —
// bounded by the partition's state, not the whole table — then merges the
// per-partition outputs into the serial operator's global key order.
func (a *HashAgg) finalizeSpilled() ([]*batch.Batch, error) {
	var outs []*batch.Batch
	for _, p := range a.sp.Parts() {
		if err := a.finalizePart(a.sp, p, &outs); err != nil {
			return nil, err
		}
	}
	a.sp.Drop()
	merged, err := mergeGroupOutputs(outs, a.GroupBy)
	if err != nil || merged == nil {
		return nil, err
	}
	return single(merged), nil
}

// finalizePart replays one spill partition through a fresh sub-aggregation.
// The sub-operator carries a child spill handle one level deeper, so a
// partition that still exceeds the budget re-spills recursively and its
// own Finalize descends again.
func (a *HashAgg) finalizePart(o *spill.Op, part int, outs *[]*batch.Batch) error {
	sub := &HashAgg{GroupBy: a.GroupBy, Aggs: a.Aggs}
	if o.Level()+1 < spill.MaxDepth {
		sub.sp = o.Child(part)
	}
	for _, r := range o.Runs(part) {
		bs, err := o.ReadRun(r)
		if err != nil {
			return err
		}
		for _, rb := range bs {
			if r.Kind == spill.State {
				// Written exactly once per partition, before any raw run.
				err = sub.restoreFromBatch(rb)
			} else {
				err = sub.consumeHashed(rb, nil)
			}
			if err != nil {
				return err
			}
		}
	}
	o.DropPart(part)
	got, err := sub.Finalize() // descends recursively if sub re-spilled
	if err != nil {
		return err
	}
	sub.DropSpill()
	*outs = append(*outs, got...)
	return nil
}

// ---------------------------------------------------------------------------
// Sort: stable sorted runs + k-way merge with run-index tie-breaking.

// SetSpill implements Spillable.
func (s *Sort) SetSpill(o *spill.Op) { s.sp = o }

// DropSpill implements Spillable.
func (s *Sort) DropSpill() {
	if s.sp != nil {
		s.sp.Drop()
	}
}

// flushRun stable-sorts the buffered batches into one run (chunked frames
// so the merge reads it incrementally) and releases their memory.
func (s *Sort) flushRun() error {
	all, err := batch.Concat(s.buf)
	s.buf = nil
	s.stateBytes = 0
	defer s.sp.ReleaseAll()
	if err != nil {
		return err
	}
	if all == nil || all.NumRows() == 0 {
		return nil
	}
	sorted, err := SortBatch(all, s.Keys)
	if err != nil {
		return err
	}
	chunk := sortChunkRows(s.sp.Context().Accountant().Budget(), sorted.ByteSize(), sorted.NumRows())
	if err := s.sp.WriteSeqRun(s.spRuns, spill.Raw, sorted.SplitRows(chunk)...); err != nil {
		return err
	}
	s.spRuns++
	return nil
}

// mergeSrc is one source of a k-way merge: a spilled run read chunk by
// chunk, or the final in-memory remainder.
type mergeSrc struct {
	cur    *batch.Batch
	row    int
	keyIdx []int
	next   func() (*batch.Batch, error)
	acct   *spill.Accountant
	held   int64
}

// advanceChunk loads the source's next chunk, releasing the previous one.
func (m *mergeSrc) advanceChunk() error {
	if m.acct != nil && m.held > 0 {
		m.acct.Release(m.held)
		m.held = 0
	}
	m.cur, m.row = nil, 0
	if m.next == nil {
		return nil
	}
	b, err := m.next()
	if err != nil {
		return err
	}
	if b != nil {
		m.cur = b
		if m.acct != nil {
			m.held = b.ByteSize()
			m.acct.Grow(m.held)
		}
	}
	return nil
}

// sortMergeFanIn bounds how many runs merge at once. Each source holds
// one ~budget/64 chunk resident, so bounded fan-in keeps the merge's
// accounted memory within the budget no matter how many runs the input
// produced; larger inputs cascade through intermediate merged runs,
// which stays exactly the stable sort (merging CONSECUTIVE groups with
// source-index tie-breaking composes like a stable merge sort).
const sortMergeFanIn = 16

// finalizeSpilled merges the sorted runs back into one output. Ties
// break by source index — earlier runs hold earlier-arrived rows — which
// makes the merge exactly the stable sort of the whole input.
func (s *Sort) finalizeSpilled() ([]*batch.Batch, error) {
	// The in-memory remainder becomes the final (last-arrived) run, so
	// every merge source is a run and tie-breaking is uniform.
	if len(s.buf) > 0 {
		if err := s.flushRun(); err != nil {
			return nil, err
		}
	}
	var runIDs []int
	for run := 0; run < s.spRuns; run++ {
		if len(s.sp.Runs(run)) > 0 {
			runIDs = append(runIDs, run)
		}
	}
	for len(runIDs) > sortMergeFanIn {
		var next []int
		for lo := 0; lo < len(runIDs); lo += sortMergeFanIn {
			hi := lo + sortMergeFanIn
			if hi > len(runIDs) {
				hi = len(runIDs)
			}
			if hi-lo == 1 {
				next = append(next, runIDs[lo])
				continue
			}
			id, err := s.mergeToRun(runIDs[lo:hi])
			if err != nil {
				return nil, err
			}
			next = append(next, id)
		}
		runIDs = next
	}
	srcs, schema, err := s.openRunSrcs(runIDs)
	if err != nil {
		return nil, err
	}
	if schema == nil {
		s.sp.Drop()
		return nil, nil
	}
	bl := batch.NewBuilder(schema, 0)
	emitted := 0
	err = s.mergeSrcs(srcs, s.Limit, func(m *mergeSrc) error {
		for c := range schema.Fields {
			bl.Col(c).AppendFrom(m.cur.Cols[c], m.row)
		}
		emitted++
		return nil
	})
	releaseSrcs(srcs)
	if err != nil {
		return nil, err
	}
	s.sp.Drop()
	if emitted == 0 {
		return nil, nil
	}
	return single(bl.Build()), nil
}

// openRunSrcs opens one merge source per run, loading first chunks.
func (s *Sort) openRunSrcs(runIDs []int) ([]*mergeSrc, *batch.Schema, error) {
	acct := s.sp.Context().Accountant()
	var srcs []*mergeSrc
	var schema *batch.Schema
	for _, id := range runIDs {
		cur := s.sp.OpenPart(id)
		m := &mergeSrc{acct: acct, next: cur.Next}
		if err := m.advanceChunk(); err != nil {
			releaseSrcs(srcs)
			return nil, nil, err
		}
		if m.cur != nil {
			schema = m.cur.Schema
			ix, err := sortKeyIndexes(m.cur.Schema, s.Keys)
			if err != nil {
				releaseSrcs(srcs)
				return nil, nil, err
			}
			m.keyIdx = ix
		}
		srcs = append(srcs, m)
	}
	return srcs, schema, nil
}

// releaseSrcs returns the sources' resident-chunk accounting.
func releaseSrcs(srcs []*mergeSrc) {
	for _, m := range srcs {
		if m.acct != nil && m.held > 0 {
			m.acct.Release(m.held)
			m.held = 0
		}
	}
}

// mergeSrcs k-way merges the sources in order, calling emit for each
// output row (the chosen source's current row). limit 0 = no limit. Ties
// pick the lowest source index, preserving arrival order.
func (s *Sort) mergeSrcs(srcs []*mergeSrc, limit int, emit func(*mergeSrc) error) error {
	want := -1
	if limit > 0 {
		want = limit
	}
	for want != 0 {
		best := -1
		for i, m := range srcs {
			if m.cur == nil {
				continue
			}
			if best < 0 || s.lessSrc(m, srcs[best]) {
				best = i
			}
		}
		if best < 0 {
			return nil
		}
		m := srcs[best]
		if err := emit(m); err != nil {
			return err
		}
		if want > 0 {
			want--
		}
		m.row++
		if m.row >= m.cur.NumRows() {
			if err := m.advanceChunk(); err != nil {
				return err
			}
		}
	}
	return nil
}

// mergeToRun merges a consecutive group of runs into one new chunked run
// (an intermediate cascade pass) and drops the inputs.
func (s *Sort) mergeToRun(group []int) (int, error) {
	srcs, schema, err := s.openRunSrcs(group)
	if err != nil {
		return 0, err
	}
	id := s.spRuns
	s.spRuns++
	if schema == nil {
		releaseSrcs(srcs)
		return id, nil
	}
	chunkRows := sortChunkRows(s.sp.Context().Accountant().Budget(),
		srcs[0].cur.ByteSize(), srcs[0].cur.NumRows())
	bl := batch.NewBuilder(schema, chunkRows)
	count := 0
	flush := func() error {
		if count == 0 {
			return nil
		}
		if err := s.sp.WriteSeqRun(id, spill.Raw, bl.Build()); err != nil {
			return err
		}
		bl = batch.NewBuilder(schema, chunkRows)
		count = 0
		return nil
	}
	err = s.mergeSrcs(srcs, 0, func(m *mergeSrc) error {
		for c := range schema.Fields {
			bl.Col(c).AppendFrom(m.cur.Cols[c], m.row)
		}
		count++
		if count >= chunkRows {
			return flush()
		}
		return nil
	})
	releaseSrcs(srcs)
	if err != nil {
		return 0, err
	}
	if err := flush(); err != nil {
		return 0, err
	}
	for _, g := range group {
		s.sp.DropPart(g)
	}
	return id, nil
}

// lessSrc reports whether source a's current row sorts strictly before
// source b's. Equal keys are NOT less: the caller's linear scan keeps the
// earlier source on ties, preserving input order.
func (s *Sort) lessSrc(a, b *mergeSrc) bool {
	for k, key := range s.Keys {
		c := compareCols(a.cur.Cols[a.keyIdx[k]], a.row, b.cur.Cols[b.keyIdx[k]], b.row)
		if c == 0 {
			continue
		}
		if key.Desc {
			return c > 0
		}
		return c < 0
	}
	return false
}

// sortKeyIndexes resolves sort key columns against a schema.
func sortKeyIndexes(sc *batch.Schema, keys []SortKey) ([]int, error) {
	out := make([]int, len(keys))
	for i, k := range keys {
		j := sc.Index(k.Col)
		if j < 0 {
			return nil, fmt.Errorf("ops: sort key %q not in schema %s", k.Col, sc)
		}
		out[i] = j
	}
	return out, nil
}

// compareCols compares row i of column a against row j of column b
// (compareAt across two batches; the columns have equal types).
func compareCols(a *batch.Column, i int, b *batch.Column, j int) int {
	switch a.Type {
	case batch.Int64, batch.Date:
		x, y := a.Ints[i], b.Ints[j]
		switch {
		case x < y:
			return -1
		case x > y:
			return 1
		}
	case batch.Float64:
		x, y := a.Floats[i], b.Floats[j]
		switch {
		case x < y:
			return -1
		case x > y:
			return 1
		}
	case batch.String:
		x, y := a.Strings[i], b.Strings[j]
		switch {
		case x < y:
			return -1
		case x > y:
			return 1
		}
	case batch.Bool:
		x, y := a.Bools[i], b.Bools[j]
		switch {
		case !x && y:
			return -1
		case x && !y:
			return 1
		}
	}
	return 0
}
