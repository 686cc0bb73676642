package ops

import (
	"fmt"

	"quokka/internal/batch"
	"quokka/internal/spill"
)

// JoinType enumerates the supported join semantics.
type JoinType uint8

// Join types. LeftOuter appends a "__matched" bool column instead of NULLs
// (the engine's type system has no nulls); unmatched probe rows carry zero
// values in build columns and __matched=false.
const (
	InnerJoin JoinType = iota
	LeftOuterJoin
	SemiJoin
	AntiJoin
)

// String returns the join type name.
func (t JoinType) String() string {
	switch t {
	case InnerJoin:
		return "inner"
	case LeftOuterJoin:
		return "left"
	case SemiJoin:
		return "semi"
	case AntiJoin:
		return "anti"
	}
	return "?"
}

// HashJoin is a build/probe hash join. Input 0 is the build side, input 1
// the probe side; the engine guarantees the build side is exhausted before
// any probe batch arrives (consumption phases, §IV-A). The hash table over
// the build side is the channel's state variable — exactly the state the
// paper's Figure 1 depicts and recovery must reconstruct.
//
// The index is an arena-backed open-addressing table over the distinct
// build keys (batch.HashTable); build rows are grouped per key in a CSR
// layout (refStart/refRows into the merged build batch). Probing walks the
// table with each row's 64-bit key hash, computed in one vectorized pass
// per batch, and materializes output column-at-a-time from reusable
// match vectors, so the inner probe loop allocates nothing per row.
//
// Output columns are probe columns followed by build columns (minus the
// build keys when key names collide with probe keys).
type HashJoin struct {
	Type      JoinType
	BuildKeys []string
	ProbeKeys []string

	build      []*batch.Batch // retained build batches (state)
	stateBytes int64
	merged     *batch.Batch // build side concatenated at first probe
	table      *batch.HashTable
	refStart   []int32 // CSR: key k's build rows are refRows[refStart[k]:refStart[k+1]]
	refRows    []int32
	buildProj  []int // build column indexes carried to output
	outSchema  *batch.Schema
	probeKeyIx []int
	buildKeyIx []int

	// Reusable probe scratch (satellite of the zero-alloc probe loop).
	keyScratch  []byte
	hashScratch []uint64
	probeSel    []int32 // physical probe row per output row
	buildSel    []int32 // build row per output row; -1 = unmatched (left outer)
	semiSel     []int   // logical probe rows kept by semi/anti

	// Out-of-core state (see spill.go). sp is nil without a memory budget;
	// once spSpilled is set the build side lives in per-partition run
	// files and probes page partitions in through the 1-entry resident
	// cache below.
	sp            *spill.Op
	spSpilled     bool
	spBuildSchema *batch.Schema
	resJoin       *HashJoin
	resOp         *spill.Op
	resPart       int
	resBytes      int64
}

// NewHashJoinSpec builds a Spec for a hash join.
func NewHashJoinSpec(t JoinType, buildKeys, probeKeys []string) Spec {
	if len(buildKeys) != len(probeKeys) || len(buildKeys) == 0 {
		panic("ops: join key lists must be equal length and non-empty")
	}
	return hashJoinSpec{Typ: t, BuildKeys: buildKeys, ProbeKeys: probeKeys}
}

// hashJoinSpec instantiates HashJoin operators.
// Fields are exported so process mode can gob-serialize plans.
type hashJoinSpec struct {
	Typ       JoinType
	BuildKeys []string
	ProbeKeys []string
}

// Name implements Spec.
func (s hashJoinSpec) Name() string {
	return fmt.Sprintf("join[%s on %v=%v]", s.Typ, s.BuildKeys, s.ProbeKeys)
}

// New implements Spec.
func (s hashJoinSpec) New(_, _ int) Operator {
	return &HashJoin{Type: s.Typ, BuildKeys: s.BuildKeys, ProbeKeys: s.ProbeKeys}
}

func keyIndexes(s *batch.Schema, keys []string) ([]int, error) {
	out := make([]int, len(keys))
	for i, k := range keys {
		j := s.Index(k)
		if j < 0 {
			return nil, fmt.Errorf("ops: join key %q not in schema %s", k, s)
		}
		out[i] = j
	}
	return out, nil
}

// Consume implements Operator.
func (j *HashJoin) Consume(input int, b *batch.Batch) ([]*batch.Batch, error) {
	switch input {
	case 0:
		if b.Sel != nil {
			b = b.Materialize() // retained state is physical
		}
		if j.sp != nil {
			if j.spBuildSchema == nil {
				j.spBuildSchema = b.Schema
			}
			if !j.spSpilled && !j.sp.Reserve(b.ByteSize()) {
				if err := j.spillBuild(); err != nil {
					return nil, err
				}
			}
			if j.spSpilled {
				return nil, j.spillBuildBatch(b)
			}
		}
		j.build = append(j.build, b)
		j.stateBytes += b.ByteSize()
		return nil, nil
	case 1:
		return j.probe(b, nil)
	default:
		return nil, fmt.Errorf("ops: join input %d out of range", input)
	}
}

// buildIndex constructs the hash table once the build side is complete.
func (j *HashJoin) buildIndex(probeSchema *batch.Schema) error {
	var buildSchema *batch.Schema
	if len(j.build) > 0 {
		buildSchema = j.build[0].Schema
	}
	if j.spSpilled {
		buildSchema = j.spBuildSchema // retained rows live in spill runs
	}
	if j.sp != nil && j.spBuildSchema == nil {
		// Restored state bypasses Consume; remember the schema in case
		// the index build below decides to spill.
		j.spBuildSchema = buildSchema
	}
	j.table = batch.NewHashTable(0)
	if buildSchema != nil {
		ix, err := keyIndexes(buildSchema, j.BuildKeys)
		if err != nil {
			return err
		}
		j.buildKeyIx = ix

		// The index (arena keys, slots, hashes, CSR) costs real memory on
		// top of the retained rows; if it will not fit, spill the build
		// side instead of indexing it.
		if j.sp != nil && !j.spSpilled && len(j.build) > 0 {
			var rows int64
			for _, bb := range j.build {
				rows += int64(bb.NumRows())
			}
			est := rows*spillIndexBytesPerRow + j.stateBytes/2
			if !j.sp.Reserve(est) {
				if err := j.spillBuild(); err != nil {
					return err
				}
			}
		}

		var hashes []uint64
		merged, err := batch.Concat(j.build)
		if err != nil {
			return err
		}
		// merged replaces the retained batches entirely: index refs point
		// into it and Snapshot serializes it (kept even at zero rows so a
		// restored operator still knows the build schema).
		j.merged = merged
		j.build = nil
		if merged != nil {
			n := merged.NumRows()
			// Size the directory for the build row count up front (an
			// upper bound on distinct keys) so the build pass never grows.
			j.table = batch.NewHashTable(n)
			hashes = batch.HashKeys(nil, merged, ix)
			// Pass 1: distinct keys + per-key row counts.
			rowKey := make([]int32, n)
			var key []byte
			for r := 0; r < n; r++ {
				key = batch.AppendKey(key[:0], merged, ix, r)
				idx, _ := j.table.InsertKey(hashes[r], key)
				rowKey[r] = int32(idx)
			}
			// Pass 2: CSR grouping of build rows by key.
			nk := j.table.Len()
			j.refStart = make([]int32, nk+1)
			for _, k := range rowKey {
				j.refStart[k+1]++
			}
			for k := 0; k < nk; k++ {
				j.refStart[k+1] += j.refStart[k]
			}
			j.refRows = make([]int32, n)
			cursor := append([]int32(nil), j.refStart[:nk]...)
			for r, k := range rowKey {
				j.refRows[cursor[k]] = int32(r)
				cursor[k]++
			}
		}
		if j.sp != nil && !j.spSpilled {
			// Settle the index estimate against the real size. If the
			// estimate undershot (string-heavy keys: the arena copies
			// every key) and the index does not actually fit, spill the
			// merged build side rather than forcing past the budget.
			delta := j.StateBytes() - j.sp.Reserved()
			switch {
			case delta <= 0:
				j.sp.Release(-delta)
			case j.sp.Reserve(delta):
			default:
				if merged != nil && merged.NumRows() > 0 {
					if err := j.spillBuildRows(merged, hashes); err != nil {
						return err
					}
				}
				j.merged = nil
				j.table = batch.NewHashTable(0)
				j.refStart = nil
				j.refRows = nil
				j.stateBytes = 0
				j.sp.ReleaseAll()
				j.spSpilled = true
			}
		}
	}
	pix, err := keyIndexes(probeSchema, j.ProbeKeys)
	if err != nil {
		return err
	}
	j.probeKeyIx = pix

	// Output schema: probe columns, then non-key build columns, then for
	// left-outer the __matched marker. Build key columns are dropped (they
	// equal the probe keys on matched rows).
	if j.Type == SemiJoin || j.Type == AntiJoin {
		j.outSchema = probeSchema
		return nil
	}
	fields := append([]batch.Field(nil), probeSchema.Fields...)
	if buildSchema != nil {
		isKey := make(map[int]bool, len(j.buildKeyIx))
		for _, k := range j.buildKeyIx {
			isKey[k] = true
		}
		for ci, f := range buildSchema.Fields {
			if isKey[ci] {
				continue
			}
			if probeSchema.Index(f.Name) >= 0 {
				return fmt.Errorf("ops: join output column %q collides; project before joining", f.Name)
			}
			j.buildProj = append(j.buildProj, ci)
			fields = append(fields, f)
		}
	}
	if j.Type == LeftOuterJoin {
		fields = append(fields, batch.Field{Name: "__matched", Type: batch.Bool})
	}
	j.outSchema = batch.NewSchema(fields...)
	return nil
}

// findRefs returns the build rows matching the encoded key, or an empty
// slice. Hot path: no allocation.
func (j *HashJoin) findRefs(hash uint64, key []byte) []int32 {
	if j.table.Len() == 0 {
		return nil
	}
	k := j.table.Find(hash, key)
	if k < 0 {
		return nil
	}
	return j.refRows[j.refStart[k]:j.refStart[k+1]]
}

func (j *HashJoin) probe(pb *batch.Batch, hashes []uint64) ([]*batch.Batch, error) {
	if j.table == nil {
		if err := j.buildIndex(pb.Schema); err != nil {
			return nil, err
		}
	}
	if hashes == nil {
		j.hashScratch = batch.HashKeys(j.hashScratch, pb, j.probeKeyIx)
		hashes = j.hashScratch
	}
	if j.spSpilled {
		return j.probeSpilled(pb, hashes)
	}
	n := pb.NumRows()
	sel := pb.Sel
	key := j.keyScratch

	switch j.Type {
	case SemiJoin, AntiJoin:
		idx := j.semiSel[:0]
		for i := 0; i < n; i++ {
			p := i
			if sel != nil {
				p = int(sel[i])
			}
			key = batch.AppendKey(key[:0], pb, j.probeKeyIx, p)
			hit := len(j.findRefs(hashes[i], key)) > 0
			if hit == (j.Type == SemiJoin) {
				idx = append(idx, i)
			}
		}
		j.keyScratch = key
		j.semiSel = idx[:0]
		if len(idx) == 0 {
			return nil, nil
		}
		return single(pb.Gather(idx)), nil
	}

	// Inner/left outer: collect (probe physical row, build row) match
	// pairs, then gather output columns vectorwise.
	probeSel := j.probeSel[:0]
	buildSel := j.buildSel[:0]
	for i := 0; i < n; i++ {
		p := i
		if sel != nil {
			p = int(sel[i])
		}
		key = batch.AppendKey(key[:0], pb, j.probeKeyIx, p)
		refs := j.findRefs(hashes[i], key)
		if len(refs) == 0 {
			if j.Type == LeftOuterJoin {
				probeSel = append(probeSel, int32(p))
				buildSel = append(buildSel, -1)
			}
			continue
		}
		for _, br := range refs {
			probeSel = append(probeSel, int32(p))
			buildSel = append(buildSel, br)
		}
	}
	j.keyScratch = key
	j.probeSel = probeSel[:0]
	j.buildSel = buildSel[:0]
	if len(probeSel) == 0 {
		return nil, nil
	}

	cols := make([]*batch.Column, 0, j.outSchema.Len())
	for _, c := range pb.Cols {
		cols = append(cols, c.GatherI32(probeSel))
	}
	for _, bc := range j.buildProj {
		cols = append(cols, j.merged.Cols[bc].GatherPad(buildSel))
	}
	if j.Type == LeftOuterJoin {
		matched := make([]bool, len(buildSel))
		for i, br := range buildSel {
			matched[i] = br >= 0
		}
		cols = append(cols, batch.NewBoolColumn(matched))
	}
	return single(batch.MustNew(j.outSchema, cols)), nil
}

// Finalize implements Operator. A spilled join's probing is already
// complete (every probe batch was fully resolved on arrival), so finalize
// only frees the run files and the resident partition.
func (j *HashJoin) Finalize() ([]*batch.Batch, error) {
	j.DropSpill()
	return nil, nil
}

// StateBytes implements Snapshotter: the retained build side plus the
// arena-backed index (key arena, slot directory, CSR row lists).
func (j *HashJoin) StateBytes() int64 {
	n := j.stateBytes + j.resBytes
	if j.table != nil {
		n += j.table.Bytes() + int64(len(j.refStart)+len(j.refRows))*4
	}
	return n
}

// buildState returns the retained build side: the raw batches before the
// index is built, the merged batch after.
func (j *HashJoin) buildState() []*batch.Batch {
	if j.merged != nil {
		return []*batch.Batch{j.merged}
	}
	return j.build
}

// Snapshot implements Snapshotter by serializing the buffered build side.
// The index is rebuilt on Restore. Spilled state cannot snapshot (the
// run files are partition-grouped, losing global arrival order); the
// engine skips the checkpoint and relies on lineage replay.
func (j *HashJoin) Snapshot() ([]byte, error) {
	if j.spSpilled {
		return nil, errSpilled
	}
	merged, err := batch.Concat(j.buildState())
	if err != nil {
		return nil, err
	}
	if merged == nil {
		return nil, nil
	}
	return batch.Encode(merged), nil
}

// Restore implements Snapshotter.
func (j *HashJoin) Restore(data []byte) error {
	j.build = nil
	j.stateBytes = 0
	j.merged = nil
	j.table = nil
	j.refStart = nil
	j.refRows = nil
	j.DropSpill() // restored state starts in memory; may spill again
	j.spSpilled = false
	j.spBuildSchema = nil
	if len(data) == 0 {
		return nil
	}
	b, err := batch.Decode(data)
	if err != nil {
		return err
	}
	j.build = []*batch.Batch{b}
	j.stateBytes = b.ByteSize()
	return nil
}
