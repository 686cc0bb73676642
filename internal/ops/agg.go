package ops

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"

	"quokka/internal/batch"
	"quokka/internal/expr"
	"quokka/internal/spill"
)

// AggKind enumerates aggregate functions. Avg is expressed in plans as
// Sum/Sum of partials followed by a projection, so the kernel only needs
// the decomposable aggregates.
type AggKind uint8

// Aggregate kinds.
const (
	AggSum AggKind = iota
	AggCount
	AggCountStar
	AggMin
	AggMax
)

func (k AggKind) String() string {
	switch k {
	case AggSum:
		return "sum"
	case AggCount:
		return "count"
	case AggCountStar:
		return "count(*)"
	case AggMin:
		return "min"
	case AggMax:
		return "max"
	}
	return "?"
}

// AggExpr is one aggregate output: Kind applied to Of (ignored for
// count(*)), emitted under Name.
type AggExpr struct {
	Name string
	Kind AggKind
	Of   expr.Expr
}

// Sum returns sum(e) as name.
func Sum(name string, e expr.Expr) AggExpr { return AggExpr{name, AggSum, e} }

// Count returns count(e) as name.
func Count(name string, e expr.Expr) AggExpr { return AggExpr{name, AggCount, e} }

// CountStar returns count(*) as name.
func CountStar(name string) AggExpr { return AggExpr{Name: name, Kind: AggCountStar} }

// Min returns min(e) as name.
func Min(name string, e expr.Expr) AggExpr { return AggExpr{name, AggMin, e} }

// Max returns max(e) as name.
func Max(name string, e expr.Expr) AggExpr { return AggExpr{name, AggMax, e} }

// aggState holds the running value of one aggregate for one group.
type aggState struct {
	f     float64 // sum, or min/max for numeric
	i     int64   // counts; min/max for ints
	s     string  // min/max for strings
	seen  bool
	isInt bool
	isStr bool
}

// aggStateSize approximates one aggState's footprint for StateBytes;
// carried over from the map-based implementation's accounting.
const aggStateSize = 24

// HashAgg is a hash aggregation grouped by the GroupBy columns. With an
// empty GroupBy it computes a single global group and always emits exactly
// one row. The group table is the channel's state variable.
//
// Groups live in an arena-backed open-addressing table (batch.HashTable):
// the encoded key bytes sit contiguously in the arena, the table maps a
// row's cached 64-bit hash (shared with the partition router) to a dense
// group index, and all per-group state is held in flat slices indexed by
// it — group key values in columnar keyCols, aggregate states in a single
// strided states slice. The update loop allocates nothing per row.
type HashAgg struct {
	GroupBy []string
	Aggs    []AggExpr

	// Partial marks the operator as the upstream half of a partial/final
	// aggregation pair: a global (no-key) partial that never consumed a
	// row finalizes to NOTHING instead of the one default row, so empty
	// producer channels cannot inject spurious zero states (typed by an
	// unseen aggState as Float64) into the final merge. The final stage
	// keeps the default row, preserving SQL's one-row global aggregate
	// over empty input.
	Partial bool

	// DefaultTypes, when set, types aggregate outputs whose state never
	// saw a row (the empty-input global default row) — the planner knows
	// the static output type, where an unseen aggState can only guess
	// Float64. States that consumed data keep their data-derived type.
	DefaultTypes []batch.Type

	table      *batch.HashTable
	states     []aggState      // len = groups * len(Aggs), strided per group
	keyCols    []*batch.Column // group key values, one row per group
	stateBytes int64
	keySchema  *batch.Schema

	// Per-batch scratch, reused across Consume calls.
	srcSchema   *batch.Schema // cache key for keyIdx resolution
	keyIdx      []int
	inputs      []*batch.Column
	keyScratch  []byte
	hashScratch []uint64

	// Out-of-core state (see spill.go). sp is nil without a memory
	// budget; once spSpilled is set the frozen group states and all
	// subsequent raw input rows live in per-partition run files.
	sp        *spill.Op
	spSpilled bool
}

// NewHashAggSpec builds a Spec for a hash aggregation. The returned spec
// implements ParallelSpec; global aggregates (empty groupBy) always run
// serially, since every row belongs to the single group.
func NewHashAggSpec(groupBy []string, aggs ...AggExpr) Spec {
	return hashAggSpec{GroupBy: groupBy, Aggs: aggs}
}

// NewHashAggPartialSpec builds the upstream half of a partial/final
// aggregation pair: identical to NewHashAggSpec except that a global
// aggregate which consumed nothing emits nothing (see HashAgg.Partial).
func NewHashAggPartialSpec(groupBy []string, aggs ...AggExpr) Spec {
	return hashAggSpec{GroupBy: groupBy, Aggs: aggs, Partial: true}
}

// NewHashAggTypedSpec is NewHashAggSpec with planner-provided output
// types for the empty-input default row (see HashAgg.DefaultTypes).
// defaults[i] types aggs[i].
func NewHashAggTypedSpec(groupBy []string, defaults []batch.Type, aggs ...AggExpr) Spec {
	return hashAggSpec{GroupBy: groupBy, Aggs: aggs, Defaults: defaults}
}

// hashAggSpec instantiates HashAgg operators, serial or partitioned.
// Fields are exported so process mode can gob-serialize plans.
type hashAggSpec struct {
	GroupBy  []string
	Aggs     []AggExpr
	Partial  bool
	Defaults []batch.Type
}

// Name implements Spec.
func (s hashAggSpec) Name() string {
	return fmt.Sprintf("agg[by %v, %d aggs]", s.GroupBy, len(s.Aggs))
}

// New implements Spec.
func (s hashAggSpec) New(_, _ int) Operator {
	return &HashAgg{GroupBy: s.GroupBy, Aggs: s.Aggs, Partial: s.Partial, DefaultTypes: s.Defaults}
}

// NewParallel implements ParallelSpec.
func (s hashAggSpec) NewParallel(channel, channels, partitions int, pool *Pool) Operator {
	if partitions <= 1 || len(s.GroupBy) == 0 {
		return s.New(channel, channels)
	}
	parts := make([]*HashAgg, partitions)
	for p := range parts {
		parts[p] = &HashAgg{GroupBy: s.GroupBy, Aggs: s.Aggs}
	}
	return &parallelAgg{groupBy: s.GroupBy, aggs: s.Aggs, parts: parts, pool: pool}
}

// resolveKeys caches the GroupBy column resolution; recomputed only when
// the input schema actually changes (it is fixed for a channel's stream).
// Batches arriving over a shuffle are decoded with a fresh Schema value
// each, so a pointer miss falls back to a cheap field-equality check
// before re-resolving.
func (a *HashAgg) resolveKeys(s *batch.Schema) error {
	if a.keyIdx != nil && (a.srcSchema == s || a.srcSchema.Equal(s)) {
		a.srcSchema = s
		return nil
	}
	keyIdx, err := keyIndexes(s, a.GroupBy)
	if err != nil {
		return err
	}
	a.keyIdx = keyIdx
	a.srcSchema = s
	if a.keySchema == nil {
		fields := make([]batch.Field, len(keyIdx))
		for i, ci := range keyIdx {
			fields[i] = s.Fields[ci]
		}
		a.keySchema = batch.NewSchema(fields...)
		a.keyCols = make([]*batch.Column, len(fields))
		for i, f := range fields {
			a.keyCols[i] = batch.NewColumn(f.Type, 0)
		}
	}
	return nil
}

// Consume implements Operator. The serial path computes key hashes in one
// vectorized pass; the partition router supplies them via consumeHashed.
func (a *HashAgg) Consume(_ int, b *batch.Batch) ([]*batch.Batch, error) {
	return a.consumeHashed(0, b, nil)
}

// consumeHashed is Consume with optional precomputed key hashes aligned
// with b's logical rows.
func (a *HashAgg) consumeHashed(_ int, b *batch.Batch, hashes []uint64) ([]*batch.Batch, error) {
	if a.table == nil {
		a.table = batch.NewHashTable(0)
	}
	if err := a.resolveKeys(b.Schema); err != nil {
		return nil, err
	}
	// Memory governance: global aggregates never spill (their state is one
	// row); grouped aggregation spills when the worst-case growth of this
	// batch would not fit the worker's budget.
	if a.sp != nil && len(a.GroupBy) > 0 {
		if a.spSpilled {
			return nil, a.spillConsume(b, hashes)
		}
		if !a.sp.Reserve(spillAggBatchEst(b, len(a.Aggs))) {
			if err := a.spillState(); err != nil {
				return nil, err
			}
			return nil, a.spillConsume(b, hashes)
		}
	}
	// Evaluate aggregate input expressions once per batch, into a reused
	// scratch slice. Expressions see the physical batch; rows are
	// addressed through the selection vector below.
	if cap(a.inputs) < len(a.Aggs) {
		a.inputs = make([]*batch.Column, len(a.Aggs))
	}
	inputs := a.inputs[:len(a.Aggs)]
	phys := b.Phys()
	for i, ag := range a.Aggs {
		inputs[i] = nil
		if ag.Kind == AggCountStar {
			continue
		}
		c, err := ag.Of.Eval(phys)
		if err != nil {
			return nil, fmt.Errorf("ops: agg %q: %w", ag.Name, err)
		}
		inputs[i] = c
	}
	if hashes == nil {
		a.hashScratch = batch.HashKeys(a.hashScratch, b, a.keyIdx)
		hashes = a.hashScratch
	}
	n := b.NumRows()
	sel := b.Sel
	nAggs := len(a.Aggs)
	key := a.keyScratch
	for i := 0; i < n; i++ {
		r := i
		if sel != nil {
			r = int(sel[i])
		}
		key = batch.AppendKey(key[:0], b, a.keyIdx, r)
		g, isNew := a.table.InsertKey(hashes[i], key)
		if isNew {
			for c, ci := range a.keyIdx {
				a.keyCols[c].AppendFrom(b.Cols[ci], r)
			}
			for k := 0; k < nAggs; k++ {
				a.states = append(a.states, aggState{})
			}
			a.stateBytes += int64(nAggs)*aggStateSize + keyColRowBytes(b, a.keyIdx, r)
		}
		st := a.states[g*nAggs : (g+1)*nAggs]
		for k := 0; k < nAggs; k++ {
			updateAgg(&st[k], a.Aggs[k].Kind, inputs[k], r)
		}
	}
	a.keyScratch = key
	// Release the evaluated input columns: the scratch slice keeps its
	// capacity, but holding the pointers would pin the batch's column
	// payloads until the next Consume.
	for i := range inputs {
		inputs[i] = nil
	}
	if a.sp != nil && len(a.GroupBy) > 0 {
		a.sp.SyncTo(a.StateBytes()) // settle the worst-case estimate
	}
	return nil, nil
}

func updateAgg(st *aggState, kind AggKind, in *batch.Column, r int) {
	switch kind {
	case AggCountStar:
		st.i++
		return
	case AggCount:
		st.i++
		return
	}
	switch in.Type {
	case batch.Int64, batch.Date:
		v := in.Ints[r]
		switch kind {
		case AggSum:
			st.i += v
			st.isInt = true
		case AggMin:
			if !st.seen || v < st.i {
				st.i = v
			}
			st.isInt = true
		case AggMax:
			if !st.seen || v > st.i {
				st.i = v
			}
			st.isInt = true
		}
	case batch.Float64:
		v := in.Floats[r]
		switch kind {
		case AggSum:
			st.f += v
		case AggMin:
			if !st.seen || v < st.f {
				st.f = v
			}
		case AggMax:
			if !st.seen || v > st.f {
				st.f = v
			}
		}
	case batch.String:
		v := in.Strings[r]
		st.isStr = true
		switch kind {
		case AggMin:
			if !st.seen || v < st.s {
				st.s = v
			}
		case AggMax:
			if !st.seen || v > st.s {
				st.s = v
			}
		default:
			// sum over strings is a plan bug; keep zero.
		}
	}
	st.seen = true
}

// aggOutType decides the output column type of an aggregate from its state.
func aggOutType(kind AggKind, st *aggState) batch.Type {
	switch kind {
	case AggCount, AggCountStar:
		return batch.Int64
	}
	if st.isStr {
		return batch.String
	}
	if st.isInt {
		return batch.Int64
	}
	return batch.Float64
}

// sortedGroups returns group indexes ordered by their encoded key bytes —
// the deterministic output order (identical to the former map-based
// implementation's sort over encoded-key strings). Keys are compared by an
// 8-byte prefix first, and in full only where the prefixes tie.
func (a *HashAgg) sortedGroups() []int {
	type group struct {
		prefix uint64
		g      int
	}
	groups := make([]group, a.table.Len())
	for g := range groups {
		groups[g] = group{keyPrefix(a.table.Key(g)), g}
	}
	slices.SortFunc(groups, func(x, y group) int {
		if c := cmp.Compare(x.prefix, y.prefix); c != 0 {
			return c
		}
		return bytes.Compare(a.table.Key(x.g), a.table.Key(y.g))
	})
	order := make([]int, len(groups))
	for i, gr := range groups {
		order[i] = gr.g
	}
	return order
}

// keyPrefix is k's first eight bytes, zero-padded, as a big-endian number:
// where two keys' prefixes differ, they order as bytes.Compare orders the
// keys (a shorter key pads with zeros, which never sort above a byte).
func keyPrefix(k []byte) uint64 {
	var b [8]byte
	copy(b[:], k)
	return binary.BigEndian.Uint64(b[:])
}

// Finalize implements Operator. It emits one row per group, sorted by the
// group key encoding so output is deterministic regardless of input order
// interleaving across batches with equal multiset content.
func (a *HashAgg) Finalize() ([]*batch.Batch, error) {
	if a.spSpilled {
		return a.finalizeSpilled()
	}
	if len(a.GroupBy) == 0 && a.table == nil {
		if a.Partial {
			// A partial global aggregate that saw no rows contributes
			// nothing; the final stage owns the empty-input default row.
			return nil, nil
		}
		// Global aggregate with Consume never called: exactly one default
		// row. (A global aggregate that consumed only zero-row batches
		// emits nothing — a nil vs empty distinction preserved from the
		// map-based implementation, whose byte-identical replay the
		// recovery tests pin.)
		a.table = batch.NewHashTable(0)
		a.table.InsertKey(batch.HashKey(nil), nil)
		a.states = make([]aggState, len(a.Aggs))
		a.keySchema = batch.NewSchema()
		a.keyCols = nil
	}
	if a.table == nil || a.table.Len() == 0 {
		return nil, nil
	}
	order := a.sortedGroups()
	nAggs := len(a.Aggs)

	first := a.states[order[0]*nAggs : (order[0]+1)*nAggs]
	fields := append([]batch.Field(nil), a.keySchema.Fields...)
	for i, ag := range a.Aggs {
		t := aggOutType(ag.Kind, &first[i])
		if !first[i].seen && i < len(a.DefaultTypes) {
			t = a.DefaultTypes[i]
		}
		fields = append(fields, batch.Field{Name: ag.Name, Type: t})
	}
	schema := batch.NewSchema(fields...)
	bl := batch.NewBuilder(schema, len(order))
	nk := a.keySchema.Len()
	for _, g := range order {
		for c := 0; c < nk; c++ {
			bl.Col(c).AppendFrom(a.keyCols[c], g)
		}
		st := a.states[g*nAggs : (g+1)*nAggs]
		for i := 0; i < nAggs; i++ {
			col := bl.Col(nk + i)
			switch col.Type {
			case batch.Int64:
				col.Ints = append(col.Ints, st[i].i)
			case batch.Float64:
				col.Floats = append(col.Floats, st[i].f)
			case batch.String:
				col.Strings = append(col.Strings, st[i].s)
			}
		}
	}
	return single(bl.Build()), nil
}

// keyColRowBytes is the columnar footprint of row r's key values
// (Column.ValueBytes accounting). The encoded key bytes themselves live
// in the hash table's arena and are counted by table.Bytes(), not here.
func keyColRowBytes(b *batch.Batch, keyIdx []int, r int) int64 {
	var n int64
	for _, ci := range keyIdx {
		n += b.Cols[ci].ValueBytes(r)
	}
	return n
}

// StateBytes implements Snapshotter: the aggregate states and group-key
// column payload plus the hash table (key arena, hash cache, slots).
func (a *HashAgg) StateBytes() int64 {
	n := a.stateBytes
	if a.table != nil {
		n += a.table.Bytes()
	}
	return n
}

// Snapshot implements Snapshotter by serializing groups as a batch of key
// columns plus per-aggregate state columns, in group insertion order.
// Spilled state cannot snapshot; the engine skips the checkpoint and
// relies on lineage replay.
func (a *HashAgg) Snapshot() ([]byte, error) {
	if a.spSpilled {
		return nil, errSpilled
	}
	if a.table == nil || a.table.Len() == 0 {
		return nil, nil
	}
	return batch.Encode(a.snapshotBatch()), nil
}

// snapshotBatch builds the snapshot batch: group keys plus the exact
// per-aggregate state columns, in group insertion order. Also the freeze
// format of spillState (floats round-trip bit-exactly via the codec's
// Float64bits encoding).
func (a *HashAgg) snapshotBatch() *batch.Batch {
	groups := a.table.Len()
	nAggs := len(a.Aggs)
	fields := append([]batch.Field(nil), a.keySchema.Fields...)
	for i := range a.Aggs {
		fields = append(fields,
			batch.F(fmt.Sprintf("__f%d", i), batch.Float64),
			batch.F(fmt.Sprintf("__i%d", i), batch.Int64),
			batch.F(fmt.Sprintf("__s%d", i), batch.String),
			batch.F(fmt.Sprintf("__b%d", i), batch.Bool),
			batch.F(fmt.Sprintf("__n%d", i), batch.Bool),
			batch.F(fmt.Sprintf("__t%d", i), batch.Bool),
		)
	}
	schema := batch.NewSchema(fields...)
	bl := batch.NewBuilder(schema, groups)
	nk := a.keySchema.Len()
	for g := 0; g < groups; g++ {
		for c := 0; c < nk; c++ {
			bl.Col(c).AppendFrom(a.keyCols[c], g)
		}
		st := a.states[g*nAggs : (g+1)*nAggs]
		for i := 0; i < nAggs; i++ {
			base := nk + i*6
			bl.Col(base).Floats = append(bl.Col(base).Floats, st[i].f)
			bl.Col(base + 1).Ints = append(bl.Col(base+1).Ints, st[i].i)
			bl.Col(base + 2).Strings = append(bl.Col(base+2).Strings, st[i].s)
			bl.Col(base + 3).Bools = append(bl.Col(base+3).Bools, st[i].seen)
			bl.Col(base + 4).Bools = append(bl.Col(base+4).Bools, st[i].isInt)
			bl.Col(base + 5).Bools = append(bl.Col(base+5).Bools, st[i].isStr)
		}
	}
	return bl.Build()
}

// Restore implements Snapshotter.
func (a *HashAgg) Restore(data []byte) error {
	a.table = batch.NewHashTable(0)
	a.states = nil
	a.keyCols = nil
	a.stateBytes = 0
	a.keySchema = nil
	a.srcSchema = nil
	a.keyIdx = nil
	a.DropSpill() // restored state starts in memory; may spill again
	a.spSpilled = false
	if len(data) == 0 {
		a.table = nil
		return nil
	}
	b, err := batch.Decode(data)
	if err != nil {
		return err
	}
	return a.restoreFromBatch(b)
}

// restoreFromBatch re-inserts snapshotted groups into the (fresh) table.
// Shared by checkpoint Restore and the spilled-partition replay, which
// feeds one partition's State run before its Raw runs.
func (a *HashAgg) restoreFromBatch(b *batch.Batch) error {
	if a.table == nil {
		a.table = batch.NewHashTable(0)
	}
	// Deliberately not pre-sized by row count: re-inserting group keys in
	// insertion order replays the original table's growth trajectory, so
	// the restored directory (and StateBytes) matches the snapshotted
	// operator exactly.
	nAggs := len(a.Aggs)
	nk := b.Schema.Len() - nAggs*6
	if nk < 0 {
		return fmt.Errorf("ops: agg snapshot has %d columns for %d aggs", b.Schema.Len(), len(a.Aggs))
	}
	a.keySchema = batch.NewSchema(b.Schema.Fields[:nk]...)
	a.keyCols = make([]*batch.Column, nk)
	keyIdx := make([]int, nk)
	for i := range keyIdx {
		keyIdx[i] = i
		a.keyCols[i] = batch.NewColumn(b.Schema.Fields[i].Type, b.NumRows())
	}
	n := b.NumRows()
	hashes := batch.HashKeys(nil, b, keyIdx)
	var key []byte
	for r := 0; r < n; r++ {
		key = batch.AppendKey(key[:0], b, keyIdx, r)
		g, isNew := a.table.InsertKey(hashes[r], key)
		if !isNew || g != r {
			return fmt.Errorf("ops: agg snapshot has duplicate group key at row %d", r)
		}
		for c := 0; c < nk; c++ {
			a.keyCols[c].AppendFrom(b.Cols[c], r)
		}
		for i := 0; i < nAggs; i++ {
			base := nk + i*6
			a.states = append(a.states, aggState{
				f:     b.Cols[base].Floats[r],
				i:     b.Cols[base+1].Ints[r],
				s:     b.Cols[base+2].Strings[r],
				seen:  b.Cols[base+3].Bools[r],
				isInt: b.Cols[base+4].Bools[r],
				isStr: b.Cols[base+5].Bools[r],
			})
		}
		a.stateBytes += int64(nAggs)*aggStateSize + keyColRowBytes(b, keyIdx, r)
	}
	if a.sp != nil && len(a.GroupBy) > 0 {
		// Restored state must be resident before replay continues; force
		// the accounting (it reflects what is genuinely in memory).
		a.sp.SyncTo(a.StateBytes())
	}
	return nil
}
