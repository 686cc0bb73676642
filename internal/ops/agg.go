package ops

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
	"sync"

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

// CountStar returns count(*) as name.
func CountStar(name string) AggExpr { return AggExpr{Name: name, Kind: AggCountStar} }

// Min returns min(e) as name.
func Min(name string, e expr.Expr) AggExpr { return AggExpr{name, AggMin, e} }

// Max returns max(e) as name.
func Max(name string, e expr.Expr) AggExpr { return AggExpr{name, AggMax, e} }

// Bits of a state's flags byte: the state consumed a row (count and
// count(*) never set it), and its input was Int64/Date, or String.
const (
	stSeen uint8 = 1 << iota
	stInt
	stStr
)

// snapshotFlags are the flag bits a snapshot's __b, __n and __t columns
// carry, in that order.
var snapshotFlags = [3]uint8{stSeen, stInt, stStr}

// aggStateSize approximates one aggregate state's footprint for
// StateBytes; carried over from the map-based implementation's accounting.
const aggStateSize = 24

// HashAgg is a hash aggregation grouped by the GroupBy columns. With an
// empty GroupBy it computes a single global group and always emits exactly
// one row. The group table is the channel's state variable.
//
// Groups live in an arena-backed open-addressing table (batch.HashTable):
// the encoded key bytes sit contiguously in the arena, and the table maps a
// row's 64-bit key hash (batch.HashKeys, computed once per batch) to a dense
// group index g. Everything else about a group sits in flat slices indexed
// by g: its key values in columnar keyCols, and aggregate k's running
// state at g*len(Aggs)+k of a struct of arrays — floats, ints and a flags
// byte always, strs only once some aggregate's input is a String column.
// Apart from strs no state slice holds a pointer for the GC to scan, and
// each grows by doubling, once per batch. A batch is consumed in two
// passes: the first maps every row to its group, the second folds each
// aggregate's input column into its groups' states. Neither allocates per
// row.
type HashAgg struct {
	GroupBy []string
	Aggs    []AggExpr

	// Partial marks the operator as the upstream half of a partial/final
	// aggregation pair: a global (no-key) partial that never consumed a
	// row finalizes to NOTHING instead of the one default row, so empty
	// producer channels cannot inject spurious zero states (typed by an
	// unseen state as Float64) into the final merge. The final stage
	// keeps the default row, preserving SQL's one-row global aggregate
	// over empty input. A keyed partial forwards, rather than aggregates,
	// a batch whose keys are mostly distinct (Consume).
	Partial bool

	// DefaultTypes, when set, types aggregate outputs whose state never
	// saw a row (the empty-input global default row) — the planner knows
	// the static output type, where an unseen state can only guess
	// Float64. States that consumed data keep their data-derived type.
	DefaultTypes []batch.Type

	table      *batch.HashTable
	floats     []float64       // sum, min or max of a Float64 input
	ints       []int64         // counts; sum, min or max of an Int64/Date input
	flags      []uint8         // stSeen | stInt | stStr
	strs       []string        // min or max of a String input; nil until one arrives
	keyCols    []*batch.Column // group key values, one row per group
	stateBytes int64
	keySchema  *batch.Schema

	// Per-batch scratch, reused across Consume calls.
	srcSchema    *batch.Schema // cache key for keyIdx resolution
	keyIdx       []int
	inputs       []*batch.Column
	keyScratch   []byte
	hashScratch  []uint64
	groupScratch []int32 // each row's group index

	// Out-of-core state (see spill.go). sp is nil without a memory
	// budget; once spSpilled is set the frozen group states and all
	// subsequent raw input rows live in per-partition run files.
	sp        *spill.Op
	spSpilled bool
}

// NewHashAggSpec builds a Spec for a hash aggregation.
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

// hashAggSpec instantiates HashAgg operators.
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

// Consume implements Operator. Key hashes are computed in one vectorized
// pass. A keyed partial aggregate forwards a batch that would not reduce
// (see forwardStates) instead of aggregating it.
func (a *HashAgg) Consume(_ int, b *batch.Batch) ([]*batch.Batch, error) {
	if !a.Partial || len(a.GroupBy) == 0 {
		return nil, a.consumeHashed(b, nil)
	}
	if err := a.resolveKeys(b.Schema); err != nil {
		return nil, err
	}
	a.hashScratch = batch.HashKeys(a.hashScratch, b, a.keyIdx)
	if distinctOverHalf(a.hashScratch) {
		return forwardStates(b, a.keyIdx, a.Aggs)
	}
	return nil, a.consumeHashed(b, a.hashScratch)
}

// hashSets recycles the sets distinctOverHalf counts in.
var hashSets = sync.Pool{New: func() any { return new([]uint64) }}

// distinctOverHalf reports whether more than half of a batch's key hashes
// are distinct: whether a partial aggregate forwards the batch. It reads
// nothing but the hashes, so the choice is a pure function of the consumed
// batch — the same under replay, spilled or not, and
// after a Restore, with no state to snapshot — and it stops counting as
// soon as the answer is certain.
func distinctOverHalf(hashes []uint64) bool {
	n := len(hashes)
	if n == 0 {
		return false
	}
	logSize := bits.Len(uint(n - 1)) // at least n slots; counting stops by n/2+1 entries
	sp := hashSets.Get().(*[]uint64)
	defer hashSets.Put(sp)
	set := extend((*sp)[:0], 1<<logSize)
	*sp = set
	mask := uint64(len(set) - 1)
	distinct, sawZero := 0, false // 0 marks an empty slot, so hash 0 is counted aside
	for i, h := range hashes {
		if h == 0 {
			if !sawZero {
				sawZero, distinct = true, distinct+1
			}
		} else {
			for j := h >> (64 - logSize); ; j = (j + 1) & mask { // home slot: the hash's top bits
				if set[j] == h {
					break
				}
				if set[j] == 0 {
					set[j], distinct = h, distinct+1
					break
				}
			}
		}
		if 2*distinct > n {
			return true
		}
		if dupes := i + 1 - distinct; 2*(n-dupes) <= n {
			return false
		}
	}
	return false
}

// forwardStates emits every row of b as a one-row partial state, in row
// order: the key columns, then per aggregate 1 for count and count(*) and
// the input value for sum, min and max, typed as Finalize types a state
// (aggOutType: a Date input becomes Int64; a sum over strings is ""). A
// partial aggregate forwards a batch whose keys are mostly distinct, since
// aggregating it would emit nearly as many rows after hashing every row
// into the table; the final aggregate merges the forwarded states as it
// merges finalized ones, so the schema is Finalize's. Columns b holds
// without a selection are shared, not copied.
func forwardStates(b *batch.Batch, keyIdx []int, aggs []AggExpr) ([]*batch.Batch, error) {
	n := b.NumRows()
	if n == 0 {
		return nil, nil
	}
	view := func(c *batch.Column) *batch.Column {
		if b.Sel != nil {
			return c.GatherI32(b.Sel)
		}
		return c
	}
	fields := make([]batch.Field, 0, len(keyIdx)+len(aggs))
	cols := make([]*batch.Column, 0, len(keyIdx)+len(aggs))
	for _, ci := range keyIdx {
		fields = append(fields, b.Schema.Fields[ci])
		cols = append(cols, view(b.Cols[ci]))
	}
	phys := b.Phys()
	for _, ag := range aggs {
		var col *batch.Column
		if ag.Kind == AggCount || ag.Kind == AggCountStar {
			ones := make([]int64, n)
			for i := range ones {
				ones[i] = 1
			}
			col = batch.NewIntColumn(ones)
		} else {
			in, err := ag.Of.Eval(phys)
			if err != nil {
				return nil, fmt.Errorf("ops: agg %q: %w", ag.Name, err)
			}
			switch in = view(in); {
			case in.Type == batch.Date:
				col = batch.NewIntColumn(in.Ints)
			case in.Type == batch.String && ag.Kind == AggSum:
				col = batch.NewStringColumn(make([]string, n))
			default:
				col = in
			}
		}
		fields = append(fields, batch.Field{Name: ag.Name, Type: col.Type})
		cols = append(cols, col)
	}
	return single(batch.MustNew(batch.NewSchema(fields...), cols)), nil
}

// consumeHashed aggregates b, given its key hashes aligned with its logical
// rows or nil to compute them.
func (a *HashAgg) consumeHashed(b *batch.Batch, hashes []uint64) error {
	if a.table == nil {
		a.table = batch.NewHashTable(0)
	}
	if err := a.resolveKeys(b.Schema); err != nil {
		return err
	}
	// Memory governance: global aggregates never spill (their state is one
	// row); grouped aggregation spills when the worst-case growth of this
	// batch would not fit the worker's budget.
	if a.sp != nil && len(a.GroupBy) > 0 {
		if a.spSpilled {
			return a.spillConsume(b, hashes)
		}
		if !a.sp.Reserve(spillAggBatchEst(b, len(a.Aggs))) {
			if err := a.spillState(); err != nil {
				return err
			}
			return a.spillConsume(b, hashes)
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
			return fmt.Errorf("ops: agg %q: %w", ag.Name, err)
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
	if cap(a.groupScratch) < n {
		a.groupScratch = make([]int32, n)
	}
	groups := a.groupScratch[:n]
	key := a.keyScratch
	for i := range groups {
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
			a.stateBytes += int64(nAggs)*aggStateSize + keyColRowBytes(b, a.keyIdx, r)
		}
		groups[i] = int32(g)
	}
	a.keyScratch = key
	a.growStates(slices.ContainsFunc(inputs, func(c *batch.Column) bool { return c != nil && c.Type == batch.String }))
	for k, ag := range a.Aggs {
		a.updateAgg(k, ag.Kind, inputs[k], groups, sel)
	}
	// Release the evaluated input columns: the scratch slice keeps its
	// capacity, but holding the pointers would pin the batch's column
	// payloads until the next Consume.
	for i := range inputs {
		inputs[i] = nil
	}
	if a.sp != nil && len(a.GroupBy) > 0 {
		a.sp.SyncTo(a.StateBytes()) // settle the worst-case estimate
	}
	return nil
}

// growStates lengthens the state slices to one state per aggregate of
// every group in the table, allocating strs once withStrs says some
// aggregate's input is a String column.
func (a *HashAgg) growStates(withStrs bool) {
	n := a.table.Len() * len(a.Aggs)
	if a.strs == nil && withStrs {
		a.strs = make([]string, len(a.flags), cap(a.flags))
	}
	a.floats, a.ints, a.flags = extend(a.floats, n), extend(a.ints, n), extend(a.flags, n)
	if a.strs != nil {
		a.strs = extend(a.strs, n)
	}
}

// extend returns s lengthened with zero values to n, doubling its capacity
// whenever it has to grow: append alone grows a large slice by 1.25x,
// copying and clearing all of it each time.
func extend[T any](s []T, n int) []T {
	if n <= len(s) {
		return s
	}
	if n > cap(s) {
		grown := make([]T, len(s), max(n, 2*cap(s)))
		copy(grown, s)
		s = grown
	}
	old := len(s)
	s = s[:n]
	clear(s[old:])
	return s
}

// updateAgg folds aggregate k's input column into the states of the groups
// the batch's rows belong to: logical row i — physical row sel[i], or i
// without a selection — is in group groups[i]. Rows fold in batch order,
// so each group's float sum adds in arrival order.
func (a *HashAgg) updateAgg(k int, kind AggKind, in *batch.Column, groups, sel []int32) {
	nAggs := len(a.Aggs)
	if kind == AggCount || kind == AggCountStar {
		for _, g := range groups {
			a.ints[int(g)*nAggs+k]++
		}
		return
	}
	for i, g := range groups {
		r := i
		if sel != nil {
			r = int(sel[i])
		}
		j := int(g)*nAggs + k
		switch in.Type {
		case batch.Int64, batch.Date:
			fold(a.ints, a.flags, j, kind, in.Ints[r])
			a.flags[j] |= stInt
		case batch.Float64:
			fold(a.floats, a.flags, j, kind, in.Floats[r])
		case batch.String:
			if kind != AggSum { // sum over strings is a plan bug; keep zero.
				fold(a.strs, a.flags, j, kind, in.Strings[r])
			}
			a.flags[j] |= stStr
		}
		a.flags[j] |= stSeen
	}
}

// fold applies v to state j of an aggregate of kind sum, min or max.
func fold[T int64 | float64 | string](st []T, flags []uint8, j int, kind AggKind, v T) {
	switch {
	case kind == AggSum:
		st[j] += v
	case flags[j]&stSeen == 0, kind == AggMin && v < st[j], kind == AggMax && v > st[j]:
		st[j] = v
	}
}

// aggOutType decides the output column type of an aggregate from its
// state's flags.
func aggOutType(kind AggKind, flags uint8) batch.Type {
	switch kind {
	case AggCount, AggCountStar:
		return batch.Int64
	}
	if flags&stStr != 0 {
		return batch.String
	}
	if flags&stInt != 0 {
		return batch.Int64
	}
	return batch.Float64
}

// radixMinGroups is the group count from which sortedGroups counting-sorts
// by key prefix; below it a comparison sort is cheaper.
const radixMinGroups = 256

// sortedGroups returns group indexes ordered by their encoded key bytes —
// the deterministic output order (identical to the former map-based
// implementation's sort over encoded-key strings). Keys order by an 8-byte
// prefix first, and in full only where the prefixes tie. From
// radixMinGroups groups on, the prefix order comes from a stable LSD
// counting pass per prefix byte, skipping the bytes every group shares;
// each run of equal prefixes is then sorted by its full keys.
func (a *HashAgg) sortedGroups() []int {
	type group struct {
		prefix uint64
		g      int
	}
	groups := make([]group, a.table.Len())
	var varies uint64 // the prefix bits on which some two groups differ
	for g := range groups {
		groups[g] = group{keyPrefix(a.table.Key(g)), g}
		varies |= groups[g].prefix ^ groups[0].prefix
	}
	byKey := func(x, y group) int {
		if c := cmp.Compare(x.prefix, y.prefix); c != 0 {
			return c
		}
		return bytes.Compare(a.table.Key(x.g), a.table.Key(y.g))
	}
	if len(groups) < radixMinGroups {
		slices.SortFunc(groups, byKey)
	} else {
		var tmp []group
		for shift := 0; shift < 64; shift += 8 {
			if varies>>shift&0xff == 0 {
				continue // every group has this byte
			}
			if tmp == nil {
				tmp = make([]group, len(groups))
			}
			var offs [256]int
			for _, gr := range groups {
				offs[byte(gr.prefix>>shift)]++
			}
			sum := 0
			for i, c := range offs {
				offs[i], sum = sum, sum+c
			}
			for _, gr := range groups {
				d := byte(gr.prefix >> shift)
				tmp[offs[d]] = gr
				offs[d]++
			}
			groups, tmp = tmp, groups
		}
		for i := 0; i < len(groups); {
			j := i + 1
			for j < len(groups) && groups[j].prefix == groups[i].prefix {
				j++
			}
			if j-i > 1 {
				slices.SortFunc(groups[i:j], byKey)
			}
			i = j
		}
	}
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
		// row, its states unseen. (A global aggregate that consumed only
		// zero-row batches emits nothing — a nil vs empty distinction
		// preserved from the map-based implementation, whose
		// byte-identical replay the recovery tests pin.)
		a.table = batch.NewHashTable(0)
		a.table.InsertKey(batch.HashKey(nil), nil)
		a.growStates(false)
		a.keySchema = batch.NewSchema()
		a.keyCols = nil
	}
	if a.table == nil || a.table.Len() == 0 {
		return nil, nil
	}
	order := a.sortedGroups()
	nAggs := len(a.Aggs)

	first := order[0] * nAggs
	fields := append([]batch.Field(nil), a.keySchema.Fields...)
	for i, ag := range a.Aggs {
		t := aggOutType(ag.Kind, a.flags[first+i])
		if a.flags[first+i]&stSeen == 0 && i < len(a.DefaultTypes) {
			t = a.DefaultTypes[i]
		}
		fields = append(fields, batch.Field{Name: ag.Name, Type: t})
	}
	cols := make([]*batch.Column, 0, len(fields))
	for _, c := range a.keyCols {
		cols = append(cols, c.Gather(order))
	}
	for k := range a.Aggs {
		cols = append(cols, a.aggColumn(k, fields[len(a.keyCols)+k].Type, order))
	}
	return single(batch.MustNew(batch.NewSchema(fields...), cols)), nil
}

// aggColumn gathers aggregate k's state of each of groups, in that order,
// into a column of type t: Int64 reads ints, Float64 floats, String strs
// ("" where no input was ever a String column).
func (a *HashAgg) aggColumn(k int, t batch.Type, groups []int) *batch.Column {
	col := batch.NewColumn(t, len(groups))
	for _, g := range groups {
		j := g*len(a.Aggs) + k
		switch t {
		case batch.Int64:
			col.Ints = append(col.Ints, a.ints[j])
		case batch.Float64:
			col.Floats = append(col.Floats, a.floats[j])
		case batch.String:
			if a.strs == nil {
				col.Strings = append(col.Strings, "")
			} else {
				col.Strings = append(col.Strings, a.strs[j])
			}
		}
	}
	return col
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

// snapshotBatch builds the snapshot batch: group keys plus, per aggregate,
// its state's six columns __f (float), __i (int), __s (string), __b
// (seen), __n (int input) and __t (string input), in group insertion
// order. Also the freeze format of spillState (floats round-trip
// bit-exactly via the codec's Float64bits encoding).
func (a *HashAgg) snapshotBatch() *batch.Batch {
	groups := make([]int, a.table.Len())
	for g := range groups {
		groups[g] = g
	}
	fields := append([]batch.Field(nil), a.keySchema.Fields...)
	cols := append([]*batch.Column(nil), a.keyCols...) // encoded or gathered before the operator moves on
	for k := range a.Aggs {
		var flag [3][]bool
		for f, bit := range snapshotFlags {
			flag[f] = make([]bool, len(groups))
			for g := range groups {
				flag[f][g] = a.flags[g*len(a.Aggs)+k]&bit != 0
			}
		}
		fields = append(fields,
			batch.F(fmt.Sprintf("__f%d", k), batch.Float64),
			batch.F(fmt.Sprintf("__i%d", k), batch.Int64),
			batch.F(fmt.Sprintf("__s%d", k), batch.String),
			batch.F(fmt.Sprintf("__b%d", k), batch.Bool),
			batch.F(fmt.Sprintf("__n%d", k), batch.Bool),
			batch.F(fmt.Sprintf("__t%d", k), batch.Bool),
		)
		cols = append(cols,
			a.aggColumn(k, batch.Float64, groups), a.aggColumn(k, batch.Int64, groups), a.aggColumn(k, batch.String, groups),
			batch.NewBoolColumn(flag[0]), batch.NewBoolColumn(flag[1]), batch.NewBoolColumn(flag[2]))
	}
	return batch.MustNew(batch.NewSchema(fields...), cols)
}

// Restore implements Snapshotter.
func (a *HashAgg) Restore(data []byte) error {
	a.table = batch.NewHashTable(0)
	a.floats, a.ints, a.flags, a.strs = nil, nil, nil, nil
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
		a.stateBytes += int64(nAggs)*aggStateSize + keyColRowBytes(b, keyIdx, r)
	}
	withStrs := false
	for k := 0; k < nAggs; k++ {
		withStrs = withStrs || slices.ContainsFunc(b.Cols[nk+k*6+2].Strings, func(s string) bool { return s != "" })
	}
	a.growStates(withStrs)
	for k := 0; k < nAggs; k++ {
		st := b.Cols[nk+k*6 : nk+k*6+6]
		for r := 0; r < n; r++ {
			j := r*nAggs + k
			a.floats[j], a.ints[j] = st[0].Floats[r], st[1].Ints[r]
			if a.strs != nil {
				a.strs[j] = st[2].Strings[r]
			}
			for f, bit := range snapshotFlags {
				if st[3+f].Bools[r] {
					a.flags[j] |= bit
				}
			}
		}
	}
	if a.sp != nil && len(a.GroupBy) > 0 {
		// Restored state must be resident before replay continues; force
		// the accounting (it reflects what is genuinely in memory).
		a.sp.SyncTo(a.StateBytes())
	}
	return nil
}
