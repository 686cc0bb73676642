package batch

import (
	"fmt"
	"strings"
)

// Batch is an immutable columnar record batch: a schema plus one column per
// field, all of equal length. Batches are the engine's unit of data exchange.
// An operator must not write to an input batch or to an output it has
// returned: a same-worker consumer is handed its producer's output itself,
// while a replay decodes the bytes encoded from it.
//
// A batch may carry a selection vector: when Sel is non-nil, the batch
// logically contains the physical rows Sel[0], Sel[1], ... in that order,
// and NumRows reports len(Sel). Filters use this to defer row copying —
// a filter that keeps most rows hands downstream a view instead of
// gathering every column. Row-oriented accessors (Gather, Slice,
// SplitRows) operate on logical rows; consumers that need physical
// columns call Materialize, which happens automatically at batch
// boundaries (wire encode, concat, shuffle partitioning).
type Batch struct {
	Schema *Schema
	Cols   []*Column
	Sel    []int32
}

// WithSel returns a view of b restricted to the given physical row
// indexes. The selection slice is retained, not copied. b must not itself
// carry a selection (callers compose selections before calling).
func (b *Batch) WithSel(sel []int32) *Batch {
	if b.Sel != nil {
		panic("batch: WithSel on a batch that already has a selection")
	}
	return &Batch{Schema: b.Schema, Cols: b.Cols, Sel: sel}
}

// Phys returns the batch stripped of its selection vector: the same
// physical columns, all rows visible. Expressions evaluate over physical
// rows, so selection-aware operators evaluate on Phys() and address rows
// through Sel. Without a selection it returns b unchanged.
func (b *Batch) Phys() *Batch {
	if b.Sel == nil {
		return b
	}
	return &Batch{Schema: b.Schema, Cols: b.Cols}
}

// Materialize resolves the selection vector into freshly gathered columns.
// Without a selection it returns b unchanged.
func (b *Batch) Materialize() *Batch {
	if b.Sel == nil {
		return b
	}
	cols := make([]*Column, len(b.Cols))
	for i, c := range b.Cols {
		cols[i] = c.GatherI32(b.Sel)
	}
	return &Batch{Schema: b.Schema, Cols: cols}
}

// New creates a batch from a schema and columns. It validates that column
// count, types and lengths are consistent.
func New(schema *Schema, cols []*Column) (*Batch, error) {
	if len(cols) != schema.Len() {
		return nil, fmt.Errorf("batch: %d columns for schema of %d fields", len(cols), schema.Len())
	}
	n := -1
	for i, c := range cols {
		if err := c.validateType(schema.Fields[i].Type); err != nil {
			return nil, fmt.Errorf("batch: field %q: %w", schema.Fields[i].Name, err)
		}
		if n == -1 {
			n = c.Len()
		} else if c.Len() != n {
			return nil, fmt.Errorf("batch: field %q has %d rows, want %d", schema.Fields[i].Name, c.Len(), n)
		}
	}
	return &Batch{Schema: schema, Cols: cols}, nil
}

// MustNew is New but panics on error; for construction sites where
// inconsistency is a programming error.
func MustNew(schema *Schema, cols []*Column) *Batch {
	b, err := New(schema, cols)
	if err != nil {
		panic(err)
	}
	return b
}

// Empty returns a zero-row batch with the given schema.
func Empty(schema *Schema) *Batch {
	cols := make([]*Column, schema.Len())
	for i, f := range schema.Fields {
		cols[i] = NewColumn(f.Type, 0)
	}
	return &Batch{Schema: schema, Cols: cols}
}

// NumRows returns the number of logical rows in the batch.
func (b *Batch) NumRows() int {
	if b.Sel != nil {
		return len(b.Sel)
	}
	if len(b.Cols) == 0 {
		return 0
	}
	return b.Cols[0].Len()
}

// Col returns the column for the named field.
func (b *Batch) Col(name string) *Column { return b.Cols[b.Schema.MustIndex(name)] }

// ByteSize returns the approximate payload size of the batch's logical
// rows in bytes: a selection view reports the selected rows' payload
// (what materializing would copy), not the physical columns it happens to
// reference.
func (b *Batch) ByteSize() int64 {
	var n int64
	for _, c := range b.Cols {
		if b.Sel != nil {
			n += c.byteSizeSel(b.Sel)
		} else {
			n += c.ByteSize()
		}
	}
	return n
}

// Gather returns a new batch with the logical rows at the given indexes.
func (b *Batch) Gather(idx []int) *Batch {
	if b.Sel != nil {
		phys := make([]int, len(idx))
		for i, j := range idx {
			phys[i] = int(b.Sel[j])
		}
		idx = phys
	}
	cols := make([]*Column, len(b.Cols))
	for i, c := range b.Cols {
		cols[i] = c.Gather(idx)
	}
	return &Batch{Schema: b.Schema, Cols: cols}
}

// Slice returns a view of logical rows [lo, hi). The underlying arrays
// are shared.
func (b *Batch) Slice(lo, hi int) *Batch {
	if b.Sel != nil {
		return &Batch{Schema: b.Schema, Cols: b.Cols, Sel: b.Sel[lo:hi]}
	}
	cols := make([]*Column, len(b.Cols))
	for i, c := range b.Cols {
		cols[i] = c.Slice(lo, hi)
	}
	return &Batch{Schema: b.Schema, Cols: cols}
}

// Select returns a batch with only the named columns, in the given order.
func (b *Batch) Select(names ...string) *Batch {
	cols := make([]*Column, len(names))
	fields := make([]Field, len(names))
	for i, n := range names {
		j := b.Schema.MustIndex(n)
		cols[i] = b.Cols[j]
		fields[i] = b.Schema.Fields[j]
	}
	return &Batch{Schema: NewSchema(fields...), Cols: cols, Sel: b.Sel}
}

// Concat concatenates batches with identical schemas into one. A nil result
// with nil error means the input was empty. A single input batch is
// returned directly (materialized), without copying columns.
func Concat(batches []*Batch) (*Batch, error) {
	if len(batches) == 0 {
		return nil, nil
	}
	if len(batches) == 1 {
		return batches[0].Materialize(), nil
	}
	schema := batches[0].Schema
	total := 0
	phys := make([]*Batch, len(batches))
	for i, b := range batches {
		if !b.Schema.Equal(schema) {
			return nil, fmt.Errorf("batch: concat schema mismatch: %s vs %s", b.Schema, schema)
		}
		phys[i] = b.Materialize()
		total += b.NumRows()
	}
	cols := make([]*Column, schema.Len())
	for i, f := range schema.Fields {
		cols[i] = NewColumn(f.Type, total)
		for _, b := range phys {
			cols[i].AppendAll(b.Cols[i])
		}
	}
	return &Batch{Schema: schema, Cols: cols}, nil
}

// SplitRows cuts the batch into chunks of at most n rows each.
func (b *Batch) SplitRows(n int) []*Batch {
	rows := b.NumRows()
	if rows == 0 {
		return nil
	}
	if n <= 0 || rows <= n {
		return []*Batch{b}
	}
	out := make([]*Batch, 0, (rows+n-1)/n)
	for lo := 0; lo < rows; lo += n {
		hi := lo + n
		if hi > rows {
			hi = rows
		}
		out = append(out, b.Slice(lo, hi))
	}
	return out
}

// HashPartition splits the batch into p partitions by its key hash over
// the named columns — fnv-1a over the key encoding (AppendKey: fixed-width
// numbers, length-prefixed strings), the hash every route and hash table
// uses — mod p. Rows with equal keys always land in the same partition,
// which is the contract shuffles rely on; row order is kept within each.
// It is HashKeys followed by Scatter's counting sort, so a partition that
// gets every row is the batch itself; an empty one is an empty batch.
func (b *Batch) HashPartition(keys []string, p int) []*Batch {
	if p <= 1 {
		return []*Batch{b}
	}
	keyIdx := make([]int, len(keys))
	for i, k := range keys {
		keyIdx[i] = b.Schema.MustIndex(k)
	}
	out, _ := Scatter([]*Batch{b}, keyIdx, p) // one source: no schema to mismatch
	for k := range out {
		if out[k] == nil {
			out[k] = Empty(b.Schema)
		}
	}
	return out
}

// String renders up to 10 rows for debugging.
func (b *Batch) String() string {
	b = b.Materialize()
	var sb strings.Builder
	fmt.Fprintf(&sb, "Batch%s %d rows\n", b.Schema, b.NumRows())
	n := b.NumRows()
	if n > 10 {
		n = 10
	}
	for r := 0; r < n; r++ {
		for i, c := range b.Cols {
			if i > 0 {
				sb.WriteString(" | ")
			}
			fmt.Fprintf(&sb, "%v", c.Value(r))
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
