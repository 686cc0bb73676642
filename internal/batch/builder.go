package batch

// Builder accumulates rows column-by-column and produces a Batch. It is the
// convenient way to materialize operator outputs whose size is not known
// up front.
type Builder struct {
	schema *Schema
	cols   []*Column
}

// NewBuilder creates a builder for the schema with a row-capacity hint.
func NewBuilder(schema *Schema, capHint int) *Builder {
	cols := make([]*Column, schema.Len())
	for i, f := range schema.Fields {
		cols[i] = NewColumn(f.Type, capHint)
	}
	return &Builder{schema: schema, cols: cols}
}

// Col exposes builder column i for direct appends (hot paths).
func (bl *Builder) Col(i int) *Column { return bl.cols[i] }

// Build finalizes the builder into a Batch. The builder must not be reused.
func (bl *Builder) Build() *Batch {
	return &Batch{Schema: bl.schema, Cols: bl.cols}
}
