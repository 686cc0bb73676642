package batch

import "fmt"

// Column is a typed vector of values. Exactly one of the slices is non-nil,
// matching Type. Bools are stored as []bool in memory; the wire codec
// serializes them as one 0/1 byte per value (see codec.go).
type Column struct {
	Type    Type
	Ints    []int64   // Int64 and Date
	Floats  []float64 // Float64
	Strings []string  // String
	Bools   []bool    // Bool
}

// Len returns the number of values in the column.
func (c *Column) Len() int {
	switch c.Type {
	case Int64, Date:
		return len(c.Ints)
	case Float64:
		return len(c.Floats)
	case String:
		return len(c.Strings)
	case Bool:
		return len(c.Bools)
	}
	return 0
}

// NewIntColumn wraps an int64 slice as an Int64 column.
func NewIntColumn(v []int64) *Column { return &Column{Type: Int64, Ints: v} }

// NewDateColumn wraps an int64 slice (days since epoch) as a Date column.
func NewDateColumn(v []int64) *Column { return &Column{Type: Date, Ints: v} }

// NewFloatColumn wraps a float64 slice as a Float64 column.
func NewFloatColumn(v []float64) *Column { return &Column{Type: Float64, Floats: v} }

// NewStringColumn wraps a string slice as a String column.
func NewStringColumn(v []string) *Column { return &Column{Type: String, Strings: v} }

// NewBoolColumn wraps a bool slice as a Bool column.
func NewBoolColumn(v []bool) *Column { return &Column{Type: Bool, Bools: v} }

// NewColumn allocates an empty column of the given type with capacity hint n.
func NewColumn(t Type, n int) *Column {
	c := &Column{Type: t}
	switch t {
	case Int64, Date:
		c.Ints = make([]int64, 0, n)
	case Float64:
		c.Floats = make([]float64, 0, n)
	case String:
		c.Strings = make([]string, 0, n)
	case Bool:
		c.Bools = make([]bool, 0, n)
	}
	return c
}

// Gather returns a new column containing the rows at the given indexes.
func (c *Column) Gather(idx []int) *Column {
	out := &Column{Type: c.Type}
	switch c.Type {
	case Int64, Date:
		v := make([]int64, len(idx))
		for i, j := range idx {
			v[i] = c.Ints[j]
		}
		out.Ints = v
	case Float64:
		v := make([]float64, len(idx))
		for i, j := range idx {
			v[i] = c.Floats[j]
		}
		out.Floats = v
	case String:
		v := make([]string, len(idx))
		for i, j := range idx {
			v[i] = c.Strings[j]
		}
		out.Strings = v
	case Bool:
		v := make([]bool, len(idx))
		for i, j := range idx {
			v[i] = c.Bools[j]
		}
		out.Bools = v
	}
	return out
}

// GatherI32 returns a new column containing the rows at the given physical
// indexes. It is Gather for the int32 selection/match vectors the hash
// path produces.
func (c *Column) GatherI32(idx []int32) *Column {
	out := &Column{Type: c.Type}
	switch c.Type {
	case Int64, Date:
		v := make([]int64, len(idx))
		for i, j := range idx {
			v[i] = c.Ints[j]
		}
		out.Ints = v
	case Float64:
		v := make([]float64, len(idx))
		for i, j := range idx {
			v[i] = c.Floats[j]
		}
		out.Floats = v
	case String:
		v := make([]string, len(idx))
		for i, j := range idx {
			v[i] = c.Strings[j]
		}
		out.Strings = v
	case Bool:
		v := make([]bool, len(idx))
		for i, j := range idx {
			v[i] = c.Bools[j]
		}
		out.Bools = v
	}
	return out
}

// GatherPad is GatherI32 with -1 as a valid index yielding the type's zero
// value. Left-outer joins use it to emit unmatched build columns.
func (c *Column) GatherPad(idx []int32) *Column {
	out := &Column{Type: c.Type}
	switch c.Type {
	case Int64, Date:
		v := make([]int64, len(idx))
		for i, j := range idx {
			if j >= 0 {
				v[i] = c.Ints[j]
			}
		}
		out.Ints = v
	case Float64:
		v := make([]float64, len(idx))
		for i, j := range idx {
			if j >= 0 {
				v[i] = c.Floats[j]
			}
		}
		out.Floats = v
	case String:
		v := make([]string, len(idx))
		for i, j := range idx {
			if j >= 0 {
				v[i] = c.Strings[j]
			}
		}
		out.Strings = v
	case Bool:
		v := make([]bool, len(idx))
		for i, j := range idx {
			if j >= 0 {
				v[i] = c.Bools[j]
			}
		}
		out.Bools = v
	}
	return out
}

// Slice returns a view of rows [lo, hi). The underlying arrays are shared.
func (c *Column) Slice(lo, hi int) *Column {
	out := &Column{Type: c.Type}
	switch c.Type {
	case Int64, Date:
		out.Ints = c.Ints[lo:hi]
	case Float64:
		out.Floats = c.Floats[lo:hi]
	case String:
		out.Strings = c.Strings[lo:hi]
	case Bool:
		out.Bools = c.Bools[lo:hi]
	}
	return out
}

// AppendFrom appends row j of src (which must have the same type) to c,
// doubling c's capacity when it is full (see Reserve).
func (c *Column) AppendFrom(src *Column, j int) {
	switch c.Type {
	case Int64, Date:
		c.Ints = append(Reserve(c.Ints, 1), src.Ints[j])
	case Float64:
		c.Floats = append(Reserve(c.Floats, 1), src.Floats[j])
	case String:
		c.Strings = append(Reserve(c.Strings, 1), src.Strings[j])
	case Bool:
		c.Bools = append(Reserve(c.Bools, 1), src.Bools[j])
	}
}

// Reserve returns s with room for n more elements, at least doubling its
// capacity when it must grow. A slice that grows one append at a time, as a
// hash table's key arena or an aggregate's key column does, is otherwise
// copied at every 1.25x step once it is large.
func Reserve[T any](s []T, n int) []T {
	if len(s)+n <= cap(s) {
		return s
	}
	grown := make([]T, len(s), max(len(s)+n, 2*cap(s)))
	copy(grown, s)
	return grown
}

// AppendAll appends every row of src (same type) to c.
func (c *Column) AppendAll(src *Column) {
	switch c.Type {
	case Int64, Date:
		c.Ints = append(c.Ints, src.Ints...)
	case Float64:
		c.Floats = append(c.Floats, src.Floats...)
	case String:
		c.Strings = append(c.Strings, src.Strings...)
	case Bool:
		c.Bools = append(c.Bools, src.Bools...)
	}
}

// Value returns row i as an interface value; used by tests and printers,
// not on hot paths.
func (c *Column) Value(i int) any {
	switch c.Type {
	case Int64, Date:
		return c.Ints[i]
	case Float64:
		return c.Floats[i]
	case String:
		return c.Strings[i]
	case Bool:
		return c.Bools[i]
	}
	return nil
}

// stringHeaderBytes is the accounted per-string overhead (Go string
// header) in the engine's byte model. ValueBytes is the single source of
// the per-value accounting; every size computation routes through it.
const stringHeaderBytes = 16

// ValueBytes returns the accounting size of row r's value.
func (c *Column) ValueBytes(r int) int64 {
	switch c.Type {
	case String:
		return int64(len(c.Strings[r])) + stringHeaderBytes
	case Bool:
		return 1
	default:
		return 8
	}
}

// ByteSize returns the approximate in-memory size of the column payload.
func (c *Column) ByteSize() int64 {
	switch c.Type {
	case Int64, Date:
		return int64(len(c.Ints) * 8)
	case Float64:
		return int64(len(c.Floats) * 8)
	case String:
		var n int64
		for r := range c.Strings {
			n += c.ValueBytes(r)
		}
		return n
	case Bool:
		return int64(len(c.Bools))
	}
	return 0
}

// byteSizeSel is ByteSize restricted to the selected physical rows.
func (c *Column) byteSizeSel(sel []int32) int64 {
	switch c.Type {
	case Int64, Date, Float64:
		return int64(len(sel) * 8)
	case String:
		var n int64
		for _, r := range sel {
			n += c.ValueBytes(int(r))
		}
		return n
	case Bool:
		return int64(len(sel))
	}
	return 0
}

func (c *Column) validateType(expect Type) error {
	if c.Type != expect {
		return fmt.Errorf("batch: column type %s, want %s", c.Type, expect)
	}
	return nil
}
