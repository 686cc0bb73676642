// Package batch implements the columnar data representation that flows
// between operators in the query engine: typed column vectors, record
// batches, schemas, hash partitioning and a compact binary wire format.
//
// Batches are the unit of data exchange in the pipelined engine — the
// "data partitions" of the paper. They are immutable once built; operators
// produce new batches rather than mutating inputs, which is what makes
// lineage-based replay deterministic.
package batch

import (
	"fmt"
	"strings"
)

// Type enumerates the physical column types supported by the engine.
type Type uint8

// Physical column types. Date is stored as days since the Unix epoch so
// that date arithmetic and comparisons reduce to int64 operations.
const (
	Int64 Type = iota
	Float64
	String
	Bool
	Date
)

// String returns the lower-case name of the type.
func (t Type) String() string {
	switch t {
	case Int64:
		return "int64"
	case Float64:
		return "float64"
	case String:
		return "string"
	case Bool:
		return "bool"
	case Date:
		return "date"
	default:
		return fmt.Sprintf("type(%d)", uint8(t))
	}
}

// Field is a named, typed column in a schema.
type Field struct {
	Name string
	Type Type
}

// Schema describes the ordered set of columns in a batch.
type Schema struct {
	Fields []Field
	index  map[string]int
}

// NewSchema builds a schema from fields. Field names must be unique.
func NewSchema(fields ...Field) *Schema {
	s, err := newSchema(fields)
	if err != nil {
		panic(err.Error())
	}
	return s
}

// newSchema is NewSchema returning a repeated field name as an error: a
// decoder's fields come from the bytes it was given.
func newSchema(fields []Field) (*Schema, error) {
	s := &Schema{Fields: fields, index: make(map[string]int, len(fields))}
	for i, f := range fields {
		if _, dup := s.index[f.Name]; dup {
			return nil, fmt.Errorf("batch: duplicate field %q in schema", f.Name)
		}
		s.index[f.Name] = i
	}
	return s, nil
}

// Len returns the number of fields.
func (s *Schema) Len() int { return len(s.Fields) }

// Index returns the position of the named field, or -1 if absent.
func (s *Schema) Index(name string) int {
	if s.index == nil {
		for i, f := range s.Fields {
			if f.Name == name {
				return i
			}
		}
		return -1
	}
	if i, ok := s.index[name]; ok {
		return i
	}
	return -1
}

// MustIndex is Index but panics when the field is missing. It is used by
// plan construction code where a missing column is a programming error.
func (s *Schema) MustIndex(name string) int {
	i := s.Index(name)
	if i < 0 {
		panic(fmt.Sprintf("batch: no field %q in schema %s", name, s))
	}
	return i
}

// Equal reports whether two schemas have identical fields in order.
func (s *Schema) Equal(o *Schema) bool {
	if s.Len() != o.Len() {
		return false
	}
	for i := range s.Fields {
		if s.Fields[i] != o.Fields[i] {
			return false
		}
	}
	return true
}

// String renders the schema as "(name:type, ...)".
func (s *Schema) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, f := range s.Fields {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s:%s", f.Name, f.Type)
	}
	b.WriteByte(')')
	return b.String()
}

// Select returns a new schema containing the named fields in the given order.
func (s *Schema) Select(names ...string) *Schema {
	fields := make([]Field, len(names))
	for i, n := range names {
		fields[i] = s.Fields[s.MustIndex(n)]
	}
	return NewSchema(fields...)
}

// F is shorthand for constructing a Field.
func F(name string, t Type) Field { return Field{Name: name, Type: t} }
