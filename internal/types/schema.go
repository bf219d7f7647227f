package types

import (
	"fmt"
	"strings"
)

// RowID identifies a record for its whole life. It is generated once
// when the record enters the system — in the L1-delta for regular DML
// or in the L2-delta for bulk loads — and is preserved across merges
// (§3, "the RowId for any incoming record will be generated when
// entering the system").
// Real row ids start at 1; the zero RowID names no row.
type RowID uint64

// Column describes one attribute of a table.
type Column struct {
	// Name is the attribute name, unique within the schema.
	Name string
	// Kind is the column's data type.
	Kind Kind
	// Nullable permits NULL cells. The primary key is never nullable.
	Nullable bool
}

// Schema is an ordered list of columns plus the index of the primary
// key column. The unified table enforces uniqueness of the key via
// the inverted index structures of all three stages (§3.1).
type Schema struct {
	Columns []Column
	// Key is the ordinal of the primary-key column, or -1 for none.
	Key int
}

// NewSchema builds a schema and validates it.
func NewSchema(cols []Column, key int) (*Schema, error) {
	s := &Schema{Columns: cols, Key: key}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// MustSchema is NewSchema for statically known schemas; it panics on error.
func MustSchema(cols []Column, key int) *Schema {
	s, err := NewSchema(cols, key)
	if err != nil {
		panic(err)
	}
	return s
}

// Validate checks structural invariants: at least one column, unique
// non-empty names, valid kinds, and a sane key ordinal.
func (s *Schema) Validate() error {
	if len(s.Columns) == 0 {
		return fmt.Errorf("schema: no columns")
	}
	seen := make(map[string]bool, len(s.Columns))
	for i, c := range s.Columns {
		if c.Name == "" {
			return fmt.Errorf("schema: column %d has empty name", i)
		}
		if !c.Kind.Valid() {
			return fmt.Errorf("schema: column %q has invalid kind", c.Name)
		}
		if seen[c.Name] {
			return fmt.Errorf("schema: duplicate column %q", c.Name)
		}
		seen[c.Name] = true
	}
	if s.Key < -1 || s.Key >= len(s.Columns) {
		return fmt.Errorf("schema: key ordinal %d out of range", s.Key)
	}
	if s.Key >= 0 && s.Columns[s.Key].Nullable {
		return fmt.Errorf("schema: key column %q must not be nullable", s.Columns[s.Key].Name)
	}
	return nil
}

// NumColumns returns the column count.
func (s *Schema) NumColumns() int { return len(s.Columns) }

// ColumnIndex returns the ordinal of the named column, or -1.
func (s *Schema) ColumnIndex(name string) int {
	for i, c := range s.Columns {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// CheckRow verifies that a row conforms to the schema: correct arity,
// each cell either NULL (when permitted) or of the declared kind.
func (s *Schema) CheckRow(row []Value) error {
	if len(row) != len(s.Columns) {
		return fmt.Errorf("schema: row has %d values, want %d", len(row), len(s.Columns))
	}
	for i, v := range row {
		c := s.Columns[i]
		if v.IsNull() {
			if !c.Nullable {
				return fmt.Errorf("schema: NULL in non-nullable column %q", c.Name)
			}
			continue
		}
		if v.Kind != c.Kind {
			return fmt.Errorf("schema: column %q wants %v, got %v", c.Name, c.Kind, v.Kind)
		}
	}
	return nil
}

// String renders the schema as a CREATE-TABLE-ish single line.
func (s *Schema) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, c := range s.Columns {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(c.Name)
		b.WriteByte(' ')
		b.WriteString(c.Kind.String())
		if i == s.Key {
			b.WriteString(" PRIMARY KEY")
		} else if !c.Nullable {
			b.WriteString(" NOT NULL")
		}
	}
	b.WriteByte(')')
	return b.String()
}

// CloneRow returns a deep-enough copy of a row (strings are immutable
// in Go, so copying the slice suffices).
func CloneRow(row []Value) []Value {
	out := make([]Value, len(row))
	copy(out, row)
	return out
}
