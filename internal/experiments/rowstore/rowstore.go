// Package rowstore implements a classic update-in-place row store —
// the architecture the paper positions the unified table against:
// "classic row-stores are still dominating the OLTP domain.
// Maintaining a 1:1-relationship between the logical entity and the
// physical representation in a record seems obvious for entity-based
// interaction models" (§1).
//
// It is the comparison baseline for the "end of the column store
// myth" experiments: rows live in uncompressed row format at a fixed
// location for their whole life ("a record conceptually remains at
// the same location throughout its lifetime in update-in-place-style
// database systems", §3), with a hash index on the primary key and
// optional hash indexes on secondary columns. Point DML is very fast;
// analytical scans pay full-row materialization with no compression.
package rowstore

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/types"
)

// ErrDuplicateKey reports a primary-key violation.
var ErrDuplicateKey = errors.New("rowstore: duplicate key")

// ErrNotFound reports a missing key.
var ErrNotFound = errors.New("rowstore: key not found")

// Row is one record; Values is mutated in place by updates.
type Row struct {
	ID     types.RowID
	Values []types.Value
}

// Store is an update-in-place row table with hash indexes.
type Store struct {
	schema *types.Schema

	mu     sync.RWMutex
	rows   []*Row
	pk     map[types.Value]int                   // key → slot in rows
	sec    map[int]map[types.Value][]types.RowID // col → value → ids
	nextID types.RowID
	bytes  int
}

// New returns an empty row store. secondary lists extra columns to
// hash-index.
func New(schema *types.Schema, secondary []int) (*Store, error) {
	if err := schema.Validate(); err != nil {
		return nil, err
	}
	if schema.Key < 0 {
		return nil, fmt.Errorf("rowstore: schema needs a primary key")
	}
	s := &Store{
		schema: schema,
		pk:     make(map[types.Value]int),
		sec:    make(map[int]map[types.Value][]types.RowID),
	}
	for _, col := range secondary {
		if col < 0 || col >= len(schema.Columns) {
			return nil, fmt.Errorf("rowstore: secondary index column %d out of range", col)
		}
		s.sec[col] = make(map[types.Value][]types.RowID)
	}
	return s, nil
}

// Schema returns the table schema.
func (s *Store) Schema() *types.Schema { return s.schema }

// Len returns the live row count.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.rows)
}

// Insert adds a row, enforcing key uniqueness.
func (s *Store) Insert(row []types.Value) (types.RowID, error) {
	if err := s.schema.CheckRow(row); err != nil {
		return 0, err
	}
	key := row[s.schema.Key]
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.pk[key]; dup {
		return 0, fmt.Errorf("%w: %v", ErrDuplicateKey, key)
	}
	s.nextID++
	r := &Row{ID: s.nextID, Values: types.CloneRow(row)}
	s.pk[key] = len(s.rows)
	s.rows = append(s.rows, r)
	for col, idx := range s.sec {
		if v := row[col]; !v.IsNull() {
			idx[v] = append(idx[v], r.ID)
		}
	}
	s.bytes += rowBytes(r)
	return r.ID, nil
}

// Get returns a copy of the row with the given key.
func (s *Store) Get(key types.Value) ([]types.Value, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	slot, ok := s.pk[key]
	if !ok {
		return nil, false
	}
	return types.CloneRow(s.rows[slot].Values), true
}

// Update overwrites the row with the given key in place — the
// update-in-place discipline that defines this architecture.
func (s *Store) Update(key types.Value, newRow []types.Value) error {
	if err := s.schema.CheckRow(newRow); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	slot, ok := s.pk[key]
	if !ok {
		return fmt.Errorf("%w: %v", ErrNotFound, key)
	}
	r := s.rows[slot]
	newKey := newRow[s.schema.Key]
	if !types.Equal(newKey, key) {
		if _, dup := s.pk[newKey]; dup {
			return fmt.Errorf("%w: %v", ErrDuplicateKey, newKey)
		}
		delete(s.pk, key)
		s.pk[newKey] = slot
	}
	for col, idx := range s.sec {
		old, new := r.Values[col], newRow[col]
		if types.Compare(old, new) == 0 {
			continue
		}
		if !old.IsNull() {
			idx[old] = removeID(idx[old], r.ID)
		}
		if !new.IsNull() {
			idx[new] = append(idx[new], r.ID)
		}
	}
	copy(r.Values, newRow)
	return nil
}

// Delete removes the row with the given key (swap-remove: the last
// row takes its slot).
func (s *Store) Delete(key types.Value) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	slot, ok := s.pk[key]
	if !ok {
		return fmt.Errorf("%w: %v", ErrNotFound, key)
	}
	r := s.rows[slot]
	for col, idx := range s.sec {
		if v := r.Values[col]; !v.IsNull() {
			idx[v] = removeID(idx[v], r.ID)
		}
	}
	last := len(s.rows) - 1
	if slot != last {
		moved := s.rows[last]
		s.rows[slot] = moved
		s.pk[moved.Values[s.schema.Key]] = slot
	}
	s.rows = s.rows[:last]
	delete(s.pk, key)
	s.bytes -= rowBytes(r)
	return nil
}

// LookupSecondary returns the ids matching value in a hash-indexed
// secondary column.
func (s *Store) LookupSecondary(col int, v types.Value) []types.RowID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	idx, ok := s.sec[col]
	if !ok {
		return nil
	}
	return append([]types.RowID(nil), idx[v]...)
}

// Scan streams every row to fn under the shared latch; fn must not
// retain the slice.
func (s *Store) Scan(fn func(id types.RowID, row []types.Value) bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, r := range s.rows {
		if !fn(r.ID, r.Values) {
			return
		}
	}
}

// MemSize approximates the heap footprint: full uncompressed rows
// plus index entries.
func (s *Store) MemSize() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.bytes + len(s.pk)*48 + 64
}

func rowBytes(r *Row) int {
	n := 8 + 24 + 16
	for _, v := range r.Values {
		n += 40 + len(v.S)
	}
	return n
}

func removeID(ids []types.RowID, id types.RowID) []types.RowID {
	for i, x := range ids {
		if x == id {
			ids[i] = ids[len(ids)-1]
			return ids[:len(ids)-1]
		}
	}
	return ids
}
