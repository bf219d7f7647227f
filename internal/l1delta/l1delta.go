// Package l1delta implements the first stage of the unified table's
// record life cycle: "the L1-delta structure accepts all incoming
// data requests and stores them in a write-optimized manner, i.e. the
// L1-delta preserves the logical row format of the record. The data
// structure is optimized for fast insert and delete, field update,
// and record projection. Moreover, the L1-delta structure does not
// perform any data compression" (paper §3).
//
// Rows are appended in arrival order; each row carries an MVCC stamp.
// A hash index on the key column serves point queries and unique-
// constraint checks. The L1→L2 merge migrates a settled prefix into
// the L2-delta and replaces the store with a truncated successor that
// shares the surviving row objects, so pinned readers keep a
// consistent view ("all running operations either see the full
// L1-delta and the old end-of-delta border or the truncated version",
// §3.1).
//
// The store itself is not synchronized: the unified table serializes
// writers and lets readers capture an immutable view under its lock.
package l1delta

import (
	"repro/internal/mvcc"
	"repro/internal/types"
)

// Row is one record version in row format.
type Row struct {
	// ID is the record's life-long row id, assigned on entry.
	ID types.RowID
	// Values is the full row in logical column order. It is immutable
	// once appended; updates create a new version.
	Values []types.Value
	// Stamp is the MVCC version metadata, shared across store
	// generations.
	Stamp *mvcc.Stamp
}

// Store is an L1-delta generation.
type Store struct {
	schema *types.Schema
	rows   []*Row
	// keyIdx maps key value → positions (may include dead versions;
	// callers filter by visibility).
	keyIdx map[types.Value][]int
	// memSize tracks the approximate heap footprint.
	memSize int
}

// New returns an empty L1-delta for the schema.
func New(schema *types.Schema) *Store {
	s := &Store{schema: schema}
	if schema.Key >= 0 {
		s.keyIdx = make(map[types.Value][]int)
	}
	return s
}

// Len returns the number of row versions (live and dead).
func (s *Store) Len() int { return len(s.rows) }

// Append adds a row version and returns its position.
func (s *Store) Append(r *Row) int {
	pos := len(s.rows)
	s.rows = append(s.rows, r)
	if s.keyIdx != nil {
		k := r.Values[s.schema.Key]
		s.keyIdx[k] = append(s.keyIdx[k], pos)
	}
	s.memSize += rowMemSize(r)
	return pos
}

// At returns the row at position pos.
func (s *Store) At(pos int) *Row { return s.rows[pos] }

// Rows returns the backing slice; callers must treat it as immutable
// up to the length they captured.
func (s *Store) Rows() []*Row { return s.rows }

// LookupKey returns the positions whose key column equals v. The
// caller filters by MVCC visibility.
func (s *Store) LookupKey(v types.Value) []int {
	if s.keyIdx == nil {
		return nil
	}
	return s.keyIdx[v]
}

// ScanVisible calls fn for every row version visible at snapshot snap
// to reader marker self, up to the structural border limit (exclusive;
// pass Len() captured at pin time). fn returning false stops the scan.
func (s *Store) ScanVisible(limit int, snap, self uint64, fn func(pos int, r *Row) bool) {
	if limit > len(s.rows) {
		limit = len(s.rows)
	}
	for pos := 0; pos < limit; pos++ {
		r := s.rows[pos]
		if mvcc.VisibleStamp(r.Stamp, snap, self) {
			if !fn(pos, r) {
				return
			}
		}
	}
}

// SettledPrefix returns the largest n ≤ limit such that rows[0:n] all
// have settled stamps (no in-flight transaction markers). Only a
// settled prefix may migrate to the L2-delta: a pending commit must
// write through the stamp the transaction recorded, which lives here.
func (s *Store) SettledPrefix(limit int) int {
	if limit > len(s.rows) {
		limit = len(s.rows)
	}
	for i := 0; i < limit; i++ {
		if !s.rows[i].Stamp.Settled() {
			return i
		}
	}
	return limit
}

// TruncatePrefix returns a new store generation containing the rows
// from position n onward. Surviving *Row objects are shared, so MVCC
// stamps stay unique per record version.
func (s *Store) TruncatePrefix(n int) *Store {
	ns := New(s.schema)
	for _, r := range s.rows[n:] {
		ns.Append(r)
	}
	return ns
}

// MemSize approximates the heap footprint in bytes. The L1-delta is
// the most expensive stage per row (Fig. 11: uncompressed row format
// plus index).
func (s *Store) MemSize() int { return s.memSize + 48 }

func rowMemSize(r *Row) int {
	n := 16 /* Stamp */ + 8 /* ID */ + 24 /* slice header */ + 16 /* ptr+idx */
	for _, v := range r.Values {
		n += 40 // Value struct
		n += len(v.S)
	}
	return n
}
