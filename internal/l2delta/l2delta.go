// Package l2delta implements the second stage of the record life
// cycle: "the L2-delta structure … is organized in the column store
// format. In contrast to the L1-delta, the L2-delta employs
// dictionary encoding to achieve better memory usage. However, for
// performance reasons, the dictionary is unsorted requiring secondary
// index structures to optimally support point query access patterns"
// (paper §3).
//
// Every column holds an append-only unsorted dictionary, a bit-packed
// code vector, a NULL bitmap, and — for indexed columns — an inverted
// index (code → positions) used for unique-constraint checks and
// point queries. Rows arrive either one at a time from the L1→L2
// merge or column-wise through the bulk-load path that bypasses the
// L1-delta.
//
// The store is not synchronized; the unified table serializes writers
// and hands readers a pinned generation. Once the L2→main merge
// starts, the generation is closed for updates and a fresh, empty
// L2-delta takes over (§3.1).
package l2delta

import (
	"fmt"

	"repro/internal/bitpack"
	"repro/internal/dict"
	"repro/internal/mvcc"
	"repro/internal/types"
)

// column is the per-column storage of the L2-delta.
type column struct {
	dict  *dict.Unsorted
	codes *bitpack.Vector
	nulls bitset
	// inv is the inverted index: inv[code] lists the positions whose
	// value has that dictionary code. nil for unindexed columns.
	inv [][]int32
}

// Store is an L2-delta generation.
type Store struct {
	schema  *types.Schema
	cols    []*column
	rowIDs  []types.RowID
	stamps  []*mvcc.Stamp
	closed  bool
	indexed []bool
}

// New returns an empty L2-delta. indexedCols lists the ordinals that
// maintain inverted indexes; the key column is always indexed.
func New(schema *types.Schema, indexedCols []int) *Store {
	s := &Store{schema: schema, indexed: make([]bool, len(schema.Columns))}
	if schema.Key >= 0 {
		s.indexed[schema.Key] = true
	}
	for _, c := range indexedCols {
		s.indexed[c] = true
	}
	s.cols = make([]*column, len(schema.Columns))
	for i, c := range schema.Columns {
		col := &column{
			dict:  dict.NewUnsorted(c.Kind),
			codes: bitpack.NewWidth(1),
		}
		if s.indexed[i] {
			col.inv = [][]int32{}
		}
		s.cols[i] = col
	}
	return s
}

// Schema returns the table schema.
func (s *Store) Schema() *types.Schema { return s.schema }

// Len returns the number of row versions stored.
func (s *Store) Len() int { return len(s.rowIDs) }

// Close marks the generation read-only; the L2→main merge calls it
// before it starts copying ("the current L2-delta is closed for
// updates and a new empty L2-delta structure is created", §3.1).
func (s *Store) Close() { s.closed = true }

// AppendRow adds one row version; the row must match the schema.
func (s *Store) AppendRow(values []types.Value, id types.RowID, stamp *mvcc.Stamp) int {
	if s.closed {
		panic("l2delta: append to closed generation")
	}
	pos := len(s.rowIDs)
	for i, col := range s.cols {
		s.appendCell(col, values[i], pos)
	}
	s.rowIDs = append(s.rowIDs, id)
	s.stamps = append(s.stamps, stamp)
	return pos
}

func (s *Store) appendCell(col *column, v types.Value, pos int) {
	if v.IsNull() {
		col.nulls.set(pos)
		col.codes.Append(0)
		return
	}
	code := col.dict.GetOrAdd(v)
	col.codes.Append(code)
	if col.inv != nil {
		for int(code) >= len(col.inv) {
			col.inv = append(col.inv, nil)
		}
		col.inv[code] = append(col.inv[code], int32(pos))
	}
}

// AppendBatch adds many rows column-by-column: the pivoting step of
// the L1→L2 merge ("rows of the L1-delta are split into their
// corresponding columnar values and column-by-column inserted into
// the L2-delta structure", §3.1) and the bulk-load entry point. The
// dictionary codes for each column are resolved in a first pass and
// appended in a second, mirroring the paper's two-phase scheme that
// reserves encodings before inserting.
func (s *Store) AppendBatch(rows [][]types.Value, ids []types.RowID, stamps []*mvcc.Stamp) {
	if s.closed {
		panic("l2delta: append to closed generation")
	}
	if len(rows) != len(ids) || len(rows) != len(stamps) {
		panic("l2delta: batch length mismatch")
	}
	base := len(s.rowIDs)
	codes := make([]uint32, len(rows))
	for ci, col := range s.cols {
		// Phase 1: dictionary lookups / reservations for the column.
		for ri, row := range rows {
			v := row[ci]
			if v.IsNull() {
				codes[ri] = 0
				col.nulls.set(base + ri)
				continue
			}
			codes[ri] = col.dict.GetOrAdd(v)
		}
		// Phase 2: append the value vector and inverted index.
		col.codes.AppendAll(codes)
		if col.inv != nil {
			for ri, row := range rows {
				if row[ci].IsNull() {
					continue
				}
				c := codes[ri]
				for int(c) >= len(col.inv) {
					col.inv = append(col.inv, nil)
				}
				col.inv[c] = append(col.inv[c], int32(base+ri))
			}
		}
	}
	s.rowIDs = append(s.rowIDs, ids...)
	s.stamps = append(s.stamps, stamps...)
}

// Value returns the cell at (pos, col).
func (s *Store) Value(pos, col int) types.Value {
	c := s.cols[col]
	if c.nulls.get(pos) {
		return types.Null
	}
	return c.dict.At(c.codes.Get(pos))
}

// Row materializes the full row at pos.
func (s *Store) Row(pos int) []types.Value {
	out := make([]types.Value, len(s.cols))
	for i := range s.cols {
		out[i] = s.Value(pos, i)
	}
	return out
}

// RowID returns the record id at pos.
func (s *Store) RowID(pos int) types.RowID { return s.rowIDs[pos] }

// Stamp returns the MVCC stamp at pos.
func (s *Store) Stamp(pos int) *mvcc.Stamp { return s.stamps[pos] }

// Dict returns the unsorted dictionary of a column.
func (s *Store) Dict(col int) *dict.Unsorted { return s.cols[col].dict }

// Codes returns the bit-packed code vector of a column (merge input).
func (s *Store) Codes(col int) *bitpack.Vector { return s.cols[col].codes }

// IsNull reports whether the cell at (pos, col) is NULL.
func (s *Store) IsNull(pos, col int) bool { return s.cols[col].nulls.get(pos) }

// LookupValue returns the positions (up to limit, ≤0 = all) whose
// column equals v, using the inverted index when present and a vector
// scan otherwise. Callers filter by visibility.
func (s *Store) LookupValue(col int, v types.Value, limit int) []int {
	c := s.cols[col]
	code, ok := c.dict.Lookup(v)
	if !ok {
		return nil
	}
	if c.inv != nil {
		if int(code) >= len(c.inv) {
			return nil
		}
		list := c.inv[code]
		out := make([]int, 0, len(list))
		for _, p := range list {
			out = append(out, int(p))
			if limit > 0 && len(out) >= limit {
				break
			}
		}
		return out
	}
	hits := c.codes.ScanEqual(code, 0, len(s.rowIDs), nil)
	// Code 0 doubles as the NULL placeholder: filter NULL positions.
	if code == 0 {
		live := hits[:0]
		for _, p := range hits {
			if !c.nulls.get(p) {
				live = append(live, p)
			}
		}
		hits = live
	}
	if limit > 0 && len(hits) > limit {
		hits = hits[:limit]
	}
	return hits
}

// ScanVisibleGroupCodes streams the data columns of every visible
// row up to border, block-decoding the code vectors (vectorized
// access, §3.1), plus the raw dictionary code of one grouping column
// (-1 for NULL), letting aggregation
// operators group by code instead of by value — "special operators
// working directly on dictionary encoded columns" (§4.1).
func (s *Store) ScanVisibleGroupCodes(groupCol int, dataCols []int, border int, snap, self uint64,
	fn func(pos int, code int32, vals []types.Value) bool) {
	const block = 1024
	if border > len(s.rowIDs) {
		border = len(s.rowIDs)
	}
	gcol := s.cols[groupCol]
	var gbuf [block]uint32
	bufs := make([][block]uint32, len(dataCols))
	vals := make([]types.Value, len(dataCols))
	for start := 0; start < border; start += block {
		end := start + block
		if end > border {
			end = border
		}
		gcol.codes.DecodeBlock(start, gbuf[:end-start])
		for i, c := range dataCols {
			s.cols[c].codes.DecodeBlock(start, bufs[i][:end-start])
		}
		for pos := start; pos < end; pos++ {
			if !mvcc.VisibleStamp(s.stamps[pos], snap, self) {
				continue
			}
			code := int32(gbuf[pos-start])
			if gcol.nulls.get(pos) {
				code = -1
			}
			for i, c := range dataCols {
				col := s.cols[c]
				if col.nulls.get(pos) {
					vals[i] = types.Null
					continue
				}
				vals[i] = col.dict.At(bufs[i][pos-start])
			}
			if !fn(pos, code, vals) {
				return
			}
		}
	}
}

// ScanVisible calls fn for every row version visible at snapshot snap
// to reader marker self, up to border (the structural limit captured
// at pin time).
func (s *Store) ScanVisible(border int, snap, self uint64, fn func(pos int) bool) {
	if border > len(s.rowIDs) {
		border = len(s.rowIDs)
	}
	for pos := 0; pos < border; pos++ {
		if mvcc.VisibleStamp(s.stamps[pos], snap, self) {
			if !fn(pos) {
				return
			}
		}
	}
}

// MemSize approximates the heap footprint in bytes: dictionaries with
// their hash indexes, code vectors, null bitmaps, inverted indexes,
// and per-row metadata.
func (s *Store) MemSize() int {
	n := 64 + len(s.rowIDs)*8 + len(s.stamps)*24
	for _, c := range s.cols {
		n += c.dict.MemSize() + c.codes.MemSize() + len(c.nulls)*8
		for _, list := range c.inv {
			n += len(list)*4 + 24
		}
	}
	return n
}

// CheckInvariants verifies internal consistency (tests and the
// failure-injection harness).
func (s *Store) CheckInvariants() error {
	n := len(s.rowIDs)
	if len(s.stamps) != n {
		return fmt.Errorf("l2delta: %d stamps for %d rows", len(s.stamps), n)
	}
	for ci, c := range s.cols {
		if c.codes.Len() != n {
			return fmt.Errorf("l2delta: column %d has %d codes for %d rows", ci, c.codes.Len(), n)
		}
		if c.inv != nil {
			for code, list := range c.inv {
				for _, p := range list {
					if int(p) >= n {
						return fmt.Errorf("l2delta: inverted entry %d beyond %d rows", p, n)
					}
					if got := c.codes.Get(int(p)); got != uint32(code) {
						return fmt.Errorf("l2delta: inverted index code %d, vector %d", code, got)
					}
				}
			}
		}
	}
	return nil
}

// bitset is a minimal growable bitmap.
type bitset []uint64

func (b *bitset) set(i int) {
	w := i / 64
	for w >= len(*b) {
		*b = append(*b, 0)
	}
	(*b)[w] |= 1 << (i % 64)
}

func (b bitset) get(i int) bool {
	w := i / 64
	return w < len(b) && b[w]&(1<<(i%64)) != 0
}
