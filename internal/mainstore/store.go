package mainstore

import (
	"fmt"

	"repro/internal/dict"
	"repro/internal/types"
)

// Loc addresses a row inside a Store: part index and position.
type Loc struct {
	Part int
	Pos  int
}

// Store is one immutable generation of the main store: a chain of
// parts (§4.3). Part 0 is the passive main; later parts are active
// mains whose dictionaries continue the global code space. A Store
// with a single part is the classic, fully merged main.
type Store struct {
	schema *types.Schema
	parts  []*Part
}

// NewStore assembles a generation from parts. Parts must share the
// schema and have monotonically increasing code offsets per column.
func NewStore(schema *types.Schema, parts ...*Part) *Store {
	for ci := range schema.Columns {
		expect := uint32(0)
		for pi, p := range parts {
			if p.cols[ci].offset != expect {
				panic(fmt.Sprintf("mainstore: part %d column %d offset %d, want %d",
					pi, ci, p.cols[ci].offset, expect))
			}
			expect += uint32(p.cols[ci].dict.Len())
		}
	}
	return &Store{schema: schema, parts: parts}
}

// EmptyStore returns a generation with no rows.
func EmptyStore(schema *types.Schema) *Store {
	return &Store{schema: schema}
}

// Schema returns the table schema.
func (s *Store) Schema() *types.Schema { return s.schema }

// Parts returns the part chain.
func (s *Store) Parts() []*Part { return s.parts }

// NumParts returns the number of parts.
func (s *Store) NumParts() int { return len(s.parts) }

// NumRows returns the total row count across parts.
func (s *Store) NumRows() int {
	n := 0
	for _, p := range s.parts {
		n += p.NumRows()
	}
	return n
}

// Cardinality returns the total dictionary cardinality of a column
// across the chain (the global code space size).
func (s *Store) Cardinality(col int) int {
	n := 0
	for _, p := range s.parts {
		n += p.cols[col].dict.Len()
	}
	return n
}

// ResolveCode maps a global code of a column to its value by walking
// the chain to the owning part.
func (s *Store) ResolveCode(col int, code uint32) types.Value {
	for i := len(s.parts) - 1; i >= 0; i-- {
		c := s.parts[i].cols[col]
		if code >= c.offset {
			return c.dict.At(code - c.offset)
		}
	}
	panic(fmt.Sprintf("mainstore: unresolvable code %d for column %d", code, col))
}

// LookupCode finds the global code of v in the chain: the passive
// dictionary is consulted first, then the active ones ("a point
// access is resolved within the passive dictionary … if the requested
// value was not found, the dictionary of the active main is
// consulted", §4.3). ownerPart is the part whose dictionary holds the
// value; only that part and later ones can contain the code in their
// value indexes.
func (s *Store) LookupCode(col int, v types.Value) (code uint32, ownerPart int, ok bool) {
	for pi, p := range s.parts {
		c := p.cols[col]
		if local, found := c.dict.Lookup(v); found {
			return c.offset + local, pi, true
		}
	}
	return 0, 0, false
}

// Value returns the cell at (loc, col).
func (s *Store) Value(loc Loc, col int) types.Value {
	p := s.parts[loc.Part]
	if p.IsNull(loc.Pos, col) {
		return types.Null
	}
	return s.ResolveCode(col, p.cols[col].values.Get(loc.Pos))
}

// Row materializes the full row at loc.
func (s *Store) Row(loc Loc) []types.Value {
	out := make([]types.Value, len(s.schema.Columns))
	for i := range out {
		out[i] = s.Value(loc, i)
	}
	return out
}

// RowID returns the record id at loc.
func (s *Store) RowID(loc Loc) types.RowID { return s.parts[loc.Part].RowID(loc.Pos) }

// CreateTS returns the commit timestamp of the row at loc.
func (s *Store) CreateTS(loc Loc) uint64 { return s.parts[loc.Part].CreateTS(loc.Pos) }

// Visible reports MVCC visibility of the row at loc.
func (s *Store) Visible(loc Loc, tomb *Tombstones, snap, self uint64) bool {
	return s.parts[loc.Part].visibleAt(loc.Pos, tomb, snap, self)
}

// MarkDeleted flags loc as tombstoned (the table calls it after a
// successful tombstone claim).
func (s *Store) MarkDeleted(loc Loc) { s.parts[loc.Part].markDeleted(loc.Pos) }

// MarkDeletedByRowID flags the row with the given id, wherever it
// lives in the chain. It is a linear scan, used only to re-mark the
// rare deletes that raced with an in-flight merge; it reports whether
// the id was found (a dropped row is a valid miss).
func (s *Store) MarkDeletedByRowID(id types.RowID) bool {
	for pi, p := range s.parts {
		for pos, rid := range p.rowIDs {
			if rid == id {
				s.MarkDeleted(Loc{Part: pi, Pos: pos})
				return true
			}
		}
	}
	return false
}

// PointLookup returns the locations whose column equals v, in chain
// order, using inverted indexes where available. Visibility is not
// filtered here.
func (s *Store) PointLookup(col int, v types.Value) []Loc {
	code, owner, ok := s.LookupCode(col, v)
	if !ok {
		return nil
	}
	var out []Loc
	// Only the owning part and later parts can reference the code.
	for pi := owner; pi < len(s.parts); pi++ {
		p := s.parts[pi]
		c := p.cols[col]
		if c.inv != nil {
			for _, pos := range c.inv[code] {
				out = append(out, Loc{Part: pi, Pos: int(pos)})
			}
			continue
		}
		for _, pos := range c.values.ScanEqual(code, 0, p.NumRows(), nil) {
			if code == 0 && p.IsNull(pos, col) {
				continue
			}
			out = append(out, Loc{Part: pi, Pos: pos})
		}
	}
	return out
}

// ScanVisibleGroupCodes streams the data columns of every visible row
// in chain order, decoding block-at-a-time through the compressed
// encodings and caching dictionary lookups per code, plus the raw
// global dictionary code of one grouping column (-1 for NULL),
// enabling code-level grouping (§4.1). vals is reused across calls;
// fn must not retain it.
func (s *Store) ScanVisibleGroupCodes(groupCol int, dataCols []int, tomb *Tombstones, snap, self uint64,
	fn func(loc Loc, code int32, vals []types.Value) bool) {
	const block = 1024
	caches := make([][]types.Value, len(dataCols))
	cached := make([][]bool, len(dataCols))
	for i, c := range dataCols {
		card := s.Cardinality(c)
		caches[i] = make([]types.Value, card)
		cached[i] = make([]bool, card)
	}
	var gbuf [block]uint32
	bufs := make([][block]uint32, len(dataCols))
	vals := make([]types.Value, len(dataCols))
	for pi, p := range s.parts {
		n := p.NumRows()
		for start := 0; start < n; start += block {
			end := start + block
			if end > n {
				end = n
			}
			p.cols[groupCol].values.DecodeBlock(start, gbuf[:end-start])
			for i, c := range dataCols {
				p.cols[c].values.DecodeBlock(start, bufs[i][:end-start])
			}
			for pos := start; pos < end; pos++ {
				if !p.visibleAt(pos, tomb, snap, self) {
					continue
				}
				code := int32(gbuf[pos-start])
				if p.IsNull(pos, groupCol) {
					code = -1
				}
				for i, c := range dataCols {
					if p.IsNull(pos, c) {
						vals[i] = types.Null
						continue
					}
					dc := bufs[i][pos-start]
					if !cached[i][dc] {
						caches[i][dc] = s.ResolveCode(c, dc)
						cached[i][dc] = true
					}
					vals[i] = caches[i][dc]
				}
				if !fn(Loc{Part: pi, Pos: pos}, code, vals) {
					return
				}
			}
		}
	}
}

// ScanVisible calls fn for every visible row in chain order.
func (s *Store) ScanVisible(tomb *Tombstones, snap, self uint64, fn func(loc Loc) bool) {
	for pi, p := range s.parts {
		for pos := 0; pos < p.NumRows(); pos++ {
			if p.visibleAt(pos, tomb, snap, self) {
				if !fn(Loc{Part: pi, Pos: pos}) {
					return
				}
			}
		}
	}
}

// GlobalDict returns a merged, sorted view over the chain's local
// dictionaries of a column (for the unified-table global dictionary
// iterator, §3.1). For a single-part store it returns the part's
// dictionary itself.
func (s *Store) GlobalDict(col int) *dict.Sorted {
	switch len(s.parts) {
	case 0:
		return dict.NewSortedFromValues(s.schema.Columns[col].Kind, nil)
	case 1:
		return s.parts[0].cols[col].dict
	}
	merged := s.parts[0].cols[col].dict
	for _, p := range s.parts[1:] {
		merged, _, _ = dict.MergeSorted(merged, p.cols[col].dict)
	}
	return merged
}

// MemSize approximates the heap footprint in bytes.
func (s *Store) MemSize() int {
	n := 48
	for _, p := range s.parts {
		n += p.MemSize()
	}
	return n
}

// CheckInvariants verifies structural consistency across the chain.
func (s *Store) CheckInvariants() error {
	for ci := range s.schema.Columns {
		limit := uint32(0)
		for pi, p := range s.parts {
			c := p.cols[ci]
			if c.offset != limit {
				return fmt.Errorf("mainstore: part %d col %d offset %d, want %d", pi, ci, c.offset, limit)
			}
			limit += uint32(c.dict.Len())
			if c.values.Len() != p.NumRows() {
				return fmt.Errorf("mainstore: part %d col %d has %d values for %d rows", pi, ci, c.values.Len(), p.NumRows())
			}
			for pos := 0; pos < p.NumRows(); pos++ {
				code := c.values.Get(pos)
				if p.IsNull(pos, ci) {
					if code != 0 {
						return fmt.Errorf("mainstore: NULL at part %d col %d pos %d has code %d", pi, ci, pos, code)
					}
					continue
				}
				if code >= limit {
					return fmt.Errorf("mainstore: part %d col %d pos %d code %d beyond cardinality %d", pi, ci, pos, code, limit)
				}
			}
			// Local dictionaries must be disjoint from predecessors:
			// an active dictionary "only holds new values not yet
			// present in the passive main's dictionary".
			for j := 0; j < pi; j++ {
				prev := s.parts[j].cols[ci].dict
				for k := 0; k < c.dict.Len(); k++ {
					if _, found := prev.Lookup(c.dict.At(uint32(k))); found {
						return fmt.Errorf("mainstore: part %d col %d duplicates value %v of part %d", pi, ci, c.dict.At(uint32(k)), j)
					}
				}
			}
		}
	}
	return nil
}
