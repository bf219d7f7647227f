// Package mainstore implements the third stage of the record life
// cycle: "the main store finally represents the core data format with
// the highest compression rate" (paper §3). Every column holds a
// sorted, prefix-coded dictionary, a bit-packed — and optionally
// further compressed — value index, and an inverted index for point
// access ("is also well tuned to answer point queries efficiently by
// using inverted index structures", §3.3).
//
// A Store is a chain of Parts implementing the partial-merge split of
// §4.3: part 0 is the passive main, later parts are active mains
// whose dictionaries continue the encoding of their predecessors
// ("the dictionary of the active main starts with a dictionary
// position value of n+1"), and whose value indexes may reference
// passive codes ("the value index of the active main also may exhibit
// encoding values of the passive main").
package mainstore

import (
	"fmt"
	"sync/atomic"

	"repro/internal/compress"
	"repro/internal/dict"
	"repro/internal/mvcc"
	"repro/internal/types"
)

// partColumn is the per-column storage of one main part.
type partColumn struct {
	// dict is the local sorted dictionary.
	dict *dict.Sorted
	// offset is the first global code owned by this part's dictionary;
	// global code g with g >= offset resolves to dict.At(g-offset),
	// g < offset resolves in an earlier part of the chain.
	offset uint32
	// values is the compressed value index holding global codes.
	values compress.Encoding
	// nulls marks NULL positions (their value-index code is 0).
	nulls []uint64
	// inv is the inverted index: global code → positions; nil for
	// unindexed columns.
	inv map[uint32][]int32
}

// Part is one immutable segment of the main store.
type Part struct {
	schema *types.Schema
	cols   []*partColumn
	rowIDs []types.RowID
	// createTS holds settled commit timestamps (merges only migrate
	// settled rows).
	createTS []uint64
	// deleted flags positions that have (or had) a tombstone; readers
	// consult the registry only when the bit is set. Atomic because
	// delete claims race with scans.
	deleted []atomic.Uint64
}

// NumRows returns the number of rows in the part.
func (p *Part) NumRows() int { return len(p.rowIDs) }

// RowID returns the record id at pos.
func (p *Part) RowID(pos int) types.RowID { return p.rowIDs[pos] }

// CreateTS returns the commit timestamp of the row at pos.
func (p *Part) CreateTS(pos int) uint64 { return p.createTS[pos] }

// Dict returns the local sorted dictionary of a column.
func (p *Part) Dict(col int) *dict.Sorted { return p.cols[col].dict }

// CodeOffset returns the first global code of a column's local
// dictionary.
func (p *Part) CodeOffset(col int) uint32 { return p.cols[col].offset }

// Values returns the compressed value index of a column.
func (p *Part) Values(col int) compress.Encoding { return p.cols[col].values }

// IsNull reports whether the cell at (pos, col) is NULL.
func (p *Part) IsNull(pos, col int) bool {
	w := pos / 64
	n := p.cols[col].nulls
	return w < len(n) && n[w]&(1<<(pos%64)) != 0
}

// markDeleted flags pos as carrying a tombstone.
func (p *Part) markDeleted(pos int) {
	p.deleted[pos/64].Or(1 << (pos % 64))
}

// hasTombstone reports whether pos was ever claimed for deletion.
func (p *Part) hasTombstone(pos int) bool {
	return p.deleted[pos/64].Load()&(1<<(pos%64)) != 0
}

// MemSize approximates the heap footprint in bytes.
func (p *Part) MemSize() int {
	n := 64 + len(p.rowIDs)*8 + len(p.createTS)*8 + len(p.deleted)*8
	for _, c := range p.cols {
		n += c.dict.MemSize() + c.values.MemSize() + len(c.nulls)*8
		for _, list := range c.inv {
			n += len(list)*4 + 16
		}
	}
	return n
}

// PartBuilder assembles an immutable Part from merge output.
type PartBuilder struct {
	schema   *types.Schema
	cols     []*builderColumn
	rowIDs   []types.RowID
	createTS []uint64
	tombs    []bool
	indexed  []bool
}

type builderColumn struct {
	dict   *dict.Sorted
	offset uint32
	codes  []uint32
	nulls  []uint64
}

// NewPartBuilder starts a part. dicts and offsets give each column's
// local dictionary and its global code offset; indexed selects the
// columns that build inverted indexes (the key column should always
// be among them).
func NewPartBuilder(schema *types.Schema, dicts []*dict.Sorted, offsets []uint32, indexed []bool) *PartBuilder {
	b := &PartBuilder{schema: schema, indexed: indexed}
	for i := range schema.Columns {
		b.cols = append(b.cols, &builderColumn{dict: dicts[i], offset: offsets[i]})
	}
	return b
}

// AppendRow adds a row given its global codes (codes[i] ignored when
// nulls[i]). hasTombstone pre-sets the deleted flag for rows whose
// delete is pending or not yet collectable.
func (b *PartBuilder) AppendRow(codes []uint32, nulls []bool, id types.RowID, createTS uint64, hasTombstone bool) {
	pos := len(b.rowIDs)
	for i, c := range b.cols {
		if nulls != nil && nulls[i] {
			c.codes = append(c.codes, 0)
			w := pos / 64
			for w >= len(c.nulls) {
				c.nulls = append(c.nulls, 0)
			}
			c.nulls[w] |= 1 << (pos % 64)
			continue
		}
		c.codes = append(c.codes, codes[i])
	}
	b.rowIDs = append(b.rowIDs, id)
	b.createTS = append(b.createTS, createTS)
	b.tombs = append(b.tombs, hasTombstone)
}

// Seal compresses the value indexes (cost-based scheme choice when
// compressValues is true, plain bit-packing otherwise) and returns
// the immutable Part.
func (b *PartBuilder) Seal(compressValues bool) *Part {
	p := &Part{
		schema:   b.schema,
		rowIDs:   b.rowIDs,
		createTS: b.createTS,
		deleted:  make([]atomic.Uint64, (len(b.rowIDs)+63)/64),
	}
	for i, c := range b.cols {
		card := int(c.offset) + c.dict.Len()
		if card == 0 {
			card = 1
		}
		var enc compress.Encoding
		if compressValues {
			enc = compress.Choose(c.codes, card)
		} else {
			enc = compress.NewPlain(c.codes, card)
		}
		pc := &partColumn{dict: c.dict, offset: c.offset, values: enc, nulls: c.nulls}
		if b.indexed != nil && b.indexed[i] {
			pc.inv = make(map[uint32][]int32)
			for pos, code := range c.codes {
				if isNullAt(c.nulls, pos) {
					continue
				}
				pc.inv[code] = append(pc.inv[code], int32(pos))
			}
		}
		p.cols = append(p.cols, pc)
	}
	for pos, tomb := range b.tombs {
		if tomb {
			p.markDeleted(pos)
		}
	}
	return p
}

func isNullAt(nulls []uint64, pos int) bool {
	w := pos / 64
	return w < len(nulls) && nulls[w]&(1<<(pos%64)) != 0
}

// RestorePart reconstructs a Part from persisted state (the savepoint
// loader). codes must be the raw global codes per column.
func RestorePart(schema *types.Schema, dicts []*dict.Sorted, offsets []uint32, indexed []bool,
	codes [][]uint32, nulls [][]uint64, rowIDs []types.RowID, createTS []uint64, compressValues bool) (*Part, error) {
	if len(dicts) != len(schema.Columns) || len(codes) != len(schema.Columns) {
		return nil, fmt.Errorf("mainstore: restore arity mismatch")
	}
	b := NewPartBuilder(schema, dicts, offsets, indexed)
	rowCodes := make([]uint32, len(schema.Columns))
	rowNulls := make([]bool, len(schema.Columns))
	for pos := range rowIDs {
		for ci := range schema.Columns {
			rowCodes[ci] = codes[ci][pos]
			rowNulls[ci] = isNullAt(nulls[ci], pos)
		}
		b.AppendRow(rowCodes, rowNulls, rowIDs[pos], createTS[pos], false)
	}
	return b.Seal(compressValues), nil
}

// visibleAt reports whether the row at pos is visible at snapshot
// snap to reader self, consulting the tombstone registry when needed.
func (p *Part) visibleAt(pos int, tomb *Tombstones, snap, self uint64) bool {
	if p.createTS[pos] > snap {
		return false
	}
	if !p.hasTombstone(pos) {
		return true
	}
	s := tomb.Get(p.rowIDs[pos])
	if s == nil {
		return true // claim raced and was aborted+forgotten
	}
	return mvcc.Visible(p.createTS[pos], s.Delete(), snap, self)
}
