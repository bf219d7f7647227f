// Package vec defines the columnar batch format of the vectorized
// read path: fixed-size batches of typed per-column vectors with null
// bitmaps and a selection vector, streamed from the unified table's
// stages to the physical operators. Instead of materializing one
// []types.Value per row (and one boxed Value per cell), producers
// decode dictionary-encoded blocks straight into typed arrays and
// operators process them block-at-a-time — the paper's vectorized,
// "directly leverage existing dictionaries" execution style (§3.1,
// §4.1) in the portable form of Krueger et al.'s block scans.
package vec

import (
	"repro/internal/types"
)

// DefaultBatchSize is the row capacity operators use when the table
// config does not override it. 1024 rows keeps the working set of a
// handful of columns inside L1/L2 caches while amortizing per-batch
// overheads.
const DefaultBatchSize = 1024

// Bitmap is a minimal growable bitset marking NULL positions.
type Bitmap []uint64

// Set marks position i.
func (m *Bitmap) Set(i int) {
	w := i / 64
	for w >= len(*m) {
		*m = append(*m, 0)
	}
	(*m)[w] |= 1 << (i % 64)
}

// Get reports whether position i is marked.
func (m Bitmap) Get(i int) bool {
	w := i / 64
	return w < len(m) && m[w]&(1<<(i%64)) != 0
}

// Reset clears the bitmap, keeping its capacity.
func (m *Bitmap) Reset() {
	for i := range *m {
		(*m)[i] = 0
	}
	*m = (*m)[:0]
}

// Col is one column's vector within a batch. Exactly one of the typed
// backing slices is populated, selected by Kind; NULL cells are marked
// in Nulls and leave a zero placeholder (or a short slice) behind.
// Ints carries INT64, DATE, and BOOLEAN values, mirroring
// types.Value.
type Col struct {
	Kind   types.Kind
	Ints   []int64
	Floats []float64
	Strs   []string
	Nulls  Bitmap
	// Vals is the boxed fallback used when a column holds values of
	// conflicting kinds — possible in operator outputs (an integer SUM
	// over an all-NULL group next to a float SUM in the same aggregate
	// column). Scan producers never trigger it.
	Vals  []types.Value
	mixed bool
	n     int
}

// NewCol returns an empty column vector of the given kind.
// KindInvalid is allowed: the column adopts the kind of the first
// non-NULL value appended (adapters over untyped row streams use
// this).
func NewCol(kind types.Kind) *Col { return &Col{Kind: kind} }

// Reset truncates the column in place, keeping capacity.
func (c *Col) Reset() {
	c.Ints = c.Ints[:0]
	c.Floats = c.Floats[:0]
	c.Strs = c.Strs[:0]
	c.Vals = c.Vals[:0]
	c.mixed = false
	c.Nulls.Reset()
	c.n = 0
}

// pad extends the active backing slice with placeholders up to
// position i (exclusive), covering NULL cells appended before it.
func (c *Col) pad(i int) {
	switch c.Kind {
	case types.KindString:
		for len(c.Strs) < i {
			c.Strs = append(c.Strs, "")
		}
	case types.KindFloat64:
		for len(c.Floats) < i {
			c.Floats = append(c.Floats, 0)
		}
	default:
		for len(c.Ints) < i {
			c.Ints = append(c.Ints, 0)
		}
	}
}

// Append adds one cell, adopting the value's kind if the column has
// none yet. A non-NULL value whose kind conflicts with the column's
// demotes the column to boxed storage (see Col.Vals).
func (c *Col) Append(v types.Value) {
	if !c.mixed && !v.IsNull() && c.Kind != types.KindInvalid && v.Kind != c.Kind {
		c.demote()
	}
	i := c.n
	c.n++
	if c.mixed {
		c.Vals = append(c.Vals, v)
		if v.IsNull() {
			c.Nulls.Set(i)
		}
		return
	}
	if v.IsNull() {
		c.Nulls.Set(i)
		return
	}
	if c.Kind == types.KindInvalid {
		c.Kind = v.Kind
	}
	c.pad(i)
	switch c.Kind {
	case types.KindString:
		c.Strs = append(c.Strs, v.S)
	case types.KindFloat64:
		c.Floats = append(c.Floats, v.F)
	default:
		c.Ints = append(c.Ints, v.I)
	}
}

// demote reboxes the column's cells into Vals, switching all further
// appends and reads to the boxed representation.
func (c *Col) demote() {
	vals := make([]types.Value, c.n)
	for i := range vals {
		vals[i] = c.Value(i)
	}
	c.Vals = vals
	c.mixed = true
	c.Ints, c.Floats, c.Strs = c.Ints[:0], c.Floats[:0], c.Strs[:0]
}

// AppendNull adds one NULL cell.
func (c *Col) AppendNull() {
	if c.mixed {
		c.Vals = append(c.Vals, types.Null)
	}
	c.Nulls.Set(c.n)
	c.n++
}

// Value boxes the cell at position i.
func (c *Col) Value(i int) types.Value {
	if c.mixed {
		return c.Vals[i]
	}
	if c.Nulls.Get(i) {
		return types.Null
	}
	switch c.Kind {
	case types.KindString:
		return types.Str(c.Strs[i])
	case types.KindFloat64:
		return types.Float(c.Floats[i])
	default:
		return types.Value{Kind: c.Kind, I: c.Ints[i]}
	}
}

// Batch is a block of rows in columnar layout. All columns have the
// same physical length; Sel, when non-nil, selects the live subset of
// physical positions in ascending order (filters drop rows by
// shrinking the selection instead of copying vectors). A batch is
// reused by its producer: consumers must fully process it before
// pulling the next one.
type Batch struct {
	Cols []*Col
	// Sel is the selection vector: physical positions of the live rows,
	// ascending. nil selects every physical row.
	Sel []int32
	n   int
}

// New returns an empty batch with one column per kind. KindInvalid
// entries make untyped, kind-adopting columns.
func New(kinds []types.Kind) *Batch {
	b := &Batch{Cols: make([]*Col, len(kinds))}
	for i, k := range kinds {
		b.Cols[i] = NewCol(k)
	}
	return b
}

// NumCols returns the column count.
func (b *Batch) NumCols() int { return len(b.Cols) }

// Len returns the physical row count (before selection).
func (b *Batch) Len() int { return b.n }

// SetLen records the physical row count after producers have appended
// column-wise. Every column must hold exactly n cells.
func (b *Batch) SetLen(n int) { b.n = n }

// Rows returns the live row count (after selection).
func (b *Batch) Rows() int {
	if b.Sel != nil {
		return len(b.Sel)
	}
	return b.n
}

// Reset empties the batch in place, keeping column capacity.
func (b *Batch) Reset() {
	for _, c := range b.Cols {
		c.Reset()
	}
	b.Sel = nil
	b.n = 0
}

// AppendRow adds one row across all columns.
func (b *Batch) AppendRow(row []types.Value) {
	for i, c := range b.Cols {
		c.Append(row[i])
	}
	b.n++
}

// phys maps a live row index to its physical position.
func (b *Batch) phys(i int) int {
	if b.Sel != nil {
		return int(b.Sel[i])
	}
	return i
}

// RowAt materializes the i-th live row into buf (grown as needed) and
// returns it. The returned slice is only valid until the next call.
func (b *Batch) RowAt(i int, buf []types.Value) []types.Value {
	p := b.phys(i)
	if cap(buf) < len(b.Cols) {
		buf = make([]types.Value, len(b.Cols))
	}
	buf = buf[:len(b.Cols)]
	for ci, c := range b.Cols {
		buf[ci] = c.Value(p)
	}
	return buf
}

// Select refines the selection to the live rows whose physical
// position satisfies keep.
func (b *Batch) Select(keep func(pos int) bool) {
	sel := b.Sel[:0]
	if b.Sel == nil {
		sel = make([]int32, 0, b.n)
		for p := 0; p < b.n; p++ {
			if keep(p) {
				sel = append(sel, int32(p))
			}
		}
	} else {
		for _, p := range b.Sel {
			if keep(int(p)) {
				sel = append(sel, p)
			}
		}
	}
	b.Sel = sel
}

// Project returns a batch over the listed columns (in that order)
// sharing this batch's column vectors and selection — column pruning
// is free in columnar layout.
func (b *Batch) Project(cols []int) *Batch {
	out := &Batch{Cols: make([]*Col, len(cols)), Sel: b.Sel, n: b.n}
	for i, c := range cols {
		out.Cols[i] = b.Cols[c]
	}
	return out
}

// Materialize copies the live rows out as boxed row slices (the
// compatibility bridge to the row-at-a-time world).
func (b *Batch) Materialize() [][]types.Value {
	out := make([][]types.Value, 0, b.Rows())
	for i := 0; i < b.Rows(); i++ {
		row := make([]types.Value, len(b.Cols))
		p := b.phys(i)
		for ci, c := range b.Cols {
			row[ci] = c.Value(p)
		}
		out = append(out, row)
	}
	return out
}
