package vec

import (
	"reflect"
	"testing"

	"repro/internal/types"
)

func TestColAppendAndValue(t *testing.T) {
	c := NewCol(types.KindInt64)
	c.Append(types.Int(7))
	c.AppendNull()
	c.Append(types.Int(9))
	if c.n != 3 {
		t.Fatalf("len = %d, want 3", c.n)
	}
	want := []types.Value{types.Int(7), types.Null, types.Int(9)}
	for i, w := range want {
		if got := c.Value(i); got != w {
			t.Fatalf("Value(%d) = %v, want %v", i, got, w)
		}
	}
	// The int backing array must stay index-aligned across the NULL.
	if len(c.Ints) != 3 || c.Ints[2] != 9 {
		t.Fatalf("Ints = %v, want padded [7 0 9]", c.Ints)
	}
}

func TestColKindAdoption(t *testing.T) {
	c := NewCol(types.KindInvalid)
	c.Append(types.Null)
	c.Append(types.Str("x"))
	if c.Kind != types.KindString {
		t.Fatalf("kind = %v, want string", c.Kind)
	}
	if got := c.Value(1); got != types.Str("x") {
		t.Fatalf("Value(1) = %v", got)
	}
	if !c.Value(0).IsNull() {
		t.Fatalf("Value(0) not null")
	}
}

// TestColMixedKindDemotion pins the boxed fallback: operator outputs
// can hold conflicting kinds in one column (an integer SUM over an
// all-NULL group next to a float SUM), which must not silently zero
// the later values.
func TestColMixedKindDemotion(t *testing.T) {
	c := NewCol(types.KindInvalid)
	c.Append(types.Int(0)) // adopts int
	c.Append(types.Float(47.6))
	c.Append(types.Null)
	c.Append(types.Str("x"))
	want := []types.Value{types.Int(0), types.Float(47.6), types.Null, types.Str("x")}
	for i, w := range want {
		if got := c.Value(i); got != w {
			t.Fatalf("Value(%d) = %v, want %v", i, got, w)
		}
	}
	// Typed fast paths keep working on a demoted column.
	c.Append(types.Float(1.5))
	c.AppendNull()
	if got := c.Value(4); got != types.Float(1.5) {
		t.Fatalf("Value(4) = %v", got)
	}
	if !c.Value(5).IsNull() {
		t.Fatalf("Value(5) not null")
	}
	if c.n != 6 {
		t.Fatalf("len = %d, want 6", c.n)
	}
	// Reset restores the typed representation.
	c.Reset()
	c.Append(types.Int(9))
	if len(c.Vals) != 0 || c.Value(0) != types.Int(9) {
		t.Fatalf("after reset: Vals=%v Value(0)=%v", c.Vals, c.Value(0))
	}
}

func TestColResetKeepsBacking(t *testing.T) {
	c := NewCol(types.KindFloat64)
	c.Append(types.Float(1.5))
	c.AppendNull()
	c.Reset()
	if c.n != 0 || c.Nulls.Get(1) {
		t.Fatalf("reset did not clear col")
	}
	c.Append(types.Float(2.5))
	if got := c.Value(0); got != types.Float(2.5) {
		t.Fatalf("after reset Value(0) = %v", got)
	}
}

func TestBatchSelectTruncateRowAt(t *testing.T) {
	b := New([]types.Kind{types.KindInt64, types.KindString})
	for i := 0; i < 5; i++ {
		b.AppendRow([]types.Value{types.Int(int64(i)), types.Str(string(rune('a' + i)))})
	}
	if b.Rows() != 5 || b.Len() != 5 {
		t.Fatalf("rows=%d len=%d", b.Rows(), b.Len())
	}
	// Keep even positions.
	b.Select(func(pos int) bool { return b.Cols[0].Ints[pos]%2 == 0 })
	if b.Rows() != 3 {
		t.Fatalf("rows after select = %d, want 3", b.Rows())
	}
	row := b.RowAt(1, nil)
	if row[0] != types.Int(2) || row[1] != types.Str("c") {
		t.Fatalf("RowAt(1) = %v", row)
	}
	// Refine again: selection composes.
	b.Select(func(pos int) bool { return b.Cols[0].Ints[pos] < 4 })
	if b.Rows() != 2 {
		t.Fatalf("rows after 2nd select = %d, want 2", b.Rows())
	}
	b.Truncate(1)
	if b.Rows() != 1 {
		t.Fatalf("rows after truncate = %d", b.Rows())
	}
	got := b.Materialize()
	want := [][]types.Value{{types.Int(0), types.Str("a")}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("materialize = %v, want %v", got, want)
	}
}

func TestBatchTruncateNoSel(t *testing.T) {
	b := New([]types.Kind{types.KindInt64})
	for i := 0; i < 4; i++ {
		b.AppendRow([]types.Value{types.Int(int64(i))})
	}
	b.Truncate(2)
	if b.Rows() != 2 {
		t.Fatalf("rows = %d", b.Rows())
	}
	if got := b.RowAt(1, nil)[0]; got != types.Int(1) {
		t.Fatalf("RowAt(1) = %v", got)
	}
}

func TestBatchProjectSharesVectors(t *testing.T) {
	b := New([]types.Kind{types.KindInt64, types.KindString, types.KindFloat64})
	b.AppendRow([]types.Value{types.Int(1), types.Str("a"), types.Float(0.5)})
	b.AppendRow([]types.Value{types.Int(2), types.Str("b"), types.Float(1.5)})
	b.Select(func(pos int) bool { return pos == 1 })
	p := b.Project([]int{2, 0})
	if p.NumCols() != 2 || p.Rows() != 1 {
		t.Fatalf("projected shape %d cols %d rows", p.NumCols(), p.Rows())
	}
	row := p.RowAt(0, nil)
	if row[0] != types.Float(1.5) || row[1] != types.Int(2) {
		t.Fatalf("projected row = %v", row)
	}
	if p.Cols[1] != b.Cols[0] {
		t.Fatalf("projection copied column vectors")
	}
}

func TestBatchResetReuse(t *testing.T) {
	b := New([]types.Kind{types.KindInt64})
	b.AppendRow([]types.Value{types.Int(1)})
	b.Select(func(int) bool { return false })
	cols := b.Cols[0]
	b.Reset()
	if b.Rows() != 0 || b.Sel != nil || b.Len() != 0 {
		t.Fatalf("reset batch not empty")
	}
	if b.Cols[0] != cols {
		t.Fatalf("reset replaced column pointer")
	}
	b.AppendRow([]types.Value{types.Int(5)})
	if got := b.RowAt(0, nil)[0]; got != types.Int(5) {
		t.Fatalf("after reset RowAt = %v", got)
	}
}

func TestColumnWiseFillWithSetLen(t *testing.T) {
	b := New([]types.Kind{types.KindInt64, types.KindString})
	b.Cols[0].Append(types.Int(10))
	b.Cols[0].Append(types.Int(20))
	b.Cols[1].Append(types.Str("x"))
	b.Cols[1].AppendNull()
	b.SetLen(2)
	if b.Rows() != 2 {
		t.Fatalf("rows = %d", b.Rows())
	}
	row := b.RowAt(1, nil)
	if row[0] != types.Int(20) || !row[1].IsNull() {
		t.Fatalf("row = %v", row)
	}
}
