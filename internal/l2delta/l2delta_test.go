package l2delta

import (
	"fmt"
	"testing"

	"repro/internal/mvcc"
	"repro/internal/types"
	"repro/internal/vec"
)

func testSchema() *types.Schema {
	return types.MustSchema([]types.Column{
		{Name: "id", Kind: types.KindInt64},
		{Name: "city", Kind: types.KindString, Nullable: true},
		{Name: "amount", Kind: types.KindFloat64},
	}, 0)
}

// genesisTS is the commit timestamp of rows loaded outside any
// transaction.
const genesisTS uint64 = 1

func genesis() *mvcc.Stamp { return mvcc.NewStamp(genesisTS) }

func appendRows(s *Store, start int64, cities ...string) {
	for i, c := range cities {
		id := start + int64(i)
		var city types.Value
		if c == "" {
			city = types.Null
		} else {
			city = types.Str(c)
		}
		s.AppendRow([]types.Value{types.Int(id), city, types.Float(float64(id) / 2)},
			types.RowID(id), genesis())
	}
}

func TestAppendRowAndMaterialize(t *testing.T) {
	s := New(testSchema(), nil)
	appendRows(s, 1, "Berlin", "Seoul", "Berlin")
	if s.Len() != 3 {
		t.Fatalf("Len = %d", s.Len())
	}
	row := s.Row(1)
	if row[0].I != 2 || row[1].S != "Seoul" || row[2].F != 1.0 {
		t.Errorf("Row(1) = %v", row)
	}
	if s.RowID(2) != 3 {
		t.Errorf("RowID(2) = %d", s.RowID(2))
	}
	// Dictionary dedup: "Berlin" appears once.
	if s.Dict(1).Len() != 2 {
		t.Errorf("city dict len = %d, want 2", s.Dict(1).Len())
	}
	if err := s.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestNullHandling(t *testing.T) {
	s := New(testSchema(), nil)
	appendRows(s, 1, "Berlin", "", "Seoul")
	if !s.IsNull(1, 1) || s.IsNull(0, 1) {
		t.Error("null bitmap wrong")
	}
	if got := s.Value(1, 1); !got.IsNull() {
		t.Errorf("Value(1,1) = %v, want NULL", got)
	}
	// NULL must not pollute the dictionary.
	if s.Dict(1).Len() != 2 {
		t.Errorf("dict len = %d, want 2", s.Dict(1).Len())
	}
	// A value that happens to share code 0 must not match the NULL row.
	hits := s.LookupValue(1, types.Str("Berlin"), 0)
	if len(hits) != 1 || hits[0] != 0 {
		t.Errorf("LookupValue(Berlin) = %v", hits)
	}
}

func TestKeyColumnAlwaysIndexed(t *testing.T) {
	s := New(testSchema(), nil)
	if len(s.indexed) != 3 || !s.indexed[0] || s.indexed[1] || s.indexed[2] {
		t.Fatalf("indexed = %v", s.indexed)
	}
	appendRows(s, 10, "a", "b")
	hits := s.LookupValue(0, types.Int(11), 0)
	if len(hits) != 1 || hits[0] != 1 {
		t.Errorf("indexed lookup = %v", hits)
	}
	if got := s.LookupValue(0, types.Int(99), 0); got != nil {
		t.Errorf("missing key lookup = %v", got)
	}
}

func TestExtraIndexedColumn(t *testing.T) {
	s := New(testSchema(), []int{1})
	appendRows(s, 1, "x", "y", "x", "x")
	hits := s.LookupValue(1, types.Str("x"), 0)
	if len(hits) != 3 {
		t.Errorf("inverted lookup = %v", hits)
	}
	if limited := s.LookupValue(1, types.Str("x"), 2); len(limited) != 2 {
		t.Errorf("limited lookup = %v", limited)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestUnindexedLookupFallsBackToScan(t *testing.T) {
	s := New(testSchema(), nil)
	appendRows(s, 1, "x", "y", "x")
	hits := s.LookupValue(1, types.Str("x"), 0)
	if len(hits) != 2 || hits[0] != 0 || hits[1] != 2 {
		t.Errorf("scan lookup = %v", hits)
	}
}

func TestAppendBatchMatchesRowAppend(t *testing.T) {
	a := New(testSchema(), []int{1})
	b := New(testSchema(), []int{1})
	var rows [][]types.Value
	var ids []types.RowID
	var stamps []*mvcc.Stamp
	cities := []string{"Berlin", "Seoul", "", "Berlin", "Palo Alto"}
	for i, c := range cities {
		var city types.Value
		if c != "" {
			city = types.Str(c)
		}
		row := []types.Value{types.Int(int64(i)), city, types.Float(float64(i))}
		a.AppendRow(row, types.RowID(i+1), genesis())
		rows = append(rows, row)
		ids = append(ids, types.RowID(i+1))
		stamps = append(stamps, genesis())
	}
	b.AppendBatch(rows, ids, stamps)
	if a.Len() != b.Len() {
		t.Fatalf("lens differ: %d vs %d", a.Len(), b.Len())
	}
	for pos := 0; pos < a.Len(); pos++ {
		for col := 0; col < 3; col++ {
			av, bv := a.Value(pos, col), b.Value(pos, col)
			if av.IsNull() != bv.IsNull() || (!av.IsNull() && !types.Equal(av, bv)) {
				t.Errorf("(%d,%d): %v vs %v", pos, col, av, bv)
			}
		}
	}
	if err := b.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// TestScanColumnRange runs Fig. 10-style range predicates through the
// batch scan's pushdown: the unsorted dictionary resolves the value
// range to a code set, and the border cuts off later rows.
func TestScanColumnRange(t *testing.T) {
	s := New(testSchema(), nil)
	appendRows(s, 1, "Campbell", "Los Gatos", "Daily City", "San Jose", "Los Angeles")
	ids := func(col int, lo, hi types.Value, loInc, hiInc bool, border int) string {
		c := s.NewBatchScan([]int{0}, border, genesisTS, 0)
		c.FilterRange(col, lo, hi, loInc, hiInc)
		out := []*vec.Col{vec.NewCol(types.KindInt64)}
		for more := true; more; {
			_, more = c.Fill(out, 1024)
		}
		return fmt.Sprint(out[0].Ints)
	}
	// C% to L% inclusive of L-prefixed cities: Campbell, Los Gatos,
	// Daily City, Los Angeles.
	if got := ids(1, types.Str("C"), types.Str("M"), true, false, s.Len()); got != "[1 2 3 5]" {
		t.Errorf("range ids = %s", got)
	}
	if got := ids(1, types.Str("C"), types.Str("M"), true, false, 2); got != "[1 2]" {
		t.Errorf("bordered ids = %s", got)
	}
	// Numeric range on the float column (amount = id/2).
	if got := ids(2, types.Float(1), types.Float(2), true, true, s.Len()); got != "[2 3 4]" {
		t.Errorf("float ids = %s", got)
	}
	if got := ids(1, types.Str("Z"), types.Null, true, true, s.Len()); got != "[]" {
		t.Errorf("empty range = %s", got)
	}
}

func TestScanVisible(t *testing.T) {
	m := mvcc.NewManager()
	s := New(testSchema(), nil)
	appendRows(s, 1, "a", "b")

	tx := m.Begin(mvcc.TxnSnapshot)
	st := mvcc.NewStamp(tx.Marker())
	tx.RecordCreate(st)
	s.AppendRow([]types.Value{types.Int(3), types.Str("c"), types.Float(0)}, 3, st)

	var ids []int64
	s.ScanVisible(s.Len(), m.LastCommitted(), 0, func(pos int) bool {
		ids = append(ids, s.Value(pos, 0).I)
		return true
	})
	if len(ids) != 2 {
		t.Errorf("visible scan = %v", ids)
	}
	tx.Commit()
	ids = nil
	s.ScanVisible(s.Len(), m.LastCommitted(), 0, func(pos int) bool {
		ids = append(ids, s.Value(pos, 0).I)
		return true
	})
	if len(ids) != 3 {
		t.Errorf("post-commit scan = %v", ids)
	}
	// Early stop.
	n := 0
	s.ScanVisible(s.Len(), m.LastCommitted(), 0, func(int) bool { n++; return false })
	if n != 1 {
		t.Errorf("early stop scanned %d", n)
	}
}

func TestCloseBlocksAppends(t *testing.T) {
	s := New(testSchema(), nil)
	s.Close()
	if !s.closed {
		t.Fatal("not closed")
	}
	defer func() {
		if recover() == nil {
			t.Error("append to closed store should panic")
		}
	}()
	appendRows(s, 1, "x")
}

func TestMemSizeSmallerThanL1Equivalent(t *testing.T) {
	s := New(testSchema(), nil)
	for i := 0; i < 10000; i++ {
		// Low-cardinality city column: dictionary encoding must pay off.
		city := []string{"Berlin", "Seoul", "Palo Alto", "Walldorf"}[i%4]
		s.AppendRow([]types.Value{types.Int(int64(i)), types.Str(city), types.Float(1)},
			types.RowID(i+1), genesis())
	}
	// ~10k rows with a 4-entry city dictionary: even with stamps,
	// row ids, and the key inverted index, the columnar layout should
	// stay well under the ~180 B/row the uncompressed row format of
	// the L1-delta costs (Fig. 11's footprint ordering).
	if s.MemSize() > 10000*120 {
		t.Errorf("MemSize = %d (%.0f B/row), not below the L1 row format", s.MemSize(), float64(s.MemSize())/10000)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Error(err)
	}
}
