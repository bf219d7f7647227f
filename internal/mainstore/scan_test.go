package mainstore

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/mvcc"
	"repro/internal/types"
)

// chainFixture builds a two-part store with NULLs and one tombstone.
func chainFixture(t *testing.T) (*Store, *Tombstones, *mvcc.Manager) {
	t.Helper()
	schema := types.MustSchema([]types.Column{
		{Name: "id", Kind: types.KindInt64},
		{Name: "city", Kind: types.KindString, Nullable: true},
		{Name: "qty", Kind: types.KindInt64, Nullable: true},
		{Name: "price", Kind: types.KindFloat64},
	}, 0)
	row := func(id int64, city string, qty int64, price float64) []types.Value {
		cv := types.Null
		if city != "" {
			cv = types.Str(city)
		}
		qv := types.Value{Kind: types.KindInt64, I: qty}
		if qty < 0 {
			qv = types.Null
		}
		return []types.Value{types.Int(id), cv, qv, types.Float(price)}
	}
	s := buildChain(t, schema,
		rows(
			row(0, "b", 1, 0.5), row(0, "a", 2, 1.5), row(0, "", -1, 2.5),
			row(0, "b", 4, 3.5), row(0, "c", 5, 4.5),
		),
		rows(
			row(0, "d", 6, 5.5), row(0, "a", -1, 6.5), row(0, "", 8, 7.5),
		),
	)
	m := mvcc.NewManager()
	tomb := NewTombstones()
	// buildChain assigned ids 1..8 in order; delete row id 4 (part 0
	// pos 3).
	tx := m.Begin(mvcc.TxnSnapshot)
	st, ok := tomb.Claim(4, s.CreateTS(Loc{Part: 0, Pos: 3}), tx.Marker())
	if !ok {
		t.Fatal("claim failed")
	}
	tx.RecordDelete(st)
	s.MarkDeleted(Loc{Part: 0, Pos: 3})
	tx.Commit()
	return s, tomb, m
}

// TestScanVisibleColsMatchesValue checks the batch scan's block decoding
// against per-cell Value over a two-part chain with NULLs and a
// tombstone, unfiltered and with a pushed-down range whose interval
// includes code 0, which NULL cells also carry.
func TestScanVisibleColsMatchesValue(t *testing.T) {
	s, tomb, m := chainFixture(t)
	snap := m.LastCommitted()
	var want, wantAtoC []string
	s.ScanVisible(tomb, snap, 0, func(loc Loc) bool {
		row := fmt.Sprint([]types.Value{s.Value(loc, 1), s.Value(loc, 3)})
		want = append(want, row)
		if city := s.Value(loc, 1); !city.IsNull() && city.S <= "c" {
			wantAtoC = append(wantAtoC, row)
		}
		return true
	})
	if len(want) != 7 {
		t.Fatalf("ScanVisible saw %d rows, want 7", len(want))
	}
	render := func(rows [][]types.Value) []string {
		var out []string
		for _, r := range rows {
			out = append(out, fmt.Sprint(r))
		}
		return out
	}
	c := s.NewBatchScan([]int{1, 3}, tomb, snap, 0)
	if got := render(drainBatchScan(c, types.KindString, types.KindFloat64)); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("batch scan = %v, want %v", got, want)
	}
	c = s.NewBatchScan([]int{1, 3}, tomb, snap, 0)
	c.FilterRange(1, types.Str("a"), types.Str("c"), true, true)
	if got := render(drainBatchScan(c, types.KindString, types.KindFloat64)); fmt.Sprint(got) != fmt.Sprint(wantAtoC) {
		t.Errorf("filtered batch scan = %v, want %v", got, wantAtoC)
	}
}

func TestScanVisibleGroupCodesChain(t *testing.T) {
	s, tomb, m := chainFixture(t)
	snap := m.LastCommitted()
	counts := map[string]int{}
	s.ScanVisibleGroupCodes(1, []int{2}, tomb, snap, 0, func(_ Loc, code int32, vals []types.Value) bool {
		key := "NULL"
		if code >= 0 {
			key = s.ResolveCode(1, uint32(code)).S
		}
		counts[key]++
		return true
	})
	// Visible: b,a,NULL,c (part0, id4 deleted) + d,a,NULL (part1).
	want := map[string]int{"a": 2, "b": 1, "c": 1, "d": 1, "NULL": 2}
	for k, n := range want {
		if counts[k] != n {
			t.Fatalf("counts = %v, want %v", counts, want)
		}
	}
}

func TestAccumNumericChain(t *testing.T) {
	s, tomb, m := chainFixture(t)
	snap := m.LastCommitted()
	card := s.Cardinality(1)
	counts := make([]int64, card+1)
	colCnt := [][]int64{make([]int64, card+1), make([]int64, card+1)}
	colSumI := [][]int64{make([]int64, card+1), make([]int64, card+1)}
	colSumF := [][]float64{make([]float64, card+1), make([]float64, card+1)}
	if err := s.AccumNumeric(context.Background(), 1, []int{2, 3}, tomb, snap, 0, counts, colCnt, colSumI, colSumF); err != nil {
		t.Fatal(err)
	}

	sums := map[string][3]float64{} // count, sum(qty), sum(price)
	for code := 0; code <= card; code++ {
		if counts[code] == 0 {
			continue
		}
		key := "NULL"
		if code < card {
			key = s.ResolveCode(1, uint32(code)).S
		}
		sums[key] = [3]float64{float64(counts[code]), float64(colSumI[0][code]), colSumF[1][code]}
	}
	// a: rows (a,2,1.5) and (a,NULL,6.5) → count 2, qty 2, price 8.0
	if got := sums["a"]; got != [3]float64{2, 2, 8} {
		t.Fatalf("a = %v", got)
	}
	// NULL group: (NULL,-,2.5) and (NULL,8,7.5) → count 2, qty 8, price 10.
	if got := sums["NULL"]; got != [3]float64{2, 8, 10} {
		t.Fatalf("NULL = %v", got)
	}
	// Deleted row (b,4,3.5) excluded: b count 1, qty 1, price 0.5.
	if got := sums["b"]; got != [3]float64{1, 1, 0.5} {
		t.Fatalf("b = %v", got)
	}
}

func TestMarkDeletedByRowID(t *testing.T) {
	s, tomb, m := chainFixture(t)
	if !s.MarkDeletedByRowID(7) {
		t.Fatal("row 7 not found")
	}
	if s.MarkDeletedByRowID(999) {
		t.Fatal("phantom row found")
	}
	// Marking alone doesn't hide the row (no registry entry → treated
	// as raced-and-forgotten).
	visible := 0
	s.ScanVisible(tomb, m.LastCommitted(), 0, func(Loc) bool { visible++; return true })
	if visible != 7 {
		t.Fatalf("visible = %d", visible)
	}
}

// TestColumnBytesAndMemSize checks that MemSize covers every column's
// dictionary, value index and null bitmap in every part.
func TestColumnBytesAndMemSize(t *testing.T) {
	s, _, _ := chainFixture(t)
	total := 0
	for _, p := range s.parts {
		for ci, c := range p.cols {
			b := c.dict.MemSize() + c.values.MemSize() + len(c.nulls)*8
			if b <= 0 {
				t.Fatalf("column %d bytes = %d", ci, b)
			}
			total += b
		}
	}
	if s.MemSize() < total {
		t.Fatalf("MemSize %d < column bytes %d", s.MemSize(), total)
	}
	if s.Schema() == nil {
		t.Fatal("Schema nil")
	}
	// Row materialization.
	r := s.Row(Loc{Part: 1, Pos: 0})
	if len(r) != 4 || r[1].S != "d" {
		t.Fatalf("Row = %v", r)
	}
}

// TestAccumNumericObservesCtx proves a cancelled context stops the
// chain kernel at the first part, before any code is accumulated.
func TestAccumNumericObservesCtx(t *testing.T) {
	s, tomb, m := chainFixture(t)
	counts := make([]int64, s.Cardinality(1)+1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := s.AccumNumeric(ctx, 1, nil, tomb, m.LastCommitted(), 0, counts, nil, nil, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	for code, n := range counts {
		if n != 0 {
			t.Fatalf("counts[%d] = %d after a cancelled accumulation", code, n)
		}
	}
}
