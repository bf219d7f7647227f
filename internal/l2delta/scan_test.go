package l2delta

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/mvcc"
	"repro/internal/types"
	"repro/internal/vec"
)

func scanFixture(t *testing.T) (*Store, uint64) {
	t.Helper()
	schema := types.MustSchema([]types.Column{
		{Name: "id", Kind: types.KindInt64},
		{Name: "city", Kind: types.KindString, Nullable: true},
		{Name: "qty", Kind: types.KindInt64, Nullable: true},
		{Name: "price", Kind: types.KindFloat64},
	}, 0)
	s := New(schema, nil)
	m := mvcc.NewManager()
	add := func(id int64, city string, qty int64, price float64) {
		cv := types.Null
		if city != "" {
			cv = types.Str(city)
		}
		qv := types.Value{Kind: types.KindInt64, I: qty}
		if qty < 0 {
			qv = types.Null
		}
		tx := m.Begin(mvcc.TxnSnapshot)
		st := mvcc.NewStamp(tx.Marker())
		tx.RecordCreate(st)
		s.AppendRow([]types.Value{types.Int(id), cv, qv, types.Float(price)}, types.RowID(id), st)
		tx.Commit()
	}
	add(1, "b", 1, 0.5)
	add(2, "a", 2, 1.5)
	add(3, "", -1, 2.5)
	add(4, "b", 4, 3.5)
	add(5, "a", -1, 4.5)
	// Delete row 4.
	tx := m.Begin(mvcc.TxnSnapshot)
	s.Stamp(3).ClaimDelete(tx.Marker())
	tx.RecordDelete(s.Stamp(3))
	tx.Commit()
	return s, m.LastCommitted()
}

// TestScanVisibleColsL2 checks the batch scan's block-decoded columns
// against the visible rows (NULLs kept, the deleted row 4 hidden), the
// border cut, and a fill that runs out of room and resumes.
func TestScanVisibleColsL2(t *testing.T) {
	s, snap := scanFixture(t)
	scan := func(border, room int) string {
		c := s.NewBatchScan([]int{0, 1, 3}, border, snap, 0)
		out := []*vec.Col{vec.NewCol(types.KindInt64), vec.NewCol(types.KindString), vec.NewCol(types.KindFloat64)}
		n := 0
		for more := true; more; {
			var filled int
			filled, more = c.Fill(out, room)
			n += filled
		}
		var rows []string
		for i := 0; i < n; i++ {
			rows = append(rows, fmt.Sprintf("%v:%v/%v", out[0].Value(i), out[1].Value(i), out[2].Value(i)))
		}
		return fmt.Sprint(rows)
	}
	want := "[1:b/0.5 2:a/1.5 3:NULL/2.5 5:a/4.5]"
	if got := scan(s.Len(), 1024); got != want {
		t.Fatalf("got %s, want %s", got, want)
	}
	if got := scan(s.Len(), 1); got != want {
		t.Fatalf("one row per fill: got %s, want %s", got, want)
	}
	if got := scan(2, 1024); got != "[1:b/0.5 2:a/1.5]" {
		t.Fatalf("bordered = %s", got)
	}
}

func TestScanVisibleGroupCodesL2(t *testing.T) {
	s, snap := scanFixture(t)
	counts := map[string]int{}
	s.ScanVisibleGroupCodes(1, []int{2}, s.Len(), snap, 0, func(_ int, code int32, _ []types.Value) bool {
		key := "NULL"
		if code >= 0 {
			key = s.Dict(1).At(uint32(code)).S
		}
		counts[key]++
		return true
	})
	want := map[string]int{"a": 2, "b": 1, "NULL": 1}
	if fmt.Sprint(counts) != fmt.Sprint(want) {
		t.Fatalf("counts = %v, want %v", counts, want)
	}
}

func TestAccumNumericL2(t *testing.T) {
	s, snap := scanFixture(t)
	card := s.Dict(1).Len()
	counts := make([]int64, card+1)
	colCnt := [][]int64{make([]int64, card+1), make([]int64, card+1)}
	colSumI := [][]int64{make([]int64, card+1), make([]int64, card+1)}
	colSumF := [][]float64{make([]float64, card+1), make([]float64, card+1)}
	if err := s.AccumNumeric(context.Background(), 1, []int{2, 3}, s.Len(), snap, 0, counts, colCnt, colSumI, colSumF); err != nil {
		t.Fatal(err)
	}

	get := func(city string) (int64, int64, float64) {
		code, ok := s.Dict(1).Lookup(types.Str(city))
		if !ok {
			t.Fatalf("no dict entry %q", city)
		}
		return counts[code], colSumI[0][code], colSumF[1][code]
	}
	if c, q, p := get("a"); c != 2 || q != 2 || p != 6 {
		t.Fatalf("a = %d/%d/%v", c, q, p)
	}
	if c, q, p := get("b"); c != 1 || q != 1 || p != 0.5 {
		t.Fatalf("b = %d/%d/%v (deleted row must be excluded)", c, q, p)
	}
	// NULL group at the sentinel index.
	if counts[card] != 1 || colSumF[1][card] != 2.5 {
		t.Fatalf("null group = %d/%v", counts[card], colSumF[1][card])
	}
}

func TestSchemaStampCodesAccessors(t *testing.T) {
	s, _ := scanFixture(t)
	if s.Schema() == nil || s.Schema().Key != 0 {
		t.Fatal("Schema accessor broken")
	}
	if s.Stamp(0) == nil {
		t.Fatal("Stamp accessor broken")
	}
	if s.Codes(1).Len() != s.Len() {
		t.Fatal("Codes accessor broken")
	}
}

// TestAccumNumericObservesCtx proves a cancelled context stops the
// kernel on entry, before any code is accumulated.
func TestAccumNumericObservesCtx(t *testing.T) {
	s, snap := scanFixture(t)
	card := s.Dict(1).Len()
	counts := make([]int64, card+1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := s.AccumNumeric(ctx, 1, nil, s.Len(), snap, 0, counts, nil, nil, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	for code, n := range counts {
		if n != 0 {
			t.Fatalf("counts[%d] = %d after a cancelled accumulation", code, n)
		}
	}
}
