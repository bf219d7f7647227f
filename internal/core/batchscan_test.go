package core

import (
	"reflect"
	"sort"
	"testing"

	"repro/internal/expr"
	"repro/internal/mvcc"
	"repro/internal/types"
	"repro/internal/vec"
)

// batchRows drains a batch scan into materialized rows.
func batchRows(v *View, cols []int, pred expr.Predicate, batchSize int) [][]types.Value {
	var out [][]types.Value
	v.ScanBatches(cols, pred, batchSize, func(b *vec.Batch) bool {
		out = append(out, b.Materialize()...)
		return true
	})
	return out
}

// rowKey renders a row for order-insensitive comparison.
func rowKey(row []types.Value) string {
	s := ""
	for _, v := range row {
		s += v.String() + "|"
	}
	return s
}

func sortedKeys(rows [][]types.Value) []string {
	keys := make([]string, len(rows))
	for i, r := range rows {
		keys[i] = rowKey(r)
	}
	sort.Strings(keys)
	return keys
}

// TestScanBatchesMatchesScanCols drives the vectorized column scan
// against the row path (ScanAll plus the predicate evaluated row by
// row) over a table spread across all three stages (split main, L2
// generation, L1 rows) with NULLs and deletes, across several
// predicates, column sets and batch sizes.
func TestScanBatchesMatchesScanCols(t *testing.T) {
	db := memDB(t)
	tab, err := db.CreateTable(TableConfig{
		Name: "t",
		Schema: types.MustSchema([]types.Column{
			{Name: "id", Kind: types.KindInt64},
			{Name: "s", Kind: types.KindString, Nullable: true},
			{Name: "v", Kind: types.KindInt64},
		}, 0),
		Strategy: MergePartial, ActiveMainMax: 10,
		Compress: true, CompactDicts: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	ins := func(id int64, s string, val int64) {
		tx := db.Begin(mvcc.TxnSnapshot)
		sv := types.Null
		if s != "" {
			sv = types.Str(s)
		}
		if _, err := tab.Insert(tx, []types.Value{types.Int(id), sv, types.Int(val)}); err != nil {
			t.Fatal(err)
		}
		db.Commit(tx)
	}
	for i := int64(1); i <= 20; i++ {
		s := "x"
		if i%5 == 0 {
			s = "" // NULL
		}
		ins(i, s, i*2)
	}
	tab.MergeL1()
	tab.MergeMain()
	for i := int64(21); i <= 30; i++ {
		ins(i, "y", i*2)
	}
	tab.MergeL1()
	tab.MergeMain()
	if tab.Stats().MainParts < 2 {
		t.Fatal("expected a split main")
	}
	for i := int64(31); i <= 40; i++ {
		ins(i, "z", i*2)
	}
	tab.MergeL1()
	for i := int64(41); i <= 45; i++ {
		ins(i, "w", i*2)
	}
	for _, id := range []int64{3, 33, 43} {
		tx := db.Begin(mvcc.TxnSnapshot)
		if n, err := tab.DeleteKey(tx, types.Int(id)); n != 1 || err != nil {
			t.Fatalf("delete %d: %d %v", id, n, err)
		}
		db.Commit(tx)
	}

	v := tab.View(nil)
	defer v.Close()

	preds := []expr.Predicate{
		nil,
		expr.Cmp{Col: 0, Op: expr.OpLe, Val: types.Int(25)},
		expr.And{
			expr.Cmp{Col: 0, Op: expr.OpGt, Val: types.Int(10)},
			expr.Cmp{Col: 2, Op: expr.OpLt, Val: types.Int(70)},
		},
		expr.Cmp{Col: 1, Op: expr.OpEq, Val: types.Str("y")},
		// Residual-only shapes (not pushdownable).
		expr.IsNull{Col: 1},
		expr.Or{
			expr.Cmp{Col: 0, Op: expr.OpLt, Val: types.Int(5)},
			expr.Like{Col: 1, Prefix: "z"},
		},
		// Pushdown range + residual mix.
		expr.And{
			expr.Cmp{Col: 0, Op: expr.OpGe, Val: types.Int(2)},
			expr.IsNull{Col: 1, Neg: true},
		},
		// Empty result.
		expr.Cmp{Col: 0, Op: expr.OpGt, Val: types.Int(1000)},
	}
	colSets := [][]int{nil, {0}, {2, 1}, {1}}
	for pi, pred := range preds {
		for _, cols := range colSets {
			want := [][]types.Value{}
			outCols := cols
			if outCols == nil {
				outCols = []int{0, 1, 2}
			}
			v.ScanAll(func(_ types.RowID, full []types.Value) bool {
				if pred != nil && !pred.Eval(full) {
					return true
				}
				row := make([]types.Value, len(outCols))
				for i, c := range outCols {
					row[i] = full[c]
				}
				want = append(want, row)
				return true
			})
			for _, bs := range []int{0, 1, 3, 1024} {
				got := batchRows(v, cols, pred, bs)
				if !reflect.DeepEqual(sortedKeys(got), sortedKeys(want)) {
					t.Fatalf("pred %d cols %v bs %d: batch %d rows, row path %d rows",
						pi, cols, bs, len(got), len(want))
				}
			}
		}
	}

	// Early stop stops pulling.
	n := 0
	v.ScanBatches([]int{0}, nil, 4, func(b *vec.Batch) bool {
		n += b.Rows()
		return false
	})
	if n != 4 {
		t.Errorf("early stop consumed %d rows", n)
	}
}

// TestScanBatchesSnapshotStability pins a snapshot and checks the
// batch scan ignores later inserts and deletes — MVCC per batch.
func TestScanBatchesSnapshotStability(t *testing.T) {
	db := memDB(t)
	tab := mkTable(t, db, TableConfig{})
	mustInsert(t, db, tab, orow(1, "a", 1), orow(2, "b", 2))
	tab.MergeL1()
	tab.MergeMain()

	pin := db.Begin(mvcc.TxnSnapshot)
	mustInsert(t, db, tab, orow(3, "c", 3))
	tx := db.Begin(mvcc.TxnSnapshot)
	tab.DeleteKey(tx, types.Int(1))
	db.Commit(tx)

	v := tab.View(pin)
	var ids []int64
	v.ScanBatches([]int{0}, nil, 0, func(b *vec.Batch) bool {
		for i := 0; i < b.Rows(); i++ {
			ids = append(ids, b.RowAt(i, nil)[0].I)
		}
		return true
	})
	v.Close()
	db.Commit(pin)
	if len(ids) != 2 {
		t.Fatalf("pinned batch scan saw %v", ids)
	}
}
