package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/expr"
	"repro/internal/mvcc"
	"repro/internal/types"
)

func orderSchema() *types.Schema {
	return types.MustSchema([]types.Column{
		{Name: "id", Kind: types.KindInt64},
		{Name: "customer", Kind: types.KindString},
		{Name: "qty", Kind: types.KindInt64},
	}, 0)
}

func memDB(t *testing.T) *Database {
	t.Helper()
	db, err := OpenDatabase(DBOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func mkTable(t *testing.T, db *Database, cfg TableConfig) *Table {
	t.Helper()
	if cfg.Schema == nil {
		cfg.Schema = orderSchema()
	}
	if cfg.Name == "" {
		cfg.Name = "orders"
	}
	cfg.CheckUnique = true
	cfg.Compress = true
	cfg.CompactDicts = true
	tab, err := db.CreateTable(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func orow(id int64, cust string, qty int64) []types.Value {
	return []types.Value{types.Int(id), types.Str(cust), types.Int(qty)}
}

func mustInsert(t *testing.T, db *Database, tab *Table, rows ...[]types.Value) {
	t.Helper()
	tx := db.Begin(mvcc.TxnSnapshot)
	for _, r := range rows {
		if _, err := tab.Insert(tx, r); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Commit(tx); err != nil {
		t.Fatal(err)
	}
}

func countRows(tab *Table) int {
	v := tab.View(nil)
	defer v.Close()
	return v.Count()
}

func TestInsertCommitVisibility(t *testing.T) {
	db := memDB(t)
	tab := mkTable(t, db, TableConfig{})

	tx := db.Begin(mvcc.TxnSnapshot)
	id, err := tab.Insert(tx, orow(1, "acme", 5))
	if err != nil {
		t.Fatal(err)
	}
	if id == 0 {
		t.Fatal("no row id assigned")
	}

	// Own uncommitted row visible to self, invisible to others.
	vSelf := tab.View(tx)
	if vSelf.Count() != 1 {
		t.Error("own row invisible")
	}
	vSelf.Close()
	vOther := tab.View(nil)
	if vOther.Count() != 0 {
		t.Error("uncommitted row leaked")
	}
	vOther.Close()

	if err := db.Commit(tx); err != nil {
		t.Fatal(err)
	}
	if got := countRows(tab); got != 1 {
		t.Errorf("rows after commit = %d", got)
	}
}

func TestAbortDiscards(t *testing.T) {
	db := memDB(t)
	tab := mkTable(t, db, TableConfig{})
	tx := db.Begin(mvcc.TxnSnapshot)
	if _, err := tab.Insert(tx, orow(1, "acme", 5)); err != nil {
		t.Fatal(err)
	}
	db.Abort(tx)
	if got := countRows(tab); got != 0 {
		t.Errorf("rows after abort = %d", got)
	}
	// Key is reusable after abort.
	mustInsert(t, db, tab, orow(1, "acme", 6))
	if got := countRows(tab); got != 1 {
		t.Errorf("rows = %d", got)
	}
}

func TestUniqueConstraint(t *testing.T) {
	db := memDB(t)
	tab := mkTable(t, db, TableConfig{})
	// One key per stage: 10 in the main, 11 in the L2-delta, 1 in the
	// L1-delta. The check spans all three (§3.1).
	mustInsert(t, db, tab, orow(10, "main", 1))
	tab.MergeL1()
	if _, err := tab.MergeMain(); err != nil {
		t.Fatal(err)
	}
	mustInsert(t, db, tab, orow(11, "l2", 1))
	tab.MergeL1()
	mustInsert(t, db, tab, orow(1, "acme", 5))
	if st := tab.Stats(); st.MainRows != 1 || st.L2Rows != 1 || st.L1Rows != 1 {
		t.Fatalf("stage spread: %+v", st)
	}

	for _, key := range []int64{1, 10, 11} {
		tx := db.Begin(mvcc.TxnSnapshot)
		if _, err := tab.Insert(tx, orow(key, "dup", 1)); !errors.Is(err, ErrDuplicateKey) {
			t.Errorf("key %d: err = %v, want duplicate key", key, err)
		}
		db.Abort(tx)
	}

	// Concurrent uncommitted insert of the same key → write conflict.
	a := db.Begin(mvcc.TxnSnapshot)
	b := db.Begin(mvcc.TxnSnapshot)
	if _, err := tab.Insert(a, orow(2, "a", 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := tab.Insert(b, orow(2, "b", 1)); !errors.Is(err, mvcc.ErrWriteConflict) {
		t.Errorf("err = %v, want write conflict", err)
	}
	db.Abort(b)
	db.Commit(a)

	// Delete frees the key.
	tx2 := db.Begin(mvcc.TxnSnapshot)
	if n, err := tab.DeleteKey(tx2, types.Int(1)); err != nil || n != 1 {
		t.Fatalf("delete = %d, %v", n, err)
	}
	// Same transaction can reinsert its own deleted key.
	if _, err := tab.Insert(tx2, orow(1, "new", 9)); err != nil {
		t.Fatalf("reinsert after own delete: %v", err)
	}
	db.Commit(tx2)
	v := tab.View(nil)
	m := v.Get(types.Int(1))
	v.Close()
	if m == nil || m.Row[1].S != "new" {
		t.Errorf("reinserted row = %+v", m)
	}
}

func TestUpdateKey(t *testing.T) {
	db := memDB(t)
	tab := mkTable(t, db, TableConfig{})
	mustInsert(t, db, tab, orow(1, "acme", 5))

	tx := db.Begin(mvcc.TxnSnapshot)
	snapBefore := db.mgr.LastCommitted()
	if _, err := tab.UpdateKey(tx, types.Int(1), orow(1, "acme", 50)); err != nil {
		t.Fatal(err)
	}
	if err := db.Commit(tx); err != nil {
		t.Fatal(err)
	}
	v := tab.View(nil)
	m := v.Get(types.Int(1))
	v.Close()
	if m == nil || m.Row[2].I != 50 {
		t.Fatalf("updated row = %+v", m)
	}
	if got := countRows(tab); got != 1 {
		t.Errorf("row count after update = %d", got)
	}
	// Old version still visible at the old snapshot (MVCC).
	old := tab.AsOf(snapBefore)
	mOld := old.Get(types.Int(1))
	old.Close()
	if mOld == nil || mOld.Row[2].I != 5 {
		t.Errorf("old version = %+v", mOld)
	}

	// Update of a missing key fails.
	tx2 := db.Begin(mvcc.TxnSnapshot)
	if _, err := tab.UpdateKey(tx2, types.Int(99), orow(99, "x", 1)); err == nil {
		t.Error("update of missing key succeeded")
	}
	db.Abort(tx2)
}

// TestFullLifecyclePipeline pushes rows through L1 → L2 → main and
// checks they stay queryable with the same RowID at every stage.
func TestFullLifecyclePipeline(t *testing.T) {
	db := memDB(t)
	tab := mkTable(t, db, TableConfig{})
	mustInsert(t, db, tab, orow(1, "acme", 5), orow(2, "bolt", 7), orow(3, "acme", 2))

	v := tab.View(nil)
	origID := v.Get(types.Int(2)).ID
	v.Close()

	check := func(stage string) {
		t.Helper()
		v := tab.View(nil)
		defer v.Close()
		if got := v.Count(); got != 3 {
			t.Fatalf("%s: count = %d", stage, got)
		}
		m := v.Get(types.Int(2))
		if m == nil || m.ID != origID || m.Row[1].S != "bolt" {
			t.Fatalf("%s: row 2 = %+v", stage, m)
		}
		// Secondary-column point lookup and range scan.
		if got := len(v.PointLookup(1, types.Str("acme"))); got != 2 {
			t.Fatalf("%s: acme lookup = %d", stage, got)
		}
		n := len(batchRows(v, []int{0}, expr.Between{Col: 2, Lo: types.Int(3), Hi: types.Int(10), LoInc: true, HiInc: true}, 0))
		if n != 2 { // qty 5 and 7
			t.Fatalf("%s: range count = %d", stage, n)
		}
	}
	check("L1")

	if moved, err := tab.MergeL1(); err != nil || moved != 3 {
		t.Fatalf("MergeL1 = %d, %v", moved, err)
	}
	st := tab.Stats()
	if st.L1Rows != 0 || st.L2Rows != 3 {
		t.Fatalf("after L1 merge: %+v", st)
	}
	check("L2")

	if stats, err := tab.MergeMain(); err != nil || stats == nil {
		t.Fatalf("MergeMain: %+v, %v", stats, err)
	}
	st = tab.Stats()
	if st.L2Rows != 0 || st.FrozenL2Rows != 0 || st.MainRows != 3 || st.MainParts != 1 {
		t.Fatalf("after main merge: %+v", st)
	}
	check("main")

	if st.L1Merges != 1 || st.MainMerges != 1 {
		t.Errorf("merge counters: %+v", st)
	}
}

// TestStageFootprintOrdering checks Fig. 11's footprint column on one
// set of rows as it moves through the life cycle: bytes per row
// (Table.Stats) are largest in the L1-delta, smaller in the L2-delta
// and smallest in the main. The rows are updates of rows that were
// merged with long unique customer names, so the final merge only
// reaches the smallest footprint if its dictionaries keep just the
// values live rows still reference (§4.1).
func TestStageFootprintOrdering(t *testing.T) {
	const n = 2000
	db := memDB(t)
	tab := mkTable(t, db, TableConfig{L1MaxRows: n + 1})
	tx := db.Begin(mvcc.TxnSnapshot)
	for i := int64(1); i <= n; i++ {
		// 128 hex digits with no long shared prefix between neighbours.
		long := strings.Repeat(fmt.Sprintf("%016x", uint64(i)*0x9E3779B97F4A7C15), 8)
		if _, err := tab.Insert(tx, orow(i, long, i%10)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Commit(tx); err != nil {
		t.Fatal(err)
	}
	tab.MergeL1()
	if _, err := tab.MergeMain(); err != nil {
		t.Fatal(err)
	}

	tx = db.Begin(mvcc.TxnSnapshot)
	for i := int64(1); i <= n; i++ {
		if _, err := tab.UpdateKey(tx, types.Int(i), orow(i, fmt.Sprintf("c%d", i%8), i%10)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Commit(tx); err != nil {
		t.Fatal(err)
	}
	st := tab.Stats()
	if st.L1Rows != n {
		t.Fatalf("L1 rows = %d, want %d", st.L1Rows, n)
	}
	l1 := float64(st.L1Bytes) / n
	if moved, err := tab.MergeL1(); err != nil || moved != n {
		t.Fatalf("MergeL1 = %d, %v", moved, err)
	}
	l2 := float64(tab.Stats().L2Bytes) / n
	if _, err := tab.MergeMain(); err != nil {
		t.Fatal(err)
	}
	st = tab.Stats()
	if st.MainRows != n || st.L2Rows != 0 {
		t.Fatalf("after main merge: %+v", st)
	}
	main := float64(st.MainBytes) / n
	t.Logf("bytes/row: L1 %.1f, L2 %.1f, main %.1f", l1, l2, main)
	if !(l1 > l2 && l2 > main) {
		t.Errorf("bytes/row L1 %.1f, L2 %.1f, main %.1f: want L1 > L2 > main", l1, l2, main)
	}
	if got := countRows(tab); got != n {
		t.Errorf("count = %d, want %d", got, n)
	}
}

func TestDeleteAcrossStages(t *testing.T) {
	db := memDB(t)
	tab := mkTable(t, db, TableConfig{})
	// Row 1 → main, row 2 → L2, row 3 stays in L1.
	mustInsert(t, db, tab, orow(1, "a", 1))
	tab.MergeL1()
	tab.MergeMain()
	mustInsert(t, db, tab, orow(2, "b", 2))
	tab.MergeL1()
	mustInsert(t, db, tab, orow(3, "c", 3))

	for _, id := range []int64{1, 2, 3} {
		tx := db.Begin(mvcc.TxnSnapshot)
		if n, err := tab.DeleteKey(tx, types.Int(id)); err != nil || n != 1 {
			t.Fatalf("delete %d: n=%d err=%v", id, n, err)
		}
		db.Commit(tx)
	}
	if got := countRows(tab); got != 0 {
		t.Errorf("rows after deletes = %d", got)
	}
	// Deleting again finds nothing.
	tx := db.Begin(mvcc.TxnSnapshot)
	if n, _ := tab.DeleteKey(tx, types.Int(1)); n != 0 {
		t.Errorf("second delete found %d", n)
	}
	db.Abort(tx)

	// The main-row tombstone is garbage-collected by the next merge.
	mustInsert(t, db, tab, orow(4, "d", 4))
	tab.MergeL1()
	if _, err := tab.MergeMain(); err != nil {
		t.Fatal(err)
	}
	st := tab.Stats()
	if st.MainRows != 1 || st.Tombstones != 0 {
		t.Errorf("after GC merge: %+v", st)
	}
}

func TestBulkInsertBypassesL1(t *testing.T) {
	db := memDB(t)
	tab := mkTable(t, db, TableConfig{})
	var rows [][]types.Value
	for i := int64(1); i <= 100; i++ {
		rows = append(rows, orow(i, fmt.Sprintf("c%d", i%7), i))
	}
	tx := db.Begin(mvcc.TxnSnapshot)
	ids, err := tab.BulkInsert(tx, rows)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 100 {
		t.Fatalf("ids = %d", len(ids))
	}
	db.Commit(tx)
	st := tab.Stats()
	if st.L1Rows != 0 || st.L2Rows != 100 {
		t.Fatalf("bulk stats: %+v", st)
	}
	if got := countRows(tab); got != 100 {
		t.Errorf("count = %d", got)
	}
	// Duplicate within one bulk is rejected.
	tx2 := db.Begin(mvcc.TxnSnapshot)
	_, err = tab.BulkInsert(tx2, [][]types.Value{orow(200, "x", 1), orow(200, "y", 2)})
	if !errors.Is(err, ErrDuplicateKey) {
		t.Errorf("bulk duplicate err = %v", err)
	}
	db.Abort(tx2)
}

func TestMergeMainFailureKeepsGenerationQueued(t *testing.T) {
	db := memDB(t)
	tab := mkTable(t, db, TableConfig{})
	mustInsert(t, db, tab, orow(1, "a", 1), orow(2, "b", 2))
	tab.MergeL1()

	boom := errors.New("boom")
	if _, err := tab.mergeMain(context.Background(), func(stage string) error {
		if stage == "build" {
			return boom
		}
		return nil
	}, true); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	st := tab.Stats()
	if st.MergeFailures != 1 || st.FrozenL2Rows != 2 || st.MainRows != 0 {
		t.Fatalf("after failed merge: %+v", st)
	}
	// The system keeps operating: reads and writes still work.
	if got := countRows(tab); got != 2 {
		t.Errorf("count during failure = %d", got)
	}
	mustInsert(t, db, tab, orow(3, "c", 3))
	// Retry succeeds and consumes the queued generation.
	if _, err := tab.MergeMain(); err != nil {
		t.Fatal(err)
	}
	st = tab.Stats()
	if st.FrozenL2Rows != 0 || st.MainRows != 2 {
		t.Fatalf("after retry: %+v", st)
	}
	if got := countRows(tab); got != 3 {
		t.Errorf("count after retry = %d", got)
	}
}

// TestDeleteDuringInFlightMerge exercises the re-marking of deletes
// that land while an L2→main merge is computing off-latch.
func TestDeleteDuringInFlightMerge(t *testing.T) {
	db := memDB(t)
	tab := mkTable(t, db, TableConfig{})
	mustInsert(t, db, tab, orow(1, "a", 1))
	tab.MergeL1()
	tab.MergeMain() // row 1 now in main
	mustInsert(t, db, tab, orow(2, "b", 2))
	tab.MergeL1()

	entered := make(chan struct{})
	release := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		_, err := tab.mergeMain(context.Background(), func(stage string) error {
			if stage == "build" {
				close(entered)
				<-release
			}
			return nil
		}, true)
		done <- err
	}()
	<-entered
	// Merge is mid-flight: delete the main-resident row 1.
	tx := db.Begin(mvcc.TxnSnapshot)
	if n, err := tab.DeleteKey(tx, types.Int(1)); err != nil || n != 1 {
		t.Fatalf("delete during merge: n=%d err=%v", n, err)
	}
	db.Commit(tx)
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	// The new generation must reflect the delete.
	if got := countRows(tab); got != 1 {
		t.Errorf("count after in-flight delete = %d", got)
	}
	v := tab.View(nil)
	m := v.Get(types.Int(1))
	v.Close()
	if m != nil {
		t.Errorf("deleted row visible: %+v", m)
	}
}

// TestDeleteFrozenRowDuringInFlightMerge deletes a row living in the
// frozen L2-delta generation while that very generation is being
// merged off-latch: the collect pass has already read the row's stamp
// as live, so the swap must re-apply the delete (regression test for
// a lost-delete race).
func TestDeleteFrozenRowDuringInFlightMerge(t *testing.T) {
	db := memDB(t)
	tab := mkTable(t, db, TableConfig{})
	mustInsert(t, db, tab, orow(1, "victim", 1), orow(2, "other", 2))
	tab.MergeL1() // rows now in the open L2

	entered := make(chan struct{})
	release := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		_, err := tab.mergeMain(context.Background(), func(stage string) error {
			if stage == "build" {
				// collect already ran; the stamps were read as live.
				close(entered)
				<-release
			}
			return nil
		}, true)
		done <- err
	}()
	<-entered
	// The rows are in the frozen generation being merged; delete one.
	tx := db.Begin(mvcc.TxnSnapshot)
	if n, err := tab.DeleteKey(tx, types.Int(1)); err != nil || n != 1 {
		t.Fatalf("delete during merge: n=%d err=%v", n, err)
	}
	db.Commit(tx)
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	// The new main must not resurrect the deleted row.
	if got := countRows(tab); got != 1 {
		t.Fatalf("count after swap = %d, want 1", got)
	}
	v := tab.View(nil)
	gone := v.Get(types.Int(1))
	kept := v.Get(types.Int(2))
	v.Close()
	if gone != nil {
		t.Fatalf("deleted row resurrected: %+v", gone)
	}
	if kept == nil {
		t.Fatal("surviving row lost")
	}
	// And the delete is eventually garbage-collected by the next merge.
	mustInsert(t, db, tab, orow(3, "new", 3))
	tab.MergeL1()
	if _, err := tab.MergeMain(); err != nil {
		t.Fatal(err)
	}
	st := tab.Stats()
	if st.MainRows != 2 || st.Tombstones != 0 {
		t.Fatalf("after GC merge: %+v", st)
	}
}

// TestAbortedDeleteDuringInFlightMerge: a delete claimed mid-merge
// that ABORTS must leave the row visible after the swap.
func TestAbortedDeleteDuringInFlightMerge(t *testing.T) {
	db := memDB(t)
	tab := mkTable(t, db, TableConfig{})
	mustInsert(t, db, tab, orow(1, "keep", 1))
	tab.MergeL1()

	entered := make(chan struct{})
	release := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		_, err := tab.mergeMain(context.Background(), func(stage string) error {
			if stage == "build" {
				close(entered)
				<-release
			}
			return nil
		}, true)
		done <- err
	}()
	<-entered
	tx := db.Begin(mvcc.TxnSnapshot)
	if n, err := tab.DeleteKey(tx, types.Int(1)); err != nil || n != 1 {
		t.Fatalf("delete: n=%d err=%v", n, err)
	}
	db.Abort(tx)
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := countRows(tab); got != 1 {
		t.Fatalf("aborted delete hid the row: count = %d", got)
	}
}

func TestStatementVsTransactionIsolation(t *testing.T) {
	db := memDB(t)
	tab := mkTable(t, db, TableConfig{})
	mustInsert(t, db, tab, orow(1, "a", 1))

	txLevel := db.Begin(mvcc.TxnSnapshot)
	stmtLevel := db.Begin(mvcc.StmtSnapshot)
	// Both see 1 row now.
	for _, tx := range []*mvcc.Txn{txLevel, stmtLevel} {
		v := tab.View(tx)
		if v.Count() != 1 {
			t.Fatal("initial count wrong")
		}
		v.Close()
	}
	mustInsert(t, db, tab, orow(2, "b", 2))

	vTx := tab.View(txLevel)
	gotTx := vTx.Count()
	vTx.Close()
	vStmt := tab.View(stmtLevel)
	gotStmt := vStmt.Count()
	vStmt.Close()
	if gotTx != 1 {
		t.Errorf("txn-level snapshot saw %d rows, want 1", gotTx)
	}
	if gotStmt != 2 {
		t.Errorf("stmt-level snapshot saw %d rows, want 2", gotStmt)
	}
	db.Commit(txLevel)
	db.Commit(stmtLevel)
}

func TestHistoricTableTimeTravel(t *testing.T) {
	db := memDB(t)
	tab := mkTable(t, db, TableConfig{Name: "hist", Historic: true})
	mustInsert(t, db, tab, orow(1, "v1", 1))
	ts1 := db.mgr.LastCommitted()

	tx := db.Begin(mvcc.TxnSnapshot)
	if _, err := tab.UpdateKey(tx, types.Int(1), orow(1, "v2", 2)); err != nil {
		t.Fatal(err)
	}
	db.Commit(tx)
	ts2 := db.mgr.LastCommitted()

	// Push everything through merges: a historic table must keep the
	// old version anyway.
	tab.MergeL1()
	if _, err := tab.MergeMain(); err != nil {
		t.Fatal(err)
	}

	v1 := tab.AsOf(ts1)
	m1 := v1.Get(types.Int(1))
	v1.Close()
	if m1 == nil || m1.Row[1].S != "v1" {
		t.Errorf("AsOf(ts1) = %+v", m1)
	}
	v2 := tab.AsOf(ts2)
	m2 := v2.Get(types.Int(1))
	v2.Close()
	if m2 == nil || m2.Row[1].S != "v2" {
		t.Errorf("AsOf(ts2) = %+v", m2)
	}
}

func TestRegularTableGCsOldVersions(t *testing.T) {
	db := memDB(t)
	tab := mkTable(t, db, TableConfig{})
	mustInsert(t, db, tab, orow(1, "v1", 1))
	tx := db.Begin(mvcc.TxnSnapshot)
	tab.UpdateKey(tx, types.Int(1), orow(1, "v2", 2))
	db.Commit(tx)

	tab.MergeL1()
	tab.MergeMain()
	st := tab.Stats()
	if st.MainRows != 1 {
		t.Errorf("old version survived GC: %+v", st)
	}
}

func TestGlobalSortedDict(t *testing.T) {
	db := memDB(t)
	tab := mkTable(t, db, TableConfig{})
	// Spread values across all three stages.
	mustInsert(t, db, tab, orow(1, "walldorf", 1))
	tab.MergeL1()
	tab.MergeMain()
	mustInsert(t, db, tab, orow(2, "berlin", 1))
	tab.MergeL1()
	mustInsert(t, db, tab, orow(3, "seoul", 1))

	d := tab.GlobalSortedDict(1)
	want := []string{"berlin", "seoul", "walldorf"}
	if d.Len() != 3 {
		t.Fatalf("dict has %d entries", d.Len())
	}
	for i, w := range want {
		if d.At(uint32(i)).S != w {
			t.Errorf("dict[%d] = %v", i, d.At(uint32(i)))
		}
	}
}

func TestSchemaRejections(t *testing.T) {
	db := memDB(t)
	tab := mkTable(t, db, TableConfig{})
	tx := db.Begin(mvcc.TxnSnapshot)
	if _, err := tab.Insert(tx, []types.Value{types.Int(1)}); err == nil {
		t.Error("short row accepted")
	}
	if _, err := tab.Insert(tx, []types.Value{types.Str("x"), types.Str("y"), types.Int(1)}); err == nil {
		t.Error("mistyped row accepted")
	}
	db.Abort(tx)

	if _, err := db.CreateTable(TableConfig{Name: "orders", Schema: orderSchema()}); err == nil {
		t.Error("duplicate table accepted")
	}
	if _, err := db.CreateTable(TableConfig{Name: "x"}); err == nil {
		t.Error("schema-less table accepted")
	}
}

func TestOperationsOnFinishedTxn(t *testing.T) {
	db := memDB(t)
	tab := mkTable(t, db, TableConfig{})
	tx := db.Begin(mvcc.TxnSnapshot)
	db.Commit(tx)
	if _, err := tab.Insert(tx, orow(1, "a", 1)); !errors.Is(err, mvcc.ErrNotActive) {
		t.Errorf("insert on finished txn: %v", err)
	}
	if _, err := tab.DeleteKey(tx, types.Int(1)); !errors.Is(err, mvcc.ErrNotActive) {
		t.Errorf("delete on finished txn: %v", err)
	}
}
