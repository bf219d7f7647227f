package core

import (
	"fmt"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/expr"
	"repro/internal/mvcc"
	"repro/internal/types"
)

func diskDB(t *testing.T, dir string) *Database {
	t.Helper()
	db, err := OpenDatabase(DBOptions{Dir: dir, PageSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// dumpTable returns a sorted, canonical listing of visible rows.
func dumpTable(tab *Table) []string {
	v := tab.View(nil)
	defer v.Close()
	var out []string
	v.ScanAll(func(id types.RowID, row []types.Value) bool {
		out = append(out, fmt.Sprintf("%v", row))
		return true
	})
	sort.Strings(out)
	return out
}

func equalDump(t *testing.T, a, b []string, msg string) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d rows vs %d rows\n%v\n%v", msg, len(a), len(b), a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s: row %d: %s vs %s", msg, i, a[i], b[i])
		}
	}
}

func TestRecoveryFromLogOnly(t *testing.T) {
	dir := t.TempDir()
	db := diskDB(t, dir)
	tab := mkTable(t, db, TableConfig{})
	mustInsert(t, db, tab, orow(1, "acme", 5), orow(2, "bolt", 7))
	tx := db.Begin(mvcc.TxnSnapshot)
	tab.DeleteKey(tx, types.Int(2))
	db.Commit(tx)
	want := dumpTable(tab)
	db.Close() // "crash": no savepoint ever ran

	// Everything — the DDL included — replays from the redo log alone.
	db2 := diskDB(t, dir)
	defer db2.Close()
	tab2 := db2.Table("orders")
	if tab2 == nil {
		t.Fatal("table not recovered from log")
	}
	equalDump(t, want, dumpTable(tab2), "log-only recovery")
	if !tab2.cfg.CheckUnique || tab2.Schema().Key != 0 {
		t.Error("table config not recovered")
	}
}

func TestSavepointRecoveryRoundtrip(t *testing.T) {
	dir := t.TempDir()
	db := diskDB(t, dir)
	tab := mkTable(t, db, TableConfig{})
	// Rows across all stages.
	mustInsert(t, db, tab, orow(1, "a", 1), orow(2, "b", 2))
	tab.MergeL1()
	tab.MergeMain()
	mustInsert(t, db, tab, orow(3, "c", 3))
	tab.MergeL1()
	mustInsert(t, db, tab, orow(4, "d", 4))
	// A delete on a main-resident row.
	tx := db.Begin(mvcc.TxnSnapshot)
	if n, err := tab.DeleteKey(tx, types.Int(1)); n != 1 || err != nil {
		t.Fatalf("delete: %d %v", n, err)
	}
	db.Commit(tx)

	if err := db.Savepoint(); err != nil {
		t.Fatal(err)
	}
	// Post-savepoint activity that must replay from the log.
	mustInsert(t, db, tab, orow(5, "e", 5))
	tx2 := db.Begin(mvcc.TxnSnapshot)
	tab.UpdateKey(tx2, types.Int(2), orow(2, "b2", 22))
	db.Commit(tx2)

	want := dumpTable(tab)
	wantStats := tab.Stats()
	db.Close()

	db2 := diskDB(t, dir)
	defer db2.Close()
	tab2 := db2.Table("orders")
	if tab2 == nil {
		t.Fatal("table not recovered")
	}
	equalDump(t, want, dumpTable(tab2), "recovered state")
	// Row-id clock restored: new inserts get fresh ids.
	mustInsert(t, db2, tab2, orow(6, "f", 6))
	v := tab2.View(nil)
	m := v.Get(types.Int(6))
	v.Close()
	if m == nil {
		t.Fatal("insert after recovery failed")
	}
	got := tab2.Stats()
	if got.MainRows != wantStats.MainRows {
		t.Errorf("main rows: %d vs %d", got.MainRows, wantStats.MainRows)
	}
}

func TestRecoveryAbortsCrashedTransactions(t *testing.T) {
	dir := t.TempDir()
	db := diskDB(t, dir)
	tab := mkTable(t, db, TableConfig{})
	mustInsert(t, db, tab, orow(1, "keep", 1))
	if err := db.Savepoint(); err != nil {
		t.Fatal(err)
	}
	// An in-flight transaction: ops logged, no commit record.
	tx := db.Begin(mvcc.TxnSnapshot)
	if _, err := tab.Insert(tx, orow(2, "lost", 2)); err != nil {
		t.Fatal(err)
	}
	if _, err := tab.DeleteKey(tx, types.Int(1)); err != nil {
		t.Fatal(err)
	}
	// Flush DML records without a commit.
	db.log.Sync()
	db.Close() // crash with tx active

	db2 := diskDB(t, dir)
	defer db2.Close()
	tab2 := db2.Table("orders")
	rows := dumpTable(tab2)
	if len(rows) != 1 || rows[0] != fmt.Sprintf("%v", orow(1, "keep", 1)) {
		t.Errorf("recovered rows = %v", rows)
	}
}

func TestRecoveryResolvesTransactionSpanningSavepoint(t *testing.T) {
	dir := t.TempDir()
	db := diskDB(t, dir)
	tab := mkTable(t, db, TableConfig{})

	// The transaction writes BEFORE the savepoint and commits AFTER:
	// its snapshot rows carry markers that the post-savepoint commit
	// record must resolve.
	tx := db.Begin(mvcc.TxnSnapshot)
	if _, err := tab.Insert(tx, orow(1, "spanning", 1)); err != nil {
		t.Fatal(err)
	}
	if err := db.Savepoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := tab.Insert(tx, orow(2, "post", 2)); err != nil {
		t.Fatal(err)
	}
	if err := db.Commit(tx); err != nil {
		t.Fatal(err)
	}

	// Also: a spanning transaction that ABORTS after the savepoint.
	tx2 := db.Begin(mvcc.TxnSnapshot)
	if _, err := tab.Insert(tx2, orow(3, "doomed", 3)); err != nil {
		t.Fatal(err)
	}
	if err := db.Savepoint(); err != nil {
		t.Fatal(err)
	}
	db.Abort(tx2)
	db.log.Sync()

	want := dumpTable(tab)
	db.Close()

	db2 := diskDB(t, dir)
	defer db2.Close()
	got := dumpTable(db2.Table("orders"))
	equalDump(t, want, got, "spanning txn recovery")
	if len(got) != 2 {
		t.Errorf("rows = %v", got)
	}
}

func TestRecoveryWithPartialMergeChain(t *testing.T) {
	dir := t.TempDir()
	db := diskDB(t, dir)
	tab := mkTable(t, db, TableConfig{Strategy: MergePartial, ActiveMainMax: 2})
	mustInsert(t, db, tab, orow(1, "aa", 1), orow(2, "bb", 2))
	tab.MergeL1()
	tab.MergeMain()
	mustInsert(t, db, tab, orow(3, "cc", 3), orow(4, "aa", 4))
	tab.MergeL1()
	tab.MergeMain() // chain grows
	wantParts := tab.Stats().MainParts
	if wantParts < 2 {
		t.Fatalf("expected split main, got %d parts", wantParts)
	}
	if err := db.Savepoint(); err != nil {
		t.Fatal(err)
	}
	want := dumpTable(tab)
	db.Close()

	db2 := diskDB(t, dir)
	defer db2.Close()
	tab2 := db2.Table("orders")
	if got := tab2.Stats().MainParts; got != wantParts {
		t.Errorf("recovered parts = %d, want %d", got, wantParts)
	}
	equalDump(t, want, dumpTable(tab2), "partial chain recovery")
	// Range query still resolves across the recovered chain.
	v := tab2.View(nil)
	n := len(batchRows(v, []int{0}, expr.Between{Col: 1, Lo: types.Str("a"), Hi: types.Str("b"), LoInc: true}, 0))
	v.Close()
	if n != 2 {
		t.Errorf("range over recovered chain = %d", n)
	}
}

func TestRepeatedSavepointsTruncateLog(t *testing.T) {
	dir := t.TempDir()
	db := diskDB(t, dir)
	tab := mkTable(t, db, TableConfig{})
	for i := int64(1); i <= 5; i++ {
		mustInsert(t, db, tab, orow(i, "x", i))
		if err := db.Savepoint(); err != nil {
			t.Fatal(err)
		}
	}
	if segs, _ := filepath.Glob(filepath.Join(dir, "wal", "wal-*.log")); len(segs) != 1 {
		t.Errorf("segments after savepoints = %v, want 1", segs)
	}
	want := dumpTable(tab)
	db.Close()
	db2 := diskDB(t, dir)
	defer db2.Close()
	equalDump(t, want, dumpTable(db2.Table("orders")), "after repeated savepoints")
}

func TestRecoveryIdempotent(t *testing.T) {
	// Recover twice in a row without new writes: state identical.
	dir := t.TempDir()
	db := diskDB(t, dir)
	tab := mkTable(t, db, TableConfig{})
	mustInsert(t, db, tab, orow(1, "a", 1), orow(2, "b", 2))
	db.Savepoint()
	mustInsert(t, db, tab, orow(3, "c", 3))
	want := dumpTable(tab)
	db.Close()

	db2 := diskDB(t, dir)
	got2 := dumpTable(db2.Table("orders"))
	db2.Close()
	db3 := diskDB(t, dir)
	got3 := dumpTable(db3.Table("orders"))
	db3.Close()
	equalDump(t, want, got2, "first recovery")
	equalDump(t, got2, got3, "second recovery")
}

func TestHugeValuesSurviveRecovery(t *testing.T) {
	dir := t.TempDir()
	db := diskDB(t, dir)
	tab := mkTable(t, db, TableConfig{})
	big := make([]byte, 10_000)
	for i := range big {
		big[i] = byte('a' + i%26)
	}
	mustInsert(t, db, tab, []types.Value{types.Int(1), types.Str(string(big)), types.Int(1)})
	db.Savepoint()
	db.Close()
	db2 := diskDB(t, dir)
	defer db2.Close()
	v := db2.Table("orders").View(nil)
	m := v.Get(types.Int(1))
	v.Close()
	if m == nil || len(m.Row[1].S) != 10_000 {
		t.Error("large value lost")
	}
}
