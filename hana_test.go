package hana_test

import (
	"context"
	"errors"
	"testing"
	"time"

	hana "repro"
	"repro/internal/core"
)

func openOrders(t *testing.T) (*hana.DB, *hana.Table) {
	t.Helper()
	db := hana.MustOpen(hana.Options{})
	t.Cleanup(func() { db.Close() })
	orders, err := db.CreateTable(hana.TableConfig{
		Name: "orders",
		Schema: hana.MustSchema([]hana.Column{
			{Name: "id", Kind: hana.Int64},
			{Name: "customer", Kind: hana.String},
			{Name: "amount", Kind: hana.Float64},
		}, 0),
		CheckUnique: true, Compress: true, CompactDicts: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return db, orders
}

// TestPublicAPIQuickstart runs the package-doc quick start end to end.
func TestPublicAPIQuickstart(t *testing.T) {
	db, orders := openOrders(t)

	tx := db.Begin(hana.TxnSnapshot)
	if _, err := orders.Insert(tx, hana.Row(hana.Int(1), hana.Str("acme"), hana.Float(9.99))); err != nil {
		t.Fatal(err)
	}
	if err := db.Commit(tx); err != nil {
		t.Fatal(err)
	}

	v := orders.View(nil)
	defer v.Close()
	m := v.Get(hana.Int(1))
	if m == nil || m.Row[1].S != "acme" {
		t.Fatalf("Get = %+v", m)
	}
}

func TestPublicAPIDuplicateAndConflictErrors(t *testing.T) {
	db, orders := openOrders(t)
	tx := db.Begin(hana.TxnSnapshot)
	orders.Insert(tx, hana.Row(hana.Int(1), hana.Str("a"), hana.Float(1)))
	db.Commit(tx)

	tx2 := db.Begin(hana.TxnSnapshot)
	_, err := orders.Insert(tx2, hana.Row(hana.Int(1), hana.Str("b"), hana.Float(2)))
	if !errors.Is(err, hana.ErrDuplicateKey) {
		t.Errorf("err = %v", err)
	}
	db.Abort(tx2)
}

func TestPublicAPICalcGraph(t *testing.T) {
	db, orders := openOrders(t)
	tx := db.Begin(hana.TxnSnapshot)
	for i := int64(1); i <= 20; i++ {
		cust := "acme"
		if i%2 == 0 {
			cust = "bolt"
		}
		orders.Insert(tx, hana.Row(hana.Int(i), hana.Str(cust), hana.Float(float64(i))))
	}
	db.Commit(tx)

	g := hana.NewGraph()
	src := g.Table(orders)
	f := g.Filter(src, hana.Cmp{Col: 1, Op: hana.Eq, Val: hana.Str("acme")})
	agg := g.Aggregate(f, nil, hana.Agg{Func: hana.Count}, hana.Agg{Func: hana.Sum, Col: 2})
	rows, err := hana.ExecuteGraph(g, agg, hana.Env{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][0].I != 10 || rows[0][1].F != 100 {
		t.Fatalf("rows = %v", rows)
	}
}

func TestPublicAPIMergeControls(t *testing.T) {
	db, orders := openOrders(t)
	tx := db.Begin(hana.TxnSnapshot)
	for i := int64(1); i <= 10; i++ {
		orders.Insert(tx, hana.Row(hana.Int(i), hana.Str("c"), hana.Float(1)))
	}
	db.Commit(tx)

	if _, err := orders.MergeL1(); err != nil {
		t.Fatal(err)
	}
	if _, err := orders.MergeMain(); err != nil {
		t.Fatal(err)
	}
	st := orders.Stats()
	if st.MainRows != 10 || st.L1Rows != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestPublicAPICancellation cancels a context mid-scan through the
// public batch API: exactly the batches pulled before cancellation
// arrive, then Next reports context.Canceled.
func TestPublicAPICancellation(t *testing.T) {
	db, orders := openOrders(t)
	tx := db.Begin(hana.TxnSnapshot)
	for i := int64(1); i <= 64; i++ {
		if _, err := orders.Insert(tx, hana.Row(hana.Int(i), hana.Str("c"), hana.Float(1))); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Commit(tx); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	scan := &hana.BatchTableScan{Table: orders, Ctx: ctx, BatchSize: 8}
	if err := scan.Open(); err != nil {
		t.Fatal(err)
	}
	defer scan.Close()
	b, err := scan.Next()
	if err != nil || b == nil || b.Rows() != 8 {
		t.Fatalf("first batch: %v, %v", b, err)
	}
	cancel()
	if b, err = scan.Next(); b != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("after cancel: batch=%v err=%v", b, err)
	}
}

// TestPublicAPIOverload exercises the exported admission-control
// surface: ErrOverloaded matches rejections, and TableStats exposes
// the throttle/reject counters.
func TestPublicAPIOverload(t *testing.T) {
	db := hana.MustOpen(hana.Options{})
	defer db.Close()
	tab, err := db.CreateTable(hana.TableConfig{
		Name: "tiny",
		Schema: hana.MustSchema([]hana.Column{
			{Name: "id", Kind: hana.Int64},
		}, 0),
		CheckUnique:  true,
		ThrottleRows: 2, OverloadRows: 4,
		ThrottleMaxDelay: time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	insert := func(id int64) error {
		tx := db.Begin(hana.TxnSnapshot)
		if _, err := tab.Insert(tx, hana.Row(hana.Int(id))); err != nil {
			db.Abort(tx)
			return err
		}
		return db.Commit(tx)
	}
	var rejected error
	for id := int64(1); id <= 16 && rejected == nil; id++ {
		if err := insert(id); err != nil {
			rejected = err
			break
		}
		if _, err := tab.MergeL1(); err != nil {
			t.Fatal(err)
		}
	}
	if !errors.Is(rejected, core.ErrOverloaded) {
		t.Fatalf("rejection = %v, want core.ErrOverloaded", rejected)
	}
	st := tab.Stats()
	if st.RejectedWrites == 0 {
		t.Fatalf("stats missing rejection: %+v", st)
	}
	// Draining the backlog readmits writes.
	if _, err := tab.MergeMain(); err != nil {
		t.Fatal(err)
	}
	if err := insert(100); err != nil {
		t.Fatalf("post-drain insert: %v", err)
	}
}
