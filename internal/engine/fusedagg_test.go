package engine

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync/atomic"
	"testing"

	"repro/internal/budget"
	"repro/internal/core"
	"repro/internal/mvcc"
	"repro/internal/types"
)

// diffSchema columns: three group keys of different kinds, numeric
// data columns, and a string for MIN/MAX.
const (
	dID = iota
	dIKey
	dFKey
	dSKey
	dQty
	dPrice
	dName
	dDay
)

// buildDiffTable spreads seeded rows over a passive and an active main
// part, a frozen and an open L2-delta generation, and the L1-delta,
// with NULL group keys, a group whose data columns are all NULL, and
// updates and deletes landing in every stage. It returns the table,
// a snapshot taken between the phases, and the database.
func buildDiffTable(t *testing.T, seed int64) (*core.Database, *core.Table, uint64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	db, err := core.OpenDatabase(core.DBOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	tab, err := db.CreateTable(core.TableConfig{
		Name: "d",
		Schema: types.MustSchema([]types.Column{
			{Name: "id", Kind: types.KindInt64},
			{Name: "ikey", Kind: types.KindInt64, Nullable: true},
			{Name: "fkey", Kind: types.KindFloat64, Nullable: true},
			{Name: "skey", Kind: types.KindString, Nullable: true},
			{Name: "qty", Kind: types.KindInt64, Nullable: true},
			{Name: "price", Kind: types.KindFloat64, Nullable: true},
			{Name: "name", Kind: types.KindString, Nullable: true},
			{Name: "day", Kind: types.KindDate, Nullable: true},
		}, 0),
		Strategy: core.MergePartial, ActiveMainMax: 40,
		Compress: true, CompactDicts: true, Historic: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	skeys := []string{"EMEA", "APJ", "AMER", "void"}
	maybe := func(v types.Value) types.Value {
		if rng.Intn(8) == 0 {
			return types.Null
		}
		return v
	}
	// Prices are multiples of 1/4, so every sum is exact whatever the
	// accumulation order and the two paths must agree bit for bit.
	row := func(id int64) []types.Value {
		sk := maybe(types.Str(skeys[rng.Intn(len(skeys))]))
		qty := maybe(types.Int(int64(rng.Intn(100))))
		price := maybe(types.Float(float64(rng.Intn(4000)) / 4))
		if !sk.IsNull() && sk.S == "void" {
			qty, price = types.Null, types.Null // the all-NULL-sum group
		}
		return []types.Value{
			types.Int(id),
			maybe(types.Int(int64(rng.Intn(6)))),
			maybe(types.Float(float64(rng.Intn(5)) + 0.5)),
			sk, qty, price,
			maybe(types.Str(fmt.Sprintf("n%02d", rng.Intn(30)))),
			maybe(types.Date(int64(19000 + rng.Intn(50)))),
		}
	}
	id := int64(0)
	insert := func(n int) {
		tx := db.Begin(mvcc.TxnSnapshot)
		for i := 0; i < n; i++ {
			id++
			if _, err := tab.Insert(tx, row(id)); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Commit(tx); err != nil {
			t.Fatal(err)
		}
	}
	// churn updates and deletes random keys; keys already gone are
	// skipped, so errors here are expected and ignored.
	churn := func(n int) {
		tx := db.Begin(mvcc.TxnSnapshot)
		for i := 0; i < n; i++ {
			k := 1 + rng.Int63n(id)
			if rng.Intn(2) == 0 {
				tab.DeleteKey(tx, types.Int(k))
			} else {
				tab.UpdateKey(tx, types.Int(k), row(k))
			}
		}
		if err := db.Commit(tx); err != nil {
			t.Fatal(err)
		}
	}
	merge := func() {
		if _, err := tab.MergeL1(); err != nil {
			t.Fatal(err)
		}
		if _, err := tab.MergeMain(); err != nil {
			t.Fatal(err)
		}
	}
	insert(60)
	merge() // main part 1
	insert(50)
	churn(10)
	merge() // part 1 passive, part 2 active
	asOf := db.Manager().LastCommitted()
	insert(40)
	churn(8)
	if _, err := tab.MergeL1(); err != nil {
		t.Fatal(err)
	}
	tab.RotateL2IfFull(1) // frozen L2 generation
	insert(30)
	churn(8)
	if _, err := tab.MergeL1(); err != nil { // open L2 generation
		t.Fatal(err)
	}
	insert(20) // L1-delta
	churn(8)
	st := tab.Stats()
	if st.MainParts < 2 || st.FrozenL2Rows == 0 || st.L2Rows == 0 || st.L1Rows == 0 {
		t.Fatalf("fixture does not span every stage: %+v", st)
	}
	return db, tab, asOf
}

// sortedRows orders result rows by their rendered group key.
func sortedRows(rows [][]types.Value) [][]types.Value {
	key := func(r []types.Value) string { return fmt.Sprintf("%d/%s", r[0].Kind, r[0].String()) }
	sort.Slice(rows, func(i, j int) bool { return key(rows[i]) < key(rows[j]) })
	return rows
}

// TestFusedAggregateDifferential runs every shape the fused rule
// admits — one group column over an unfiltered table — through
// TableAggregate and through BatchHashAggregate over a scan of the
// same table, for COUNT/SUM/AVG (the numeric kernel) and MIN/MAX (the
// code-grouped path), int/float/string/date group keys, and three
// views: the latest committed state, an AsOf snapshot, and a
// transaction's own uncommitted writes. Result values and kinds must
// be identical.
func TestFusedAggregateDifferential(t *testing.T) {
	numeric := []Agg{
		{Func: AggCount}, {Func: AggSum, Col: dQty}, {Func: AggSum, Col: dPrice},
		{Func: AggAvg, Col: dQty}, {Func: AggAvg, Col: dPrice}, {Func: AggSum, Col: dDay},
	}
	coded := []Agg{
		{Func: AggCount}, {Func: AggMin, Col: dQty}, {Func: AggMax, Col: dQty},
		{Func: AggMin, Col: dPrice}, {Func: AggMax, Col: dPrice},
		{Func: AggMin, Col: dName}, {Func: AggMax, Col: dName},
		{Func: AggSum, Col: dQty}, {Func: AggAvg, Col: dPrice}, {Func: AggMax, Col: dDay},
	}
	for _, seed := range []int64{1, 2, 3} {
		db, tab, asOf := buildDiffTable(t, seed)
		// A transaction's own inserts, deletes and updates, uncommitted
		// (keys already gone are skipped).
		own := db.Begin(mvcc.TxnSnapshot)
		for i := int64(0); i < 12; i++ {
			r := []types.Value{types.Int(10_000 + i), types.Int(i % 3), types.Float(0.5), types.Str("OWN"),
				types.Int(i), types.Float(1.25), types.Str("own"), types.Null}
			if _, err := tab.Insert(own, r); err != nil {
				t.Fatal(err)
			}
		}
		for k := int64(1); k <= 200; k += 17 {
			tab.DeleteKey(own, types.Int(k))
			tab.UpdateKey(own, types.Int(k+5), []types.Value{types.Int(k + 5), types.Null, types.Float(2.5),
				types.Str("APJ"), types.Int(7), types.Null, types.Str("upd"), types.Date(19001)})
		}
		views := []struct {
			name string
			txn  *mvcc.Txn
			asOf uint64
		}{{"latest", nil, 0}, {"asof", nil, asOf}, {"own-txn", own, 0}}
		for _, view := range views {
			for _, group := range []int{dIKey, dFKey, dSKey, dDay} {
				for _, aggs := range [][]Agg{numeric, coded, nil} {
					fused := &TableAggregate{Table: tab, Txn: view.txn, AsOf: view.asOf, Group: group, Aggs: aggs}
					got, err := CollectBatches(fused)
					if err != nil {
						t.Fatal(err)
					}
					want, err := CollectBatches(&BatchHashAggregate{
						In:      &BatchTableScan{Table: tab, Txn: view.txn, AsOf: view.asOf},
						GroupBy: []int{group}, Aggs: aggs,
					})
					if err != nil {
						t.Fatal(err)
					}
					label := fmt.Sprintf("seed %d view %s group %d numeric=%v", seed, view.name, group, fused.numericOnly())
					if len(got) == 0 {
						t.Fatalf("%s: no groups", label)
					}
					if g, w := sortedRows(got), sortedRows(want); !reflect.DeepEqual(g, w) {
						t.Fatalf("%s:\nfused %v\n hash %v", label, g, w)
					}
				}
			}
		}
		db.Abort(own)
	}
}

// errAfter is a context whose Err starts failing at the n-th call: it
// lands a cancellation at an exact check inside the kernels.
type errAfter struct {
	context.Context
	n     int64
	calls atomic.Int64
}

var errStop = errors.New("stopped by test")

func (c *errAfter) Err() error {
	if c.calls.Add(1) >= c.n {
		return errStop
	}
	return nil
}

// TestFusedAggregateObservesCtxMidKernel lands a cancellation at the
// third context check — past the operator's entry check and the main
// kernel's first part check, i.e. 64 Ki codes into the main store —
// and requires the aggregation to stop with it, on both the numeric
// kernel and the code-grouped path.
func TestFusedAggregateObservesCtxMidKernel(t *testing.T) {
	db, err := core.OpenDatabase(core.DBOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tab, err := db.CreateTable(core.TableConfig{
		Name: "big",
		Schema: types.MustSchema([]types.Column{
			{Name: "id", Kind: types.KindInt64},
			{Name: "region", Kind: types.KindString},
			{Name: "amount", Kind: types.KindFloat64},
		}, 0),
		Compress: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	const rows = 3 << 16
	batch := make([][]types.Value, 0, rows)
	for i := 0; i < rows; i++ {
		batch = append(batch, []types.Value{types.Int(int64(i)), types.Str([]string{"EMEA", "APJ", "AMER"}[i%3]), types.Float(float64(i % 8))})
	}
	tx := db.Begin(mvcc.TxnSnapshot)
	if _, err := tab.BulkInsert(tx, batch); err != nil {
		t.Fatal(err)
	}
	if err := db.Commit(tx); err != nil {
		t.Fatal(err)
	}
	if _, err := tab.MergeL1(); err != nil {
		t.Fatal(err)
	}
	if _, err := tab.MergeMain(); err != nil {
		t.Fatal(err)
	}
	for _, aggs := range [][]Agg{{{Func: AggSum, Col: 2}}, {{Func: AggMax, Col: 2}}} {
		ctx := &errAfter{Context: context.Background(), n: 3}
		agg := &TableAggregate{Table: tab, Group: 1, Aggs: aggs, Ctx: ctx}
		if _, err := CollectBatches(agg); !errors.Is(err, errStop) {
			t.Fatalf("numeric=%v: err = %v, want the mid-kernel cancellation", agg.numericOnly(), err)
		}
		if agg.scanned >= rows {
			t.Fatalf("numeric=%v: scanned %d of %d rows before stopping", agg.numericOnly(), agg.scanned, rows)
		}
	}

	// The accumulators are charged before they are allocated: a budget
	// below one code space's arrays fails the kernel with the typed error.
	ctx := budget.WithMeter(context.Background(), budget.NewMeter(64))
	agg := &TableAggregate{Table: tab, Group: 1, Aggs: []Agg{{Func: AggCount}, {Func: AggSum, Col: 2}}, Ctx: ctx}
	if _, err := CollectBatches(agg); !errors.Is(err, budget.ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
}
