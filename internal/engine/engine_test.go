package engine

import (
	"errors"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/mvcc"
	"repro/internal/types"
)

func rows(vals ...[]types.Value) [][]types.Value { return vals }

func ints(vs ...int64) []types.Value {
	out := make([]types.Value, len(vs))
	for i, v := range vs {
		out[i] = types.Int(v)
	}
	return out
}

// batchSource replays materialized rows as batches of the given size.
func batchSource(rs [][]types.Value, size int) BatchIterator {
	return &BatchValues{Rows: rs, BatchSize: size}
}

func sortRows(rs [][]types.Value) {
	sort.Slice(rs, func(i, j int) bool {
		for c := range rs[i] {
			d := types.Compare(rs[i][c], rs[j][c])
			if d != 0 {
				return d < 0
			}
		}
		return false
	})
}

func TestBatchValuesAndCollect(t *testing.T) {
	in := rows(ints(1, 2), ints(3, 4), ints(5, 6))
	got, err := CollectBatches(batchSource(in, 2))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, in) {
		t.Errorf("round trip %v, want %v", got, in)
	}
	// No rows, no batches.
	if got, err := CollectBatches(batchSource(nil, 2)); err != nil || len(got) != 0 {
		t.Errorf("empty source = %v, %v", got, err)
	}
	// Next before Open errors.
	if _, err := (&BatchValues{}).Next(); !errors.Is(err, ErrNotOpen) {
		t.Errorf("err = %v", err)
	}
}

func TestBatchUnion(t *testing.T) {
	u := &BatchUnion{Ins: []BatchIterator{
		batchSource(rows(ints(1)), 1),
		batchSource(nil, 1),
		batchSource(rows(ints(2), ints(3)), 1),
	}}
	got, err := CollectBatches(u)
	if err != nil {
		t.Fatal(err)
	}
	if want := rows(ints(1), ints(2), ints(3)); !reflect.DeepEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
	if got, err := CollectBatches(&BatchUnion{}); err != nil || len(got) != 0 {
		t.Errorf("empty union = %v, %v", got, err)
	}
}

// TestBatchUnionFailingChildLeaksNothing pins the no-leak contract of
// the union: when a later child's Open fails, every child opened
// before it has been closed and no child after it was touched.
func TestBatchUnionFailingChildLeaksNothing(t *testing.T) {
	boom := errors.New("boom")
	a := &trackingBatches{In: batchSource(rows(ints(1)), 1)}
	b := &trackingBatches{In: batchSource(rows(ints(2)), 1)}
	c := &trackingBatches{In: batchSource(nil, 1), openErr: boom}
	d := &trackingBatches{In: batchSource(rows(ints(4)), 1)}
	u := &BatchUnion{Ins: []BatchIterator{a, b, c, d}}
	if _, err := CollectBatches(u); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	for name, in := range map[string]*trackingBatches{"a": a, "b": b} {
		if in.opens != 1 || in.closes != 1 {
			t.Errorf("%s: opens=%d closes=%d, want 1/1", name, in.opens, in.closes)
		}
	}
	if d.opens != 0 || d.closes != 0 {
		t.Errorf("unreached child touched: opens=%d closes=%d", d.opens, d.closes)
	}

	// A mid-stream Next error closes the child it happened in.
	a = &trackingBatches{In: batchSource(rows(ints(1), ints(2)), 1), nextErr: boom, failAt: 2}
	if _, err := CollectBatches(&BatchUnion{Ins: []BatchIterator{a}}); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if a.opens != 1 || a.closes != 1 {
		t.Errorf("failing child: opens=%d closes=%d, want 1/1", a.opens, a.closes)
	}
}

// TestBatchSort pins multi-key order with DESC, stability for equal
// keys, and NULLs sorting first ascending / last descending.
func TestBatchSort(t *testing.T) {
	s := &BatchSort{In: batchSource(rows(ints(2, 9), ints(1, 8), ints(2, 7), ints(0, 6)), 3),
		Keys: []SortSpec{{Col: 0}, {Col: 1, Desc: true}}}
	got, err := CollectBatches(s)
	if err != nil {
		t.Fatal(err)
	}
	if want := rows(ints(0, 6), ints(1, 8), ints(2, 9), ints(2, 7)); !reflect.DeepEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}

	// Equal keys keep input order (second column is the arrival tag).
	in := rows(ints(1, 0), ints(0, 1), ints(1, 2), ints(0, 3), ints(1, 4))
	got, err = CollectBatches(&BatchSort{In: batchSource(in, 2), Keys: []SortSpec{{Col: 0}}})
	if err != nil {
		t.Fatal(err)
	}
	if want := rows(ints(0, 1), ints(0, 3), ints(1, 0), ints(1, 2), ints(1, 4)); !reflect.DeepEqual(got, want) {
		t.Errorf("unstable sort: got %v, want %v", got, want)
	}

	withNull := rows(ints(2), []types.Value{types.Null}, ints(1))
	got, err = CollectBatches(&BatchSort{In: batchSource(withNull, 4), Keys: []SortSpec{{Col: 0}}})
	if err != nil {
		t.Fatal(err)
	}
	if !got[0][0].IsNull() || got[1][0].I != 1 || got[2][0].I != 2 {
		t.Errorf("ascending NULL order: %v", got)
	}
	got, err = CollectBatches(&BatchSort{In: batchSource(withNull, 4), Keys: []SortSpec{{Col: 0, Desc: true}}})
	if err != nil {
		t.Fatal(err)
	}
	if got[0][0].I != 2 || got[1][0].I != 1 || !got[2][0].IsNull() {
		t.Errorf("descending NULL order: %v", got)
	}

	// Empty input, and Next before Open.
	if got, err := CollectBatches(&BatchSort{In: batchSource(nil, 1)}); err != nil || len(got) != 0 {
		t.Errorf("empty sort = %v, %v", got, err)
	}
	if _, err := (&BatchSort{}).Next(); !errors.Is(err, ErrNotOpen) {
		t.Errorf("err = %v", err)
	}
}

func newCoreTable(t *testing.T) (*core.Database, *core.Table) {
	t.Helper()
	db, err := core.OpenDatabase(core.DBOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	tab, err := db.CreateTable(core.TableConfig{
		Name: "t",
		Schema: types.MustSchema([]types.Column{
			{Name: "id", Kind: types.KindInt64},
			{Name: "region", Kind: types.KindString},
			{Name: "amount", Kind: types.KindInt64},
		}, 0),
		Compress: true, CompactDicts: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return db, tab
}

// TestBatchTableScanWithPushdown checks the streaming scan on a table
// spread across main, L2 and L1 against the answer computed by hand:
// a two-conjunct pushed predicate, with and without projection.
func TestBatchTableScanWithPushdown(t *testing.T) {
	db, tab := newCoreTable(t)
	regions := []string{"EMEA", "APJ", "AMER"}
	tx := db.Begin(mvcc.TxnSnapshot)
	for i := int64(1); i <= 30; i++ {
		if _, err := tab.Insert(tx, []types.Value{types.Int(i), types.Str(regions[i%3]), types.Int(i * 10)}); err != nil {
			t.Fatal(err)
		}
	}
	db.Commit(tx)
	// Spread across stages.
	tab.MergeL1()
	tab.MergeMain()
	tx2 := db.Begin(mvcc.TxnSnapshot)
	for i := int64(31); i <= 40; i++ {
		tab.Insert(tx2, []types.Value{types.Int(i), types.Str(regions[i%3]), types.Int(i * 10)})
	}
	db.Commit(tx2)

	pred := expr.And{
		expr.Cmp{Col: 1, Op: expr.OpEq, Val: types.Str("EMEA")},
		expr.Cmp{Col: 2, Op: expr.OpLe, Val: types.Int(300)},
	}
	for _, cols := range [][]int{nil, {0}, {2, 1}} {
		var want [][]types.Value
		for i := int64(1); i <= 40; i++ {
			if regions[i%3] != "EMEA" || i*10 > 300 {
				continue
			}
			full := []types.Value{types.Int(i), types.Str(regions[i%3]), types.Int(i * 10)}
			row := full
			if cols != nil {
				row = nil
				for _, c := range cols {
					row = append(row, full[c])
				}
			}
			want = append(want, row)
		}
		got, err := CollectBatches(&BatchTableScan{Table: tab, Pred: pred, Cols: cols, BatchSize: 7})
		if err != nil {
			t.Fatal(err)
		}
		sortRows(want)
		sortRows(got)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("cols %v: scan %v, want %v", cols, got, want)
		}
	}
}

func starFixture() (fact, customers, products [][]types.Value) {
	// Fact: (custID, prodID, revenue)
	fact = rows(
		ints(1, 10, 100), ints(2, 10, 200), ints(1, 20, 300),
		ints(3, 10, 400), // cust 3 not in (filtered) dim
		ints(1, 30, 500), // prod 30 not in dim
		[]types.Value{types.Null, types.Int(10), types.Int(600)}, // NULL foreign key
	)
	customers = rows(
		[]types.Value{types.Int(1), types.Str("acme")},
		[]types.Value{types.Int(2), types.Str("bolt")},
		[]types.Value{types.Null, types.Str("ghost")}, // NULL dimension key matches nothing
	)
	products = rows(
		[]types.Value{types.Int(10), types.Str("widget")},
		[]types.Value{types.Int(20), types.Str("gadget")},
	)
	return fact, customers, products
}

func TestBatchStarJoin(t *testing.T) {
	fact, customers, products := starFixture()
	sj := &BatchStarJoin{
		Fact: batchSource(fact, 2),
		Dims: []StarDim{
			{In: batchSource(customers, 2), KeyCol: 0, FactCol: 0, Payload: []int{1}},
			{In: batchSource(products, 2), KeyCol: 0, FactCol: 1, Payload: []int{1}},
		},
	}
	got, err := CollectBatches(sj)
	if err != nil {
		t.Fatal(err)
	}
	// Fact columns, then each dimension's payload, in fact order; the
	// unmatched and NULL-key fact rows are gone.
	want := rows(
		[]types.Value{types.Int(1), types.Int(10), types.Int(100), types.Str("acme"), types.Str("widget")},
		[]types.Value{types.Int(2), types.Int(10), types.Int(200), types.Str("bolt"), types.Str("widget")},
		[]types.Value{types.Int(1), types.Int(20), types.Int(300), types.Str("acme"), types.Str("gadget")},
	)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}

	// Group by customer name, sum revenue — the star join feeds the
	// aggregate without materializing in between.
	sj.Fact = batchSource(fact, 2)
	agg := &BatchHashAggregate{In: sj, GroupBy: []int{3}, Aggs: []Agg{{Func: AggSum, Col: 2}}}
	grouped, err := CollectBatches(agg)
	if err != nil {
		t.Fatal(err)
	}
	sums := map[string]int64{}
	for _, r := range grouped {
		sums[r[0].S] = r[1].I
	}
	if len(sums) != 2 || sums["acme"] != 400 || sums["bolt"] != 200 {
		t.Errorf("sums = %v", sums)
	}
}

func TestBatchStarJoinDuplicateDimKeyRejected(t *testing.T) {
	fact := &trackingBatches{In: batchSource(nil, 1)}
	dim := &trackingBatches{In: batchSource(rows(ints(1, 1), ints(1, 2)), 1)}
	sj := &BatchStarJoin{Fact: fact, Dims: []StarDim{{In: dim, KeyCol: 0, FactCol: 0}}}
	if _, err := CollectBatches(sj); err == nil {
		t.Error("duplicate dimension key accepted")
	}
	if dim.opens != 1 || dim.closes != 1 || fact.opens != 0 {
		t.Errorf("dim opens=%d closes=%d, fact opens=%d; want 1/1/0", dim.opens, dim.closes, fact.opens)
	}
}

func TestPipelineComposition(t *testing.T) {
	// A deeper tree: scan → join → aggregate → sort → limit, pulled
	// batch by batch from the root.
	db, tab := newCoreTable(t)
	tx := db.Begin(mvcc.TxnSnapshot)
	for i := int64(1); i <= 50; i++ {
		tab.Insert(tx, []types.Value{types.Int(i), types.Str(fmt.Sprintf("r%d", i%5)), types.Int(i)})
	}
	db.Commit(tx)

	dims := batchSource(rows(
		[]types.Value{types.Str("r1"), types.Str("one")},
		[]types.Value{types.Str("r2"), types.Str("two")},
	), 1)
	plan := &BatchLimit{N: 1, In: &BatchSort{
		Keys: []SortSpec{{Col: 1, Desc: true}},
		In: &BatchHashAggregate{
			GroupBy: []int{4}, // dim label
			Aggs:    []Agg{{Func: AggSum, Col: 2}},
			In: &BatchHashJoin{
				Left:    &BatchTableScan{Table: tab, BatchSize: 8},
				Right:   dims,
				LeftCol: 1, RightCol: 0,
			},
		},
	}}
	got, err := CollectBatches(plan)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("got = %v", got)
	}
	// r2 rows: 2,7,...,47 sum = 245; r1: 1,6,...,46 sum = 235.
	if got[0][0].S != "two" || got[0][1].I != 245 {
		t.Errorf("top group = %v", got[0])
	}
}
