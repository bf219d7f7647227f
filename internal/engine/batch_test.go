package engine

import (
	"reflect"
	"testing"

	"repro/internal/expr"
	"repro/internal/mvcc"
	"repro/internal/types"
	"repro/internal/vec"
)

func TestBatchFilterProjectLimit(t *testing.T) {
	src := batchSource(rows(ints(1, 10), ints(2, 20), ints(3, 30), ints(4, 40)), 2)
	it := &BatchLimit{N: 2, In: &BatchProject{
		Cols: []int{1},
		In:   &BatchFilter{In: src, Pred: expr.Cmp{Col: 0, Op: expr.OpGe, Val: types.Int(2)}},
	}}
	got, err := CollectBatches(it)
	if err != nil {
		t.Fatal(err)
	}
	want := rows(ints(20), ints(30))
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestBatchHashJoin(t *testing.T) {
	left := batchSource(rows(ints(1, 100), ints(2, 200), ints(3, 300), ints(2, 201)), 3)
	right := batchSource(rows(ints(2, 7), ints(3, 8), ints(9, 9)), 2)
	j := &BatchHashJoin{Left: left, Right: right, LeftCol: 0, RightCol: 0}
	got, err := CollectBatches(j)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("got = %v", got)
	}
	for _, row := range got {
		if len(row) != 4 || row[0].I != row[2].I {
			t.Errorf("bad join row %v", row)
		}
	}
	// NULL keys never match.
	left = batchSource(rows([]types.Value{types.Null, types.Int(1)}), 1)
	right = batchSource(rows([]types.Value{types.Null, types.Int(2)}), 1)
	j = &BatchHashJoin{Left: left, Right: right, LeftCol: 0, RightCol: 0}
	if got, err := CollectBatches(j); err != nil || len(got) != 0 {
		t.Errorf("NULL keys joined: %v %v", got, err)
	}
}

func TestBatchHashAggregate(t *testing.T) {
	in := rows(
		[]types.Value{types.Str("a"), types.Int(1), types.Float(0.5)},
		[]types.Value{types.Str("b"), types.Int(2), types.Float(1.5)},
		[]types.Value{types.Str("a"), types.Int(3), types.Float(2.5)},
		[]types.Value{types.Str("a"), types.Null, types.Float(3.5)},
	)
	specs := []Agg{
		{Func: AggCount}, {Func: AggSum, Col: 1}, {Func: AggMin, Col: 1},
		{Func: AggMax, Col: 1}, {Func: AggAvg, Col: 2},
	}
	got, err := CollectBatches(&BatchHashAggregate{In: batchSource(in, 2), GroupBy: []int{0}, Aggs: specs})
	if err != nil {
		t.Fatal(err)
	}
	// Groups in first-seen order; COUNT counts rows, SUM/MIN/MAX skip
	// NULLs, AVG is a float.
	want := rows(
		[]types.Value{types.Str("a"), types.Int(3), types.Int(4), types.Int(1), types.Int(3), types.Float(6.5 / 3)},
		[]types.Value{types.Str("b"), types.Int(1), types.Int(2), types.Int(2), types.Int(2), types.Float(1.5)},
	)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}

	// A float SUM whose first group is all-NULL yields Int(0) followed
	// by float results in the same output column — the batch must not
	// zero the later groups (mixed-kind column demotion).
	in = rows(
		[]types.Value{types.Str("a"), types.Int(0), types.Null},
		[]types.Value{types.Str("b"), types.Int(0), types.Float(47.6)},
	)
	got, err = CollectBatches(&BatchHashAggregate{In: batchSource(in, 4), GroupBy: []int{0}, Aggs: []Agg{{Func: AggSum, Col: 2}}})
	if err != nil {
		t.Fatal(err)
	}
	want = rows(
		[]types.Value{types.Str("a"), types.Int(0)},
		[]types.Value{types.Str("b"), types.Float(47.6)},
	)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("mixed-kind sums: got %v, want %v", got, want)
	}

	// Global aggregate over empty input yields one row.
	got, err = CollectBatches(&BatchHashAggregate{In: batchSource(nil, 4), Aggs: []Agg{{Func: AggCount}, {Func: AggSum, Col: 0}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0][0].I != 0 {
		t.Errorf("global empty agg = %v", got)
	}
}

// countingBatches counts how many batches are pulled through it.
type countingBatches struct {
	In    BatchIterator
	pulls int
}

func (c *countingBatches) Open() error { return c.In.Open() }
func (c *countingBatches) Next() (*vec.Batch, error) {
	c.pulls++
	return c.In.Next()
}
func (c *countingBatches) Close() error { return c.In.Close() }

// TestBatchLimitStopsPullingEarly pins the limit-pushdown satellite:
// once the limit is satisfied the scan must not be pulled again, so a
// LIMIT 1 over a many-batch table costs one batch, not a full scan.
func TestBatchLimitStopsPullingEarly(t *testing.T) {
	db, tab := newCoreTable(t)
	tx := db.Begin(mvcc.TxnSnapshot)
	for i := int64(1); i <= 1000; i++ {
		if _, err := tab.Insert(tx, []types.Value{types.Int(i), types.Str("r"), types.Int(i)}); err != nil {
			t.Fatal(err)
		}
	}
	db.Commit(tx)
	tab.MergeL1()
	tab.MergeMain()

	src := &countingBatches{In: &BatchTableScan{Table: tab, BatchSize: 10}}
	got, err := CollectBatches(&BatchLimit{N: 1, In: src})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("limit 1 returned %d rows", len(got))
	}
	// 1000 rows / 10 per batch = 100 batches available; LIMIT 1 must
	// stop after the first pull.
	if src.pulls != 1 {
		t.Errorf("limit pulled %d batches, want 1", src.pulls)
	}

	// A larger limit spanning batches still terminates early.
	src = &countingBatches{In: &BatchTableScan{Table: tab, BatchSize: 10}}
	got, err = CollectBatches(&BatchLimit{N: 25, In: src})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 25 {
		t.Fatalf("limit 25 returned %d rows", len(got))
	}
	if src.pulls != 3 {
		t.Errorf("limit 25 pulled %d batches, want 3", src.pulls)
	}
}
