package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/expr"
	"repro/internal/mvcc"
	"repro/internal/types"
	"repro/internal/vec"
)

// spreadTable builds a table whose rows live in every life-cycle
// stage: two main parts, a frozen L2 generation, and L1 rows, with
// NULLs and deletes mixed in. Returns the table and the inserted key
// count (before deletes).
func spreadTable(t *testing.T, db *Database) *Table {
	t.Helper()
	tab, err := db.CreateTable(TableConfig{
		Name: "spread",
		Schema: types.MustSchema([]types.Column{
			{Name: "id", Kind: types.KindInt64},
			{Name: "s", Kind: types.KindString, Nullable: true},
			{Name: "v", Kind: types.KindInt64},
		}, 0),
		Strategy: MergePartial, ActiveMainMax: 40,
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
	for i := int64(1); i <= 60; i++ {
		s := fmt.Sprintf("g%d", i%7)
		if i%9 == 0 {
			s = "" // NULL
		}
		ins(i, s, i*3)
	}
	tab.MergeL1()
	tab.MergeMain()
	for i := int64(61); i <= 100; i++ {
		ins(i, fmt.Sprintf("g%d", i%7), i*3)
	}
	tab.MergeL1()
	tab.MergeMain()
	for i := int64(101); i <= 130; i++ {
		ins(i, fmt.Sprintf("g%d", i%5), i*3)
	}
	tab.MergeL1() // frozen in L2
	for i := int64(131); i <= 150; i++ {
		ins(i, "tail", i*3)
	}
	for _, id := range []int64{7, 70, 107, 140} {
		tx := db.Begin(mvcc.TxnSnapshot)
		if n, err := tab.DeleteKey(tx, types.Int(id)); n != 1 || err != nil {
			t.Fatalf("delete %d: %d %v", id, n, err)
		}
		db.Commit(tx)
	}
	return tab
}

// parallelRowsOrdered drains the callback API and reconstructs the
// sequential order by concatenating per-morsel segments in morsel
// index order.
func parallelRowsOrdered(t *testing.T, v *View, cols []int, pred expr.Predicate, batchSize, workers int) [][]types.Value {
	t.Helper()
	var mu sync.Mutex
	segs := map[int][][]types.Value{}
	err := v.ScanBatchesParallel(context.Background(), cols, pred, batchSize, workers,
		func(_, mi int, b *vec.Batch) bool {
			rows := b.Materialize()
			mu.Lock()
			segs[mi] = append(segs[mi], rows...)
			mu.Unlock()
			return true
		})
	if err != nil {
		t.Fatalf("parallel scan: %v", err)
	}
	mis := make([]int, 0, len(segs))
	for mi := range segs {
		mis = append(mis, mi)
	}
	sort.Ints(mis)
	var out [][]types.Value
	for _, mi := range mis {
		out = append(out, segs[mi]...)
	}
	return out
}

// TestParallelScanMatchesSequential is the seeded differential test:
// for a stage-spread table, every (predicate, projection, batch size,
// worker count, morsel size) combination must produce exactly the
// sequential scan's rows — identically ordered once per-morsel
// segments are concatenated in morsel order.
func TestParallelScanMatchesSequential(t *testing.T) {
	db := memDB(t)
	tab := spreadTable(t, db)

	preds := []expr.Predicate{
		nil,
		expr.Cmp{Col: 0, Op: expr.OpLe, Val: types.Int(90)},
		expr.And{
			expr.Cmp{Col: 0, Op: expr.OpGt, Val: types.Int(30)},
			expr.Cmp{Col: 2, Op: expr.OpLt, Val: types.Int(360)},
		},
		expr.Cmp{Col: 1, Op: expr.OpEq, Val: types.Str("g3")},
		expr.IsNull{Col: 1},
		expr.Cmp{Col: 0, Op: expr.OpGt, Val: types.Int(100000)}, // empty
	}
	colSets := [][]int{nil, {0}, {2, 1}}
	rng := rand.New(rand.NewSource(42))

	for pi, pred := range preds {
		for _, cols := range colSets {
			v := tab.View(nil)
			want := batchRows(v, cols, pred, 0)
			for trial := 0; trial < 4; trial++ {
				workers := 2 + rng.Intn(6)
				morsel := []int{1, 3, 17, 64}[trial]
				tab.cfg.ScanMorselRows = morsel
				got := parallelRowsOrdered(t, v, cols, pred, 1+rng.Intn(50), workers)
				if len(got) != len(want) {
					t.Fatalf("pred %d cols %v workers %d morsel %d: %d rows, want %d",
						pi, cols, workers, morsel, len(got), len(want))
				}
				for i := range want {
					if rowKey(got[i]) != rowKey(want[i]) {
						t.Fatalf("pred %d cols %v workers %d morsel %d: row %d = %v, want %v",
							pi, cols, workers, morsel, i, got[i], want[i])
					}
				}
			}
			tab.cfg.ScanMorselRows = 0
			v.Close()
		}
	}
}

// TestParallelScanPullAPI checks the pull cursor returns the same row
// set, and that abandoning it early releases the workers.
func TestParallelScanPullAPI(t *testing.T) {
	db := memDB(t)
	tab := spreadTable(t, db)
	tab.cfg.ScanMorselRows = 16

	v := tab.View(nil)
	defer v.Close()
	want := sortedKeys(batchRows(v, nil, nil, 0))

	c := v.NewParallelBatchScan(context.Background(), nil, nil, 8, 4)
	var got [][]types.Value
	for b := c.Next(); b != nil; b = c.Next() {
		got = append(got, b.Materialize()...)
	}
	if err := c.Err(); err != nil {
		t.Fatalf("pull scan err: %v", err)
	}
	c.Close()
	if !reflect.DeepEqual(sortedKeys(got), want) {
		t.Fatalf("pull scan: %d rows, want %d", len(got), len(want))
	}

	// Early abandonment: take one batch, close, workers must exit.
	c = v.NewParallelBatchScan(context.Background(), nil, nil, 4, 4)
	if b := c.Next(); b == nil {
		t.Fatal("expected at least one batch")
	}
	c.Close()
	c.Close() // idempotent
}

// TestParallelScanCancellation checks a cancelled context aborts the
// scan mid-flight and surfaces ctx.Err.
func TestParallelScanCancellation(t *testing.T) {
	db := memDB(t)
	tab := spreadTable(t, db)
	tab.cfg.ScanMorselRows = 4

	v := tab.View(nil)
	defer v.Close()

	// Pre-cancelled: no batches at all.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	n := 0
	err := v.ScanBatchesParallel(ctx, nil, nil, 8, 4, func(_, _ int, b *vec.Batch) bool {
		n++
		return true
	})
	if err != context.Canceled {
		t.Fatalf("pre-cancelled scan err = %v", err)
	}
	if n != 0 {
		t.Fatalf("pre-cancelled scan produced %d batches", n)
	}

	// Cancel mid-scan from inside the callback: in-flight morsels must
	// observe it and the scan must return the context error.
	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	var batches atomic.Int64
	err = v.ScanBatchesParallel(ctx, nil, nil, 4, 4, func(_, _ int, b *vec.Batch) bool {
		if batches.Add(1) == 2 {
			cancel()
		}
		return true
	})
	if err != context.Canceled {
		t.Fatalf("mid-scan cancel err = %v", err)
	}

	// Consumer stop (fn false) is a clean stop, not an error.
	err = v.ScanBatchesParallel(context.Background(), nil, nil, 4, 4,
		func(_, _ int, b *vec.Batch) bool { return false })
	if err != nil {
		t.Fatalf("early-stop err = %v", err)
	}
}

// TestPlanMorselsPartition is the morsel-boundary property test: for
// random morsel sizes, the plan must exactly partition every stage —
// contiguous, non-overlapping, never spanning a stage or part
// boundary.
func TestPlanMorselsPartition(t *testing.T) {
	db := memDB(t)
	tab := spreadTable(t, db)
	v := tab.View(nil)
	defer v.Close()

	stageSizes := map[int]int{0: v.l1Border}
	for gi, b := range v.borders {
		stageSizes[1+gi] = b
	}
	for pi, p := range v.main.Parts() {
		stageSizes[1+len(v.l2s)+pi] = p.NumRows()
	}

	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		rowsPer := 1 + rng.Intn(200)
		ms := v.planMorsels(rowsPer)
		next := map[int]int{}
		for _, m := range ms {
			if m.end <= m.start {
				t.Fatalf("rowsPer %d: empty morsel %+v", rowsPer, m)
			}
			if m.end-m.start > rowsPer {
				t.Fatalf("rowsPer %d: oversized morsel %+v", rowsPer, m)
			}
			if m.start != next[m.stage] {
				t.Fatalf("rowsPer %d: stage %d gap/overlap: morsel starts at %d, want %d",
					rowsPer, m.stage, m.start, next[m.stage])
			}
			next[m.stage] = m.end
			if total, ok := stageSizes[m.stage]; !ok || m.end > total {
				t.Fatalf("rowsPer %d: morsel %+v exceeds stage size %d", rowsPer, m, stageSizes[m.stage])
			}
		}
		for stage, total := range stageSizes {
			if total == 0 {
				continue
			}
			if next[stage] != total {
				t.Fatalf("rowsPer %d: stage %d covered to %d of %d", rowsPer, stage, next[stage], total)
			}
		}
	}
}

// TestParallelScanEquivalentUnderMerges runs the parallel/sequential
// differential while writers and merges churn the table: each round
// pins one view and both scans must agree exactly on it, merge races
// and all.
func TestParallelScanEquivalentUnderMerges(t *testing.T) {
	db := memDB(t)
	tab := mkTable(t, db, TableConfig{L1MaxRows: 32, L2MaxRows: 96})
	tab.cfg.ScanMorselRows = 8

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		key := int64(1)
		for {
			select {
			case <-stop:
				return
			default:
			}
			tx := db.Begin(mvcc.TxnSnapshot)
			if _, err := tab.Insert(tx, orow(key, fmt.Sprintf("c%d", key%13), key%5)); err == nil {
				db.Commit(tx)
			} else {
				db.Abort(tx)
			}
			key++
			if key%40 == 0 {
				tab.MergeL1()
				tab.MergeMain()
			}
		}
	}()

	pred := expr.Cmp{Col: 2, Op: expr.OpGe, Val: types.Int(1)}
	for round := 0; round < 30; round++ {
		v := tab.View(nil)
		want := batchRows(v, nil, pred, 0)
		got := parallelRowsOrdered(t, v, nil, pred, 7, 4)
		v.Close()
		if len(got) != len(want) {
			t.Fatalf("round %d: %d rows, want %d", round, len(got), len(want))
		}
		for i := range want {
			if rowKey(got[i]) != rowKey(want[i]) {
				t.Fatalf("round %d row %d: %v want %v", round, i, got[i], want[i])
			}
		}
	}
	close(stop)
	wg.Wait()
}

// TestParallelScanWorkerResolution pins the ScanWorkers knob
// semantics: 0 → GOMAXPROCS-sized, 1 → sequential, n → n.
func TestParallelScanWorkerResolution(t *testing.T) {
	db := memDB(t)
	tab := mkTable(t, db, TableConfig{})
	if got := tab.ScanWorkers(); got < 1 {
		t.Fatalf("default ScanWorkers resolved to %d", got)
	}
	tab.cfg.ScanWorkers = 1
	if got := tab.ScanWorkers(); got != 1 {
		t.Fatalf("ScanWorkers=1 resolved to %d", got)
	}
	tab.cfg.ScanWorkers = 3
	if got := tab.ScanWorkers(); got != 3 {
		t.Fatalf("ScanWorkers=3 resolved to %d", got)
	}
	if got := tab.MorselRows(); got != DefaultMorselRows {
		t.Fatalf("default MorselRows = %d", got)
	}
	tab.cfg.ScanMorselRows = 123
	if got := tab.MorselRows(); got != 123 {
		t.Fatalf("MorselRows = %d", got)
	}
}
