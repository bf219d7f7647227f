package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/expr"
	"repro/internal/mvcc"
	"repro/internal/types"
)

// TestFilterDifferential compares the batch scan's filter (ranges
// pushed down to dictionary codes, the residual evaluated per batch)
// against a naive ScanAll+Eval reference for randomly generated
// predicates over data spread across all stages.
func TestFilterDifferential(t *testing.T) {
	db := memDB(t)
	tab := mkTable(t, db, TableConfig{Strategy: MergePartial, ActiveMainMax: 60})
	rng := rand.New(rand.NewSource(19))
	customers := []string{"acme", "bolt", "core", "dyn", "edge"}
	id := int64(0)
	fill := func(n int) {
		tx := db.Begin(mvcc.TxnSnapshot)
		for i := 0; i < n; i++ {
			id++
			tab.Insert(tx, orow(id, customers[rng.Intn(5)], rng.Int63n(100)))
		}
		db.Commit(tx)
	}
	fill(80)
	tab.MergeL1()
	tab.MergeMain()
	fill(40)
	tab.MergeL1()
	tab.MergeMain() // split main
	fill(30)
	tab.MergeL1() // L2
	fill(20)      // L1

	randPred := func() expr.Predicate {
		mk := func() expr.Predicate {
			switch rng.Intn(6) {
			case 0:
				return expr.Cmp{Col: 0, Op: expr.Op(rng.Intn(6)), Val: types.Int(rng.Int63n(180))}
			case 1:
				return expr.Cmp{Col: 1, Op: expr.OpEq, Val: types.Str(customers[rng.Intn(5)])}
			case 2:
				return expr.Between{Col: 2, Lo: types.Int(rng.Int63n(50)), Hi: types.Int(50 + rng.Int63n(50)), LoInc: rng.Intn(2) == 0, HiInc: rng.Intn(2) == 0}
			case 3:
				return expr.Like{Col: 1, Prefix: string(rune('a' + rng.Intn(6)))}
			case 4:
				return expr.In{Col: 1, Vals: []types.Value{types.Str(customers[rng.Intn(5)]), types.Str(customers[rng.Intn(5)])}}
			default:
				return expr.Cmp{Col: 2, Op: expr.OpGe, Val: types.Int(rng.Int63n(100))}
			}
		}
		p := mk()
		for rng.Intn(2) == 0 {
			switch rng.Intn(3) {
			case 0:
				p = expr.And{p, mk()}
			case 1:
				p = expr.Or{p, mk()}
			default:
				p = expr.Not{P: p}
			}
		}
		return p
	}

	v := tab.View(nil)
	defer v.Close()
	for trial := 0; trial < 60; trial++ {
		pred := randPred()
		want := map[int64]bool{}
		v.ScanAll(func(_ types.RowID, row []types.Value) bool {
			if pred.Eval(row) {
				want[row[0].I] = true
			}
			return true
		})
		got := map[int64]bool{}
		for _, row := range batchRows(v, nil, pred, 0) {
			if got[row[0].I] {
				t.Fatalf("pred %v: row %d emitted twice", pred, row[0].I)
			}
			got[row[0].I] = true
			if !pred.Eval(row) {
				t.Fatalf("pred %v: emitted non-matching row %v", pred, row)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("pred %v: filter %d rows, reference %d", pred, len(got), len(want))
		}
		for id := range want {
			if !got[id] {
				t.Fatalf("pred %v: row %d missing", pred, id)
			}
		}
	}
}

// TestViewSmallAccessors covers the trivial view accessors.
func TestViewSmallAccessors(t *testing.T) {
	db := memDB(t)
	tab := mkTable(t, db, TableConfig{})
	mustInsert(t, db, tab, orow(1, "a", 1))
	if tab.Name() != "orders" {
		t.Error("Name")
	}
	if db.Manager() == nil {
		t.Error("Manager")
	}
}

// TestRotateL2Explicit covers the exported rotation entry point.
func TestRotateL2Explicit(t *testing.T) {
	db := memDB(t)
	tab := mkTable(t, db, TableConfig{})
	if tab.RotateL2IfFull(1) {
		t.Fatal("rotated an empty L2")
	}
	mustInsert(t, db, tab, orow(1, "a", 1))
	tab.MergeL1()
	if tab.RotateL2IfFull(2) {
		t.Fatal("rotated an L2 below the threshold")
	}
	if !tab.RotateL2IfFull(1) {
		t.Fatal("did not rotate a full L2")
	}
	st := tab.Stats()
	if st.FrozenL2Rows != 1 || st.L2Rows != 0 {
		t.Fatalf("stats = %+v", st)
	}
	// The frozen generation still serves reads until merged.
	if got := countRows(tab); got != 1 {
		t.Fatalf("count = %d", got)
	}
	if _, err := tab.MergeMain(); err != nil {
		t.Fatal(err)
	}
	if got := countRows(tab); got != 1 {
		t.Fatalf("count after merge = %d", got)
	}
}

// TestScanGroupedDirect covers the (space, code) contract.
func TestScanGroupedDirect(t *testing.T) {
	db := memDB(t)
	tab := mkTable(t, db, TableConfig{})
	mustInsert(t, db, tab, orow(1, "x", 1), orow(2, "y", 2))
	tab.MergeL1()
	tab.MergeMain() // main
	mustInsert(t, db, tab, orow(3, "x", 3))
	tab.MergeL1()                           // L2
	mustInsert(t, db, tab, orow(4, "z", 4)) // L1

	v := tab.View(nil)
	defer v.Close()
	got := map[string]int{}
	spaces := v.ScanGrouped(1, []int{2}, func(space int, code int32, vals []types.Value) bool {
		if code < 0 {
			t.Fatal("unexpected NULL code")
		}
		got[fmt.Sprintf("s%d", space)]++
		return true
	})
	// Space 0 = L1 (1 row), spaces 1..k = L2 gens, last = main (2 rows).
	if got["s0"] != 1 {
		t.Fatalf("spaces = %v", got)
	}
	total := 0
	for _, n := range got {
		total += n
	}
	if total != 4 {
		t.Fatalf("rows = %d", total)
	}
	// Resolvers work for every space that produced rows.
	last := len(spaces) - 1
	if spaces[last].Card != 2 { // main dict: x, y
		t.Fatalf("main card = %d", spaces[last].Card)
	}
	if spaces[last].Resolve(0).S != "x" {
		t.Fatalf("resolve = %v", spaces[last].Resolve(0))
	}
}
