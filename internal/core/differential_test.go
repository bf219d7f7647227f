package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/mvcc"
	"repro/internal/types"
	"repro/internal/vec"
)

// TestDifferentialAgainstModel drives the unified table with random
// operation sequences — DML with random aborts, merges of every
// strategy at random moments, savepoints, and full crash/recovery
// cycles — and checks after every step batch that the visible state
// equals a trivial committed-state model.
func TestDifferentialAgainstModel(t *testing.T) {
	for _, strat := range []MergeStrategy{MergeClassic, MergeResort, MergePartial} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%v/seed%d", strat, seed), func(t *testing.T) {
				runDifferential(t, strat, seed)
			})
		}
	}
}

func runDifferential(t *testing.T, strat MergeStrategy, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	dir := t.TempDir()
	open := func() *Database {
		db, err := OpenDatabase(DBOptions{Dir: dir, PageSize: 512})
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	db := open()
	tab, err := db.CreateTable(TableConfig{
		Name:     "t",
		Schema:   orderSchema(),
		Strategy: strat, ActiveMainMax: 40,
		Compress: true, CompactDicts: true, CheckUnique: true,
	})
	if err != nil {
		t.Fatal(err)
	}

	// model holds the committed state: key → row.
	model := map[int64][]types.Value{}
	var keys []int64
	nextKey := int64(0)

	verify := func(step string) {
		t.Helper()
		got := map[int64]string{}
		v := tab.View(nil)
		v.ScanAll(func(_ types.RowID, row []types.Value) bool {
			got[row[0].I] = fmt.Sprint(row)
			return true
		})
		v.Close()
		if len(got) != len(model) {
			t.Fatalf("%s: %d visible rows, model has %d", step, len(got), len(model))
		}
		for k, row := range model {
			if got[k] != fmt.Sprint(row) {
				t.Fatalf("%s: key %d:\n got %s\nwant %s", step, k, got[k], fmt.Sprint(row))
			}
		}
		// Point lookups agree on a sample.
		for i := 0; i < 10 && len(keys) > 0; i++ {
			k := keys[rng.Intn(len(keys))]
			v := tab.View(nil)
			m := v.Get(types.Int(k))
			v.Close()
			_, live := model[k]
			if (m != nil) != live {
				t.Fatalf("%s: Get(%d) = %v, model live=%v", step, k, m != nil, live)
			}
		}
	}

	randomRow := func(k int64) []types.Value {
		return orow(k, fmt.Sprintf("c%d", rng.Intn(12)), rng.Int63n(40))
	}

	const steps = 400
	for i := 0; i < steps; i++ {
		switch p := rng.Intn(100); {
		case p < 40: // insert
			nextKey++
			k := nextKey
			row := randomRow(k)
			tx := db.Begin(mvcc.TxnSnapshot)
			if _, err := tab.Insert(tx, row); err != nil {
				t.Fatalf("insert %d: %v", k, err)
			}
			if rng.Intn(6) == 0 {
				db.Abort(tx)
			} else {
				if err := db.Commit(tx); err != nil {
					t.Fatal(err)
				}
				model[k] = row
				keys = append(keys, k)
			}
		case p < 60 && len(keys) > 0: // update
			k := keys[rng.Intn(len(keys))]
			if _, live := model[k]; !live {
				continue
			}
			row := randomRow(k)
			tx := db.Begin(mvcc.TxnSnapshot)
			if _, err := tab.UpdateKey(tx, types.Int(k), row); err != nil {
				t.Fatalf("update %d: %v", k, err)
			}
			if rng.Intn(6) == 0 {
				db.Abort(tx)
			} else {
				if err := db.Commit(tx); err != nil {
					t.Fatal(err)
				}
				model[k] = row
			}
		case p < 70 && len(keys) > 0: // delete
			k := keys[rng.Intn(len(keys))]
			if _, live := model[k]; !live {
				continue
			}
			tx := db.Begin(mvcc.TxnSnapshot)
			if n, err := tab.DeleteKey(tx, types.Int(k)); err != nil || n != 1 {
				t.Fatalf("delete %d: n=%d err=%v", k, n, err)
			}
			if rng.Intn(6) == 0 {
				db.Abort(tx)
			} else {
				if err := db.Commit(tx); err != nil {
					t.Fatal(err)
				}
				delete(model, k)
			}
		case p < 78: // bulk insert
			n := 1 + rng.Intn(8)
			rows := make([][]types.Value, n)
			ks := make([]int64, n)
			for j := 0; j < n; j++ {
				nextKey++
				ks[j] = nextKey
				rows[j] = randomRow(nextKey)
			}
			tx := db.Begin(mvcc.TxnSnapshot)
			if _, err := tab.BulkInsert(tx, rows); err != nil {
				t.Fatalf("bulk: %v", err)
			}
			if rng.Intn(6) == 0 {
				db.Abort(tx)
			} else {
				if err := db.Commit(tx); err != nil {
					t.Fatal(err)
				}
				for j, k := range ks {
					model[k] = rows[j]
					keys = append(keys, k)
				}
			}
		case p < 86: // L1 merge
			if _, err := tab.MergeL1(); err != nil {
				t.Fatalf("MergeL1: %v", err)
			}
		case p < 92: // main merge
			if _, err := tab.MergeMain(); err != nil {
				t.Fatalf("MergeMain: %v", err)
			}
		case p < 96: // savepoint
			if err := db.Savepoint(); err != nil {
				t.Fatalf("Savepoint: %v", err)
			}
		default: // crash + recover
			db.Close()
			db = open()
			tab = db.Table("t")
			if tab == nil {
				t.Fatal("table lost in recovery")
			}
		}
		if i%25 == 24 {
			verify(fmt.Sprintf("step %d", i))
		}
	}
	verify("final")

	// Final invariants: store structure is coherent and the count
	// matches through a columnar scan too.
	st := tab.Stats()
	sum := 0
	v := tab.View(nil)
	v.ScanBatches([]int{0}, nil, 0, func(b *vec.Batch) bool { sum += b.Rows(); return true })
	v.Close()
	if sum != len(model) {
		t.Fatalf("columnar scan sees %d rows, model %d", sum, len(model))
	}
	groups, err := v2Groups(tab)
	if err != nil {
		t.Fatal(err)
	}
	total := int64(0)
	for _, g := range groups {
		total += g.Count
	}
	if total != int64(len(model)) {
		t.Fatalf("AggregateNumeric total %d, model %d", total, len(model))
	}
	db.Close()
	_ = st
}

func v2Groups(tab *Table) ([]NumGroup, error) {
	v := tab.View(nil)
	defer v.Close()
	return v.AggregateNumeric(1, []int{2})
}
