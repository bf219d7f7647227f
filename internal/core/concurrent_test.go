package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/mvcc"
	"repro/internal/types"
	"repro/internal/vec"
)

// TestConcurrentHTAP runs OLTP writers, OLAP scanners, and the
// background merge scheduler against one table and checks the final
// state is exactly the set of committed keys — the paper's headline
// scenario of "both transactional and analytical workloads on the
// same physical database" (§1). Run with -race.
func TestConcurrentHTAP(t *testing.T) {
	db, err := OpenDatabase(DBOptions{AutoMerge: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tab, err := db.CreateTable(TableConfig{
		Name: "orders", Schema: orderSchema(),
		L1MaxRows: 64, L2MaxRows: 256,
		Compress: true, CompactDicts: true, CheckUnique: true,
	})
	if err != nil {
		t.Fatal(err)
	}

	const writers = 4
	const perWriter = 300
	var committed sync.Map // key → qty
	var aborts atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				key := int64(w*perWriter + i)
				tx := db.Begin(mvcc.TxnSnapshot)
				_, err := tab.Insert(tx, orow(key, fmt.Sprintf("cust%d", key%17), key%50))
				if err != nil {
					db.Abort(tx)
					aborts.Add(1)
					continue
				}
				if i%5 == 0 {
					// Update churn: exercises delete+insert versioning.
					if _, err := tab.UpdateKey(tx, types.Int(key), orow(key, "updated", key%50+1)); err != nil {
						db.Abort(tx)
						aborts.Add(1)
						continue
					}
				}
				if err := db.Commit(tx); err != nil {
					t.Errorf("commit: %v", err)
					return
				}
				committed.Store(key, true)
			}
		}(w)
	}

	// OLAP scanners run throughout: each scan must see a consistent
	// count (no torn states, no duplicates).
	stopScan := make(chan struct{})
	var scanWg sync.WaitGroup
	for r := 0; r < 2; r++ {
		scanWg.Add(1)
		go func() {
			defer scanWg.Done()
			for {
				select {
				case <-stopScan:
					return
				default:
				}
				v := tab.View(nil)
				seen := map[int64]int{}
				v.ScanAll(func(_ types.RowID, row []types.Value) bool {
					seen[row[0].I]++
					return true
				})
				v.Close()
				for k, n := range seen {
					if n > 1 {
						t.Errorf("key %d visible %d times in one snapshot", k, n)
						return
					}
				}
				time.Sleep(time.Millisecond)
			}
		}()
	}

	wg.Wait()
	close(stopScan)
	scanWg.Wait()

	// Drain all pending merges deterministically.
	for {
		if _, err := tab.MergeL1(); err != nil {
			t.Fatal(err)
		}
		stats, err := tab.MergeMain()
		if err != nil {
			t.Fatal(err)
		}
		st := tab.Stats()
		if st.L1Rows == 0 && st.L2Rows == 0 && st.FrozenL2Rows == 0 {
			break
		}
		_ = stats
	}

	want := 0
	committed.Range(func(any, any) bool { want++; return true })
	if got := countRows(tab); got != want {
		t.Fatalf("final count = %d, want %d (aborts=%d)", got, want, aborts.Load())
	}
	// Every committed key resolves by point lookup. The view pins the
	// table's shared latch, so it must close before the next
	// latch-taking call (Stats below): with the scheduler's exclusive
	// latch request queued in between, a second shared acquisition on
	// the same goroutine deadlocks (sync.RWMutex readers queue behind
	// waiting writers).
	v := tab.View(nil)
	missing := 0
	committed.Range(func(k, _ any) bool {
		if v.Get(types.Int(k.(int64))) == nil {
			missing++
		}
		return missing < 5
	})
	v.Close()
	if missing > 0 {
		t.Errorf("%d committed keys missing", missing)
	}
	st := tab.Stats()
	if st.MainMerges == 0 {
		t.Error("scheduler never merged to main")
	}
	t.Logf("final stats: %+v", st)
}

// TestConcurrentMultiTableStress hammers several tables at once:
// writers, snapshot scanners, and global-dictionary readers race the
// scheduler's concurrent column-parallel main merges. The thresholds
// are tiny so every lifecycle transition (L1→L2 merge, L2 rotation,
// parallel L2→main merge) happens continuously under load. Run with
// -race; its job is to surface latch violations, not to measure.
func TestConcurrentMultiTableStress(t *testing.T) {
	db, err := OpenDatabase(DBOptions{AutoMerge: true, MaxMainMerges: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	const ntables = 3
	const writers = 2
	const perWriter = 150
	tabs := make([]*Table, ntables)
	for i := range tabs {
		tabs[i], err = db.CreateTable(TableConfig{
			Name: fmt.Sprintf("stress%d", i), Schema: orderSchema(),
			L1MaxRows: 16, L2MaxRows: 48, MergeWorkers: 4,
			Compress: true, CompactDicts: true, CheckUnique: true,
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	for ti, tab := range tabs {
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(tab *Table, w int) {
				defer wg.Done()
				for i := 0; i < perWriter; i++ {
					key := int64(w*perWriter + i + 1)
					tx := db.Begin(mvcc.TxnSnapshot)
					if _, err := tab.Insert(tx, orow(key, fmt.Sprintf("cust%d", key%23), key%7)); err != nil {
						t.Errorf("insert: %v", err)
						db.Abort(tx)
						return
					}
					if err := db.Commit(tx); err != nil {
						t.Errorf("commit: %v", err)
						return
					}
				}
			}(tab, w)
		}
		// Per-table reader: alternates snapshot scans with global
		// sorted-dictionary construction, both racing live merges.
		wg.Add(1)
		go func(tab *Table) {
			defer wg.Done()
			for round := 0; round < 60; round++ {
				v := tab.View(nil)
				seen := map[int64]int{}
				v.ScanAll(func(_ types.RowID, row []types.Value) bool {
					seen[row[0].I]++
					return true
				})
				v.Close()
				for k, n := range seen {
					if n > 1 {
						t.Errorf("key %d visible %d times", k, n)
						return
					}
				}
				d := tab.GlobalSortedDict(1)
				for c := 1; c < d.Len(); c++ {
					if !types.Less(d.At(uint32(c-1)), d.At(uint32(c))) {
						t.Errorf("global dict out of order at %d", c)
						return
					}
				}
				time.Sleep(time.Millisecond)
			}
		}(tab)
		_ = ti
	}
	wg.Wait()

	for _, tab := range tabs {
		// Drain what the scheduler has not yet propagated, then check
		// nothing was lost or duplicated across the three stages.
		for {
			if _, err := tab.MergeL1(); err != nil {
				t.Fatal(err)
			}
			if _, err := tab.MergeMain(); err != nil {
				t.Fatal(err)
			}
			st := tab.Stats()
			if st.L1Rows == 0 && st.L2Rows == 0 && st.FrozenL2Rows == 0 {
				break
			}
		}
		st := tab.Stats()
		if got := countRows(tab); got != writers*perWriter {
			t.Errorf("%s: %d rows, want %d (%+v)", tab.Name(), got, writers*perWriter, st)
		}
		if st.LastMergeError != "" {
			t.Errorf("%s: surfaced merge error %q", tab.Name(), st.LastMergeError)
		}
		if got := tab.GlobalSortedDict(1).Len(); got != 23 {
			t.Errorf("%s: final global dict %d entries, want 23", tab.Name(), got)
		}
	}
}

// TestConcurrentParallelScanStress races morsel-parallel scans
// against OLTP writers and the full merge lifecycle on one table:
// every pinned view must see each key at most once and both scan
// shapes (sequential, parallel) must agree on the row count. Run with
// -race; its job is to surface latch violations in the multi-reader
// fan-out, not to measure.
func TestConcurrentParallelScanStress(t *testing.T) {
	db, err := OpenDatabase(DBOptions{AutoMerge: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tab, err := db.CreateTable(TableConfig{
		Name: "pstress", Schema: orderSchema(),
		L1MaxRows: 32, L2MaxRows: 128, ScanMorselRows: 16,
		Compress: true, CompactDicts: true, CheckUnique: true,
	})
	if err != nil {
		t.Fatal(err)
	}

	const writers = 3
	const perWriter = 200
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				key := int64(w*perWriter + i + 1)
				tx := db.Begin(mvcc.TxnSnapshot)
				if _, err := tab.Insert(tx, orow(key, fmt.Sprintf("cust%d", key%17), key%9)); err != nil {
					db.Abort(tx)
					continue
				}
				if err := db.Commit(tx); err != nil {
					t.Errorf("commit: %v", err)
					return
				}
			}
		}(w)
	}

	stopScan := make(chan struct{})
	var scanWg sync.WaitGroup
	for r := 0; r < 2; r++ {
		scanWg.Add(1)
		go func() {
			defer scanWg.Done()
			for {
				select {
				case <-stopScan:
					return
				default:
				}
				v := tab.View(nil)
				seq := 0
				v.ScanBatches(nil, nil, 0, func(b *vec.Batch) bool {
					seq += b.Rows()
					return true
				})
				var par atomic.Int64
				seen := sync.Map{}
				err := v.ScanBatchesParallel(context.Background(), []int{0}, nil, 7, 4,
					func(_, _ int, b *vec.Batch) bool {
						par.Add(int64(b.Rows()))
						for i := 0; i < b.Rows(); i++ {
							k := b.RowAt(i, nil)[0].I
							if _, dup := seen.LoadOrStore(k, true); dup {
								t.Errorf("key %d visible twice in one parallel snapshot", k)
								return false
							}
						}
						return true
					})
				v.Close()
				if err != nil {
					t.Errorf("parallel scan: %v", err)
					return
				}
				if int(par.Load()) != seq {
					t.Errorf("parallel scan saw %d rows, sequential saw %d", par.Load(), seq)
					return
				}
				time.Sleep(time.Millisecond)
			}
		}()
	}

	wg.Wait()
	close(stopScan)
	scanWg.Wait()

	for {
		if _, err := tab.MergeL1(); err != nil {
			t.Fatal(err)
		}
		if _, err := tab.MergeMain(); err != nil {
			t.Fatal(err)
		}
		st := tab.Stats()
		if st.L1Rows == 0 && st.L2Rows == 0 && st.FrozenL2Rows == 0 {
			break
		}
	}
	if got := countRows(tab); got != writers*perWriter {
		t.Fatalf("final count = %d, want %d", got, writers*perWriter)
	}
}

// TestConcurrentReadersDuringMerges pins old snapshots while merges
// run and checks they keep seeing their frozen state.
func TestConcurrentReadersDuringMerges(t *testing.T) {
	db := memDB(t)
	tab := mkTable(t, db, TableConfig{L1MaxRows: 10})
	mustInsert(t, db, tab, orow(1, "first", 1))

	pinned := db.Begin(mvcc.TxnSnapshot) // snapshot: only row 1

	for i := int64(2); i <= 50; i++ {
		mustInsert(t, db, tab, orow(i, "more", i))
		if i%10 == 0 {
			tab.MergeL1()
			if _, err := tab.MergeMain(); err != nil {
				t.Fatal(err)
			}
		}
	}
	v := tab.View(pinned)
	got := v.Count()
	v.Close()
	if got != 1 {
		t.Errorf("pinned snapshot sees %d rows, want 1", got)
	}
	db.Commit(pinned)
	if got := countRows(tab); got != 50 {
		t.Errorf("latest sees %d rows", got)
	}
}

// TestWatermarkBlocksGCThenReleases verifies deleted versions survive
// merges while an old snapshot exists and are collected afterwards.
func TestWatermarkBlocksGCThenReleases(t *testing.T) {
	db := memDB(t)
	tab := mkTable(t, db, TableConfig{})
	mustInsert(t, db, tab, orow(1, "victim", 1), orow(2, "other", 2))
	tab.MergeL1()
	tab.MergeMain()

	pinned := db.Begin(mvcc.TxnSnapshot)
	tx := db.Begin(mvcc.TxnSnapshot)
	tab.DeleteKey(tx, types.Int(1))
	db.Commit(tx)

	// Merge with the pin in place: version must survive physically.
	mustInsert(t, db, tab, orow(3, "new", 3))
	tab.MergeL1()
	if _, err := tab.MergeMain(); err != nil {
		t.Fatal(err)
	}
	vOld := tab.View(pinned)
	if vOld.Get(types.Int(1)) == nil {
		t.Error("pinned snapshot lost deleted row")
	}
	vOld.Close()
	db.Commit(pinned)

	// Pin released: next merge collects it.
	mustInsert(t, db, tab, orow(4, "newer", 4))
	tab.MergeL1()
	if _, err := tab.MergeMain(); err != nil {
		t.Fatal(err)
	}
	st := tab.Stats()
	if st.MainRows != 3 || st.Tombstones != 0 {
		t.Errorf("after release: %+v", st)
	}
}
