package core

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/mvcc"
	"repro/internal/types"
)

// TestGlobalSortedDictSnapshotBorder is the regression test for the
// border-ignoring bug: the fold over an L2-delta dictionary must stop
// at the length observed under the latch, not at the live length —
// otherwise values appended between the border snapshot and the fold
// leak into the "snapshot-consistent" global dictionary.
func TestGlobalSortedDictSnapshotBorder(t *testing.T) {
	db := memDB(t)
	tab := mkTable(t, db, TableConfig{})
	tx := db.Begin(mvcc.TxnSnapshot)
	if _, err := tab.BulkInsert(tx, [][]types.Value{
		orow(1, "alpha", 1), orow(2, "bravo", 2),
	}); err != nil {
		t.Fatal(err)
	}
	if err := db.Commit(tx); err != nil {
		t.Fatal(err)
	}

	// The hook fires after the borders are captured: it grows the open
	// L2-delta's dictionary by two values that must NOT appear in the
	// merged result.
	d := tab.globalSortedDict(1, func() {
		tx := db.Begin(mvcc.TxnSnapshot)
		if _, err := tab.BulkInsert(tx, [][]types.Value{
			orow(3, "zulu", 3), orow(4, "yankee", 4),
		}); err != nil {
			t.Fatal(err)
		}
		if err := db.Commit(tx); err != nil {
			t.Fatal(err)
		}
	})
	if d.Len() != 2 {
		t.Fatalf("global dict has %d entries, want 2 (snapshot border ignored?)", d.Len())
	}
	if _, ok := d.Lookup(types.Str("zulu")); ok {
		t.Error("post-snapshot value leaked into the global dictionary")
	}
	// A fresh call sees the full state.
	if got := tab.GlobalSortedDict(1).Len(); got != 4 {
		t.Fatalf("follow-up global dict has %d entries, want 4", got)
	}
}

// TestMergeFailureSurfaced asserts an injected fail point is not
// silently swallowed: the failure counter increments and the error
// message is readable from Stats until a later merge succeeds.
func TestMergeFailureSurfaced(t *testing.T) {
	db := memDB(t)
	tab := mkTable(t, db, TableConfig{})
	mustInsert(t, db, tab, orow(1, "a", 1), orow(2, "b", 2))
	if _, err := tab.MergeL1(); err != nil {
		t.Fatal(err)
	}

	boom := errors.New("disk on fire")
	if _, err := tab.mergeMain(context.Background(), func(stage string) error {
		if stage == "column" {
			return boom
		}
		return nil
	}, true); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	st := tab.Stats()
	if st.MergeFailures != 1 {
		t.Fatalf("MergeFailures = %d, want 1", st.MergeFailures)
	}
	if !strings.Contains(st.LastMergeError, "disk on fire") {
		t.Fatalf("LastMergeError = %q, want injected message", st.LastMergeError)
	}

	// The generation stayed queued; a successful retry clears the
	// surfaced error but keeps the counter.
	if _, err := tab.MergeMain(); err != nil {
		t.Fatal(err)
	}
	st = tab.Stats()
	if st.LastMergeError != "" {
		t.Fatalf("LastMergeError = %q after successful merge, want empty", st.LastMergeError)
	}
	if st.MergeFailures != 1 || st.MainMerges != 1 {
		t.Fatalf("counters after retry: %+v", st)
	}
}

// TestRotateL2ThresholdLatched pins the stale-threshold bugfix: the
// rotate decision is made on latched state, so a tick acting on an
// outdated "L2 is full" observation cannot close a just-rotated
// (now tiny) generation, and the scheduler's queued merge never
// rotates on its own.
func TestRotateL2ThresholdLatched(t *testing.T) {
	db := memDB(t)
	tab := mkTable(t, db, TableConfig{L2MaxRows: 4})
	tx := db.Begin(mvcc.TxnSnapshot)
	rows := [][]types.Value{orow(1, "a", 1), orow(2, "b", 2), orow(3, "c", 3), orow(4, "d", 4)}
	if _, err := tab.BulkInsert(tx, rows); err != nil {
		t.Fatal(err)
	}
	if err := db.Commit(tx); err != nil {
		t.Fatal(err)
	}

	if !tab.needsMainMerge() {
		t.Fatal("full L2 not flagged for merge")
	}
	// First actor rotates; a second actor with the same stale
	// observation must not rotate the fresh, empty generation.
	if !tab.RotateL2IfFull(tab.cfg.L2MaxRows) {
		t.Fatal("first rotate refused")
	}
	if tab.RotateL2IfFull(tab.cfg.L2MaxRows) {
		t.Fatal("second rotate closed a below-threshold generation")
	}
	st := tab.Stats()
	if st.FrozenL2Rows != 4 || st.L2Rows != 0 {
		t.Fatalf("after rotate: %+v", st)
	}

	// One small row lands in the new open generation; the queued
	// merge drains the frozen generation but leaves the open one.
	mustInsert(t, db, tab, orow(5, "e", 5))
	if _, err := tab.MergeL1(); err != nil {
		t.Fatal(err)
	}
	if _, err := tab.MergeMainQueuedCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	st = tab.Stats()
	if st.MainRows != 4 || st.FrozenL2Rows != 0 {
		t.Fatalf("after queued merge: %+v", st)
	}
	if st.L2Rows != 1 {
		t.Fatalf("queued merge rotated the open L2 (%+v)", st)
	}
	// With nothing frozen, the queued form is a no-op — unlike
	// MergeMain, which would rotate the tiny open generation.
	if stats, err := tab.MergeMainQueuedCtx(context.Background()); err != nil || stats != nil {
		t.Fatalf("queued merge on empty frozen queue: stats=%v err=%v", stats, err)
	}
	if got := tab.Stats(); got.L2Rows != 1 || got.MainMerges != 1 {
		t.Fatalf("no-op queued merge changed state: %+v", got)
	}
}

// TestSchedulerMergesMultipleTables checks the per-table dispatch: a
// table with continuous merge pressure does not starve another
// table's propagation, and both reach the main store.
func TestSchedulerMergesMultipleTables(t *testing.T) {
	db, err := OpenDatabase(DBOptions{AutoMerge: true, MaxMainMerges: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	var tabs []*Table
	for _, name := range []string{"alpha", "beta", "gamma"} {
		tab, err := db.CreateTable(TableConfig{
			Name: name, Schema: orderSchema(),
			L1MaxRows: 8, L2MaxRows: 32, CheckUnique: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		tabs = append(tabs, tab)
	}
	for i := int64(1); i <= 200; i++ {
		for _, tab := range tabs {
			tx := db.Begin(mvcc.TxnSnapshot)
			if _, err := tab.Insert(tx, orow(i, "c", i%10)); err != nil {
				t.Fatal(err)
			}
			if err := db.Commit(tx); err != nil {
				t.Fatal(err)
			}
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for _, tab := range tabs {
		for tab.Stats().MainMerges == 0 {
			if time.Now().After(deadline) {
				t.Fatalf("table %s never merged to main: %+v", tab.Name(), tab.Stats())
			}
			time.Sleep(time.Millisecond)
		}
	}
	for _, tab := range tabs {
		if got := countRows(tab); got != 200 {
			t.Fatalf("%s: %d rows, want 200", tab.Name(), got)
		}
	}
}

// TestExplicitMergeWaitsForInFlight pins the explicit-merge contract:
// while another merge (the scheduler's) is computing, MergeMain waits
// for it and then merges what is left instead of failing; a cancelled
// context abandons the wait with the context's error; the scheduler's queued
// entry point still refuses without waiting.
func TestExplicitMergeWaitsForInFlight(t *testing.T) {
	db := memDB(t)
	tab := mkTable(t, db, TableConfig{})
	mustInsert(t, db, tab, orow(1, "a", 1), orow(2, "b", 2))
	if _, err := tab.MergeL1(); err != nil {
		t.Fatal(err)
	}
	entered, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	first := make(chan error, 1)
	go func() {
		_, err := tab.mergeMain(context.Background(), func(string) error {
			once.Do(func() { close(entered); <-release })
			return nil
		}, true)
		first <- err
	}()
	<-entered

	// New rows reach the open L2-delta while the first merge computes.
	mustInsert(t, db, tab, orow(3, "c", 3))
	if _, err := tab.MergeL1(); err != nil {
		t.Fatal(err)
	}
	if _, err := tab.MergeMainQueuedCtx(context.Background()); err == nil {
		t.Fatal("queued merge did not refuse while a merge is in flight")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := tab.mergeMain(ctx, nil, true); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled wait: err = %v, want context.Canceled", err)
	}
	second := make(chan error, 1)
	go func() {
		_, err := tab.MergeMain()
		second <- err
	}()
	select {
	case err := <-second:
		t.Fatalf("explicit merge returned while another was in flight: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	if err := <-first; err != nil {
		t.Fatal(err)
	}
	if err := <-second; err != nil {
		t.Fatalf("explicit merge after waiting: %v", err)
	}
	if st := tab.Stats(); st.MainRows != 3 || st.L2Rows != 0 || st.MainMerges != 2 {
		t.Fatalf("after both merges: %+v", st)
	}
}
