package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/mvcc"
	"repro/internal/types"
)

// TestDegradationLadder walks a table through the full overload
// ladder with an injected clock: healthy writes → throttled writes
// (bounded delay, counted) → rejected writes (ErrOverloaded) → back
// to healthy once merges drain the backlog. No real sleeping happens:
// the database sleep hook records the requested delays.
func TestDegradationLadder(t *testing.T) {
	db := memDB(t)
	var slept []time.Duration
	db.sleep = func(_ context.Context, d time.Duration) error {
		slept = append(slept, d)
		return nil
	}
	tab := mkTable(t, db, TableConfig{
		ThrottleRows: 8, OverloadRows: 16, ThrottleMaxDelay: time.Millisecond,
	})

	insert := func(id int64) error {
		tx := db.Begin(mvcc.TxnSnapshot)
		_, err := tab.Insert(tx, orow(id, "c", id))
		if err != nil {
			db.Abort(tx)
			return err
		}
		return db.Commit(tx)
	}

	// Healthy: backlog stays below the high-watermark, no delays.
	for id := int64(1); id <= 7; id++ {
		if err := insert(id); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tab.MergeL1(); err != nil {
		t.Fatal(err)
	}
	if len(slept) != 0 {
		t.Fatalf("healthy phase slept: %v", slept)
	}

	// Throttled: backlog in [hi, ceil) delays writes but admits them.
	if err := insert(8); err != nil { // backlog 7, still below hi
		t.Fatal(err)
	}
	if _, err := tab.MergeL1(); err != nil { // backlog 8 == hi
		t.Fatal(err)
	}
	for id := int64(9); id <= 15; id++ {
		if err := insert(id); err != nil {
			t.Fatalf("throttled insert %d rejected: %v", id, err)
		}
		if _, err := tab.MergeL1(); err != nil {
			t.Fatal(err)
		}
	}
	st := tab.Stats()
	if st.ThrottledWrites == 0 || len(slept) == 0 {
		t.Fatalf("no throttling observed: stats=%+v slept=%v", st, slept)
	}
	max := tab.cfg.ThrottleMaxDelay
	for _, d := range slept {
		if d <= 0 || d > max {
			t.Fatalf("throttle delay %v outside (0, %v]", d, max)
		}
	}

	// Overloaded: backlog at the ceiling rejects with ErrOverloaded.
	if got := tab.DeltaBacklog(); got < 15 {
		t.Fatalf("backlog = %d before overload phase", got)
	}
	if err := insert(16); err != nil {
		t.Fatal(err)
	}
	if _, err := tab.MergeL1(); err != nil { // backlog 16 == ceil
		t.Fatal(err)
	}
	err := insert(17)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("insert over ceiling: err = %v, want ErrOverloaded", err)
	}
	var oe *OverloadError
	if !errors.As(err, &oe) || oe.Backlog < 16 || oe.Ceiling != 16 {
		t.Fatalf("overload detail: %#v", oe)
	}
	if st := tab.Stats(); st.RejectedWrites == 0 {
		t.Fatalf("RejectedWrites not counted: %+v", st)
	}

	// Recovery: draining the backlog through the normal merge path
	// readmits writes with no throttling.
	if _, err := tab.MergeMain(); err != nil {
		t.Fatal(err)
	}
	if got := tab.DeltaBacklog(); got != 0 {
		t.Fatalf("backlog after merge = %d", got)
	}
	slept = nil
	if err := insert(17); err != nil {
		t.Fatalf("post-recovery insert: %v", err)
	}
	if len(slept) != 0 {
		t.Fatalf("post-recovery insert throttled: %v", slept)
	}
}

// TestMergeBackoffAndCircuit drives the merge gate directly through
// manual merges with an injected clock: failures back off
// exponentially with jitter, enough consecutive failures open the
// circuit, the open circuit only admits half-open probes, and one
// success closes everything.
func TestMergeBackoffAndCircuit(t *testing.T) {
	db, err := OpenDatabase(DBOptions{
		MergeRetryBase: time.Millisecond, MergeRetryMax: 8 * time.Millisecond,
		MergeBreakerAfter: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	now := time.Unix(1000, 0)
	db.now = func() time.Time { return now }
	tab := mkTable(t, db, TableConfig{})
	mustInsert(t, db, tab, orow(1, "a", 1), orow(2, "b", 2))
	if _, err := tab.MergeL1(); err != nil {
		t.Fatal(err)
	}

	boom := errors.New("disk on fire")
	tab.setMergeFailPoint(func(string) error { return boom })

	// Failure 1: backoff engaged, circuit still closed.
	if _, err := tab.MergeMain(); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if tab.gate.allow(now) {
		t.Fatal("gate allows immediately after failure")
	}
	if !tab.gate.allow(now.Add(time.Millisecond)) {
		t.Fatal("gate still closed after full base backoff")
	}
	st := tab.Stats()
	if st.CircuitOpen || st.MergeRetries != 0 {
		t.Fatalf("after first failure: %+v", st)
	}

	// Failures 2 and 3: retries are counted; the third opens the
	// circuit (breakAfter = 3).
	if _, err := tab.MergeMain(); !errors.Is(err, boom) {
		t.Fatal(err)
	}
	if _, err := tab.MergeMain(); !errors.Is(err, boom) {
		t.Fatal(err)
	}
	st = tab.Stats()
	if st.MergeRetries != 2 {
		t.Fatalf("MergeRetries = %d, want 2", st.MergeRetries)
	}
	if !st.CircuitOpen {
		t.Fatalf("circuit closed after %d failures: %+v", st.MergeFailures, st)
	}
	// Half-open probe schedule: nothing before max/2, guaranteed by max.
	if tab.gate.allow(now.Add(3 * time.Millisecond)) {
		t.Fatal("open circuit admits before the probe window")
	}
	if !tab.gate.allow(now.Add(8 * time.Millisecond)) {
		t.Fatal("open circuit never probes")
	}

	// A successful manual merge (forced probe) closes the circuit.
	tab.setMergeFailPoint(nil)
	if _, err := tab.MergeMain(); err != nil {
		t.Fatal(err)
	}
	st = tab.Stats()
	if st.CircuitOpen || tab.gate.failing() {
		t.Fatalf("circuit not reset by success: %+v", st)
	}
	if st.MainRows != 2 {
		t.Fatalf("rows lost across the episode: %+v", st)
	}
}

// TestSchedulerRecoversWithoutManualMerge is the acceptance loop:
// with the scheduler running and every merge failing, writes degrade
// to ErrOverloaded and the circuit opens; when the fail point lifts,
// the scheduler's half-open probes drain the backlog and writes
// succeed again with NO manual MERGE call.
func TestSchedulerRecoversWithoutManualMerge(t *testing.T) {
	db, err := OpenDatabase(DBOptions{
		AutoMerge:      true,
		MergeRetryBase: time.Millisecond, MergeRetryMax: 5 * time.Millisecond,
		MergeBreakerAfter: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	// Writers should not actually stall the test while throttled.
	db.sleep = func(context.Context, time.Duration) error { return nil }
	tab, err := db.CreateTable(TableConfig{
		Name: "orders", Schema: orderSchema(), CheckUnique: true,
		L1MaxRows: 4, L2MaxRows: 8,
		ThrottleRows: 16, OverloadRows: 48,
	})
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("injected merge outage")
	tab.setMergeFailPoint(func(string) error { return boom })

	insert := func(id int64) error {
		tx := db.Begin(mvcc.TxnSnapshot)
		if _, err := tab.Insert(tx, orow(id, "c", id%7)); err != nil {
			db.Abort(tx)
			return err
		}
		return db.Commit(tx)
	}

	// Push writes until admission control rejects one; the scheduler
	// keeps retrying (and failing) the main merge meanwhile. The loop
	// is paced so the backlog (L2 + frozen), not a flooded L1, is what
	// trips the ceiling.
	deadline := time.Now().Add(10 * time.Second)
	var id, admitted int64
	for {
		if time.Now().After(deadline) {
			t.Fatalf("never overloaded: %+v backlog=%d", tab.Stats(), tab.DeltaBacklog())
		}
		id++
		err := insert(id)
		if errors.Is(err, ErrOverloaded) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if admitted++; admitted%8 == 0 {
			time.Sleep(2 * time.Millisecond) // let the scheduler propagate L1→L2
		}
	}
	for {
		st := tab.Stats()
		if st.CircuitOpen && st.MergeRetries > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("circuit never opened: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}

	// Lift the outage; the half-open probes must recover the table on
	// their own.
	tab.setMergeFailPoint(nil)
	for {
		st := tab.Stats()
		if !st.CircuitOpen && st.MainMerges > 0 && tab.DeltaBacklog() < 16 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("never recovered: %+v backlog=%d", st, tab.DeltaBacklog())
		}
		time.Sleep(time.Millisecond)
	}
	if err := insert(id + 1); err != nil {
		t.Fatalf("post-recovery insert: %v", err)
	}
	// Every admitted row survived the episode; the rejected write left
	// no trace.
	want := int(admitted) + 1
	if got := countRows(tab); got != want {
		t.Fatalf("rows = %d, want %d", got, want)
	}
}

// TestScanCancellation cancels a context mid-scan and checks both the
// batch cursor and the materializing scans surface ctx.Err() instead
// of a silent truncated result.
func TestScanCancellation(t *testing.T) {
	db := memDB(t)
	tab := mkTable(t, db, TableConfig{BatchSize: 4})
	var rows [][]types.Value
	for id := int64(1); id <= 64; id++ {
		rows = append(rows, orow(id, "c", id))
	}
	tx := db.Begin(mvcc.TxnSnapshot)
	if _, err := tab.BulkInsert(tx, rows); err != nil {
		t.Fatal(err)
	}
	if err := db.Commit(tx); err != nil {
		t.Fatal(err)
	}

	v := tab.View(nil)
	defer v.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cur := v.NewBatchScanCtx(ctx, nil, nil, 4)
	if b := cur.Next(); b == nil || b.Rows() != 4 {
		t.Fatalf("first batch: %v", b)
	}
	cancel()
	if b := cur.Next(); b != nil {
		t.Fatal("batch delivered after cancellation")
	}
	if !errors.Is(cur.Err(), context.Canceled) {
		t.Fatalf("cursor err = %v", cur.Err())
	}
	// The error is sticky.
	if cur.Next() != nil || !errors.Is(cur.Err(), context.Canceled) {
		t.Fatal("cancelled cursor revived")
	}
}
