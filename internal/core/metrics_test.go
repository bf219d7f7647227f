package core

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/mvcc"
	"repro/internal/obs"
	"repro/internal/types"
	"repro/internal/vec"
)

// obsDB opens an in-memory database with a live registry.
func obsDB(t *testing.T) (*Database, *obs.Registry) {
	t.Helper()
	reg := obs.New()
	db, err := OpenDatabase(DBOptions{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db, reg
}

// TestLifecycleTraceOrder drives a scripted workload through the full
// record life cycle and asserts the tracer replays the transitions in
// order: L1 merge → L2 rotation → merge start → merge done.
func TestLifecycleTraceOrder(t *testing.T) {
	db, reg := obsDB(t)
	tab := mkTable(t, db, TableConfig{})
	for id := int64(1); id <= 20; id++ {
		mustInsert(t, db, tab, orow(id, "c", id))
	}
	if _, err := tab.MergeL1(); err != nil {
		t.Fatal(err)
	}
	if _, err := tab.MergeMain(); err != nil {
		t.Fatal(err)
	}

	events := db.TraceEvents(0)
	var kinds []obs.EventKind
	for _, e := range events {
		if e.Table != "orders" {
			t.Fatalf("event %v carries table %q", e.Kind, e.Table)
		}
		kinds = append(kinds, e.Kind)
	}
	want := []obs.EventKind{obs.EvL1Merge, obs.EvRotateL2, obs.EvMergeStart, obs.EvMergeDone}
	wi := 0
	for _, k := range kinds {
		if wi < len(want) && k == want[wi] {
			wi++
		}
	}
	if wi != len(want) {
		t.Fatalf("lifecycle sequence %v not found in order within %v", want[wi:], kinds)
	}
	// Seq must be strictly increasing across the replayed events.
	for i := 1; i < len(events); i++ {
		if events[i].Seq <= events[i-1].Seq {
			t.Fatalf("event seq not increasing: %d then %d", events[i-1].Seq, events[i].Seq)
		}
	}

	// The merge must have recorded per-phase durations and volume.
	rows := reg.Counter("hana_main_merge_rows_total", obs.L("table", "orders")).Value()
	if rows != 20 {
		t.Fatalf("merge rows = %d, want 20", rows)
	}
	for _, phase := range []string{"total", "collect", "column", "build"} {
		h := reg.Histogram("hana_main_merge_seconds", obs.L("table", "orders"), obs.L("phase", phase))
		if h.Snapshot().Count != 1 {
			t.Fatalf("phase %q histogram count = %d, want 1", phase, h.Snapshot().Count)
		}
	}
	if n := reg.Histogram("hana_l1_merge_seconds", obs.L("table", "orders")).Snapshot().Count; n != 1 {
		t.Fatalf("l1 merge histogram count = %d", n)
	}
}

// TestWritePathMetrics checks the per-operation write histograms and
// the scan-path counters.
func TestWritePathMetrics(t *testing.T) {
	db, reg := obsDB(t)
	tab := mkTable(t, db, TableConfig{})
	mustInsert(t, db, tab, orow(1, "a", 1), orow(2, "b", 2), orow(3, "c", 3))

	tx := db.Begin(mvcc.TxnSnapshot)
	if _, err := tab.UpdateKey(tx, types.Int(2), orow(2, "b2", 20)); err != nil {
		t.Fatal(err)
	}
	if _, err := tab.DeleteKey(tx, types.Int(3)); err != nil {
		t.Fatal(err)
	}
	if err := db.Commit(tx); err != nil {
		t.Fatal(err)
	}

	for op, want := range map[string]uint64{"insert": 3, "update": 1, "delete": 1} {
		h := reg.Histogram("hana_write_seconds", obs.L("table", "orders"), obs.L("op", op))
		if got := h.Snapshot().Count; got != want {
			t.Fatalf("op %q count = %d, want %d", op, got, want)
		}
	}
}

// TestScanMetrics checks batch/row counters against a known scan.
func TestScanMetrics(t *testing.T) {
	db, reg := obsDB(t)
	tab := mkTable(t, db, TableConfig{})
	for id := int64(1); id <= 10; id++ {
		mustInsert(t, db, tab, orow(id, "c", id))
	}
	if _, err := tab.MergeL1(); err != nil {
		t.Fatal(err)
	}
	if _, err := tab.MergeMain(); err != nil {
		t.Fatal(err)
	}
	v := tab.View(nil)
	defer v.Close()
	rows := 0
	v.ScanBatches(nil, nil, 4, func(b *vec.Batch) bool { rows += b.Rows(); return true })
	if rows != 10 {
		t.Fatalf("scanned %d rows", rows)
	}
	if got := reg.Counter("hana_scan_rows_total", obs.L("table", "orders")).Value(); got != 10 {
		t.Fatalf("scan rows counter = %d", got)
	}
	if got := reg.Counter("hana_scan_batches_total", obs.L("table", "orders")).Value(); got < 3 {
		t.Fatalf("scan batches counter = %d", got)
	}
	// All rows came from the main store through the decode cache: after
	// the first resolution of each distinct code, the rest are hits.
	hits := reg.Counter("hana_decode_cache_hits_total", obs.L("table", "orders")).Value()
	misses := reg.Counter("hana_decode_cache_misses_total", obs.L("table", "orders")).Value()
	if hits+misses == 0 {
		t.Fatal("decode cache recorded nothing")
	}
}

// TestBreakerEventsAndLogger drives merge failures past the breaker
// threshold and asserts the transitions surface everywhere they
// should: trace events, the circuit gauge, the retry/failure
// counters, and the structured logger.
func TestBreakerEventsAndLogger(t *testing.T) {
	reg := obs.New()
	var mu sync.Mutex
	var logged []string
	db, err := OpenDatabase(DBOptions{
		MergeRetryBase: time.Nanosecond, MergeRetryMax: time.Nanosecond,
		MergeBreakerAfter: 3,
		Obs:               reg,
		Logger: func(event string, kv ...any) {
			mu.Lock()
			logged = append(logged, event)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tab := mkTable(t, db, TableConfig{})
	mustInsert(t, db, tab, orow(1, "a", 1), orow(2, "b", 2))
	if _, err := tab.MergeL1(); err != nil {
		t.Fatal(err)
	}

	boom := errors.New("injected merge failure")
	tab.setMergeFailPoint(func(string) error { return boom })
	for i := 0; i < 3; i++ {
		if _, err := tab.MergeMain(); err == nil {
			t.Fatal("merge unexpectedly succeeded")
		}
		time.Sleep(time.Millisecond) // let the nanosecond backoff lapse
	}
	if got := reg.Gauge("hana_merge_circuit_open", obs.L("table", "orders")).Value(); got != 1 {
		t.Fatalf("circuit gauge = %v after breaker opened", got)
	}
	if got := reg.Counter("hana_merge_failures_total", obs.L("table", "orders")).Value(); got != 3 {
		t.Fatalf("failure counter = %d", got)
	}
	if got := reg.Counter("hana_merge_retries_total", obs.L("table", "orders")).Value(); got != 2 {
		t.Fatalf("retry counter = %d", got)
	}
	tab.setMergeFailPoint(nil)
	time.Sleep(time.Millisecond)
	if _, err := tab.MergeMain(); err != nil {
		t.Fatal(err)
	}
	if got := reg.Gauge("hana_merge_circuit_open", obs.L("table", "orders")).Value(); got != 0 {
		t.Fatalf("circuit gauge = %v after recovery", got)
	}

	count := func(kind obs.EventKind) int {
		n := 0
		for _, e := range db.TraceEvents(0) {
			if e.Kind == kind {
				n++
			}
		}
		return n
	}
	if n := count(obs.EvMergeFail); n != 3 {
		t.Fatalf("merge-fail events = %d", n)
	}
	if n := count(obs.EvBreakerOpen); n != 1 {
		t.Fatalf("breaker-open events = %d", n)
	}
	if n := count(obs.EvBreakerClose); n != 1 {
		t.Fatalf("breaker-close events = %d", n)
	}

	mu.Lock()
	defer mu.Unlock()
	got := map[string]int{}
	for _, e := range logged {
		got[e]++
	}
	if got["merge-failed"] != 3 || got["merge-breaker-open"] != 1 || got["merge-breaker-close"] != 1 {
		t.Fatalf("logger events = %v", got)
	}
}

// TestConcurrentMetricsSnapshot runs writers, merges, scans, and
// metric readers concurrently — the -race gate for the snapshot path.
func TestConcurrentMetricsSnapshot(t *testing.T) {
	reg := obs.New()
	db, err := OpenDatabase(DBOptions{Obs: reg, AutoMerge: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tab := mkTable(t, db, TableConfig{L1MaxRows: 16, L2MaxRows: 64})

	var wg sync.WaitGroup
	stop := make(chan struct{})
	time.AfterFunc(150*time.Millisecond, func() { close(stop) })

	// Writers.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			id := int64(w) * 1_000_000
			for {
				select {
				case <-stop:
					return
				default:
				}
				id++
				tx := db.Begin(mvcc.TxnSnapshot)
				if _, err := tab.Insert(tx, orow(id, "c", id)); err != nil {
					db.Abort(tx)
					continue
				}
				_ = db.Commit(tx)
			}
		}(w)
	}
	// Scanner.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			v := tab.View(nil)
			v.ScanBatches([]int{0}, nil, 0, func(b *vec.Batch) bool { return true })
			v.Close()
		}
	}()
	// Metric readers: snapshots, exposition, trace reads.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			db.Metrics().Snapshot()
			var sb strings.Builder
			_ = db.Metrics().WriteProm(&sb)
			db.TraceEvents(64)
			tab.Stats()
		}
	}()
	wg.Wait()

	ins := reg.Histogram("hana_write_seconds", obs.L("table", "orders"), obs.L("op", "insert"))
	if ins.Snapshot().Count == 0 {
		t.Fatal("no inserts recorded")
	}
}
