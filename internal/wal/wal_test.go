package wal

import (
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/types"
)

func sampleRecords() []*Record {
	return []*Record{
		{Type: RecInsert, Txn: 7, Table: "orders", RowIDs: []types.RowID{1},
			Rows: [][]types.Value{{types.Int(1), types.Str("Müller"), types.Float(9.5), types.Null}}},
		{Type: RecDelete, Txn: 7, Table: "orders", RowIDs: []types.RowID{1}},
		{Type: RecBulk, Txn: 8, Table: "orders", RowIDs: []types.RowID{2, 3},
			Rows: [][]types.Value{{types.Int(2), types.Bool(true)}, {types.Int(3), types.Date(19000)}}},
		{Type: RecCommit, Txn: 7, TS: 42},
		{Type: RecAbort, Txn: 8},
		{Type: RecMerge, Table: "orders", Merge: MergeL2Main, TS: 3},
		{Type: RecSavepoint, TS: 5},
	}
}

func TestRecordEncodeDecodeRoundtrip(t *testing.T) {
	for _, r := range sampleRecords() {
		got, err := DecodeRecord(r.Encode())
		if err != nil {
			t.Fatalf("%v: %v", r.Type, err)
		}
		if !reflect.DeepEqual(got, r) {
			t.Errorf("roundtrip %v:\n got %+v\nwant %+v", r.Type, got, r)
		}
	}
}

func TestRecordRoundtripQuick(t *testing.T) {
	f := func(txn, ts uint64, table string, id uint64, i int64, fl float64, s string) bool {
		if math.IsNaN(fl) {
			fl = 0
		}
		r := &Record{Type: RecInsert, Txn: txn, TS: ts, Table: table,
			RowIDs: []types.RowID{types.RowID(id)},
			Rows:   [][]types.Value{{types.Int(i), types.Float(fl), types.Str(s), types.Null}}}
		got, err := DecodeRecord(r.Encode())
		return err == nil && reflect.DeepEqual(got, r)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := DecodeRecord([]byte{}); err == nil {
		t.Error("empty payload accepted")
	}
	if _, err := DecodeRecord([]byte{byte(RecInsert), 1}); err == nil {
		t.Error("truncated payload accepted")
	}
}

func openTestLog(t *testing.T, opts Options) (*Log, string) {
	t.Helper()
	dir := t.TempDir()
	l, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return l, dir
}

func replayAll(t *testing.T, l *Log) []*Record {
	t.Helper()
	var out []*Record
	if err := l.ReplayFrom(0, func(r *Record) error {
		out = append(out, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestAppendSyncReplay(t *testing.T) {
	l, _ := openTestLog(t, Options{})
	want := sampleRecords()
	for _, r := range want {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	got := replayAll(t, l)
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("record %d:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestReopenAppends(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	l.Append(&Record{Type: RecCommit, Txn: 1, TS: 2})
	l.Close()

	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	l2.Append(&Record{Type: RecCommit, Txn: 2, TS: 3})
	l2.Sync()
	got := replayAll(t, l2)
	if len(got) != 2 || got[0].Txn != 1 || got[1].Txn != 2 {
		t.Fatalf("replay after reopen = %+v", got)
	}
	l2.Close()
}

func TestRotateAndDropBefore(t *testing.T) {
	l, _ := openTestLog(t, Options{})
	l.Append(&Record{Type: RecCommit, Txn: 1, TS: 2})
	if err := l.Rotate(); err != nil {
		t.Fatal(err)
	}
	l.Append(&Record{Type: RecCommit, Txn: 2, TS: 3})
	l.Sync()
	if segs, _ := l.segments(); len(segs) != 2 {
		t.Fatalf("segments = %v", segs)
	}
	if got := replayAll(t, l); len(got) != 2 {
		t.Fatalf("replay = %d records", len(got))
	}
	if err := l.DropBefore(); err != nil {
		t.Fatal(err)
	}
	if segs, _ := l.segments(); len(segs) != 1 {
		t.Fatalf("segments after drop = %v", segs)
	}
	got := replayAll(t, l)
	if len(got) != 1 || got[0].Txn != 2 {
		t.Fatalf("replay after drop = %+v", got)
	}
	l.Close()
}

func TestTornTailTolerated(t *testing.T) {
	l, dir := openTestLog(t, Options{})
	l.Append(&Record{Type: RecCommit, Txn: 1, TS: 2})
	l.Append(&Record{Type: RecCommit, Txn: 2, TS: 3})
	l.Close()

	// Chop bytes off the tail: the last record is torn.
	path := filepath.Join(dir, segName(1))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := replayAll(t, l2)
	if len(got) != 1 || got[0].Txn != 1 {
		t.Fatalf("torn replay = %+v", got)
	}
	l2.Close()
}

func TestCorruptPayloadDetected(t *testing.T) {
	l, dir := openTestLog(t, Options{})
	l.Append(&Record{Type: RecCommit, Txn: 1, TS: 2})
	l.Close()

	path := filepath.Join(dir, segName(1))
	data, _ := os.ReadFile(path)
	data[len(data)-1] ^= 0xFF // flip a payload byte
	os.WriteFile(path, data, 0o644)

	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Corruption in the (only = last) segment tail is tolerated — and
	// Open truncates it so later appends stay reachable.
	if got := replayAll(t, l2); len(got) != 0 {
		t.Fatalf("corrupt tail replay = %+v", got)
	}
	l2.Rotate()
	l2.Append(&Record{Type: RecCommit, Txn: 2, TS: 3})
	l2.Sync()

	// Corruption in a non-final segment is an error: Open only repairs
	// the newest segment, so damage further back means lost history.
	l2.Append(&Record{Type: RecCommit, Txn: 3, TS: 4})
	l2.Sync()
	old := filepath.Join(dir, segName(2))
	data, _ = os.ReadFile(old)
	data[len(data)-1] ^= 0xFF
	os.WriteFile(old, data, 0o644)
	l2.Rotate()
	err = l2.ReplayFrom(0, func(*Record) error { return nil })
	if err == nil {
		t.Error("corruption in old segment not reported")
	}
	l2.Close()
}

func TestAppendAfterCloseFails(t *testing.T) {
	l, _ := openTestLog(t, Options{})
	l.Close()
	if err := l.Append(&Record{Type: RecCommit}); err == nil {
		t.Error("append after close should fail")
	}
	if err := l.Sync(); err == nil {
		t.Error("sync after close should fail")
	}
	if err := l.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
}

func TestSyncOnCommitOption(t *testing.T) {
	l, _ := openTestLog(t, Options{SyncOnCommit: true})
	l.Append(&Record{Type: RecCommit, Txn: 1, TS: 2})
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := replayAll(t, l); len(got) != 1 {
		t.Fatalf("replay = %d", len(got))
	}
	l.Close()
}
