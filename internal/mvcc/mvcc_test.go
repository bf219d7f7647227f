package mvcc

import (
	"sync"
	"testing"
	"testing/quick"
)

func TestStampClassifiers(t *testing.T) {
	m := NewManager()
	tx := m.Begin(TxnSnapshot)
	marker := tx.Marker()
	if !IsMarker(marker) || IsCommitted(marker) {
		t.Error("marker misclassified")
	}
	if IsMarker(5) || !IsCommitted(5) {
		t.Error("commit ts misclassified")
	}
	if IsMarker(0) || IsCommitted(0) || IsMarker(Aborted) || IsCommitted(Aborted) {
		t.Error("sentinels misclassified")
	}
}

func TestVisibilityMatrix(t *testing.T) {
	const snap = 10
	marker := uint64(42) | txnBit
	other := uint64(43) | txnBit
	cases := []struct {
		name        string
		create, del uint64
		self        uint64
		want        bool
	}{
		{"committed live", 5, 0, 0, true},
		{"committed at snap", 10, 0, 0, true},
		{"future create", 11, 0, 0, false},
		{"zero create", 0, 0, 0, false},
		{"aborted create", Aborted, 0, 0, false},
		{"own uncommitted create", marker, 0, marker, true},
		{"foreign uncommitted create", other, 0, marker, false},
		{"deleted before snap", 5, 10, 0, false},
		{"deleted after snap", 5, 11, 0, true},
		{"own pending delete", 5, marker, marker, false},
		{"foreign pending delete", 5, other, marker, true},
		{"aborted delete", 5, Aborted, 0, true},
	}
	for _, c := range cases {
		if got := Visible(c.create, c.del, snap, c.self); got != c.want {
			t.Errorf("%s: Visible=%v, want %v", c.name, got, c.want)
		}
	}
	if VisibleStamp(nil, snap, 0) {
		t.Error("nil stamp should be invisible")
	}
}

func TestCommitMakesWritesVisibleAtomically(t *testing.T) {
	m := NewManager()
	w := m.Begin(TxnSnapshot)
	s := NewStamp(w.Marker())
	w.RecordCreate(s)

	before := m.Begin(TxnSnapshot)
	if VisibleStamp(s, before.ReadTS(), before.Marker()) {
		t.Error("uncommitted create visible to other txn")
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	if w.commitTS == 0 || w.state != StateCommitted {
		t.Error("commit bookkeeping wrong")
	}
	// Old snapshot still must not see it.
	if VisibleStamp(s, before.ReadTS(), before.Marker()) {
		t.Error("txn-level snapshot saw a later commit")
	}
	after := m.Begin(TxnSnapshot)
	if !VisibleStamp(s, after.ReadTS(), after.Marker()) {
		t.Error("committed create invisible to new txn")
	}
}

func TestAbortHidesCreatesAndReleasesDeletes(t *testing.T) {
	m := NewManager()
	setup := m.Begin(TxnSnapshot)
	row := NewStamp(setup.Marker())
	setup.RecordCreate(row)
	if err := setup.Commit(); err != nil {
		t.Fatal(err)
	}

	tx := m.Begin(TxnSnapshot)
	created := NewStamp(tx.Marker())
	tx.RecordCreate(created)
	if !row.ClaimDelete(tx.Marker()) {
		t.Fatal("claim failed")
	}
	tx.RecordDelete(row)
	tx.Abort()

	if created.Create() != Aborted {
		t.Error("aborted create not marked")
	}
	if row.Delete() != 0 {
		t.Error("aborted delete not released")
	}
	reader := m.Begin(TxnSnapshot)
	if !VisibleStamp(row, reader.ReadTS(), reader.Marker()) {
		t.Error("row should be visible again after abort")
	}
	if VisibleStamp(created, reader.ReadTS(), reader.Marker()) {
		t.Error("aborted create visible")
	}
}

func TestWriteWriteConflictViaClaim(t *testing.T) {
	m := NewManager()
	setup := m.Begin(TxnSnapshot)
	row := NewStamp(setup.Marker())
	setup.RecordCreate(row)
	setup.Commit()

	a := m.Begin(TxnSnapshot)
	b := m.Begin(TxnSnapshot)
	if !row.ClaimDelete(a.Marker()) {
		t.Fatal("first claim failed")
	}
	if row.ClaimDelete(b.Marker()) {
		t.Fatal("second claim should fail: write-write conflict")
	}
	a.RecordDelete(row)
	a.Commit()
	// Even after a's commit, b cannot claim: stamp holds a commit ts.
	if row.ClaimDelete(b.Marker()) {
		t.Fatal("claim after committed delete should fail")
	}
}

func TestStatementLevelSnapshotAdvances(t *testing.T) {
	m := NewManager()
	reader := m.Begin(StmtSnapshot)
	first := reader.ReadTS()

	w := m.Begin(TxnSnapshot)
	s := NewStamp(w.Marker())
	w.RecordCreate(s)
	w.Commit()

	if VisibleStamp(s, reader.ReadTS(), reader.Marker()) {
		t.Error("write visible before statement refresh")
	}
	reader.BeginStatement()
	if reader.ReadTS() <= first {
		t.Error("statement snapshot did not advance")
	}
	if !VisibleStamp(s, reader.ReadTS(), reader.Marker()) {
		t.Error("write invisible after statement refresh")
	}

	// Transaction-level isolation must NOT advance.
	txnReader := m.Begin(TxnSnapshot)
	before := txnReader.ReadTS()
	w2 := m.Begin(TxnSnapshot)
	w2.Commit()
	txnReader.BeginStatement()
	if txnReader.ReadTS() != before {
		t.Error("txn-level snapshot advanced on BeginStatement")
	}
}

func TestWatermark(t *testing.T) {
	m := NewManager()
	if got := m.Watermark(); got != m.LastCommitted() {
		t.Errorf("idle watermark = %d, want %d", got, m.LastCommitted())
	}
	old := m.Begin(TxnSnapshot)
	oldSnap := old.ReadTS()
	for i := 0; i < 5; i++ {
		w := m.Begin(TxnSnapshot)
		w.RecordCreate(NewStamp(w.Marker()))
		w.Commit()
	}
	if got := m.Watermark(); got != oldSnap {
		t.Errorf("watermark = %d, want pinned at %d", got, oldSnap)
	}
	old.Commit()
	if got := m.Watermark(); got != m.LastCommitted() {
		t.Errorf("watermark after release = %d, want %d", got, m.LastCommitted())
	}
}

func TestCommitNotActiveAndDoubleAbort(t *testing.T) {
	m := NewManager()
	tx := m.Begin(TxnSnapshot)
	tx.Commit()
	if err := tx.Commit(); err != ErrNotActive {
		t.Errorf("second commit err = %v", err)
	}
	tx2 := m.Begin(TxnSnapshot)
	tx2.Abort()
	tx2.Abort() // must be a no-op
	if tx2.state != StateAborted {
		t.Error("double abort changed state")
	}
	if len(m.active) != 0 {
		t.Errorf("ActiveCount = %d", len(m.active))
	}
}

func TestBump(t *testing.T) {
	m := NewManager()
	m.Bump(100)
	if m.LastCommitted() != 100 {
		t.Errorf("LastCommitted = %d", m.LastCommitted())
	}
	m.Bump(50) // never goes backwards
	if m.LastCommitted() != 100 {
		t.Errorf("Bump went backwards: %d", m.LastCommitted())
	}
	tx := m.Begin(TxnSnapshot)
	tx.Commit()
	if tx.commitTS != 101 {
		t.Errorf("commit ts after bump = %d", tx.commitTS)
	}
}

func TestConcurrentCommitsSerialize(t *testing.T) {
	m := NewManager()
	const n = 64
	stamps := make([]*Stamp, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tx := m.Begin(TxnSnapshot)
			s := NewStamp(tx.Marker())
			tx.RecordCreate(s)
			stamps[i] = s
			tx.Commit()
		}(i)
	}
	wg.Wait()
	seen := map[uint64]bool{}
	for _, s := range stamps {
		ts := s.Create()
		if !IsCommitted(ts) {
			t.Fatalf("stamp not finalized: %d", ts)
		}
		if seen[ts] {
			t.Fatalf("duplicate commit ts %d", ts)
		}
		seen[ts] = true
	}
	if m.LastCommitted() != 1+n {
		t.Errorf("LastCommitted = %d, want %d", m.LastCommitted(), 1+n)
	}
}

func TestConcurrentReadersNeverSeeHalfCommit(t *testing.T) {
	// A reader that can see one of a transaction's stamps must see all
	// of them: visibility is decided by the published timestamp.
	m := NewManager()
	const writers = 8
	const stampsPer = 16
	all := make([][]*Stamp, writers)
	for i := range all {
		all[i] = make([]*Stamp, stampsPer)
		for j := range all[i] {
			all[i][j] = &Stamp{}
		}
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tx := m.Begin(TxnSnapshot)
			for _, s := range all[i] {
				s.SetCreate(tx.Marker())
				tx.RecordCreate(s)
			}
			tx.Commit()
		}(i)
	}
	var readerErr error
	var rwg sync.WaitGroup
	rwg.Add(1)
	go func() {
		defer rwg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			r := m.Begin(TxnSnapshot)
			snap := r.ReadTS()
			for i := 0; i < writers; i++ {
				visible := 0
				for _, s := range all[i] {
					if Visible(s.Create(), s.Delete(), snap, r.Marker()) {
						visible++
					}
				}
				if visible != 0 && visible != stampsPer {
					readerErr = errHalf
					return
				}
			}
			r.Commit()
		}
	}()
	wg.Wait()
	close(stop)
	rwg.Wait()
	if readerErr != nil {
		t.Fatal(readerErr)
	}
}

var errHalf = &halfErr{}

type halfErr struct{}

func (*halfErr) Error() string { return "reader saw a half-committed transaction" }

func TestVisibleQuickNoMarkerLeak(t *testing.T) {
	// Property: a version with committed create c and committed delete
	// d (c < d) is visible exactly to snapshots in [c, d).
	f := func(c8, d8, snap8 uint8) bool {
		c := uint64(c8)%100 + 1
		d := c + uint64(d8)%100 + 1
		snap := uint64(snap8) % 220
		want := snap >= c && snap < d
		return Visible(c, d, snap, 0) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
