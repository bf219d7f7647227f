// Package mvcc implements multi-version concurrency control for the
// unified table. The paper states that "the SAP HANA database uses
// multi-version concurrency control (MVCC) to implement different
// transaction isolation levels" and "supports both transaction level
// snapshot isolation and statement level snapshot isolation" (§1).
//
// Every record version carries a pair of stamps (create, delete).
// A stamp is either a commit timestamp, an uncommitted-transaction
// marker, or the aborted sentinel. Readers evaluate visibility
// against a snapshot timestamp; writers claim deletes with an atomic
// compare-and-swap, giving first-writer-wins write-write conflict
// detection without locks or waiting.
package mvcc

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
)

// txnBit marks a stamp as an uncommitted transaction marker rather
// than a commit timestamp.
const txnBit uint64 = 1 << 63

// Aborted is the stamp value of a version created by an aborted
// transaction; it is visible to no one and garbage-collected at the
// next merge.
const Aborted uint64 = math.MaxUint64

// ErrWriteConflict reports a write-write conflict: the row version a
// transaction tried to delete or update was concurrently deleted (or
// is being deleted) by another transaction.
var ErrWriteConflict = errors.New("mvcc: write-write conflict")

// ErrNotActive reports an operation on a finished transaction.
var ErrNotActive = errors.New("mvcc: transaction not active")

// IsolationLevel selects how a transaction picks its read snapshot.
type IsolationLevel uint8

const (
	// TxnSnapshot freezes one snapshot at BEGIN for the whole
	// transaction (transaction-level snapshot isolation).
	TxnSnapshot IsolationLevel = iota
	// StmtSnapshot refreshes the snapshot at every statement
	// (statement-level snapshot isolation / read committed).
	StmtSnapshot
)

func (l IsolationLevel) String() string {
	if l == StmtSnapshot {
		return "statement-snapshot"
	}
	return "transaction-snapshot"
}

// IsMarker reports whether a raw stamp is an uncommitted-transaction
// marker.
func IsMarker(raw uint64) bool { return raw != Aborted && raw&txnBit != 0 }

// IsCommitted reports whether a raw stamp is a commit timestamp.
func IsCommitted(raw uint64) bool { return raw != 0 && raw != Aborted && raw&txnBit == 0 }

// MarkerFor returns the marker stamp value of the given transaction
// id, as Txn.Marker would; recovery uses it to check whether a
// snapshot-restored stamp still carries a dead transaction's marker
// before rolling it back.
func MarkerFor(txn uint64) uint64 { return txn | txnBit }

// Stamp is the version metadata of one record version: the create
// and delete stamps. Fields are atomic because commit finalization
// races with readers by design.
type Stamp struct {
	c atomic.Uint64
	d atomic.Uint64
}

// NewStamp returns a stamp with the given raw create value.
func NewStamp(create uint64) *Stamp {
	s := &Stamp{}
	s.c.Store(create)
	return s
}

// Create returns the raw create stamp.
func (s *Stamp) Create() uint64 { return s.c.Load() }

// Delete returns the raw delete stamp (0 = live).
func (s *Stamp) Delete() uint64 { return s.d.Load() }

// SetCreate stores a raw create stamp.
func (s *Stamp) SetCreate(raw uint64) { s.c.Store(raw) }

// SetDelete stores a raw delete stamp.
func (s *Stamp) SetDelete(raw uint64) { s.d.Store(raw) }

// ClaimDelete atomically claims the delete stamp for a transaction
// marker; it fails if any delete stamp is already present.
func (s *Stamp) ClaimDelete(marker uint64) bool { return s.d.CompareAndSwap(0, marker) }

// Settled reports that neither stamp is an in-flight marker, i.e. the
// version may be migrated by a merge without losing a pending commit
// write-through.
func (s *Stamp) Settled() bool {
	return !IsMarker(s.c.Load()) && !IsMarker(s.d.Load())
}

// Visible reports whether a version with raw stamps (create, del) is
// visible to a reader with snapshot snap and own marker self (0 for
// no transaction). Own uncommitted writes are visible; own
// uncommitted deletes hide the version.
func Visible(create, del, snap, self uint64) bool {
	switch {
	case create == Aborted:
		return false
	case IsMarker(create):
		if create != self {
			return false
		}
	case create == 0 || create > snap:
		return false
	}
	switch {
	case del == 0 || del == Aborted:
		return true
	case IsMarker(del):
		return del != self // other txn's pending delete: still visible to us
	default:
		return del > snap
	}
}

// VisibleStamp is Visible applied to a *Stamp.
func VisibleStamp(s *Stamp, snap, self uint64) bool {
	if s == nil {
		return false
	}
	return Visible(s.Create(), s.Delete(), snap, self)
}

// State is the life-cycle state of a transaction.
type State uint8

const (
	// StateActive is a running transaction.
	StateActive State = iota
	// StateCommitted is a successfully committed transaction.
	StateCommitted
	// StateAborted is a rolled-back transaction.
	StateAborted
)

// Manager issues transactions and commit timestamps and tracks the
// garbage-collection watermark (the oldest snapshot any active
// transaction may still read).
type Manager struct {
	lastCommitted atomic.Uint64
	nextTxnID     atomic.Uint64

	commitMu sync.Mutex // serializes commit finalization

	mu     sync.Mutex
	active map[uint64]*Txn // txn id → txn
}

// NewManager returns a manager; timestamp 1 is the "genesis" commit
// every pre-loaded row may use.
func NewManager() *Manager {
	m := &Manager{active: make(map[uint64]*Txn)}
	m.lastCommitted.Store(1)
	m.nextTxnID.Store(1)
	return m
}

// LastCommitted returns the newest committed timestamp; a fresh
// snapshot reads everything up to and including it.
func (m *Manager) LastCommitted() uint64 { return m.lastCommitted.Load() }

// Begin starts a transaction at the given isolation level.
func (m *Manager) Begin(level IsolationLevel) *Txn {
	t := &Txn{
		mgr:   m,
		id:    m.nextTxnID.Add(1),
		level: level,
	}
	m.mu.Lock()
	// Snapshot under the manager lock so the watermark can never pass
	// a transaction that is about to register.
	t.snap = m.lastCommitted.Load()
	m.active[t.id] = t
	m.mu.Unlock()
	return t
}

// Watermark returns the oldest snapshot any active transaction holds;
// versions deleted at or before the watermark are invisible to every
// present and future reader and may be physically discarded by a
// merge (§4.1, "discarding entries of all deleted or modified
// records").
func (m *Manager) Watermark() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	min := m.lastCommitted.Load()
	for _, t := range m.active {
		if t.snap < min {
			min = t.snap
		}
	}
	return min
}

// Bump advances the last-committed timestamp to at least ts; recovery
// uses it to restore the clock from the log.
func (m *Manager) Bump(ts uint64) {
	for {
		cur := m.lastCommitted.Load()
		if ts <= cur || m.lastCommitted.CompareAndSwap(cur, ts) {
			return
		}
	}
}

// BumpTxnID advances the transaction-id counter to at least id.
// Recovery uses it so new transactions never reuse an id that still
// appears in the surviving redo log or in snapshot marker stamps: the
// log is only truncated at savepoints, so after a plain restart a
// reused id would let the new transaction's commit record adopt a
// dead (rolled-back) transaction's replayed operations.
func (m *Manager) BumpTxnID(id uint64) {
	for {
		cur := m.nextTxnID.Load()
		if id <= cur || m.nextTxnID.CompareAndSwap(cur, id) {
			return
		}
	}
}

// Txn is a transaction handle. A Txn is used by a single goroutine;
// the manager and stamps it touches are safe for concurrent use.
type Txn struct {
	mgr   *Manager
	id    uint64
	level IsolationLevel
	snap  uint64
	state State

	commitTS uint64

	creates []*Stamp
	deletes []*Stamp
}

// ID returns the transaction id.
func (t *Txn) ID() uint64 { return t.id }

// Marker returns the stamp marker identifying this transaction's
// uncommitted versions.
func (t *Txn) Marker() uint64 { return t.id | txnBit }

// ReadTS returns the snapshot timestamp reads of the current
// statement should use.
func (t *Txn) ReadTS() uint64 { return t.snap }

// BeginStatement refreshes the snapshot under statement-level
// snapshot isolation; it is a no-op under transaction-level
// isolation.
func (t *Txn) BeginStatement() {
	if t.state == StateActive && t.level == StmtSnapshot {
		// Written under the manager lock because Watermark reads the
		// snapshots of active transactions concurrently.
		t.mgr.mu.Lock()
		t.snap = t.mgr.lastCommitted.Load()
		t.mgr.mu.Unlock()
	}
}

// RecordCreate registers a stamp this transaction created (already
// holding its marker) for commit/abort finalization.
func (t *Txn) RecordCreate(s *Stamp) { t.creates = append(t.creates, s) }

// RecordDelete registers a stamp whose delete this transaction
// claimed.
func (t *Txn) RecordDelete(s *Stamp) { t.deletes = append(t.deletes, s) }

// Active reports whether the transaction can still issue operations.
func (t *Txn) Active() bool { return t.state == StateActive }

// Commit finalizes the transaction: it allocates the next commit
// timestamp, writes it through every stamp the transaction touched,
// and only then publishes the timestamp — so no reader can hold a
// snapshot that includes a half-finalized transaction.
func (t *Txn) Commit() error {
	if t.state != StateActive {
		return ErrNotActive
	}
	m := t.mgr
	m.commitMu.Lock()
	ts := m.lastCommitted.Load() + 1
	for _, s := range t.creates {
		s.SetCreate(ts)
	}
	marker := t.Marker()
	for _, s := range t.deletes {
		if s.Delete() == marker {
			s.SetDelete(ts)
		}
	}
	m.lastCommitted.Store(ts)
	m.commitMu.Unlock()

	t.commitTS = ts
	t.state = StateCommitted
	m.mu.Lock()
	delete(m.active, t.id)
	m.mu.Unlock()
	return nil
}

// Abort rolls the transaction back: its created versions become
// permanently invisible, its claimed deletes are released.
func (t *Txn) Abort() {
	if t.state != StateActive {
		return
	}
	for _, s := range t.creates {
		s.SetCreate(Aborted)
	}
	marker := t.Marker()
	for _, s := range t.deletes {
		s.d.CompareAndSwap(marker, 0)
	}
	t.state = StateAborted
	t.mgr.mu.Lock()
	delete(t.mgr.active, t.id)
	t.mgr.mu.Unlock()
}

// String renders the transaction for diagnostics.
func (t *Txn) String() string {
	return fmt.Sprintf("txn(%d,%v,snap=%d,state=%d)", t.id, t.level, t.snap, t.state)
}
