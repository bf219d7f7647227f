package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/l1delta"
	"repro/internal/l2delta"
	"repro/internal/mainstore"
	"repro/internal/mvcc"
	"repro/internal/types"
	"repro/internal/wal"
)

// ErrDuplicateKey reports a primary-key uniqueness violation.
var ErrDuplicateKey = errors.New("core: duplicate key")

// ErrNoKey reports a key operation on a table without a primary key.
var ErrNoKey = errors.New("core: table has no primary key")

// Table is a unified table (§3): the single logical table every
// physical operator sees, backed by the L1-delta, the open L2-delta,
// zero or more frozen L2-delta generations awaiting their merge, and
// the main store chain.
//
// Concurrency contract: DML and structure swaps run under the
// exclusive latch; statements pin a consistent view under the shared
// latch for their whole execution. Logical isolation between
// transactions is pure MVCC — writers never invalidate a pinned
// reader's snapshot.
type Table struct {
	cfg TableConfig
	db  *Database

	mu     sync.RWMutex
	l1     *l1delta.Store
	l2     *l2delta.Store   // open generation
	frozen []*l2delta.Store // closed, oldest first
	main   *mainstore.Store
	tombs  *mainstore.Tombstones

	// mergeInFlight marks an L2→main merge computing outside the
	// latch; deletes landing meanwhile (on main rows or on rows of the
	// frozen generation being merged) are recorded with their stamps
	// so the swap can adopt them into the tombstone registry of the
	// new generation.
	mergeInFlight  bool
	pendingDeletes []pendingDelete

	l1Merges      atomic.Uint64
	mainMerges    atomic.Uint64
	mergeFailures atomic.Uint64
	mergeSeq      atomic.Uint64
	// lastMergeErr surfaces the most recent main-merge failure to
	// Stats readers (nil after a successful merge); the scheduler
	// retries failed merges, so without this field errors would only
	// ever be visible as a counter.
	lastMergeErr atomic.Pointer[string]

	// gate is the merge retry/backoff/circuit state machine; the
	// scheduler consults it before dispatching and mergeMain reports
	// outcomes to it (see overload.go).
	gate            *mergeGate
	mergeRetries    atomic.Uint64
	throttledWrites atomic.Uint64
	rejectedWrites  atomic.Uint64

	// mergeFail lets tests inject merge failures on the scheduler
	// path (mergeMain's explicit failPoint argument wins when set).
	mergeFail atomic.Pointer[func(string) error]

	// met caches the table's metric handles (see metrics.go); always
	// non-nil, with nil handles when observability is disabled.
	met *tableMetrics

	// mergeSlot holds a token while an L2→main merge runs, so merges
	// of one table never overlap.
	mergeSlot chan struct{}
}

func newTable(db *Database, cfg TableConfig) *Table {
	t := &Table{
		cfg:   cfg,
		db:    db,
		tombs: mainstore.NewTombstones(),

		mergeSlot: make(chan struct{}, 1),
	}
	t.l1 = l1delta.New(cfg.Schema)
	t.l2 = l2delta.New(cfg.Schema, cfg.Indexed)
	t.main = mainstore.EmptyStore(cfg.Schema)
	breakAfter := db.breakerAfter
	if breakAfter == 0 {
		breakAfter = defaultMergeBreakerAfter
	}
	t.gate = newMergeGate(db.retryBase, db.retryMax, breakAfter)
	t.met = newTableMetrics(db.obs, cfg.Name)
	return t
}

// noteMergeErr records err as the table's last merge error (Stats'
// LastMergeError) without touching the failure counter; mergeMain
// maintains both for main merges, the scheduler uses this for L1
// merge errors.
func (t *Table) noteMergeErr(err error) {
	msg := err.Error()
	t.lastMergeErr.Store(&msg)
}

// Name returns the table name.
func (t *Table) Name() string { return t.cfg.Name }

// Schema returns the table schema.
func (t *Table) Schema() *types.Schema { return t.cfg.Schema }

// Insert adds one row within tx, assigning and returning the record's
// life-long RowID. The row enters the L1-delta; a redo record is
// written at this first appearance (§3.2).
func (t *Table) Insert(tx *mvcc.Txn, row []types.Value) (types.RowID, error) {
	return t.InsertCtx(context.Background(), tx, row)
}

// InsertCtx is Insert under a context: the write observes
// cancellation and is subject to delta-backlog admission control —
// above ThrottleRows it is delayed, above OverloadRows it fails with
// ErrOverloaded.
func (t *Table) InsertCtx(ctx context.Context, tx *mvcc.Txn, row []types.Value) (types.RowID, error) {
	if start := t.met.insertSeconds.Start(); !start.IsZero() {
		defer t.met.insertSeconds.Stop(start)
	}
	if !tx.Active() {
		return 0, mvcc.ErrNotActive
	}
	if err := t.cfg.Schema.CheckRow(row); err != nil {
		return 0, err
	}
	if err := t.admitWrite(ctx); err != nil {
		return 0, err
	}
	row = types.CloneRow(row)
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.cfg.CheckUnique && t.cfg.Schema.Key >= 0 {
		if err := t.checkUniqueLocked(tx, row[t.cfg.Schema.Key]); err != nil {
			return 0, err
		}
	}
	id := t.db.nextRowID()
	if err := t.db.logDML(&wal.Record{
		Type: wal.RecInsert, Txn: tx.ID(), Table: t.cfg.Name,
		RowIDs: []types.RowID{id}, Rows: [][]types.Value{row},
	}); err != nil {
		return 0, err
	}
	st := mvcc.NewStamp(tx.Marker())
	tx.RecordCreate(st)
	t.l1.Append(&l1delta.Row{ID: id, Values: row, Stamp: st})
	return id, nil
}

// BulkInsert adds many rows within tx directly into the L2-delta,
// bypassing the L1-delta ("the system provides a special treatment
// for efficient bulk insertions, which may directly go into the
// L2-delta", §3). Redo logging happens here, the rows' first
// appearance.
func (t *Table) BulkInsert(tx *mvcc.Txn, rows [][]types.Value) ([]types.RowID, error) {
	return t.BulkInsertCtx(context.Background(), tx, rows)
}

// BulkInsertCtx is BulkInsert under a context, with delta-backlog
// admission control (one check per batch).
func (t *Table) BulkInsertCtx(ctx context.Context, tx *mvcc.Txn, rows [][]types.Value) ([]types.RowID, error) {
	if start := t.met.bulkSeconds.Start(); !start.IsZero() {
		defer t.met.bulkSeconds.Stop(start)
	}
	if !tx.Active() {
		return nil, mvcc.ErrNotActive
	}
	for _, r := range rows {
		if err := t.cfg.Schema.CheckRow(r); err != nil {
			return nil, err
		}
	}
	if err := t.admitWrite(ctx); err != nil {
		return nil, err
	}
	cloned := make([][]types.Value, len(rows))
	for i, r := range rows {
		cloned[i] = types.CloneRow(r)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.cfg.CheckUnique && t.cfg.Schema.Key >= 0 {
		seen := make(map[types.Value]bool, len(cloned))
		for _, r := range cloned {
			k := r[t.cfg.Schema.Key]
			if seen[k] {
				return nil, fmt.Errorf("%w: %v within bulk", ErrDuplicateKey, k)
			}
			seen[k] = true
			if err := t.checkUniqueLocked(tx, k); err != nil {
				return nil, err
			}
		}
	}
	ids := make([]types.RowID, len(cloned))
	stamps := make([]*mvcc.Stamp, len(cloned))
	for i := range cloned {
		ids[i] = t.db.nextRowID()
		st := mvcc.NewStamp(tx.Marker())
		tx.RecordCreate(st)
		stamps[i] = st
	}
	if err := t.db.logDML(&wal.Record{
		Type: wal.RecBulk, Txn: tx.ID(), Table: t.cfg.Name,
		RowIDs: ids, Rows: cloned,
	}); err != nil {
		return nil, err
	}
	t.l2.AppendBatch(cloned, ids, stamps)
	return ids, nil
}

// DeleteKey logically deletes the row versions with the given key
// visible to tx. It returns the number of versions deleted (0 when
// the key is not visible).
func (t *Table) DeleteKey(tx *mvcc.Txn, key types.Value) (int, error) {
	if start := t.met.deleteSeconds.Start(); !start.IsZero() {
		defer t.met.deleteSeconds.Stop(start)
	}
	if t.cfg.Schema.Key < 0 {
		return 0, ErrNoKey
	}
	if !tx.Active() {
		return 0, mvcc.ErrNotActive
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.deleteKeyLocked(tx, key)
}

// pendingDelete records a delete that raced with an in-flight
// L2→main merge: the swap adopts the stamp into the registry and
// flags the row in the rebuilt generation.
type pendingDelete struct {
	id types.RowID
	st *mvcc.Stamp
}

func (t *Table) deleteKeyLocked(tx *mvcc.Txn, key types.Value) (int, error) {
	snap, self := tx.ReadTS(), tx.Marker()
	deleted := 0
	claim := func(id types.RowID, st *mvcc.Stamp, inMergeSource bool) error {
		if !st.ClaimDelete(self) {
			return mvcc.ErrWriteConflict
		}
		tx.RecordDelete(st)
		if inMergeSource && t.mergeInFlight {
			// The merge's collect pass may already have read this
			// stamp as live; re-apply at swap time.
			t.pendingDeletes = append(t.pendingDeletes, pendingDelete{id: id, st: st})
		}
		if err := t.db.logDML(&wal.Record{
			Type: wal.RecDelete, Txn: tx.ID(), Table: t.cfg.Name,
			RowIDs: []types.RowID{id},
		}); err != nil {
			return err
		}
		deleted++
		return nil
	}
	// L1-delta (never a merge source for the L2→main merge).
	for _, pos := range t.l1.LookupKey(key) {
		r := t.l1.At(pos)
		if mvcc.VisibleStamp(r.Stamp, snap, self) {
			if err := claim(r.ID, r.Stamp, false); err != nil {
				return deleted, err
			}
		}
	}
	// L2-delta generations; frozen ones may be mid-merge.
	for gi, gen := range t.l2Generations() {
		frozen := gi < len(t.frozen)
		for _, pos := range gen.LookupValue(t.cfg.Schema.Key, key, 0) {
			st := gen.Stamp(pos)
			if mvcc.Visible(st.Create(), st.Delete(), snap, self) {
				if err := claim(gen.RowID(pos), st, frozen); err != nil {
					return deleted, err
				}
			}
		}
	}
	// Main store (always part of an in-flight merge's input).
	for _, loc := range t.main.PointLookup(t.cfg.Schema.Key, key) {
		if !t.main.Visible(loc, t.tombs, snap, self) {
			continue
		}
		id := t.main.RowID(loc)
		st, ok := t.tombs.Claim(id, t.main.CreateTS(loc), self)
		if !ok {
			return deleted, mvcc.ErrWriteConflict
		}
		tx.RecordDelete(st)
		t.main.MarkDeleted(loc)
		if t.mergeInFlight {
			t.pendingDeletes = append(t.pendingDeletes, pendingDelete{id: id, st: st})
		}
		if err := t.db.logDML(&wal.Record{
			Type: wal.RecDelete, Txn: tx.ID(), Table: t.cfg.Name,
			RowIDs: []types.RowID{id},
		}); err != nil {
			return deleted, err
		}
		deleted++
	}
	return deleted, nil
}

// UpdateKey replaces the visible row with the given key by newRow
// (delete-old + insert-new: the record-life-cycle model keeps
// versions immutable once written). It returns the new RowID.
func (t *Table) UpdateKey(tx *mvcc.Txn, key types.Value, newRow []types.Value) (types.RowID, error) {
	return t.UpdateKeyCtx(context.Background(), tx, key, newRow)
}

// UpdateKeyCtx is UpdateKey under a context, with delta-backlog
// admission control. Deletes are never admission-controlled (they add
// no backlog), so only the insert half gates here.
func (t *Table) UpdateKeyCtx(ctx context.Context, tx *mvcc.Txn, key types.Value, newRow []types.Value) (types.RowID, error) {
	if start := t.met.updateSeconds.Start(); !start.IsZero() {
		defer t.met.updateSeconds.Stop(start)
	}
	if t.cfg.Schema.Key < 0 {
		return 0, ErrNoKey
	}
	if !tx.Active() {
		return 0, mvcc.ErrNotActive
	}
	if err := t.cfg.Schema.CheckRow(newRow); err != nil {
		return 0, err
	}
	if err := t.admitWrite(ctx); err != nil {
		return 0, err
	}
	newRow = types.CloneRow(newRow)
	t.mu.Lock()
	defer t.mu.Unlock()
	n, err := t.deleteKeyLocked(tx, key)
	if err != nil {
		return 0, err
	}
	if n == 0 {
		return 0, fmt.Errorf("core: update of missing key %v", key)
	}
	if t.cfg.CheckUnique {
		if err := t.checkUniqueLocked(tx, newRow[t.cfg.Schema.Key]); err != nil {
			return 0, err
		}
	}
	id := t.db.nextRowID()
	if err := t.db.logDML(&wal.Record{
		Type: wal.RecInsert, Txn: tx.ID(), Table: t.cfg.Name,
		RowIDs: []types.RowID{id}, Rows: [][]types.Value{newRow},
	}); err != nil {
		return 0, err
	}
	st := mvcc.NewStamp(tx.Marker())
	tx.RecordCreate(st)
	t.l1.Append(&l1delta.Row{ID: id, Values: newRow, Stamp: st})
	return id, nil
}

// checkUniqueLocked validates the uniqueness constraint for key using
// the inverted index structures of all three stages (§3.1). It runs
// under the exclusive latch, so "latest state" is race-free.
func (t *Table) checkUniqueLocked(tx *mvcc.Txn, key types.Value) error {
	self := tx.Marker()
	check := func(st *mvcc.Stamp) error {
		create := st.Create()
		switch {
		case create == mvcc.Aborted:
			return nil
		case mvcc.IsMarker(create) && create != self:
			// Concurrent uncommitted insert of the same key.
			return mvcc.ErrWriteConflict
		}
		switch del := st.Delete(); {
		case del == 0:
			return fmt.Errorf("%w: %v", ErrDuplicateKey, key)
		case del == mvcc.Aborted:
			return fmt.Errorf("%w: %v", ErrDuplicateKey, key)
		case mvcc.IsMarker(del) && del != self:
			// Someone is deleting it but may abort: conservative
			// conflict.
			return mvcc.ErrWriteConflict
		default:
			return nil // deleted by us or by a committed transaction
		}
	}
	for _, pos := range t.l1.LookupKey(key) {
		if err := check(t.l1.At(pos).Stamp); err != nil {
			return err
		}
	}
	for _, gen := range t.l2Generations() {
		for _, pos := range gen.LookupValue(t.cfg.Schema.Key, key, 0) {
			if err := check(gen.Stamp(pos)); err != nil {
				return err
			}
		}
	}
	for _, loc := range t.main.PointLookup(t.cfg.Schema.Key, key) {
		st := t.tombs.Get(t.main.RowID(loc))
		if st == nil {
			return fmt.Errorf("%w: %v", ErrDuplicateKey, key)
		}
		if err := check(st); err != nil {
			return err
		}
	}
	return nil
}

// l2Generations returns frozen generations followed by the open one.
// Callers must hold a latch.
func (t *Table) l2Generations() []*l2delta.Store {
	out := make([]*l2delta.Store, 0, len(t.frozen)+1)
	out = append(out, t.frozen...)
	return append(out, t.l2)
}

// Stats returns a snapshot of the table's physical state.
func (t *Table) Stats() TableStats {
	t.mu.RLock()
	defer t.mu.RUnlock()
	s := TableStats{
		Name:       t.cfg.Name,
		L1Rows:     t.l1.Len(),
		L2Rows:     t.l2.Len(),
		MainRows:   t.main.NumRows(),
		MainParts:  t.main.NumParts(),
		L1Bytes:    t.l1.MemSize(),
		L2Bytes:    t.l2.MemSize(),
		MainBytes:  t.main.MemSize(),
		Tombstones: t.tombs.Len(),
		L1Merges:   t.l1Merges.Load(),
		MainMerges: t.mainMerges.Load(),
	}
	for _, f := range t.frozen {
		s.FrozenL2Rows += f.Len()
		s.L2Bytes += f.MemSize()
	}
	s.MergeFailures = t.mergeFailures.Load()
	if msg := t.lastMergeErr.Load(); msg != nil {
		s.LastMergeError = *msg
	}
	s.MergeRetries = t.mergeRetries.Load()
	s.CircuitOpen = t.gate.isOpen()
	s.ThrottledWrites = t.throttledWrites.Load()
	s.RejectedWrites = t.rejectedWrites.Load()
	return s
}
