package core

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/mvcc"
	"repro/internal/obs"
	"repro/internal/persist"
	"repro/internal/types"
	"repro/internal/vfs"
	"repro/internal/wal"
)

// Database owns the transaction manager, the shared redo log, the
// savepoint pager, and the unified tables. It is the engine behind
// the public hana API.
type Database struct {
	mgr *mvcc.Manager

	mu     sync.RWMutex
	tables map[string]*Table

	log         *wal.Log // nil = in-memory database
	commitMu    sync.Mutex
	savepointMu sync.Mutex
	fs          vfs.FS
	dataPath    string
	pageSize    int
	rowID       atomic.Uint64

	scheduler *scheduler
	closed    atomic.Bool

	// obs is the metrics/trace registry (obs.Disabled when none was
	// configured); met caches the database-scoped handles. logger is
	// the structured log hook (nil = discard).
	obs    *obs.Registry
	met    *dbMetrics
	logger Logger

	// Retry/breaker defaults applied to tables that leave the knobs
	// unset (see DBOptions).
	retryBase    time.Duration
	retryMax     time.Duration
	breakerAfter int

	// now and sleep are the clock the overload machinery runs on
	// (merge backoff schedules, write-throttle delays). Tests replace
	// them to drive the degradation ladder without real sleeps.
	now   func() time.Time
	sleep func(ctx context.Context, d time.Duration) error
}

// DBOptions configures a database.
type DBOptions struct {
	// Dir is the persistence directory; empty means a purely
	// in-memory database (no redo log, no savepoints).
	Dir string
	// SyncOnCommit fsyncs the redo log at commit (durability at disk
	// speed; off by default for benchmarking the engine).
	SyncOnCommit bool
	// PageSize configures the savepoint pager's virtual-file pages.
	PageSize int
	// FS selects the file system backing the pager and the redo log
	// (nil = the real OS). Crash-torture and differential tests plug
	// in vfs.MemFS / vfs.FaultFS here.
	FS vfs.FS
	// AutoMerge starts the background merge scheduler.
	AutoMerge bool
	// MaxMainMerges caps how many L2→main merges the scheduler runs
	// concurrently across all tables (each merge is itself
	// column-parallel, so a small cap saturates the machine); 0 means
	// the default of 2. At most one main merge runs per table
	// regardless of the cap.
	MaxMainMerges int
	// MergeRetryBase and MergeRetryMax bound the jittered exponential
	// backoff between retries of a failed L2→main merge, for every
	// table; 0 selects 2ms / 500ms.
	MergeRetryBase time.Duration
	MergeRetryMax  time.Duration
	// MergeBreakerAfter opens a table's merge circuit after this many
	// consecutive merge failures; while open, merges are only probed
	// every MergeRetryMax. 0 selects 5; negative disables the breaker.
	MergeBreakerAfter int
	// Obs is the observability registry recording engine metrics and
	// lifecycle trace events; nil disables observability (the engine
	// pays only nil checks on the instrumented paths).
	Obs *obs.Registry
	// Logger receives structured engine log events (merge failures
	// and retries, breaker transitions, recovery replay); nil
	// discards them.
	Logger Logger
}

// OpenDatabase opens (and, when a directory is given, recovers) a
// database.
func OpenDatabase(opts DBOptions) (*Database, error) {
	db := &Database{
		mgr:          mvcc.NewManager(),
		tables:       map[string]*Table{},
		pageSize:     opts.PageSize,
		fs:           opts.FS,
		retryBase:    opts.MergeRetryBase,
		retryMax:     opts.MergeRetryMax,
		breakerAfter: opts.MergeBreakerAfter,
		obs:          opts.Obs,
		logger:       opts.Logger,
		now:          time.Now,
		sleep:        sleepCtx,
	}
	if db.obs == nil {
		db.obs = obs.Disabled
	}
	db.met = newDBMetrics(db.obs)
	if db.fs == nil {
		db.fs = vfs.OS
	}
	if opts.Dir != "" {
		db.dataPath = filepath.Join(opts.Dir, "data.db")
		// Recover before opening the log for appends: replay needs the
		// log as written by the previous run.
		if err := db.recover(opts); err != nil {
			return nil, err
		}
		l, err := wal.Open(filepath.Join(opts.Dir, "wal"), wal.Options{SyncOnCommit: opts.SyncOnCommit, FS: db.fs, Metrics: db.obs.WAL()})
		if err != nil {
			return nil, err
		}
		db.log = l
	}
	if opts.AutoMerge {
		db.scheduler = newScheduler(db, opts.MaxMainMerges)
		db.scheduler.start()
	}
	return db, nil
}

// Manager exposes the MVCC transaction manager.
func (db *Database) Manager() *mvcc.Manager { return db.mgr }

// Begin starts a transaction.
func (db *Database) Begin(level mvcc.IsolationLevel) *mvcc.Txn {
	return db.mgr.Begin(level)
}

// Commit durably commits tx: the commit record is appended and
// flushed to the redo log before the in-memory commit publishes the
// transaction's timestamp.
func (db *Database) Commit(tx *mvcc.Txn) error {
	// Serialize so log order equals commit-timestamp order; recovery
	// replays commits in log order.
	db.commitMu.Lock()
	defer db.commitMu.Unlock()
	if db.log != nil {
		if err := db.log.Append(&wal.Record{Type: wal.RecCommit, Txn: tx.ID(), TS: db.mgr.LastCommitted() + 1}); err != nil {
			return err
		}
		if err := db.log.Sync(); err != nil {
			return err
		}
	}
	return tx.Commit()
}

// Abort rolls tx back, logging the abort so recovery can discard the
// transaction's pre-savepoint effects.
func (db *Database) Abort(tx *mvcc.Txn) {
	if db.log != nil {
		_ = db.log.Append(&wal.Record{Type: wal.RecAbort, Txn: tx.ID()})
	}
	tx.Abort()
}

// CreateTable creates a unified table.
func (db *Database) CreateTable(cfg TableConfig) (*Table, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, exists := db.tables[cfg.Name]; exists {
		return nil, fmt.Errorf("core: table %q already exists", cfg.Name)
	}
	if db.log != nil {
		// DDL is logged so a table created after the last savepoint
		// survives a crash.
		enc := persist.NewEncoder()
		encodeConfig(enc, cfg)
		if err := db.log.Append(&wal.Record{Type: wal.RecCreateTable, Table: cfg.Name, Payload: enc.Bytes()}); err != nil {
			return nil, err
		}
		if err := db.log.Sync(); err != nil {
			return nil, err
		}
	}
	t := newTable(db, cfg)
	db.tables[cfg.Name] = t
	return t, nil
}

// Table returns the named table, or nil.
func (db *Database) Table(name string) *Table {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.tables[name]
}

// Tables returns all tables sorted by name.
func (db *Database) Tables() []*Table {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]*Table, 0, len(db.tables))
	for _, t := range db.tables {
		out = append(out, t)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].cfg.Name < out[b].cfg.Name })
	return out
}

// Close stops the scheduler and closes the log. The database must not
// be used afterwards.
func (db *Database) Close() error {
	if !db.closed.CompareAndSwap(false, true) {
		return nil
	}
	if db.scheduler != nil {
		db.scheduler.stop()
	}
	if db.log != nil {
		return db.log.Close()
	}
	return nil
}

// Ready reports whether the database can serve work: nil while open
// (the redo log is attached for the database's whole open lifetime
// when persistent), ErrClosed once Close has run. Health endpoints
// use this as the readiness signal.
func (db *Database) Ready() error {
	if db.closed.Load() {
		return ErrClosed
	}
	return nil
}

// nextRowID hands out the life-long record id generated "when
// entering the system" (§3).
func (db *Database) nextRowID() types.RowID {
	return types.RowID(db.rowID.Add(1))
}

// bumpRowID restores the id clock during recovery.
func (db *Database) bumpRowID(id types.RowID) {
	for {
		cur := db.rowID.Load()
		if uint64(id) <= cur || db.rowID.CompareAndSwap(cur, uint64(id)) {
			return
		}
	}
}

// logDML appends a DML redo record (no flush; Commit flushes).
func (db *Database) logDML(rec *wal.Record) error {
	if db.log == nil {
		return nil
	}
	return db.log.Append(rec)
}

// logMergeEvent appends the merge event record of §3.2.
func (db *Database) logMergeEvent(table string, kind wal.MergeKind, seq uint64) error {
	if db.log == nil {
		return nil
	}
	return db.log.Append(&wal.Record{Type: wal.RecMerge, Table: table, Merge: kind, TS: seq})
}

// ErrClosed reports use of a closed database.
var ErrClosed = errors.New("core: database closed")
