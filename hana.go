// Package hana is a from-scratch Go reproduction of the storage and
// query architecture described in "Efficient Transaction Processing
// in SAP HANA Database — The End of a Column Store Myth" (Sikka,
// Färber, Lehner, Cha, Peh, Bornhövd; SIGMOD 2012).
//
// The core abstraction is the unified table: one logical table whose
// records move through a three-stage physical life cycle —
//
//	L1-delta   row format, write-optimized, uncompressed
//	L2-delta   column format, unsorted dictionaries, inverted indexes
//	main       column format, sorted prefix-coded dictionaries,
//	           bit-packed and compressed value indexes
//
// — propagated asynchronously by the L1→L2 merge and the classic,
// re-sorting, or partial L2→main merge, so that the same physical
// table serves high-rate transactional updates and scan-heavy
// analytics. Transactions get snapshot isolation from MVCC (both
// transaction-level and statement-level); durability comes from
// write-once redo logging plus savepoints on a paged virtual-file
// store; queries run either through simple table views or through
// calculation graphs executed by the relational/OLAP operator engine.
//
// # Quick start
//
//	db, _ := hana.Open(hana.Options{})
//	defer db.Close()
//	orders, _ := db.CreateTable(hana.TableConfig{
//		Name: "orders",
//		Schema: hana.MustSchema([]hana.Column{
//			{Name: "id", Kind: hana.Int64},
//			{Name: "customer", Kind: hana.String},
//			{Name: "amount", Kind: hana.Float64},
//		}, 0),
//		CheckUnique: true,
//	})
//	tx := db.Begin(hana.TxnSnapshot)
//	orders.Insert(tx, hana.Row(hana.Int(1), hana.Str("acme"), hana.Float(9.99)))
//	db.Commit(tx)
//
//	v := orders.View(nil)
//	defer v.Close()
//	match := v.Get(hana.Int(1))
//
// See the examples/ directory for runnable scenarios and DESIGN.md
// for the system inventory and the paper-experiment index.
package hana

import (
	"context"
	"time"

	"repro/internal/budget"
	"repro/internal/calc"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/expr"
	"repro/internal/mvcc"
	"repro/internal/obs"
	"repro/internal/sql"
	"repro/internal/types"
	"repro/internal/vec"
)

// Core database objects (aliases keep the full method sets).
type (
	// DB is a database instance: transaction manager, redo log,
	// savepoints, tables, and the background merge scheduler.
	DB = core.Database
	// Options configures Open.
	Options = core.DBOptions
	// Table is a unified table.
	Table = core.Table
	// TableConfig configures CreateTable.
	TableConfig = core.TableConfig
	// TableStats is a snapshot of a table's physical life-cycle state.
	TableStats = core.TableStats
	// Txn is a transaction handle.
	Txn = mvcc.Txn
	// MergeStrategy selects the L2→main merge variant.
	MergeStrategy = core.MergeStrategy
)

// Value model.
type (
	// Value is a typed cell.
	Value = types.Value
	// Kind is a column data type.
	Kind = types.Kind
	// Column describes one table attribute.
	Column = types.Column
	// Schema is an ordered column list with a primary key.
	Schema = types.Schema
	// RowID is a record's life-long identifier.
	RowID = types.RowID
)

// Predicates.
type (
	// Cmp compares a column with a constant.
	Cmp = expr.Cmp
	// Between is a range predicate.
	Between = expr.Between
)

// Calculation graphs and the operator engine.
type (
	// Graph is a calculation graph under construction (§2.1).
	Graph = calc.Graph
	// Node is one calc-graph operator.
	Node = calc.Node
	// StarDim describes a star-join dimension arm.
	StarDim = calc.StarDim
	// Env is the calc execution environment.
	Env = calc.Env
	// Agg is an aggregate specification.
	Agg = engine.Agg
	// SortSpec orders by a column.
	SortSpec = engine.SortSpec
)

// Vectorized execution: the batch read path streams fixed-size column
// batches (typed vectors + null bitmap + selection vector) from the
// unified table's stages through batch operators, evaluating pushed-
// down predicates on dictionary codes inside each stage.
type (
	// Batch is a block of rows in columnar layout.
	Batch = vec.Batch
	// BatchIterator is the vectorized Open-Next-Close protocol.
	BatchIterator = engine.BatchIterator
	// BatchTableScan streams a table as column batches (the view stays
	// pinned for the scan's lifetime; Close releases it).
	BatchTableScan = engine.BatchTableScan
	// BatchFilter refines selection vectors with a predicate.
	BatchFilter = engine.BatchFilter
	// BatchHashJoin equi-joins two batch streams.
	BatchHashJoin = engine.BatchHashJoin
	// BatchHashAggregate groups and aggregates batch streams.
	BatchHashAggregate = engine.BatchHashAggregate
)

// Observability: pass a registry in Options.Obs and the engine
// instruments its write, merge, scan, and WAL paths with counters and
// latency histograms, and records lifecycle transitions in a ring
// tracer. Read them back through DB.Metrics (same registry) and
// DB.TraceEvents. Without a registry every instrument is a nil-safe
// no-op.
type (
	// MetricsRegistry holds counters, gauges, histograms, and the
	// lifecycle event tracer.
	MetricsRegistry = obs.Registry
	// Counter is a monotonically increasing metric.
	Counter = obs.Counter
	// Histogram is a latency distribution metric.
	Histogram = obs.Histogram
	// TraceEvent is one recorded lifecycle transition.
	TraceEvent = obs.Event
	// MetricLabel is one name=value dimension on a labeled metric.
	MetricLabel = obs.Label
)

// NewMetrics creates an enabled metrics registry for Options.Obs.
func NewMetrics() *MetricsRegistry { return obs.New() }

// Label builds one metric label dimension.
func Label(key, value string) MetricLabel { return obs.L(key, value) }

// Statement-span trace events: a cheap always-on EvStmtStart/EvStmtEnd
// pair brackets every wire statement, and statements whose collection
// is armed (EXPLAIN ANALYZE or an active slow-query threshold) add
// plan, per-operator, and morsel-shape events — all keyed by the
// session registry's statement id for TRACE <stmt-id> replay.
const (
	// EvStmtStart opens a statement span.
	EvStmtStart = obs.EvStmtStart
	// EvStmtEnd closes a statement span with its outcome.
	EvStmtEnd = obs.EvStmtEnd
)

// Data type kinds.
const (
	// Int64 is a 64-bit integer column.
	Int64 = types.KindInt64
	// Float64 is a double-precision column.
	Float64 = types.KindFloat64
	// String is a variable-length string column.
	String = types.KindString
	// DateKind is a day-precision date column.
	DateKind = types.KindDate
	// BoolKind is a boolean column.
	BoolKind = types.KindBool
)

// Isolation levels (§1: "both transaction level snapshot isolation
// and statement level snapshot isolation").
const (
	// TxnSnapshot freezes one snapshot per transaction.
	TxnSnapshot = mvcc.TxnSnapshot
	// StmtSnapshot refreshes the snapshot per statement.
	StmtSnapshot = mvcc.StmtSnapshot
)

// Merge strategies (§4).
const (
	// MergeClassic is the full merge of §4.1.
	MergeClassic = core.MergeClassic
	// MergeResort is the re-sorting merge of §4.2.
	MergeResort = core.MergeResort
	// MergePartial is the passive/active partial merge of §4.3.
	MergePartial = core.MergePartial
)

// Comparison operators for Cmp.
const (
	// Eq is =.
	Eq = expr.OpEq
	// Gt is >.
	Gt = expr.OpGt
)

// Aggregate functions.
const (
	// Count counts rows.
	Count = engine.AggCount
	// Sum sums a column.
	Sum = engine.AggSum
)

// Errors.
var (
	// ErrDuplicateKey reports a primary-key violation.
	ErrDuplicateKey = core.ErrDuplicateKey
	// ErrWriteConflict reports a write-write conflict between
	// concurrent transactions.
	ErrWriteConflict = mvcc.ErrWriteConflict
	// ErrStatementTimeout reports a statement that exceeded its
	// wall-clock execution budget (match with errors.Is).
	ErrStatementTimeout = sql.ErrStatementTimeout
	// ErrBudgetExceeded reports a statement whose hash builds,
	// aggregation state, or decode caches overran its memory budget
	// (match with errors.Is).
	ErrBudgetExceeded = budget.ErrBudgetExceeded
)

// Open opens a database. With Options.Dir set it recovers from the
// last savepoint and redo log; with Options.AutoMerge the background
// scheduler propagates records through the life cycle automatically.
func Open(opts Options) (*DB, error) { return core.OpenDatabase(opts) }

// MustOpen is Open for programs that cannot continue without a
// database; it panics on error.
func MustOpen(opts Options) *DB {
	db, err := Open(opts)
	if err != nil {
		panic(err)
	}
	return db
}

// MustSchema builds and validates a statically known schema; key is
// the primary-key column ordinal (-1 for none). It panics on error.
func MustSchema(cols []Column, key int) *Schema { return types.MustSchema(cols, key) }

// Row builds a row from values.
func Row(vs ...Value) []Value { return vs }

// Value constructors.
var (
	// Int makes an INT64 value.
	Int = types.Int
	// Float makes a DOUBLE value.
	Float = types.Float
	// Str makes a VARCHAR value.
	Str = types.Str
	// Bool makes a BOOLEAN value.
	Bool = types.Bool
	// Date makes a DATE value from days since the Unix epoch.
	Date = types.Date
	// Null is SQL NULL.
	Null = types.Null
)

// SQL front end: a layered compiler (lexer → parser → typed AST →
// semantic check → planner) that lowers statements onto calculation
// graphs, with a plan cache keyed on normalized statement text.
type (
	// SQLEngine compiles and executes SQL against one database.
	SQLEngine = sql.Engine
	// SQLResult is the outcome of one SQL statement.
	SQLResult = sql.Result
	// SQLPrepared is a reusable compiled statement with ? parameters.
	SQLPrepared = sql.Prepared
	// SQLLimits bounds every statement an engine runs: wall-clock
	// timeout and memory budget.
	SQLLimits = sql.Limits
)

// NewSQLEngine returns a SQL engine over db; defaults seeds the
// TableConfig used by CREATE TABLE statements.
func NewSQLEngine(db *DB, defaults TableConfig) *SQLEngine { return sql.NewEngine(db, defaults) }

// WithMemBudget attaches a fresh memory meter of the given byte limit
// to the context: every scan, hash build, and aggregation running
// under the returned context charges it and fails with
// ErrBudgetExceeded on overrun. bytes <= 0 returns ctx unchanged.
func WithMemBudget(ctx context.Context, bytes int64) context.Context {
	if m := budget.NewMeter(bytes); m != nil {
		return budget.WithMeter(ctx, m)
	}
	return ctx
}

// RenderSQLRows formats SQL query output for line protocols.
func RenderSQLRows(rows [][]Value) []string { return sql.RenderRows(rows) }

// WithStmtID tags the context with a statement id; statement span
// events recorded under it carry the id for TRACE replay.
func WithStmtID(ctx context.Context, id string) context.Context { return sql.WithStmtID(ctx, id) }

// WithSlowQuery overrides the engine's slow-query threshold for
// statements run under the returned context (0 disables capture).
func WithSlowQuery(ctx context.Context, d time.Duration) context.Context {
	return sql.WithSlowQuery(ctx, d)
}

// NewGraph starts a calculation graph.
func NewGraph() *Graph { return calc.NewGraph() }

// ExecuteGraph validates, optimizes, and runs a calc graph, returning
// the materialized result of root.
func ExecuteGraph(g *Graph, root *Node, env Env) ([][]Value, error) {
	return calc.Execute(g, root, env)
}
