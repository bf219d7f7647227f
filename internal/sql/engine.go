package sql

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/calc"
	"repro/internal/core"
	"repro/internal/mvcc"
	"repro/internal/obs"
	"repro/internal/types"
)

// maxCachedPlans bounds the plan cache; past it an arbitrary entry is
// evicted (statement sets in practice are tiny compared to this).
const maxCachedPlans = 1024

// Engine compiles and runs SQL against one database. It is safe for
// concurrent use: the cache holds immutable CompiledStmts and every
// execution plans its own calc graph (calc.Optimize mutates graphs in
// place, so graphs are never shared).
type Engine struct {
	db       *core.Database
	defaults core.TableConfig

	mu         sync.Mutex
	cache      map[string]*CompiledStmt
	limits     Limits
	slowThresh time.Duration

	slowLog slowRing

	hits    *obs.Counter
	misses  *obs.Counter
	slowCtr *obs.Counter
}

// NewEngine returns an engine over db. defaults seeds the TableConfig
// of CREATE TABLE statements (Name and Schema are overwritten per
// statement; merge thresholds, scan workers, etc. carry over).
func NewEngine(db *core.Database, defaults core.TableConfig) *Engine {
	reg := db.Metrics()
	return &Engine{
		db:       db,
		defaults: defaults,
		cache:    make(map[string]*CompiledStmt),
		hits:     reg.Counter("hana_sql_plan_cache_hits_total"),
		misses:   reg.Counter("hana_sql_plan_cache_misses_total"),
		slowCtr:  reg.Counter("hana_sql_slow_queries_total"),
	}
}

// Result is the outcome of one statement.
type Result struct {
	// Cols names the result columns (nil for DML).
	Cols []string
	// Rows holds query output.
	Rows [][]types.Value
	// Affected counts rows written by DML.
	Affected int
}

// CacheStats reports plan-cache hit/miss totals and current size.
func (e *Engine) CacheStats() (hits, misses uint64, size int) {
	e.mu.Lock()
	size = len(e.cache)
	e.mu.Unlock()
	return e.hits.Value(), e.misses.Value(), size
}

// compile returns the cached compiled form of text, parsing and
// checking it on a miss. The cache key is the normalized text, so
// casing and whitespace variants share one entry.
func (e *Engine) compile(text string) (*CompiledStmt, error) {
	key := Normalize(text)
	e.mu.Lock()
	if cs, ok := e.cache[key]; ok {
		e.mu.Unlock()
		e.hits.Inc()
		return cs, nil
	}
	e.mu.Unlock()
	e.misses.Inc()
	stmt, err := Parse(text)
	if err != nil {
		return nil, err
	}
	cs, err := Check(stmt, e.db)
	if err != nil {
		return nil, err
	}
	// DDL is never cached: its effect (the table existing) changes
	// what a re-check would produce, and it runs once.
	if _, ddl := stmt.(*CreateTableStmt); !ddl {
		e.mu.Lock()
		if len(e.cache) >= maxCachedPlans {
			for k := range e.cache {
				delete(e.cache, k)
				break
			}
		}
		e.cache[key] = cs
		e.mu.Unlock()
	}
	return cs, nil
}

// Prepared is a reusable handle to a compiled statement.
type Prepared struct {
	cs  *CompiledStmt
	eng *Engine
}

// Prepare compiles text for repeated execution with parameters.
func (e *Engine) Prepare(text string) (*Prepared, error) {
	cs, err := e.compile(text)
	if err != nil {
		return nil, err
	}
	return &Prepared{cs: cs, eng: e}, nil
}

// NumParams returns the number of ? placeholders.
func (p *Prepared) NumParams() int { return p.cs.NumParams }

// ParamKinds returns the inferred placeholder kinds in lexical order.
func (p *Prepared) ParamKinds() []types.Kind { return p.cs.ParamKinds }

func (e *Engine) execCompiled(ctx context.Context, tx *mvcc.Txn, cs *CompiledStmt, params []types.Value, so *stmtObs) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	binds, err := bindParams(cs, params)
	if err != nil {
		return nil, err
	}
	switch s := cs.Stmt.(type) {
	case *SelectStmt:
		return e.execQuery(ctx, tx, cs, binds, so)
	case *InsertStmt:
		return e.autocommit(tx, func(tx *mvcc.Txn) (*Result, error) {
			return e.execInsert(tx, cs, s, binds)
		})
	case *UpdateStmt:
		return e.autocommit(tx, func(tx *mvcc.Txn) (*Result, error) {
			return e.execUpdate(ctx, tx, cs, s, binds)
		})
	case *DeleteStmt:
		return e.autocommit(tx, func(tx *mvcc.Txn) (*Result, error) {
			return e.execDelete(ctx, tx, cs, s, binds)
		})
	case *CreateTableStmt:
		return e.execCreate(s)
	}
	return nil, fmt.Errorf("sql: unsupported statement")
}

// bindParams validates arity and coerces each value to the inferred
// placeholder kind (int widens to float, int/string convert to date).
func bindParams(cs *CompiledStmt, params []types.Value) ([]types.Value, error) {
	if len(params) != cs.NumParams {
		return nil, fmt.Errorf("sql: statement wants %d parameters, got %d", cs.NumParams, len(params))
	}
	if cs.NumParams == 0 {
		return nil, nil
	}
	binds := make([]types.Value, len(params))
	for i, v := range params {
		want := cs.ParamKinds[i]
		switch {
		case v.IsNull() || v.Kind == want:
			binds[i] = v
		case want == types.KindFloat64 && v.Kind == types.KindInt64:
			binds[i] = types.Float(float64(v.I))
		case want == types.KindDate && v.Kind == types.KindInt64:
			binds[i] = types.Date(v.I)
		case want == types.KindDate && v.Kind == types.KindString:
			lit := Expr(&Literal{Val: v})
			if err := (&checker{}).toDate(&lit); err != nil {
				return nil, err
			}
			binds[i] = lit.(*Literal).Val
		default:
			return nil, fmt.Errorf("sql: parameter %d wants %v, got %v", i+1, want, v.Kind)
		}
	}
	return binds, nil
}

// autocommit wraps DML: a nil session transaction gets a fresh one
// committed on success and aborted on error.
func (e *Engine) autocommit(tx *mvcc.Txn, fn func(*mvcc.Txn) (*Result, error)) (*Result, error) {
	if tx != nil {
		return fn(tx)
	}
	own := e.db.Begin(mvcc.TxnSnapshot)
	res, err := fn(own)
	if err != nil {
		e.db.Abort(own)
		return nil, err
	}
	if err := e.db.Commit(own); err != nil {
		return nil, err
	}
	return res, nil
}

func (e *Engine) execQuery(ctx context.Context, tx *mvcc.Txn, cs *CompiledStmt, binds []types.Value, so *stmtObs) (*Result, error) {
	if tx == nil {
		// Statement-level snapshot for standalone reads.
		own := e.db.Begin(mvcc.StmtSnapshot)
		defer e.db.Abort(own)
		tx = own
	}
	g := calc.NewGraph()
	root, err := buildQuery(cs, g, binds)
	if err != nil {
		return nil, err
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("sql: internal plan error: %w", err)
	}
	g.Optimize()
	env := calc.Env{Txn: tx, Ctx: ctx}
	var qs *calc.QueryStats
	if so != nil {
		qs = calc.NewQueryStats()
		env.Stats = qs
	}
	rows, err := calc.Execute(g, root, env)
	if so != nil {
		// Render even on error: a killed or timed-out statement keeps
		// the actuals it accumulated up to the cancellation point.
		so.plan = g.ExplainAnalyze(root, qs)
		so.lines = g.StatsLines(root, qs)
	}
	if err != nil {
		return nil, err
	}
	return &Result{Cols: cs.OutCols, Rows: rows}, nil
}

// Explain returns the optimized plan of a statement: the calc-graph
// rendering for queries, a one-line description for DML. Parameters
// are bound to zero values of their inferred kinds.
func (e *Engine) Explain(text string) (string, error) {
	cs, err := e.compile(text)
	if err != nil {
		return "", err
	}
	return e.staticPlan(cs, zeroBinds(cs))
}

// staticPlan renders the optimized plan without executing.
func (e *Engine) staticPlan(cs *CompiledStmt, binds []types.Value) (string, error) {
	switch s := cs.Stmt.(type) {
	case *SelectStmt:
		g := calc.NewGraph()
		root, err := buildQuery(cs, g, binds)
		if err != nil {
			return "", err
		}
		if err := g.Validate(); err != nil {
			return "", err
		}
		g.Optimize()
		return g.Explain(root), nil
	case *InsertStmt:
		return fmt.Sprintf("Insert[%s] rows=%d", s.Table, len(s.Rows)), nil
	case *UpdateStmt:
		return "Update[" + s.Table + "] " + dmlAccess(cs, s.Where, binds), nil
	case *DeleteStmt:
		return "Delete[" + s.Table + "] " + dmlAccess(cs, s.Where, binds), nil
	case *CreateTableStmt:
		return "CreateTable[" + s.Table + "]", nil
	}
	return "", fmt.Errorf("sql: unsupported statement")
}

// dmlAccess describes how UPDATE/DELETE locates its rows: a point
// lookup on the primary key or a predicate scan.
func dmlAccess(cs *CompiledStmt, where Expr, binds []types.Value) string {
	key := cs.table.Schema().Key
	if _, ok := keyPoint(where, key, binds); ok {
		return "point"
	}
	if where == nil {
		return "scan all"
	}
	pred, err := lowerPred(where, binds, 0)
	if err != nil {
		return "scan"
	}
	return "scan " + pred.String()
}

func zeroOf(k types.Kind) types.Value {
	switch k {
	case types.KindInt64:
		return types.Int(0)
	case types.KindFloat64:
		return types.Float(0)
	case types.KindString:
		return types.Str("")
	case types.KindDate:
		return types.Date(0)
	case types.KindBool:
		return types.Bool(false)
	}
	return types.Null
}

// ---- DML execution ----

func (e *Engine) execInsert(tx *mvcc.Txn, cs *CompiledStmt, s *InsertStmt, binds []types.Value) (*Result, error) {
	schema := cs.table.Schema()
	rows := make([][]types.Value, len(s.Rows))
	for ri, src := range s.Rows {
		row := make([]types.Value, schema.NumColumns())
		for i := range row {
			row[i] = types.Null
		}
		for i, valExpr := range src {
			v, ok := constEval(valExpr, binds)
			if !ok {
				return nil, fmt.Errorf("sql: INSERT value %s is not constant", valExpr)
			}
			row[s.colIdx[i]] = v
		}
		rows[ri] = row
	}
	if len(rows) == 1 {
		if _, err := cs.table.Insert(tx, rows[0]); err != nil {
			return nil, err
		}
	} else {
		if _, err := cs.table.BulkInsert(tx, rows); err != nil {
			return nil, err
		}
	}
	return &Result{Affected: len(rows)}, nil
}

// keyPoint reports whether where is a point predicate on the primary
// key (key = const) and returns the key value.
func keyPoint(where Expr, keyIdx int, binds []types.Value) (types.Value, bool) {
	eq, ok := where.(*Binary)
	if !ok || eq.Op != "=" {
		return types.Null, false
	}
	if ref, ok := eq.L.(*ColumnRef); ok && ref.idx == keyIdx {
		if v, ok := constEval(eq.R, binds); ok {
			return v, true
		}
	}
	if ref, ok := eq.R.(*ColumnRef); ok && ref.idx == keyIdx {
		if v, ok := constEval(eq.L, binds); ok {
			return v, true
		}
	}
	return types.Null, false
}

// matchRows collects the (key, row) pairs satisfying where under tx's
// view. Matches are materialized before any mutation so UPDATE/DELETE
// never chase their own writes (the Halloween problem). Predicate
// scans observe ctx at a row stride so a KILL or timeout stops a
// table-wide DML scan mid-flight.
func matchRows(ctx context.Context, tx *mvcc.Txn, tab *core.Table, where Expr, binds []types.Value) ([]core.Match, error) {
	v := tab.View(tx)
	defer v.Close()
	if key, ok := keyPoint(where, tab.Schema().Key, binds); ok {
		if m := v.Get(key); m != nil {
			return []core.Match{{ID: m.ID, Row: types.CloneRow(m.Row)}}, nil
		}
		return nil, nil
	}
	var pred interface {
		Eval(row []types.Value) bool
	}
	if where != nil {
		p, err := lowerPred(where, binds, 0)
		if err != nil {
			return nil, err
		}
		pred = p
	}
	var out []core.Match
	var scanErr error
	seen := 0
	v.ScanAll(func(id types.RowID, row []types.Value) bool {
		if seen++; seen%1024 == 0 {
			if err := ctx.Err(); err != nil {
				scanErr = err
				return false
			}
		}
		if pred == nil || pred.Eval(row) {
			out = append(out, core.Match{ID: id, Row: types.CloneRow(row)})
		}
		return true
	})
	if scanErr != nil {
		return nil, scanErr
	}
	return out, nil
}

func (e *Engine) execUpdate(ctx context.Context, tx *mvcc.Txn, cs *CompiledStmt, s *UpdateStmt, binds []types.Value) (*Result, error) {
	matches, err := matchRows(ctx, tx, cs.table, s.Where, binds)
	if err != nil {
		return nil, err
	}
	key := cs.table.Schema().Key
	env := &evalEnv{
		binds: binds,
		col:   func(ref *ColumnRef, row []types.Value) types.Value { return row[ref.idx] },
	}
	for _, m := range matches {
		newRow := types.CloneRow(m.Row)
		for _, set := range s.Sets {
			// SET expressions see the pre-update row, per SQL semantics.
			v, err := evalScalar(set.Val, m.Row, env)
			if err != nil {
				return nil, err
			}
			newRow[set.idx] = v
		}
		if _, err := cs.table.UpdateKey(tx, m.Row[key], newRow); err != nil {
			return nil, err
		}
	}
	return &Result{Affected: len(matches)}, nil
}

func (e *Engine) execDelete(ctx context.Context, tx *mvcc.Txn, cs *CompiledStmt, s *DeleteStmt, binds []types.Value) (*Result, error) {
	matches, err := matchRows(ctx, tx, cs.table, s.Where, binds)
	if err != nil {
		return nil, err
	}
	key := cs.table.Schema().Key
	affected := 0
	for _, m := range matches {
		n, err := cs.table.DeleteKey(tx, m.Row[key])
		if err != nil {
			return nil, err
		}
		affected += n
	}
	return &Result{Affected: affected}, nil
}

func (e *Engine) execCreate(s *CreateTableStmt) (*Result, error) {
	key := -1
	cols := make([]types.Column, len(s.Cols))
	for i, c := range s.Cols {
		if c.PrimaryKey {
			key = i
		}
		cols[i] = types.Column{Name: c.Name, Kind: c.Kind, Nullable: c.Nullable && !c.PrimaryKey}
	}
	schema, err := types.NewSchema(cols, key)
	if err != nil {
		return nil, err
	}
	cfg := e.defaults
	cfg.Name = s.Table
	cfg.Schema = schema
	if _, err := e.db.CreateTable(cfg); err != nil {
		return nil, err
	}
	return &Result{}, nil
}

// RenderRows formats query output rows for line protocols: one line
// per row, values separated by a single space (strings with spaces
// are single-quoted).
func RenderRows(rows [][]types.Value) []string {
	out := make([]string, len(rows))
	for i, row := range rows {
		parts := make([]string, len(row))
		for j, v := range row {
			s := v.String()
			if v.Kind == types.KindString && (s == "" || strings.ContainsAny(s, " '")) {
				s = "'" + strings.ReplaceAll(s, "'", "\\'") + "'"
			}
			parts[j] = s
		}
		out[i] = strings.Join(parts, " ")
	}
	return out
}
