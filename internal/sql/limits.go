package sql

import (
	"context"
	"errors"
	"strings"
	"time"

	"repro/internal/mvcc"
	"repro/internal/types"
)

// ErrStatementTimeout is returned when a statement exceeds the
// engine's configured Timeout. It is the context cause of the
// per-statement deadline, so it survives the trip through the scan
// layers (which surface plain ctx.Err()) and comes back typed.
var ErrStatementTimeout = errors.New("sql: statement timeout")

// Limits bounds every statement the engine runs: a wall-clock timeout
// (0 = none) and a memory budget in bytes (0 = unlimited) charged
// against hash-join builds, aggregation state, and decode caches.
type Limits struct {
	Timeout  time.Duration
	MemBytes int64
}

// SetLimits installs l for subsequent statements. Safe for concurrent
// use with executions; in-flight statements keep the limits they
// started with.
func (e *Engine) SetLimits(l Limits) {
	e.mu.Lock()
	e.limits = l
	e.mu.Unlock()
}

// CurrentLimits returns the limits applied to new statements.
func (e *Engine) CurrentLimits() Limits {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.limits
}

// ExecCtx compiles and runs one statement. With tx == nil, queries
// read their own statement snapshot and DML autocommits; with a
// session transaction, everything runs inside it (multi-statement SQL
// in BEGIN/COMMIT sessions). Cancellation of ctx (e.g. a session KILL)
// stops table scans at batch granularity, and the engine's Limits are
// layered on top — a timeout surfaces as ErrStatementTimeout, a
// memory overrun as budget.ErrBudgetExceeded.
func (e *Engine) ExecCtx(ctx context.Context, tx *mvcc.Txn, text string, params ...types.Value) (*Result, error) {
	if rest, analyze, ok := CutExplain(text); ok {
		return e.explainResult(ctx, tx, rest, analyze, params)
	}
	cs, err := e.compile(text)
	if err != nil {
		return nil, err
	}
	return e.execLimited(ctx, tx, cs, params)
}

// explainResult runs EXPLAIN [ANALYZE] as a statement: the plan comes
// back as one result row per line under a single "plan" column.
func (e *Engine) explainResult(ctx context.Context, tx *mvcc.Txn, text string, analyze bool, params []types.Value) (*Result, error) {
	var plan string
	var err error
	if analyze {
		plan, _, err = e.ExplainAnalyzeCtx(ctx, tx, text, params...)
	} else {
		plan, err = e.Explain(text)
	}
	if err != nil {
		return nil, err
	}
	res := &Result{Cols: []string{"plan"}}
	for _, line := range strings.Split(strings.TrimRight(plan, "\n"), "\n") {
		res.Rows = append(res.Rows, []types.Value{types.Str(line)})
	}
	return res, nil
}

// ExecCtx runs the prepared statement under a context with the
// engine's Limits applied; see Engine.ExecCtx.
func (p *Prepared) ExecCtx(ctx context.Context, tx *mvcc.Txn, params ...types.Value) (*Result, error) {
	return p.eng.execLimited(ctx, tx, p.cs, params)
}

// execLimited runs one statement with the engine's limits applied and
// no explicit stats collection — execObserved still arms collection
// by itself when a slow-query threshold is active, so a statement
// that crosses the threshold lands in the slow log with actuals.
func (e *Engine) execLimited(ctx context.Context, tx *mvcc.Txn, cs *CompiledStmt, params []types.Value) (*Result, error) {
	return e.execObserved(ctx, tx, cs, params, nil)
}
