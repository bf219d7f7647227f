package sql

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/budget"
	"repro/internal/core"
	"repro/internal/obs"
)

// TestStatementTimeout proves a statement exceeding the engine's
// Timeout comes back as the typed ErrStatementTimeout, not a bare
// context error.
func TestStatementTimeout(t *testing.T) {
	e := ordersEngine(t, core.TableConfig{}, 5000)
	e.SetLimits(Limits{Timeout: time.Nanosecond})
	// An aggregation over the whole table cannot finish in a
	// nanosecond; the deadline fires inside the scan.
	_, err := e.ExecCtx(context.Background(), nil, "SELECT region, SUM(amount) FROM orders WHERE quantity >= 0 GROUP BY region")
	if !errors.Is(err, ErrStatementTimeout) {
		t.Fatalf("err = %v, want ErrStatementTimeout", err)
	}

	// Removing the limit restores normal execution.
	e.SetLimits(Limits{})
	if _, err := e.ExecCtx(context.Background(), nil, "SELECT region, SUM(amount) FROM orders GROUP BY region"); err != nil {
		t.Fatalf("after clearing limits: %v", err)
	}
}

// TestStatementMemBudget proves an aggregation whose state exceeds
// MemBytes fails with budget.ErrBudgetExceeded instead of completing.
func TestStatementMemBudget(t *testing.T) {
	e := ordersEngine(t, core.TableConfig{}, 2000)
	e.SetLimits(Limits{MemBytes: 256})
	// Grouping by customer creates several groups; each charges well
	// over 256 bytes of aggregate state. The predicate keeps the plan
	// on the hash aggregate; TestStatementLimitsUnfiltered covers the
	// fused kernel.
	_, err := e.ExecCtx(context.Background(), nil, "SELECT customer, COUNT(*), SUM(amount) FROM orders WHERE quantity >= 0 GROUP BY customer")
	if !errors.Is(err, budget.ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}

	// A generous budget admits the same statement.
	e.SetLimits(Limits{MemBytes: 64 << 20})
	if _, err := e.ExecCtx(context.Background(), nil, "SELECT customer, COUNT(*) FROM orders WHERE quantity >= 0 GROUP BY customer"); err != nil {
		t.Fatalf("with generous budget: %v", err)
	}
}

// TestStatementLimitsUnfiltered runs the timeout and budget checks on
// the unfiltered GROUP BY, which plans to the fused dictionary-code
// kernel on every scan-worker count: the kernel observes the
// statement's deadline and charges its accumulators to the budget
// before allocating them, with the rows in the L1-delta and again
// after a merge into main.
func TestStatementLimitsUnfiltered(t *testing.T) {
	e := ordersEngine(t, core.TableConfig{}, 2000)
	const q = "SELECT customer, COUNT(*), SUM(amount) FROM orders GROUP BY customer"
	parallel := e.db.Metrics().Counter("hana_parallel_scans_total", obs.L("table", "orders"))
	tab := e.db.Table("orders")
	for _, stage := range []string{"l1", "main"} {
		if stage == "main" {
			if _, err := tab.MergeL1(); err != nil {
				t.Fatal(err)
			}
			if _, err := tab.MergeMain(); err != nil {
				t.Fatal(err)
			}
			if st := tab.Stats(); st.MainRows != 2000 {
				t.Fatalf("merge left %+v", st)
			}
		}
		before := parallel.Value()
		e.SetLimits(Limits{Timeout: time.Nanosecond})
		if _, err := e.ExecCtx(context.Background(), nil, q); !errors.Is(err, ErrStatementTimeout) {
			t.Fatalf("%s: err = %v, want ErrStatementTimeout", stage, err)
		}
		e.SetLimits(Limits{MemBytes: 256})
		if _, err := e.ExecCtx(context.Background(), nil, q); !errors.Is(err, budget.ErrBudgetExceeded) {
			t.Fatalf("%s: err = %v, want ErrBudgetExceeded", stage, err)
		}
		e.SetLimits(Limits{Timeout: 10 * time.Second, MemBytes: 64 << 20})
		res, err := e.ExecCtx(context.Background(), nil, q)
		if err != nil {
			t.Fatalf("%s: with generous limits: %v", stage, err)
		}
		if len(res.Rows) != 7 {
			t.Fatalf("%s: %d groups, want 7", stage, len(res.Rows))
		}
		if after := parallel.Value(); after != before {
			t.Fatalf("%s: the unfiltered GROUP BY took the morsel-parallel hash path", stage)
		}
	}
}

// TestExecCtxKillCause proves a cancellation cause installed by the
// caller (the server's KILL path) surfaces from ExecCtx instead of a
// bare context.Canceled.
func TestExecCtxKillCause(t *testing.T) {
	e := ordersEngine(t, core.TableConfig{}, 100)
	errKilled := errors.New("killed by session 42")
	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(errKilled)
	_, err := e.ExecCtx(ctx, nil, "SELECT COUNT(*) FROM orders")
	if !errors.Is(err, errKilled) {
		t.Fatalf("err = %v, want the KILL cause", err)
	}
}

// TestExecCtxCancelMidScan proves cancellation arriving while a scan
// is in flight stops the statement with its cause.
func TestExecCtxCancelMidScan(t *testing.T) {
	e := ordersEngine(t, core.TableConfig{}, 5000)
	errKilled := errors.New("killed mid-scan")
	ctx, cancel := context.WithCancelCause(context.Background())
	done := make(chan error, 1)
	go func() {
		// Repeat until the cancel lands mid-statement.
		for {
			_, err := e.ExecCtx(ctx, nil,
				"SELECT region, SUM(amount) FROM orders WHERE quantity >= 0 GROUP BY region")
			if err != nil {
				done <- err
				return
			}
		}
	}()
	time.Sleep(2 * time.Millisecond)
	cancel(errKilled)
	select {
	case err := <-done:
		if !errors.Is(err, errKilled) {
			t.Fatalf("err = %v, want the KILL cause", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("statement did not observe cancellation")
	}
}

// TestDMLScanObservesCancel proves a predicate-scan DML statement
// (no point lookup) observes cancellation at its row stride.
func TestDMLScanObservesCancel(t *testing.T) {
	e := ordersEngine(t, core.TableConfig{}, 3000)
	errKilled := errors.New("killed DML")
	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(errKilled)
	_, err := e.ExecCtx(ctx, nil, "UPDATE orders SET quantity = quantity + 1 WHERE quantity >= 0")
	if !errors.Is(err, errKilled) {
		t.Fatalf("err = %v, want the KILL cause", err)
	}
}

// TestLimitsTimeoutLeavesFastStatementsAlone proves a sane timeout
// does not affect statements that finish in time.
func TestLimitsTimeoutLeavesFastStatementsAlone(t *testing.T) {
	e := ordersEngine(t, core.TableConfig{}, 50)
	e.SetLimits(Limits{Timeout: 10 * time.Second, MemBytes: 64 << 20})
	res, err := e.ExecCtx(context.Background(), nil, "SELECT COUNT(*) FROM orders")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].I != 50 {
		t.Fatalf("count = %v", res.Rows[0][0])
	}
}
