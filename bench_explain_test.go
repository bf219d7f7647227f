// Per-operator stats overhead gate (the EXPLAIN ANALYZE companion to
// E14): the OpStats plumbing rides inside every batch operator, so the
// repo carries a measurement proving the 1M-row scan-aggregate stays
// within 2% of the collection-off baseline even when every operator's
// actuals are being gathered — and, a fortiori, that the nil-check
// path taken when ANALYZE is off costs nothing measurable.
package hana_test

import (
	"context"
	"os"
	"testing"
	"time"

	hana "repro"
)

// TestExplainStatsOverhead runs the grouped scan-aggregate through
// the SQL engine on the plain path (no collection: every operator's
// Stats pointer is nil) and under EXPLAIN ANALYZE (stats tree armed,
// every operator recording), and fails if the armed path exceeds the
// plain path by more than 2% (see overheadGate for the estimator).
// Gated on OBS_BENCH so plain `go test ./...` stays fast.
func TestExplainStatsOverhead(t *testing.T) {
	if os.Getenv("OBS_BENCH") == "" {
		t.Skip("set OBS_BENCH=1 (or run `make obs-bench`) for the overhead measurement")
	}
	const rows = 1_000_000
	db, _ := e14Fixture("explainov", rows, nil)
	defer db.Close()
	eng := hana.NewSQLEngine(db, hana.TableConfig{})
	const query = "SELECT region, COUNT(*), SUM(amount) FROM explainov GROUP BY region"
	ctx := context.Background()

	execOff := func() time.Duration {
		start := time.Now()
		res, err := eng.ExecCtx(ctx, nil, query)
		if err != nil {
			t.Fatal(err)
		}
		d := time.Since(start)
		if len(res.Rows) == 0 {
			t.Fatal("empty aggregate")
		}
		return d
	}
	execOn := func() time.Duration {
		start := time.Now()
		plan, res, err := eng.ExplainAnalyzeCtx(ctx, nil, query)
		if err != nil {
			t.Fatal(err)
		}
		d := time.Since(start)
		if len(res.Rows) == 0 || plan == "" {
			t.Fatal("empty analyzed aggregate")
		}
		return d
	}
	overheadGate(t, "explain-stats: 1M-row scan-aggregate, plain vs analyzed", execOff, execOn)
}
