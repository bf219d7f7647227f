package sql

import (
	"context"
	"regexp"
	"strings"
	"testing"
	"time"
	"unicode/utf8"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/types"
)

func TestCutExplain(t *testing.T) {
	cases := []struct {
		in      string
		rest    string
		analyze bool
		ok      bool
	}{
		{"SELECT 1 FROM t", "SELECT 1 FROM t", false, false},
		{"EXPLAIN SELECT 1 FROM t", "SELECT 1 FROM t", false, true},
		{"explain analyze SELECT * FROM t", "SELECT * FROM t", true, true},
		{"  EXPLAIN\tANALYZE\n DELETE FROM t", "DELETE FROM t", true, true},
		{"EXPLAIN", "", false, true},
		{"EXPLAIN ANALYZE", "", true, true},
		{"EXPLAINS SELECT 1", "EXPLAINS SELECT 1", false, false},
		{"EXPLAIN ANALYZER things", "ANALYZER things", false, true},
	}
	for _, c := range cases {
		rest, analyze, ok := CutExplain(c.in)
		if rest != c.rest || analyze != c.analyze || ok != c.ok {
			t.Errorf("CutExplain(%q) = (%q, %v, %v), want (%q, %v, %v)",
				c.in, rest, analyze, ok, c.rest, c.analyze, c.ok)
		}
	}
}

// rowsAt extracts the rows=N actual from the plan line matching the
// marker, failing if the line is missing or unannotated.
func rowsAt(t *testing.T, plan, marker string) int {
	t.Helper()
	re := regexp.MustCompile(`rows=(\d+)`)
	for _, line := range strings.Split(plan, "\n") {
		if !strings.Contains(line, marker) {
			continue
		}
		m := re.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("plan line for %q has no rows= actual: %q", marker, line)
		}
		var n int
		for _, ch := range m[1] {
			n = n*10 + int(ch-'0')
		}
		return n
	}
	t.Fatalf("no plan line matches %q:\n%s", marker, plan)
	return 0
}

// TestExplainAnalyzeOracle pins the per-operator actual row counts of
// EXPLAIN ANALYZE against a seeded table where the correct numbers are
// computable by hand: 30 rows, quantity = i%5 (so 24 rows have
// quantity >= 1), 3 regions.
func TestExplainAnalyzeOracle(t *testing.T) {
	e := ordersEngine(t, core.TableConfig{}, 30)

	plan, res, err := e.ExplainAnalyzeCtx(context.Background(), nil,
		"SELECT region, COUNT(*) FROM orders WHERE quantity >= 1 GROUP BY region")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("result rows = %d, want 3", len(res.Rows))
	}
	if got := rowsAt(t, plan, "table(orders)"); got != 24 {
		t.Errorf("scan actual rows = %d, want 24 (plan:\n%s)", got, plan)
	}
	if got := rowsAt(t, plan, "aggregate("); got != 3 {
		t.Errorf("aggregate actual rows = %d, want 3 (plan:\n%s)", got, plan)
	}

	// The analyzed plan must be shape-congruent with the static plan:
	// stripping the annotations yields EXPLAIN's exact output.
	static, err := e.Explain("SELECT region, COUNT(*) FROM orders WHERE quantity >= 1 GROUP BY region")
	if err != nil {
		t.Fatal(err)
	}
	if got := stripActuals(plan); got != strings.TrimRight(static, "\n") {
		t.Errorf("analyzed plan shape diverged:\n--- analyzed (stripped) ---\n%s\n--- static ---\n%s", got, static)
	}

	// The unfiltered GROUP BY runs on the fused code-domain aggregate,
	// which has no scan operator: the table node still reports the
	// rows the kernel read.
	plan, _, err = e.ExplainAnalyzeCtx(context.Background(), nil, "SELECT region, COUNT(*) FROM orders GROUP BY region")
	if err != nil {
		t.Fatal(err)
	}
	if got := rowsAt(t, plan, "table(orders)"); got != 30 {
		t.Errorf("fused scan actual rows = %d, want 30 (plan:\n%s)", got, plan)
	}
	if got := rowsAt(t, plan, "aggregate("); got != 3 {
		t.Errorf("fused aggregate actual rows = %d, want 3 (plan:\n%s)", got, plan)
	}

	// Total aggregate over the full table: 30 in, 1 out.
	plan, _, err = e.ExplainAnalyzeCtx(context.Background(), nil, "SELECT COUNT(*) FROM orders")
	if err != nil {
		t.Fatal(err)
	}
	if got := rowsAt(t, plan, "table(orders)"); got != 30 {
		t.Errorf("full-scan actual rows = %d, want 30 (plan:\n%s)", got, plan)
	}
	if got := rowsAt(t, plan, "aggregate("); got != 1 {
		t.Errorf("total aggregate rows = %d, want 1 (plan:\n%s)", got, plan)
	}
}

// TestMixedSQLExplainAnalyze covers the mixed OLTP/OLAP workload's
// statement classes — the region scan-aggregate, the point read, the
// full-row update and the delete — over a merged main with a live
// delta: each stats tree is congruent with the static plan line for
// line, every line carries an annotation (actuals, not executed, or
// shared) and at least one carries actuals. Zero binds on both sides
// compare like with like.
func TestMixedSQLExplainAnalyze(t *testing.T) {
	e := ordersEngine(t, core.TableConfig{}, 30)
	tab := e.db.Table("orders")
	if _, err := tab.MergeL1(); err != nil {
		t.Fatal(err)
	}
	if _, err := tab.MergeMain(); err != nil {
		t.Fatal(err)
	}
	mustExec(t, e, nil, "INSERT INTO orders VALUES (30, 'cust-2', 'EMEA', 3, 45.5)")
	zs, zi := types.Str(""), types.Int(0)
	for _, c := range []struct {
		text string
		args []types.Value
	}{
		{"SELECT region, COUNT(*), SUM(quantity), SUM(amount) FROM orders GROUP BY region", nil},
		{"SELECT id FROM orders WHERE id = ?", []types.Value{zi}},
		{"UPDATE orders SET customer = ?, region = ?, quantity = ?, amount = ? WHERE id = ?",
			[]types.Value{zs, zs, zi, types.Float(0), zi}},
		{"DELETE FROM orders WHERE id = ?", []types.Value{zi}},
	} {
		static, err := e.Explain(c.text)
		if err != nil {
			t.Fatalf("%s: %v", c.text, err)
		}
		analyzed, _, err := e.ExplainAnalyzeCtx(context.Background(), nil, c.text, c.args...)
		if err != nil {
			t.Fatalf("%s: %v", c.text, err)
		}
		if got := stripActuals(analyzed); got != strings.TrimRight(static, "\n") {
			t.Errorf("%s: stats tree diverged from the plan:\n--- analyzed (stripped) ---\n%s\n--- static ---\n%s",
				c.text, got, static)
		}
		for _, line := range strings.Split(strings.TrimRight(analyzed, "\n"), "\n") {
			if stripActuals(line) == line && !strings.HasSuffix(line, "(shared)") {
				t.Errorf("%s: plan line carries no annotation: %q", c.text, line)
			}
		}
		if !strings.Contains(analyzed, " (actual: ") {
			t.Errorf("%s: no operator reported actuals:\n%s", c.text, analyzed)
		}
	}
}

// stripActuals removes the (actual: ...) / (not executed) annotations
// EXPLAIN ANALYZE appends, recovering the static plan shape.
func stripActuals(plan string) string {
	var out []string
	for _, line := range strings.Split(strings.TrimRight(plan, "\n"), "\n") {
		if i := strings.Index(line, " (actual: "); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSuffix(line, " (not executed)")
		out = append(out, line)
	}
	return strings.Join(out, "\n")
}

// TestExplainViaExec: the EXPLAIN [ANALYZE] prefix is a statement —
// ExecCtx intercepts it and returns the plan as a one-column result.
func TestExplainViaExec(t *testing.T) {
	e := ordersEngine(t, core.TableConfig{}, 12)

	res, err := e.ExecCtx(context.Background(), nil, "EXPLAIN SELECT id FROM orders WHERE id < 4")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cols) != 1 || res.Cols[0] != "plan" {
		t.Fatalf("EXPLAIN cols = %v", res.Cols)
	}
	if len(res.Rows) == 0 || !strings.Contains(res.Rows[0][0].S, "#") {
		t.Fatalf("EXPLAIN rows = %v", res.Rows)
	}
	for _, row := range res.Rows {
		if strings.Contains(row[0].S, "(actual:") {
			t.Fatalf("plain EXPLAIN leaked actuals: %q", row[0].S)
		}
	}

	res, err = e.ExecCtx(context.Background(), nil, "EXPLAIN ANALYZE SELECT id FROM orders WHERE id < 4")
	if err != nil {
		t.Fatal(err)
	}
	joined := ""
	for _, row := range res.Rows {
		joined += row[0].S + "\n"
	}
	if !strings.Contains(joined, "(actual:") {
		t.Fatalf("EXPLAIN ANALYZE missing actuals:\n%s", joined)
	}
	if got := rowsAt(t, joined, "table(orders)"); got != 4 {
		t.Errorf("EXPLAIN ANALYZE scan rows = %d, want 4:\n%s", got, joined)
	}

	// Bad inner SQL surfaces as a compile error, not a panic or an
	// empty plan.
	if _, err := e.ExecCtx(context.Background(), nil, "EXPLAIN SELEKT 1"); err == nil {
		t.Fatal("EXPLAIN with bad SQL did not error")
	}
}

// TestStmtSpans: an analyzed statement under a statement id emits the
// plan/operator span events keyed by that id.
func TestStmtSpans(t *testing.T) {
	e := ordersEngine(t, core.TableConfig{}, 30)
	ctx := WithStmtID(context.Background(), "7.3")
	if _, _, err := e.ExplainAnalyzeCtx(ctx, nil,
		"SELECT region, COUNT(*) FROM orders GROUP BY region"); err != nil {
		t.Fatal(err)
	}
	events := e.db.Metrics().Events(0)
	var sawPlan, sawOp bool
	for _, ev := range events {
		if ev.Stmt != "7.3" {
			continue
		}
		switch ev.Kind {
		case obs.EvStmtPlan:
			sawPlan = true
		case obs.EvStmtOp:
			sawOp = true
			if !strings.Contains(ev.Detail, "rows=") {
				t.Errorf("stmt-op event missing actuals: %+v", ev)
			}
		}
	}
	if !sawPlan || !sawOp {
		t.Fatalf("missing span events (plan=%v op=%v) in %d events", sawPlan, sawOp, len(events))
	}
}

// TestSlowQueryCapture: with a 1ns threshold every statement is slow;
// the ring records SQL text, outcome, result sizes, a plan with
// actuals, and the counter ticks.
func TestSlowQueryCapture(t *testing.T) {
	e := ordersEngine(t, core.TableConfig{}, 30)
	e.SetSlowQuery(time.Nanosecond)

	res, err := e.ExecCtx(context.Background(), nil, "SELECT COUNT(*) FROM orders")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].I != 30 {
		t.Fatalf("count = %v", res.Rows[0][0])
	}

	log := e.SlowLog(0)
	if len(log) != 1 {
		t.Fatalf("slow log has %d entries, want 1: %+v", len(log), log)
	}
	got := log[0]
	// The engine captures the normalized statement text.
	if !strings.EqualFold(got.SQL, "SELECT COUNT(*) FROM orders") {
		t.Errorf("captured SQL = %q", got.SQL)
	}
	if got.Outcome != "ok" || got.Rows != 1 || got.Dur <= 0 {
		t.Errorf("entry = %+v", got)
	}
	if !strings.Contains(got.Plan, "(actual:") || !strings.Contains(got.Plan, "rows=30") {
		t.Errorf("captured plan missing actuals:\n%s", got.Plan)
	}

	var ctr float64 = -1
	for _, m := range e.db.Metrics().Snapshot() {
		if m.Name == "hana_sql_slow_queries_total" {
			ctr = m.Value
		}
	}
	if ctr != 1 {
		t.Errorf("hana_sql_slow_queries_total = %v, want 1", ctr)
	}

	// SlowLog(n) trims to the most recent n.
	if _, err := e.ExecCtx(context.Background(), nil, "SELECT COUNT(*) FROM orders WHERE id < 5"); err != nil {
		t.Fatal(err)
	}
	if tail := e.SlowLog(1); len(tail) != 1 || !strings.Contains(tail[0].SQL, "id < 5") {
		t.Errorf("SlowLog(1) = %+v", tail)
	}
}

// TestSlowQueryOverride: the per-context threshold wins over the
// engine default in both directions, and an explicit 0 disables
// capture entirely.
func TestSlowQueryOverride(t *testing.T) {
	e := ordersEngine(t, core.TableConfig{}, 10)

	// Engine threshold armed, session disables.
	e.SetSlowQuery(time.Nanosecond)
	off := WithSlowQuery(context.Background(), 0)
	if _, err := e.ExecCtx(off, nil, "SELECT COUNT(*) FROM orders"); err != nil {
		t.Fatal(err)
	}
	if log := e.SlowLog(0); len(log) != 0 {
		t.Fatalf("capture despite session override 0: %+v", log)
	}

	// Engine off, session arms.
	e.SetSlowQuery(0)
	on := WithSlowQuery(context.Background(), time.Nanosecond)
	if _, err := e.ExecCtx(on, nil, "SELECT COUNT(*) FROM orders"); err != nil {
		t.Fatal(err)
	}
	if log := e.SlowLog(0); len(log) != 1 {
		t.Fatalf("session override 1ns captured %d entries, want 1", len(log))
	}

	// Session threshold high enough that nothing qualifies.
	quiet := WithSlowQuery(context.Background(), time.Hour)
	if _, err := e.ExecCtx(quiet, nil, "SELECT COUNT(*) FROM orders"); err != nil {
		t.Fatal(err)
	}
	if log := e.SlowLog(0); len(log) != 1 {
		t.Fatalf("hour threshold captured extra entries: %+v", log)
	}
}

// TestSlowQueryDML: a captured DML statement carries the annotated
// one-line plan with its affected count.
func TestSlowQueryDML(t *testing.T) {
	e := ordersEngine(t, core.TableConfig{}, 10)
	e.SetSlowQuery(time.Nanosecond)
	res, err := e.ExecCtx(context.Background(), nil,
		"UPDATE orders SET quantity = quantity + 1 WHERE region = ?", types.Str("EMEA"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Affected == 0 {
		t.Fatal("update affected nothing")
	}
	log := e.SlowLog(0)
	if len(log) != 1 {
		t.Fatalf("slow log = %+v", log)
	}
	if log[0].Affected != res.Affected {
		t.Errorf("captured affected = %d, want %d", log[0].Affected, res.Affected)
	}
	want := "(actual: affected="
	if !strings.Contains(log[0].Plan, want) {
		t.Errorf("DML plan missing %q:\n%s", want, log[0].Plan)
	}
}

// TestSlowQueryTextTruncated: the ring stores at most slowSQLCap
// bytes of statement text, cut on a rune boundary — a bulk
// multi-VALUES insert must not park megabytes in the log.
func TestSlowQueryTextTruncated(t *testing.T) {
	e := ordersEngine(t, core.TableConfig{}, 5)
	e.SetSlowQuery(time.Nanosecond)
	// Pad the statement past the cap with a multi-byte rune so the cut
	// point lands mid-rune unless the truncation backs off correctly.
	pad := strings.Repeat("é", slowSQLCap)
	stmt := "SELECT COUNT(*) FROM orders WHERE region <> '" + pad + "'"
	if _, err := e.ExecCtx(context.Background(), nil, stmt); err != nil {
		t.Fatal(err)
	}
	log := e.SlowLog(0)
	if len(log) != 1 {
		t.Fatalf("slow log = %d entries", len(log))
	}
	got := log[0].SQL
	if len(got) > slowSQLCap+len("…") {
		t.Errorf("captured SQL is %d bytes, cap is %d", len(got), slowSQLCap)
	}
	if !strings.HasSuffix(got, "…") {
		t.Errorf("truncated SQL missing ellipsis: %q", got[len(got)-8:])
	}
	if !utf8.ValidString(got) {
		t.Errorf("truncation split a rune: %q", got[len(got)-8:])
	}
}

// TestExplainAnalyzeTimeout: an analyzed statement that dies on the
// statement timeout still returns a plan, annotated up to the point
// the cancellation landed.
func TestExplainAnalyzeTimeout(t *testing.T) {
	e := ordersEngine(t, core.TableConfig{}, 50)
	e.SetLimits(Limits{Timeout: time.Nanosecond})
	defer e.SetLimits(Limits{})
	plan, _, err := e.ExplainAnalyzeCtx(context.Background(), nil, "SELECT COUNT(*) FROM orders")
	if err == nil {
		t.Fatal("expected a timeout")
	}
	if plan == "" {
		t.Fatal("timeout lost the plan entirely")
	}
}
