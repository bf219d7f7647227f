package main

import (
	"fmt"
	"regexp"
	"strings"
	"testing"
	"time"
)

// wireRows extracts the rows=N actual from the first response line
// matching the marker.
func wireRows(t *testing.T, lines []string, marker string) int {
	t.Helper()
	re := regexp.MustCompile(`rows=(\d+)`)
	for _, line := range lines {
		if !strings.Contains(line, marker) {
			continue
		}
		m := re.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("line for %q has no rows= actual: %q", marker, line)
		}
		n := 0
		for _, ch := range m[1] {
			n = n*10 + int(ch-'0')
		}
		return n
	}
	t.Fatalf("no line matches %q:\n%s", marker, strings.Join(lines, "\n"))
	return 0
}

// TestWireExplainAnalyzeOracle is the pinned acceptance oracle: the
// wire EXPLAIN ANALYZE must report per-operator actual row counts
// matching hand-computed values on a seeded table. lifecycleServer
// seeds quantity = i%7, so of 35 rows exactly 30 have quantity >= 1,
// landing in 3 region groups.
func TestWireExplainAnalyzeOracle(t *testing.T) {
	addr, _, _ := lifecycleServer(t, 35, serverOptions{})
	conn, sc := dialLine(t, addr)
	defer conn.Close()

	const query = "SELECT region, COUNT(*) FROM orders WHERE quantity >= 1 GROUP BY region"

	// Static EXPLAIN: a plan with no actuals.
	static := roundTripLine(t, conn, sc, "EXPLAIN "+query)
	if static[len(static)-1] != "END" || len(static) < 2 {
		t.Fatalf("EXPLAIN = %v", static)
	}
	for _, line := range static {
		if strings.Contains(line, "(actual:") {
			t.Fatalf("plain EXPLAIN leaked actuals: %q", line)
		}
	}

	analyzed := roundTripLine(t, conn, sc, "EXPLAIN ANALYZE "+query)
	if analyzed[len(analyzed)-1] != "END" {
		t.Fatalf("EXPLAIN ANALYZE = %v", analyzed)
	}
	if got := wireRows(t, analyzed, "table(orders)"); got != 30 {
		t.Errorf("scan actual rows = %d, want 30:\n%s", got, strings.Join(analyzed, "\n"))
	}
	if got := wireRows(t, analyzed, "aggregate("); got != 3 {
		t.Errorf("aggregate actual rows = %d, want 3:\n%s", got, strings.Join(analyzed, "\n"))
	}

	// Shape congruence: stripping the annotations from the analyzed
	// plan recovers the static plan line for line.
	if len(analyzed) != len(static) {
		t.Fatalf("plan shapes diverged: %d vs %d lines", len(analyzed), len(static))
	}
	for i := range static[:len(static)-1] {
		got := analyzed[i]
		if j := strings.Index(got, " (actual: "); j >= 0 {
			got = got[:j]
		}
		got = strings.TrimSuffix(got, " (not executed)")
		if got != static[i] {
			t.Errorf("line %d diverged:\nanalyzed: %q\nstatic:   %q", i, got, static[i])
		}
	}

	// Usage and error paths stay clean protocol errors.
	if got := roundTripLine(t, conn, sc, "EXPLAIN"); !strings.HasPrefix(got[0], "ERR usage") {
		t.Fatalf("bare EXPLAIN = %v", got)
	}
	if got := roundTripLine(t, conn, sc, "EXPLAIN SELEKT 1"); !strings.HasPrefix(got[0], "ERR") {
		t.Fatalf("EXPLAIN bad SQL = %v", got)
	}
}

// TestWireKilledStatementSpans: a killed statement's span events,
// replayed with TRACE <stmt-id>, show where the cancellation landed —
// a stmt-start followed by a stmt-end with the killed outcome.
func TestWireKilledStatementSpans(t *testing.T) {
	addr, _, _ := lifecycleServer(t, 400_000, serverOptions{})

	victim, victimSc := dialLine(t, addr)
	defer victim.Close()
	killer, killerSc := dialLine(t, addr)
	defer killer.Close()

	roundTripLine(t, victim, victimSc, "SQL SELECT COUNT(*) FROM orders")
	roundTripLine(t, killer, killerSc, "SQL SELECT COUNT(*) FROM orders")

	if _, err := fmt.Fprintln(victim, slowQuery); err != nil {
		t.Fatal(err)
	}

	// Learn the victim's session id and statement id from SESSIONS:
	// "ROW <id> <remote> <age> active <stmt-id> <stmt-age> <text>".
	var sessionID, stmtID string
	deadline := time.Now().Add(10 * time.Second)
	for stmtID == "" {
		if time.Now().After(deadline) {
			t.Fatal("victim statement never showed active in SESSIONS")
		}
		for _, line := range roundTripLine(t, killer, killerSc, "SESSIONS") {
			f := strings.Fields(line)
			if len(f) >= 6 && f[0] == "ROW" && f[4] == "active" {
				sessionID, stmtID = f[1], f[5]
				break
			}
		}
	}
	if !strings.HasPrefix(stmtID, sessionID+".") {
		t.Fatalf("statement id %q not keyed by session %s", stmtID, sessionID)
	}
	if got := roundTripLine(t, killer, killerSc, "KILL "+sessionID); got[0] != "OK" {
		t.Fatalf("KILL: %v", got)
	}
	var last string
	for victimSc.Scan() {
		last = victimSc.Text()
		if last == "END" || strings.HasPrefix(last, "ERR") {
			break
		}
	}
	if !strings.Contains(last, "killed") {
		t.Fatalf("victim response = %q, want ERR ...killed", last)
	}

	// Replay just this statement's lifecycle. The start span is
	// always-on; the end span must carry the killed outcome.
	trace := roundTripLine(t, killer, killerSc, "TRACE "+stmtID)
	joined := strings.Join(trace, "\n")
	if !strings.Contains(joined, "stmt-start") {
		t.Fatalf("TRACE %s missing stmt-start:\n%s", stmtID, joined)
	}
	var sawKilledEnd bool
	for _, line := range trace {
		if strings.Contains(line, "stmt-end") && strings.Contains(line, "killed") {
			sawKilledEnd = true
		}
		if line != "END" && !strings.Contains(line, "stmt="+stmtID) {
			t.Errorf("TRACE %s leaked a foreign event: %q", stmtID, line)
		}
	}
	if !sawKilledEnd {
		t.Fatalf("TRACE %s missing killed stmt-end:\n%s", stmtID, joined)
	}
}

// TestWireSlowLog: with the server-wide threshold at 1ns every SQL
// statement is captured; SLOWLOG renders the entry with its outcome,
// result sizes, text, and the plan annotated with actuals.
func TestWireSlowLog(t *testing.T) {
	addr, _, db := lifecycleServer(t, 200, serverOptions{slowQuery: time.Nanosecond})
	conn, sc := dialLine(t, addr)
	defer conn.Close()

	if got := roundTripLine(t, conn, sc, slowQuery); got[len(got)-1] != "END" {
		t.Fatalf("query = %v", got)
	}
	log := roundTripLine(t, conn, sc, "SLOWLOG")
	joined := strings.Join(log, "\n")
	if !strings.Contains(joined, "ok") || !strings.Contains(strings.ToLower(joined), "select region") {
		t.Fatalf("SLOWLOG missing the captured statement:\n%s", joined)
	}
	if !strings.Contains(joined, "(actual:") || !strings.Contains(joined, "rows=") {
		t.Fatalf("SLOWLOG entry has no annotated plan:\n%s", joined)
	}
	if n := db.Metrics().Counter("hana_sql_slow_queries_total").Value(); n == 0 {
		t.Error("slow-query counter not incremented")
	}

	// SLOWLOG 0 with a bad argument is a usage error.
	if got := roundTripLine(t, conn, sc, "SLOWLOG nope"); !strings.HasPrefix(got[0], "ERR usage") {
		t.Fatalf("SLOWLOG nope = %v", got)
	}
	if got := roundTripLine(t, conn, sc, "SLOWLOG -1"); !strings.HasPrefix(got[0], "ERR usage") {
		t.Fatalf("SLOWLOG -1 = %v", got)
	}

	// A session can opt out: SET SLOW_QUERY_MS 0 overrides the server
	// default, so this session's statements stop being captured.
	before := len(roundTripLine(t, conn, sc, "SLOWLOG"))
	if got := roundTripLine(t, conn, sc, "SET SLOW_QUERY_MS 0"); got[0] != "OK" {
		t.Fatalf("SET SLOW_QUERY_MS 0 = %v", got)
	}
	if got := roundTripLine(t, conn, sc, slowQuery); got[len(got)-1] != "END" {
		t.Fatalf("query after opt-out = %v", got)
	}
	if after := len(roundTripLine(t, conn, sc, "SLOWLOG")); after != before {
		t.Fatalf("opt-out session still captured: %d → %d lines", before, after)
	}

	// And back on with a real threshold.
	if got := roundTripLine(t, conn, sc, "SET SLOW_QUERY_MS 1000"); got[0] != "OK" {
		t.Fatalf("SET SLOW_QUERY_MS 1000 = %v", got)
	}
	if got := roundTripLine(t, conn, sc, "SET SLOW_QUERY_MS -5"); !strings.HasPrefix(got[0], "ERR") {
		t.Fatalf("SET SLOW_QUERY_MS -5 = %v", got)
	}
	if got := roundTripLine(t, conn, sc, "SET SLOW_QUERY_MS nope"); !strings.HasPrefix(got[0], "ERR") {
		t.Fatalf("SET SLOW_QUERY_MS nope = %v", got)
	}
}

// TestWireTraceTableFilter: TRACE <table> narrows the replay to one
// table's lifecycle events, composable with a count bound.
func TestWireTraceTableFilter(t *testing.T) {
	c := newObsClient(t)
	c.expectOK("SQL CREATE TABLE a (id INT PRIMARY KEY, v VARCHAR)")
	c.expectOK("SQL CREATE TABLE b (id INT PRIMARY KEY, v VARCHAR)")
	c.expectOK("SQL INSERT INTO a VALUES (1, 'x')")
	c.expectOK("SQL INSERT INTO b VALUES (2, 'y')")
	c.expectOK("MERGE a")
	c.expectOK("MERGE b")

	out := c.send("TRACE a")
	if len(out) < 2 || out[len(out)-1] != "END" {
		t.Fatalf("TRACE a = %v", out)
	}
	for _, line := range out[:len(out)-1] {
		if !strings.Contains(line, "table=a") {
			t.Errorf("TRACE a leaked a foreign event: %q", line)
		}
	}

	// Filter plus bound: only the most recent matching event.
	if got := c.send("TRACE a 1"); len(got) != 2 {
		t.Fatalf("TRACE a 1 = %v", got)
	}
	// Unknown table: clean empty replay.
	if got := c.send("TRACE nosuch"); len(got) != 1 || got[0] != "END" {
		t.Fatalf("TRACE nosuch = %v", got)
	}
}
