package main

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	hana "repro"
	"repro/internal/leakcheck"
)

// lifecycleServer starts an in-process server over a table seeded
// with enough rows that a grouped scan takes real wall-clock time,
// so kills and timeouts land mid-statement.
func lifecycleServer(t *testing.T, rows int, opts serverOptions) (addr string, srv *server, db *hana.DB) {
	t.Helper()
	db = hana.MustOpen(hana.Options{Obs: hana.NewMetrics(), AutoMerge: true})
	tab, err := db.CreateTable(hana.TableConfig{
		Name: "orders",
		Schema: hana.MustSchema([]hana.Column{
			{Name: "id", Kind: hana.Int64},
			{Name: "region", Kind: hana.String},
			{Name: "quantity", Kind: hana.Int64},
			{Name: "amount", Kind: hana.Float64},
		}, 0),
		CheckUnique: true, Compress: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	regions := []string{"EMEA", "APJ", "AMER"}
	batch := make([][]hana.Value, 0, 4096)
	flush := func() {
		if len(batch) == 0 {
			return
		}
		tx := db.Begin(hana.TxnSnapshot)
		if _, err := tab.BulkInsert(tx, batch); err != nil {
			t.Fatal(err)
		}
		if err := db.Commit(tx); err != nil {
			t.Fatal(err)
		}
		batch = batch[:0]
	}
	for i := 0; i < rows; i++ {
		batch = append(batch, hana.Row(
			hana.Int(int64(i)), hana.Str(regions[i%3]),
			hana.Int(int64(i%7)), hana.Float(float64(i)*0.5)))
		if len(batch) == cap(batch) {
			flush()
		}
	}
	flush()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv = newServer(db, ln, opts)
	go srv.run()
	t.Cleanup(func() {
		srv.shutdown()
		db.Close()
	})
	return ln.Addr().String(), srv, db
}

// slowQuery is a grouped aggregation whose predicate puts it on the
// morsel-parallel hash aggregate; kernelQuery is the unfiltered shape,
// which runs on the fused dictionary-code kernel — grouped by the key,
// so its code arrays and group fold are as long as the table and the
// statement takes milliseconds however fast the scan. Both observe
// cancellation mid-statement.
const (
	slowQuery   = "SQL SELECT region, SUM(amount) FROM orders WHERE quantity >= 0 GROUP BY region"
	kernelQuery = "SQL SELECT id, SUM(amount) FROM orders GROUP BY id LIMIT 1"
)

func dialLine(t *testing.T, addr string) (net.Conn, *bufio.Scanner) {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(c)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	return c, sc
}

// roundTripLine sends one command and returns every response line up
// to the terminator.
func roundTripLine(t *testing.T, conn net.Conn, sc *bufio.Scanner, cmd string) []string {
	t.Helper()
	if _, err := fmt.Fprintln(conn, cmd); err != nil {
		t.Fatalf("%s: write: %v", cmd, err)
	}
	var lines []string
	for sc.Scan() {
		line := sc.Text()
		lines = append(lines, line)
		if line == "END" || strings.HasPrefix(line, "OK") || strings.HasPrefix(line, "ERR") {
			return lines
		}
	}
	t.Fatalf("%s: connection closed mid-response (err %v, got %v)", cmd, sc.Err(), lines)
	return nil
}

// TestWireStatementTimeout proves SET STMT_TIMEOUT turns a heavy
// statement into a typed timeout error over the wire.
func TestWireStatementTimeout(t *testing.T) {
	addr, _, db := lifecycleServer(t, 100_000, serverOptions{})
	conn, sc := dialLine(t, addr)
	defer conn.Close()

	if got := roundTripLine(t, conn, sc, "SET STMT_TIMEOUT 1ms"); got[0] != "OK" {
		t.Fatalf("SET: %v", got)
	}
	got := roundTripLine(t, conn, sc, slowQuery)
	last := got[len(got)-1]
	if !strings.HasPrefix(last, "ERR") || !strings.Contains(last, "timeout") {
		t.Fatalf("response = %v, want ERR ...timeout", got)
	}
	if n := db.Metrics().Counter("hana_server_statement_timeouts_total").Value(); n == 0 {
		t.Error("timeout counter not incremented")
	}

	// Clearing the limit restores normal execution.
	roundTripLine(t, conn, sc, "SET STMT_TIMEOUT 0s")
	got = roundTripLine(t, conn, sc, slowQuery)
	if got[len(got)-1] != "END" {
		t.Fatalf("after clearing: %v", got[len(got)-1])
	}
}

// TestWireStatementTimeoutKernel is TestWireStatementTimeout on the
// unfiltered GROUP BY: the fused kernel observes the deadline inside
// its accumulation loops, so the statement stops with the typed
// timeout instead of running to completion.
func TestWireStatementTimeoutKernel(t *testing.T) {
	addr, _, db := lifecycleServer(t, 400_000, serverOptions{})
	conn, sc := dialLine(t, addr)
	defer conn.Close()

	if got := roundTripLine(t, conn, sc, "SET STMT_TIMEOUT 1ms"); got[0] != "OK" {
		t.Fatalf("SET: %v", got)
	}
	got := roundTripLine(t, conn, sc, kernelQuery)
	last := got[len(got)-1]
	if !strings.HasPrefix(last, "ERR") || !strings.Contains(last, "timeout") {
		t.Fatalf("response = %v, want ERR ...timeout", got)
	}
	if n := db.Metrics().Counter("hana_server_statement_timeouts_total").Value(); n == 0 {
		t.Error("timeout counter not incremented")
	}
	roundTripLine(t, conn, sc, "SET STMT_TIMEOUT 0s")
	got = roundTripLine(t, conn, sc, kernelQuery)
	if got[len(got)-1] != "END" || len(got) != 2 {
		t.Fatalf("after clearing: %v", got)
	}
}

// TestWireMemBudget proves SET MEM_BUDGET rejects a statement whose
// aggregation state overruns the budget, with the typed error.
func TestWireMemBudget(t *testing.T) {
	addr, _, db := lifecycleServer(t, 20_000, serverOptions{})
	conn, sc := dialLine(t, addr)
	defer conn.Close()

	if got := roundTripLine(t, conn, sc, "SET MEM_BUDGET 64"); got[0] != "OK" {
		t.Fatalf("SET: %v", got)
	}
	got := roundTripLine(t, conn, sc, slowQuery)
	last := got[len(got)-1]
	if !strings.HasPrefix(last, "ERR") || !strings.Contains(last, "budget") {
		t.Fatalf("response = %v, want ERR ...budget", got)
	}
	if n := db.Metrics().Counter("hana_server_budget_rejections_total").Value(); n == 0 {
		t.Error("budget counter not incremented")
	}

	roundTripLine(t, conn, sc, "SET MEM_BUDGET 0")
	got = roundTripLine(t, conn, sc, slowQuery)
	if got[len(got)-1] != "END" {
		t.Fatalf("after clearing: %v", got[len(got)-1])
	}
}

// TestWireKillMidStatement proves KILL from one session cancels
// another session's statement mid-scan: the victim gets "ERR session
// killed" and its connection ends.
func TestWireKillMidStatement(t *testing.T) {
	addr, _, db := lifecycleServer(t, 400_000, serverOptions{})

	victim, victimSc := dialLine(t, addr)
	defer victim.Close()
	killer, killerSc := dialLine(t, addr)
	defer killer.Close()

	// Nudge both sessions into existence (and learn nothing else).
	roundTripLine(t, victim, victimSc, "SQL SELECT COUNT(*) FROM orders")
	roundTripLine(t, killer, killerSc, "SQL SELECT COUNT(*) FROM orders")

	// Fire the heavy statement without reading its response yet.
	if _, err := fmt.Fprintln(victim, slowQuery); err != nil {
		t.Fatal(err)
	}

	// Find the victim in SESSIONS once its statement shows active.
	var victimID string
	deadline := time.Now().Add(10 * time.Second)
	for victimID == "" {
		if time.Now().After(deadline) {
			t.Fatal("victim statement never showed active in SESSIONS")
		}
		for _, line := range roundTripLine(t, killer, killerSc, "SESSIONS") {
			if strings.HasPrefix(line, "ROW") && strings.Contains(line, "active") {
				victimID = strings.Fields(line)[1]
				break
			}
		}
	}
	if got := roundTripLine(t, killer, killerSc, "KILL "+victimID); got[0] != "OK" {
		t.Fatalf("KILL: %v", got)
	}

	// The victim's in-flight statement errors out with the kill cause.
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
	// And the session is gone: the next read hits a closed connection.
	fmt.Fprintln(victim, "SQL SELECT COUNT(*) FROM orders")
	if victimSc.Scan() {
		t.Fatalf("killed session answered again: %q", victimSc.Text())
	}
	if n := db.Metrics().Counter("hana_server_statements_killed_total").Value(); n == 0 {
		t.Error("kill counter not incremented")
	}
}

// TestWireKillKernelStatement is TestWireKillMidStatement on the
// unfiltered GROUP BY. The victim pipelines the statement so one is
// always running on the fused kernel when KILL arrives; the running
// statement ends with the kill cause and the session closes.
func TestWireKillKernelStatement(t *testing.T) {
	addr, _, _ := lifecycleServer(t, 400_000, serverOptions{})

	victim, victimSc := dialLine(t, addr)
	defer victim.Close()
	killer, killerSc := dialLine(t, addr)
	defer killer.Close()
	roundTripLine(t, victim, victimSc, "SQL SELECT COUNT(*) FROM orders")
	roundTripLine(t, killer, killerSc, "SQL SELECT COUNT(*) FROM orders")

	const pipelined = 20
	if _, err := fmt.Fprint(victim, strings.Repeat(kernelQuery+"\n", pipelined)); err != nil {
		t.Fatal(err)
	}
	var victimID string
	deadline := time.Now().Add(10 * time.Second)
	for victimID == "" {
		if time.Now().After(deadline) {
			t.Fatal("victim statement never showed active in SESSIONS")
		}
		for _, line := range roundTripLine(t, killer, killerSc, "SESSIONS") {
			if strings.HasPrefix(line, "ROW") && strings.Contains(line, "active") {
				victimID = strings.Fields(line)[1]
				break
			}
		}
	}
	if got := roundTripLine(t, killer, killerSc, "KILL "+victimID); got[0] != "OK" {
		t.Fatalf("KILL: %v", got)
	}

	// Completed statements answer END; the one the kill landed in
	// answers with its cause, and nothing after it runs.
	completed, last := 0, ""
	for victimSc.Scan() {
		last = victimSc.Text()
		if last == "END" {
			completed++
		}
		if strings.HasPrefix(last, "ERR") {
			break
		}
	}
	if !strings.Contains(last, "killed") || completed >= pipelined {
		t.Fatalf("victim response = %q after %d completed statements, want ERR ...killed", last, completed)
	}
	if victimSc.Scan() {
		t.Fatalf("killed session answered again: %q", victimSc.Text())
	}
}

// TestSessionsAndKillErrors covers the introspection surface: the
// SESSIONS listing shows live sessions and KILL of an unknown id is a
// clean error.
func TestSessionsAndKillErrors(t *testing.T) {
	addr, _, _ := lifecycleServer(t, 10, serverOptions{})
	conn, sc := dialLine(t, addr)
	defer conn.Close()

	lines := roundTripLine(t, conn, sc, "SESSIONS")
	if len(lines) < 2 || !strings.HasPrefix(lines[0], "ROW") {
		t.Fatalf("SESSIONS = %v, want at least own ROW + END", lines)
	}
	if got := roundTripLine(t, conn, sc, "KILL 999999"); !strings.HasPrefix(got[0], "ERR no session") {
		t.Fatalf("KILL unknown = %v", got)
	}
	if got := roundTripLine(t, conn, sc, "KILL"); !strings.HasPrefix(got[0], "ERR usage") {
		t.Fatalf("KILL no arg = %v", got)
	}
	if got := roundTripLine(t, conn, sc, "SET NOPE 1"); !strings.HasPrefix(got[0], "ERR unknown setting") {
		t.Fatalf("SET NOPE = %v", got)
	}
}

// TestTornLineNotExecuted proves a command truncated by a dying
// connection (no line terminator) is dropped, never executed.
func TestTornLineNotExecuted(t *testing.T) {
	addr, _, _ := lifecycleServer(t, 0, serverOptions{})

	torn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	// A complete command followed by a torn one: only the first may land.
	if _, err := torn.Write([]byte("SQL INSERT INTO orders VALUES (1, 'EMEA', 1, 1.0)\nSQL INSERT INTO orders VALUES (2, 'EMEA'")); err != nil {
		t.Fatal(err)
	}
	torn.Close()

	check, sc := dialLine(t, addr)
	defer check.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		got := roundTripLine(t, check, sc, "SQL SELECT COUNT(*) FROM orders")
		if got[0] == "ROW 1" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("COUNT(*) = %v, want exactly the terminated insert (ROW 1)", got)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestDrainDuringExecute is the graceful-drain satellite: SIGTERM
// (srv.shutdown) arrives while sessions have SQL EXECUTE statements
// in flight. In-flight statements finish and get responses, new work
// is refused, and no session goroutine leaks.
func TestDrainDuringExecute(t *testing.T) {
	snap := leakcheck.Snapshot()
	addr, srv, db := lifecycleServer(t, 50_000, serverOptions{
		maxConns: 16, drainTimeout: 30 * time.Second, writeTimeout: 10 * time.Second,
	})

	const workers = 4
	var wg sync.WaitGroup
	results := make([]string, workers)
	started := make(chan struct{}, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				results[i] = "dial: " + err.Error()
				return
			}
			defer conn.Close()
			sc := bufio.NewScanner(conn)
			sc.Buffer(make([]byte, 1<<16), 1<<20)
			fmt.Fprintln(conn, "PREPARE agg SELECT region, SUM(amount) FROM orders WHERE quantity >= ? GROUP BY region")
			if !sc.Scan() || !strings.HasPrefix(sc.Text(), "OK") {
				results[i] = "prepare: " + sc.Text()
				return
			}
			// EXECUTE in a loop until the drain ends the session; every
			// statement that got sent must either answer fully or the
			// connection must close cleanly between commands.
			for {
				if _, err := fmt.Fprintln(conn, "EXECUTE agg 0"); err != nil {
					results[i] = "done"
					return
				}
				select {
				case started <- struct{}{}:
				default:
				}
				answered := false
				for sc.Scan() {
					line := sc.Text()
					if line == "END" || strings.HasPrefix(line, "ERR") {
						answered = true
						break
					}
					if !strings.HasPrefix(line, "ROW") {
						results[i] = "unexpected line: " + line
						return
					}
				}
				if !answered {
					// Closed before any response: acceptable only if the
					// statement never started server-side; a mid-response
					// cut would have tripped the ROW check above.
					results[i] = "done"
					return
				}
				results[i] = "done"
			}
		}(i)
	}

	// Wait for EXECUTEs to be in flight, then pull the plug.
	for i := 0; i < workers; i++ {
		select {
		case <-started:
		case <-time.After(10 * time.Second):
			t.Fatal("workers never started executing")
		}
	}
	srv.shutdown()
	wg.Wait()
	for i, r := range results {
		if r != "done" {
			t.Errorf("worker %d: %s", i, r)
		}
	}

	// The drained server refuses new connections.
	if c, err := net.Dial("tcp", addr); err == nil {
		c.Close()
		t.Error("dial succeeded after drain")
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	snap.Assert(t)
}
