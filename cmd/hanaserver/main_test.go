package main

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"testing"

	hana "repro"
)

// client drives the protocol over an in-memory pipe.
type client struct {
	t    *testing.T
	conn net.Conn
	r    *bufio.Scanner
}

func newClient(t *testing.T) *client {
	t.Helper()
	db := hana.MustOpen(hana.Options{})
	t.Cleanup(func() { db.Close() })
	server, clientSide := net.Pipe()
	go serve(db, server)
	c := &client{t: t, conn: clientSide, r: bufio.NewScanner(clientSide)}
	t.Cleanup(func() { clientSide.Close() })
	return c
}

// send issues a command and returns all response lines up to the
// terminator.
func (c *client) send(cmd string) []string {
	c.t.Helper()
	fmt.Fprintln(c.conn, cmd)
	var out []string
	for c.r.Scan() {
		line := c.r.Text()
		out = append(out, line)
		if strings.HasPrefix(line, "OK") || strings.HasPrefix(line, "ERR") || line == "END" {
			return out
		}
	}
	c.t.Fatalf("connection closed during %q", cmd)
	return nil
}

func (c *client) expectOK(cmd string) string {
	c.t.Helper()
	out := c.send(cmd)
	last := out[len(out)-1]
	if !strings.HasPrefix(last, "OK") {
		c.t.Fatalf("%q → %v", cmd, out)
	}
	return last
}

func TestProtocolEndToEnd(t *testing.T) {
	c := newClient(t)
	c.expectOK("SQL CREATE TABLE orders (id INT PRIMARY KEY, customer VARCHAR NOT NULL, amount DOUBLE NOT NULL)")
	c.expectOK("SQL INSERT INTO orders VALUES (1, 'Acme Corp', 9.99)")
	c.expectOK("SQL INSERT INTO orders VALUES (2, 'Bolt Ltd', 5.00)")

	if rows := c.rows("SQL SELECT * FROM orders WHERE id = 1"); len(rows) != 1 || rows[0] != "ROW 1 'Acme Corp' 9.99" {
		t.Fatalf("point read → %v", rows)
	}
	if got := c.count("orders"); got != "ROW 2" {
		t.Fatalf("COUNT(*) → %q", got)
	}
	if rows := c.rows("SQL SELECT * FROM orders"); len(rows) != 2 {
		t.Fatalf("SELECT * → %v", rows)
	}
	if got := c.expectOK("SQL UPDATE orders SET amount = 19.99 WHERE id = 1"); got != "OK 1" {
		t.Fatalf("UPDATE → %q", got)
	}
	if rows := c.rows("SQL SELECT amount FROM orders WHERE id = 1"); len(rows) != 1 || rows[0] != "ROW 19.99" {
		t.Fatalf("after update: %v", rows)
	}
	c.expectOK("MERGE orders")
	stats := c.expectOK("STATS orders")
	if !strings.Contains(stats, "main=2") {
		t.Fatalf("STATS → %q", stats)
	}
	if !strings.Contains(stats, "mergefailures=0") || !strings.Contains(stats, `lasterr=""`) {
		t.Fatalf("STATS missing merge-error surface → %q", stats)
	}
	if got := c.expectOK("SQL DELETE FROM orders WHERE id = 2"); got != "OK 1" {
		t.Fatalf("DELETE → %q", got)
	}
	if got := c.count("orders"); got != "ROW 1" {
		t.Fatalf("COUNT(*) after delete → %q", got)
	}
	rows := c.rows("SQL SELECT customer, COUNT(*), SUM(amount) FROM orders GROUP BY customer")
	if len(rows) != 1 || rows[0] != "ROW 'Acme Corp' 1 19.99" {
		t.Fatalf("GROUP BY → %v", rows)
	}
}

func TestProtocolTransactions(t *testing.T) {
	c := newClient(t)
	c.expectOK("SQL CREATE TABLE t (id INT PRIMARY KEY, v VARCHAR)")
	c.expectOK("BEGIN")
	c.expectOK("SQL INSERT INTO t VALUES (1, 'pending')")
	// Uncommitted row visible inside the transaction…
	if got := c.count("t"); got != "ROW 1" {
		t.Fatalf("in-txn COUNT(*) → %q", got)
	}
	c.expectOK("ABORT")
	if got := c.count("t"); got != "ROW 0" {
		t.Fatalf("post-abort COUNT(*) → %q", got)
	}
	c.expectOK("BEGIN")
	c.expectOK("SQL INSERT INTO t VALUES (2, 'kept')")
	c.expectOK("COMMIT")
	if got := c.count("t"); got != "ROW 1" {
		t.Fatalf("post-commit COUNT(*) → %q", got)
	}
}

func TestProtocolErrors(t *testing.T) {
	c := newClient(t)
	for _, cmd := range []string{"NOSUCH", "COMMIT", "SQL"} {
		c.expectErr(cmd)
	}
	c.expectOK("SQL CREATE TABLE t (id INT PRIMARY KEY, v VARCHAR)")
	c.expectOK("SQL INSERT INTO t VALUES (1, 'x')")
	// The legacy line verbs are gone: rows travel only as SQL.
	for _, cmd := range []string{
		"INSERT t 1", "GET t 1", "UPDATE t 1 1 'y'", "DELETE t 1", "COUNT t",
		"SCAN t", "AGG t 0 1", "CREATE t id:int KEY 0", "INSERT",
	} {
		if got := c.expectErr(cmd); !strings.HasPrefix(got, "ERR unknown command") {
			t.Errorf("%q → %q, want ERR unknown command", cmd, got)
		}
	}
	if got := c.expectErr("SQL INSERT INTO t VALUES (1, 'dup')"); !strings.Contains(got, "duplicate") {
		t.Errorf("duplicate insert → %q", got)
	}
	c.expectErr("SQL INSERT INTO t VALUES ('notanint', 'x')")
	c.expectOK("PREPARE ins INSERT INTO t VALUES (?, ?)")
	c.expectErr("EXECUTE ins notanint 'x'")
	if got := c.expectErr("EXECUTE ins 2 'unterminated"); !strings.Contains(got, "unterminated quote") {
		t.Errorf("unterminated quote → %q", got)
	}
	if rows := c.rows("SQL SELECT * FROM t"); len(rows) != 1 || rows[0] != "ROW 1 x" {
		t.Fatalf("failed commands changed the table: %v", rows)
	}
}

func TestTokenize(t *testing.T) {
	cases := []struct {
		line string
		want []string
	}{
		{"EXECUTE ins 1 'two words' 3", []string{"EXECUTE", "ins", "1", "'two words", "3"}},
		{"EXECUTE ins\t10\t'x'", []string{"EXECUTE", "ins", "10", "'x"}},
		{"KILL\t99", []string{"KILL", "99"}},
		{"EXECUTE p 'tab\tinside' NULL", []string{"EXECUTE", "p", "'tab\tinside", "NULL"}},
		{" \t SESSIONS \t", []string{"SESSIONS"}},
	}
	for _, tc := range cases {
		toks, err := tokenize(tc.line)
		if err != nil || fmt.Sprintf("%q", toks) != fmt.Sprintf("%q", tc.want) {
			t.Errorf("tokenize(%q) = %q, %v; want %q", tc.line, toks, err, tc.want)
		}
	}
	if _, err := tokenize("'open"); err == nil {
		t.Error("unterminated quote accepted")
	}
	for _, blank := range []string{"   ", "\t \t"} {
		if _, err := tokenize(blank); err == nil {
			t.Errorf("empty command %q accepted", blank)
		}
	}
}
