package main

import (
	"fmt"
	"testing"
)

// rows returns the ROW lines of a command (everything before END).
func (c *client) rows(cmd string) []string {
	c.t.Helper()
	out := c.send(cmd)
	last := out[len(out)-1]
	if last != "END" {
		c.t.Fatalf("%q → %v (want END-terminated rows)", cmd, out)
	}
	return out[:len(out)-1]
}

func TestSQLWireCommands(t *testing.T) {
	c := newClient(t)
	c.expectOK("SQL CREATE TABLE items (id BIGINT PRIMARY KEY, name VARCHAR NOT NULL, price DOUBLE NOT NULL)")
	if got := c.expectOK("SQL INSERT INTO items VALUES (1, 'bolt', 0.25), (2, 'nut', 0.1), (3, 'gear kit', 12.5)"); got != "OK 3" {
		t.Fatalf("INSERT → %q", got)
	}

	rows := c.rows("SQL SELECT id, name FROM items WHERE price < 1 ORDER BY id")
	want := []string{"ROW 1 bolt", "ROW 2 nut"}
	if fmt.Sprint(rows) != fmt.Sprint(want) {
		t.Fatalf("SELECT → %v, want %v", rows, want)
	}
	// Strings with spaces come back quoted.
	rows = c.rows("SQL SELECT name FROM items WHERE id = 3")
	if len(rows) != 1 || rows[0] != "ROW 'gear kit'" {
		t.Fatalf("quoted SELECT → %v", rows)
	}

	if got := c.expectOK("SQL UPDATE items SET price = price * 2 WHERE price < 1"); got != "OK 2" {
		t.Fatalf("UPDATE → %q", got)
	}
	if got := c.expectOK("SQL DELETE FROM items WHERE id = 2"); got != "OK 1" {
		t.Fatalf("DELETE → %q", got)
	}
	rows = c.rows("SQL SELECT COUNT(*), SUM(price) FROM items")
	if len(rows) != 1 || rows[0] != "ROW 2 13" {
		t.Fatalf("aggregate → %v", rows)
	}

	// Prepared statements: compile once, execute with wire parameters.
	if got := c.expectOK("PREPARE ins INSERT INTO items VALUES (?, ?, ?)"); got != "OK params=3" {
		t.Fatalf("PREPARE → %q", got)
	}
	c.expectOK("EXECUTE ins 10 'washer' 0.05")
	c.expectOK("EXECUTE ins 11 'spring pin' 0.35")
	rows = c.rows("SQL SELECT id FROM items WHERE id >= 10 ORDER BY id")
	if fmt.Sprint(rows) != fmt.Sprint([]string{"ROW 10", "ROW 11"}) {
		t.Fatalf("post-EXECUTE SELECT → %v", rows)
	}
	c.expectErr("EXECUTE ins 12")   // arity
	c.expectErr("EXECUTE nosuch 1") // unknown name
	c.expectOK("DEALLOCATE ins")
	c.expectErr("EXECUTE ins 12 'x' 1.0")     // deallocated
	c.expectErr("DEALLOCATE ins")             // double free
	c.expectErr("SQL SELECT nope FROM items") // check error reaches the wire
	c.expectErr("SQL SELEC 1")                // parse error reaches the wire

	// A tab separates fields as a space does.
	for _, tc := range []struct{ cmd, want string }{
		{"PREPARE ins\tINSERT INTO items VALUES (?, ?, ?)", "OK params=3"},
		{"EXECUTE ins\t20\t'x'\t1.5", "OK 1"},
		{"SQL\tUPDATE items SET price = 2 WHERE id = 20", "OK 1"},
		{"KILL\t99", "ERR no session 99"},
	} {
		if out := c.send(tc.cmd); out[len(out)-1] != tc.want {
			t.Errorf("%q → %v, want %q", tc.cmd, out, tc.want)
		}
	}
	if rows := c.rows("SQL SELECT id, name, price FROM items WHERE id = 20"); fmt.Sprint(rows) != "[ROW 20 x 2]" {
		t.Fatalf("after tab-separated EXECUTE and SQL → %v", rows)
	}
}

func TestSQLWireTransactions(t *testing.T) {
	c := newClient(t)
	c.expectOK("SQL CREATE TABLE t (id BIGINT PRIMARY KEY, v BIGINT NOT NULL)")
	c.expectOK("BEGIN")
	c.expectOK("SQL INSERT INTO t VALUES (1, 10)")
	// Visible inside the transaction, to a prepared statement too: both
	// read the session snapshot.
	if rows := c.rows("SQL SELECT v FROM t WHERE id = 1"); len(rows) != 1 || rows[0] != "ROW 10" {
		t.Fatalf("in-txn SELECT → %v", rows)
	}
	c.expectOK("PREPARE cnt SELECT COUNT(*) FROM t")
	if rows := c.rows("EXECUTE cnt"); len(rows) != 1 || rows[0] != "ROW 1" {
		t.Fatalf("in-txn EXECUTE → %v", rows)
	}
	c.expectOK("ABORT")
	if rows := c.rows("SQL SELECT v FROM t"); len(rows) != 0 {
		t.Fatalf("post-abort SELECT → %v", rows)
	}
	c.expectOK("BEGIN")
	c.expectOK("SQL INSERT INTO t VALUES (2, 20)")
	c.expectOK("SQL UPDATE t SET v = 21 WHERE id = 2")
	c.expectOK("COMMIT")
	if rows := c.rows("SQL SELECT id, v FROM t"); len(rows) != 1 || rows[0] != "ROW 2 21" {
		t.Fatalf("post-commit SELECT → %v", rows)
	}
}
