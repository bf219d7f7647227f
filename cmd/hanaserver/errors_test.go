package main

import (
	"strings"
	"testing"
)

// expectErr issues cmd and requires an ERR reply, returning it.
func (c *client) expectErr(cmd string) string {
	c.t.Helper()
	out := c.send(cmd)
	last := out[len(out)-1]
	if !strings.HasPrefix(last, "ERR") {
		c.t.Fatalf("%q → %v, want ERR", cmd, out)
	}
	return last
}

// count returns COUNT(*) of a table as its ROW line.
func (c *client) count(table string) string {
	c.t.Helper()
	rows := c.rows("SQL SELECT COUNT(*) FROM " + table)
	if len(rows) != 1 {
		c.t.Fatalf("COUNT(*) FROM %s → %v", table, rows)
	}
	return rows[0]
}

func TestCreateErrors(t *testing.T) {
	c := newClient(t)
	for _, cmd := range []string{
		"SQL CREATE TABLE t",
		"SQL CREATE TABLE t ()",
		"SQL CREATE TABLE t (id BLOB PRIMARY KEY)",
		"SQL CREATE TABLE t (id INT PRIMARY KEY, v INT PRIMARY KEY)",
		"SQL CREATE TABLE t (id INT PRIMARY KEY, id VARCHAR)",
	} {
		c.expectErr(cmd)
	}
	// A failed CREATE TABLE must not leave a half-registered table behind.
	if got := c.expectErr("STATS t"); !strings.Contains(got, `no table "t"`) {
		t.Errorf("STATS after failed CREATE TABLE → %q", got)
	}
	c.expectErr("SQL SELECT COUNT(*) FROM t")
	c.expectOK("SQL CREATE TABLE t (id INT PRIMARY KEY, v VARCHAR)")
	c.expectErr("SQL CREATE TABLE t (id INT PRIMARY KEY)") // duplicate name
}

func TestInsertErrors(t *testing.T) {
	c := newClient(t)
	c.expectOK("SQL CREATE TABLE t (id INT PRIMARY KEY, name VARCHAR NOT NULL, qty INT)")
	c.expectOK("PREPARE ins INSERT INTO t VALUES (?, ?, ?)")
	for _, cmd := range []string{
		"SQL INSERT INTO t VALUES (1, 'x')",                  // arity too low
		"SQL INSERT INTO t VALUES (1, 'x', 2, 3)",            // arity too high
		"SQL INSERT INTO t VALUES ('oops', 'x', 2)",          // string into the int key
		"SQL INSERT INTO t VALUES (1, 'x', '2.5')",           // quoted string into an int column
		"SQL INSERT INTO t VALUES (NULL, 'x', 2)",            // NULL key
		"SQL INSERT INTO t VALUES (1, NULL, 2)",              // NULL into NOT NULL
		"SQL INSERT INTO t VALUES (1, 'x', 2), (2, NULL, 3)", // one bad row fails the statement
		"SQL INSERT INTO t (id, qty) VALUES (1, 2)",          // omitted NOT NULL column
		"EXECUTE ins 1 'x'",                                  // parameter arity
		"EXECUTE ins oops 'x' 2",                             // parameter of the wrong kind
		"EXECUTE ins 1 NULL 2",                               // NULL parameter into NOT NULL
	} {
		c.expectErr(cmd)
	}
	// Errors above must not have committed anything.
	if got := c.count("t"); got != "ROW 0" {
		t.Fatalf("COUNT(*) after failed inserts → %q", got)
	}
	// NULL is fine where the schema allows it.
	c.expectOK("SQL INSERT INTO t VALUES (1, 'x', NULL)")
	c.expectOK("EXECUTE ins 2 'y' NULL")
	if got := c.count("t"); got != "ROW 2" {
		t.Fatalf("COUNT(*) after nullable inserts → %q", got)
	}
}

func TestMissingTableErrors(t *testing.T) {
	c := newClient(t)
	for _, cmd := range []string{"MERGE nope", "STATS nope"} {
		if got := c.expectErr(cmd); !strings.Contains(got, `no table "nope"`) {
			t.Errorf("%q → %q, want missing-table error", cmd, got)
		}
	}
	for _, cmd := range []string{"MERGE", "STATS"} {
		if got := c.expectErr(cmd); !strings.Contains(got, "missing table") {
			t.Errorf("%q → %q, want missing-table usage error", cmd, got)
		}
	}
	for _, cmd := range []string{
		"SQL SELECT * FROM nope", "SQL INSERT INTO nope VALUES (1)",
		"SQL UPDATE nope SET v = 1", "SQL DELETE FROM nope WHERE id = 1",
		"PREPARE p SELECT * FROM nope", "EXPLAIN SELECT * FROM nope",
	} {
		if got := c.expectErr(cmd); !strings.Contains(got, "nope") {
			t.Errorf("%q → %q, want an error naming the table", cmd, got)
		}
	}
}

func TestTableUsageErrors(t *testing.T) {
	c := newClient(t)
	c.expectOK("SQL CREATE TABLE t (id INT PRIMARY KEY, v VARCHAR)")
	c.expectOK("SQL INSERT INTO t VALUES (1, 'x')")
	c.expectErr("SQL SELECT * FROM t WHERE id = 'x'")  // key of the wrong kind
	c.expectErr("SQL SELECT nope FROM t")              // unknown column
	c.expectErr("SQL SELECT v, SUM(id) FROM t")        // ungrouped column
	c.expectErr("SQL SELECT SUM(v) FROM t")            // SUM over a string
	c.expectErr("SQL UPDATE t SET nope = 1")           // unknown column
	c.expectErr("SQL UPDATE t SET v = 1 WHERE id = 1") // wrong kind
	c.expectErr("SQL DELETE FROM t WHERE")             // syntax
	c.expectErr("PREPARE p")                           // usage
	c.expectErr("EXECUTE")                             // usage
	c.expectErr("DEALLOCATE")                          // usage
	c.expectErr("BOGUS t 1")                           // unknown verb
	// Deleting a key that is not there affects no row; it is no error.
	if got := c.expectOK("SQL DELETE FROM t WHERE id = 99"); got != "OK 0" {
		t.Fatalf("DELETE of a missing key → %q", got)
	}
	if got := c.count("t"); got != "ROW 1" {
		t.Fatalf("COUNT(*) after usage errors → %q", got)
	}
}

func TestTransactionStateErrors(t *testing.T) {
	c := newClient(t)
	c.expectErr("COMMIT") // no transaction open
	c.expectErr("ABORT")
	c.expectOK("BEGIN")
	c.expectErr("BEGIN") // already open
	c.expectOK("ABORT")
	c.expectOK("BEGIN STMT") // statement-level isolation accepted
	c.expectOK("COMMIT")
}

// STATS must expose every lifecycle counter; the numbers must track
// the delta stages the paper's unified table moves rows through.
func TestStatsFields(t *testing.T) {
	c := newClient(t)
	c.expectOK("SQL CREATE TABLE t (id INT PRIMARY KEY, v VARCHAR)")
	c.expectOK("SQL INSERT INTO t VALUES (1, 'a')")
	c.expectOK("SQL INSERT INTO t VALUES (2, 'b')")

	stats := c.expectOK("STATS t")
	for _, field := range []string{
		"l1=", "l2=", "frozen=", "main=", "parts=", "tombstones=",
		"l1merges=", "mainmerges=", "mergefailures=", "lasterr=",
	} {
		if !strings.Contains(stats, field) {
			t.Errorf("STATS missing %q: %q", field, stats)
		}
	}
	if !strings.Contains(stats, "l1=2") || !strings.Contains(stats, "main=0") {
		t.Fatalf("fresh inserts not in L1: %q", stats)
	}

	c.expectOK("MERGE t")
	stats = c.expectOK("STATS t")
	if !strings.Contains(stats, "l1=0") || !strings.Contains(stats, "main=2") {
		t.Fatalf("MERGE did not move rows to main: %q", stats)
	}
	if !strings.Contains(stats, "l1merges=1") || !strings.Contains(stats, "mainmerges=1") {
		t.Fatalf("merge counters not advanced: %q", stats)
	}

	c.expectOK("SQL DELETE FROM t WHERE id = 2")
	stats = c.expectOK("STATS t")
	if !strings.Contains(stats, "tombstones=1") {
		t.Fatalf("delete of a main row not counted as tombstone: %q", stats)
	}
}
