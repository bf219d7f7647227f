package main

import "testing"

func TestWireLine(t *testing.T) {
	cases := []struct{ in, want string }{
		{"SELECT * FROM t", "SQL SELECT * FROM t"},
		{"insert into t values (1)", "SQL insert into t values (1)"},
		{"DELETE FROM t WHERE id = 1", "SQL DELETE FROM t WHERE id = 1"},
		{"CREATE TABLE t (id INT PRIMARY KEY)", "SQL CREATE TABLE t (id INT PRIMARY KEY)"},
		{"BEGIN", "BEGIN"},
		{"begin stmt", "begin stmt"},
		{"COMMIT", "COMMIT"},
		{"PREPARE p SELECT id FROM t WHERE id = ?", "PREPARE p SELECT id FROM t WHERE id = ?"},
		{"EXECUTE p 1", "EXECUTE p 1"},
		{"EXECUTE\tp\t1", "EXECUTE\tp\t1"},
		{"SQL SELECT 1", "SQL SELECT 1"},
		{"EXPLAIN ANALYZE SELECT * FROM t", "EXPLAIN ANALYZE SELECT * FROM t"},
		{"STATS t", "STATS t"},
		{"merge t", "merge t"},
		{"METRICS", "METRICS"},
		{"QUIT", "QUIT"},
		// The legacy data verbs and the old backslash escape are no
		// longer protocol commands: they travel as SQL and the server's
		// compiler rejects them.
		{"SCAN t 5", "SQL SCAN t 5"},
		{"\\STATS t", "SQL \\STATS t"},
	}
	for _, c := range cases {
		if got := wireLine(c.in); got != c.want {
			t.Errorf("wireLine(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

// TestLifecycleVerbsPassThrough keeps SESSIONS/KILL/SET/SLOWLOG/TRACE
// usable at the prompt: they are protocol commands, not statements.
func TestLifecycleVerbsPassThrough(t *testing.T) {
	for _, in := range []string{"SESSIONS", "KILL 3", "KILL\t3", "SET STMT_TIMEOUT 100ms", "SLOWLOG 5", "TRACE 3.1", "SAVEPOINT"} {
		if got := wireLine(in); got != in {
			t.Errorf("wireLine(%q) = %q, want passthrough", in, got)
		}
	}
}

func TestCutPrepare(t *testing.T) {
	for _, in := range []string{
		"PREPARE p SELECT id FROM t WHERE id = ?",
		"PREPARE\tp\tSELECT id FROM t WHERE id = ?",
		"prepare p   SELECT id FROM t WHERE id = ?",
	} {
		name, text, ok := cutPrepare(in)
		if !ok || name != "p" || text != "SELECT id FROM t WHERE id = ?" {
			t.Errorf("cutPrepare(%q) = %q %q %v", in, name, text, ok)
		}
	}
	for _, in := range []string{"PREPARE", "PREPARE p", "PREPAREp SELECT 1", "SELECT 1"} {
		if _, _, ok := cutPrepare(in); ok {
			t.Errorf("cutPrepare(%q) parsed", in)
		}
	}
}
