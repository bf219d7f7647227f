package sql

import "testing"

// FuzzSQLParse drives the lexer and parser with arbitrary input. Two
// invariants: parsing never panics, and for accepted input the
// canonical rendering is a fixed point — parse(render(ast)) renders
// to the same text (the property the plan cache and the golden corpus
// rely on).
func FuzzSQLParse(f *testing.F) {
	seeds := []string{
		"SELECT a, b FROM t",
		"SELECT * FROM t WHERE a = 1 AND b <> 'x''y'",
		"SELECT region, COUNT(*), SUM(v) FROM t WHERE v >= 2.5 GROUP BY region ORDER BY 2 DESC LIMIT 10",
		"SELECT o.id, c.name FROM orders AS o JOIN customers AS c ON o.cust = c.id",
		"SELECT a FROM t WHERE a BETWEEN 1 AND 5 OR b NOT IN (1, 2) OR c LIKE 'x%' OR d IS NOT NULL",
		"INSERT INTO t (a, b) VALUES (1, 'x'), (?, NULL)",
		"UPDATE t SET a = a + 1, b = ? WHERE id = 3",
		"DELETE FROM t WHERE a > 1e3",
		"CREATE TABLE t (id BIGINT PRIMARY KEY, name VARCHAR NOT NULL, v DOUBLE NULL)",
		"SELECT -a FROM t WHERE NOT (a = 1) -- trailing comment",
		"SELECT a FROM t WHERE b = true OR c = false OR d IS NULL;",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		stmt, err := Parse(src)
		if err != nil {
			return // rejected input only needs to not panic
		}
		r1 := stmt.String()
		stmt2, err := Parse(r1)
		if err != nil {
			t.Fatalf("canonical rendering does not re-parse\ninput:  %q\nrender: %q\nerror:  %v", src, r1, err)
		}
		if r2 := stmt2.String(); r1 != r2 {
			t.Fatalf("rendering is not a fixed point\ninput:  %q\nfirst:  %q\nsecond: %q", src, r1, r2)
		}
	})
}
