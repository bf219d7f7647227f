package sql

import (
	"strings"
	"testing"
)

// TestParseCanonical pins the canonical rendering of parsed
// statements: uppercase keywords, fully parenthesized expressions.
func TestParseCanonical(t *testing.T) {
	cases := []struct{ in, want string }{
		{
			"select a, b from t",
			"SELECT a, b FROM t",
		},
		{
			"SELECT * FROM t WHERE a = 1 AND b <> 'x'",
			"SELECT * FROM t WHERE ((a = 1) AND (b <> 'x'))",
		},
		{
			"select a+b*2 as c from t order by c desc limit 10",
			"SELECT (a + (b * 2)) AS c FROM t ORDER BY c DESC LIMIT 10",
		},
		{
			"select region, count(*), sum(v) from t where v >= 2.5 group by region",
			"SELECT region, COUNT(*), SUM(v) FROM t WHERE (v >= 2.5) GROUP BY region",
		},
		{
			"select o.id, c.name from orders o join customers as c on o.cust = c.id",
			"SELECT o.id, c.name FROM orders AS o JOIN customers AS c ON (o.cust = c.id)",
		},
		{
			"select a from t where a between 1 and 5 or b not in (1,2) or c like 'x%' or d is not null",
			"SELECT a FROM t WHERE ((((a BETWEEN 1 AND 5) OR (b NOT IN (1, 2))) OR (c LIKE 'x%')) OR (d IS NOT NULL))",
		},
		{
			"select a from t where not a = 1",
			"SELECT a FROM t WHERE NOT ((a = 1))",
		},
		{
			"select a from t where a != 1 -- comment\n",
			"SELECT a FROM t WHERE (a <> 1)",
		},
		{
			"insert into t (a, b) values (1, 'it''s'), (-2, null)",
			"INSERT INTO t (a, b) VALUES (1, 'it''s'), (-2, NULL)",
		},
		{
			"insert into t values (?, ?)",
			"INSERT INTO t VALUES (?, ?)",
		},
		{
			"update t set a = a + 1, b = 'y' where id = 3",
			"UPDATE t SET a = (a + 1), b = 'y' WHERE (id = 3)",
		},
		{
			"delete from t where a > 1e3",
			"DELETE FROM t WHERE (a > 1000)",
		},
		{
			"create table t (id int primary key, name varchar not null, v double, ok bool)",
			"CREATE TABLE t (id BIGINT PRIMARY KEY, name VARCHAR NOT NULL, v DOUBLE NULL, ok BOOLEAN NULL)",
		},
	}
	for _, tc := range cases {
		stmt, err := Parse(tc.in)
		if err != nil {
			t.Errorf("Parse(%q): %v", tc.in, err)
			continue
		}
		if got := stmt.String(); got != tc.want {
			t.Errorf("Parse(%q)\n  got  %q\n  want %q", tc.in, got, tc.want)
		}
	}
}

// TestParseRoundTrip checks render∘parse∘render is a fixed point.
func TestParseRoundTrip(t *testing.T) {
	inputs := []string{
		"SELECT a, -b, COUNT(*) FROM t WHERE a IN (1, 2, 3) GROUP BY a ORDER BY 1, a DESC LIMIT 0",
		"SELECT * FROM t AS x JOIN u ON x.a = u.b WHERE x.c BETWEEN 0.5 AND 1.5e10",
		"UPDATE t SET a = ?, b = -(c / 2) WHERE NOT (a LIKE '_b%')",
		"SELECT a FROM t WHERE b = true OR b = false OR c IS NULL",
	}
	for _, in := range inputs {
		s1, err := Parse(in)
		if err != nil {
			t.Fatalf("Parse(%q): %v", in, err)
		}
		r1 := s1.String()
		s2, err := Parse(r1)
		if err != nil {
			t.Fatalf("re-Parse(%q): %v", r1, err)
		}
		if r2 := s2.String(); r1 != r2 {
			t.Errorf("unstable rendering:\n  first  %q\n  second %q", r1, r2)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELECT",
		"SELECT a",
		"SELECT a FROM",
		"SELECT a FROM t WHERE",
		"SELECT a FROM t GROUP",
		"SELECT a FROM t LIMIT x",
		"SELECT a FROM t extra stuff",
		"INSERT t VALUES (1)",
		"INSERT INTO t VALUES 1",
		"UPDATE t a = 1",
		"DELETE t",
		"CREATE TABLE t ()",
		"CREATE TABLE t (a WIBBLE)",
		"SELECT a FROM t WHERE a = 'unterminated",
		"SELECT a FROM t WHERE a = 1x",
		"SELECT a FROM t WHERE a @ 1",
		"SELECT select FROM t",
		"DROP TABLE t",
	}
	for _, in := range bad {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q): expected error, got none", in)
		}
	}
}

func TestParseErrorPosition(t *testing.T) {
	_, err := Parse("SELECT a FROM t WHERE a @ 1")
	if err == nil {
		t.Fatal("expected error")
	}
	pe, ok := err.(*ParseError)
	if !ok {
		t.Fatalf("error type %T, want *ParseError", err)
	}
	if pe.Pos != strings.IndexByte("SELECT a FROM t WHERE a @ 1", '@') {
		t.Errorf("error position %d, want offset of '@'", pe.Pos)
	}
}

func TestNormalize(t *testing.T) {
	cases := []struct{ in, want string }{
		{"SELECT  a\nFROM t;", "select a from t"},
		{"select a from t", "select a from t"},
		{"SELECT 'A  b' FROM t", "select 'A  b' from t"},
		{"  SELECT a FROM t  ", "select a from t"},
	}
	for _, tc := range cases {
		if got := Normalize(tc.in); got != tc.want {
			t.Errorf("Normalize(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

// TestParamOrdinals checks ? placeholders number in lexical order.
func TestParamOrdinals(t *testing.T) {
	stmt, err := Parse("UPDATE t SET a = ?, b = ? WHERE id = ?")
	if err != nil {
		t.Fatal(err)
	}
	var ords []int
	walkStmtExprs(stmt, func(e Expr) {
		if p, ok := e.(*Param); ok {
			ords = append(ords, p.Ord)
		}
	})
	if len(ords) != 3 || ords[0] != 0 || ords[1] != 1 || ords[2] != 2 {
		t.Errorf("param ordinals = %v, want [0 1 2]", ords)
	}
}
