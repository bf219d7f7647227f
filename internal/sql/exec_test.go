package sql

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/mvcc"
	"repro/internal/obs"
	"repro/internal/types"
)

func testEngine(t testing.TB, defaults core.TableConfig) *Engine {
	t.Helper()
	db, err := core.OpenDatabase(core.DBOptions{Obs: obs.New()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return NewEngine(db, defaults)
}

func mustExec(t testing.TB, e *Engine, tx *mvcc.Txn, text string, params ...types.Value) *Result {
	t.Helper()
	res, err := e.ExecCtx(context.Background(), tx, text, params...)
	if err != nil {
		t.Fatalf("Exec(%q): %v", text, err)
	}
	return res
}

// ordersEngine creates the paper-style orders table and seeds it via
// SQL itself.
func ordersEngine(t testing.TB, defaults core.TableConfig, rows int) *Engine {
	t.Helper()
	e := testEngine(t, defaults)
	mustExec(t, e, nil, `CREATE TABLE orders (
		id BIGINT PRIMARY KEY,
		customer VARCHAR NOT NULL,
		region VARCHAR NOT NULL,
		quantity BIGINT NOT NULL,
		amount DOUBLE NOT NULL)`)
	regions := []string{"EMEA", "APJ", "AMER"}
	ins, err := e.Prepare("INSERT INTO orders VALUES (?, ?, ?, ?, ?)")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		_, err := ins.ExecCtx(context.Background(), nil,
			types.Int(int64(i)),
			types.Str(fmt.Sprintf("cust-%d", i%7)),
			types.Str(regions[i%3]),
			types.Int(int64(i%5)),
			types.Float(float64(i)*1.5),
		)
		if err != nil {
			t.Fatal(err)
		}
	}
	return e
}

func TestEndToEndCRUD(t *testing.T) {
	e := ordersEngine(t, core.TableConfig{}, 30)

	res := mustExec(t, e, nil, "SELECT id, region FROM orders WHERE id < 3 ORDER BY id")
	if !reflect.DeepEqual(res.Cols, []string{"id", "region"}) {
		t.Errorf("cols = %v", res.Cols)
	}
	want := [][]types.Value{
		{types.Int(0), types.Str("EMEA")},
		{types.Int(1), types.Str("APJ")},
		{types.Int(2), types.Str("AMER")},
	}
	if !reflect.DeepEqual(res.Rows, want) {
		t.Errorf("rows = %v, want %v", res.Rows, want)
	}

	res = mustExec(t, e, nil, "UPDATE orders SET quantity = quantity + 100 WHERE region = 'APJ'")
	if res.Affected != 10 {
		t.Errorf("update affected %d, want 10", res.Affected)
	}
	res = mustExec(t, e, nil, "SELECT COUNT(*) FROM orders WHERE quantity >= 100")
	if len(res.Rows) != 1 || res.Rows[0][0].I != 10 {
		t.Errorf("post-update count = %v", res.Rows)
	}

	res = mustExec(t, e, nil, "DELETE FROM orders WHERE id = 0")
	if res.Affected != 1 {
		t.Errorf("point delete affected %d, want 1", res.Affected)
	}
	res = mustExec(t, e, nil, "DELETE FROM orders WHERE region = 'AMER'")
	if res.Affected != 10 {
		t.Errorf("scan delete affected %d, want 10", res.Affected)
	}
	res = mustExec(t, e, nil, "SELECT COUNT(*) FROM orders")
	if res.Rows[0][0].I != 19 {
		t.Errorf("final count = %v, want 19", res.Rows[0][0])
	}
}

func TestSelectExpressions(t *testing.T) {
	e := ordersEngine(t, core.TableConfig{}, 10)
	res := mustExec(t, e, nil,
		"SELECT id, amount * 2 AS double_amount, quantity + 1 FROM orders WHERE id BETWEEN 2 AND 4 ORDER BY id DESC")
	if !reflect.DeepEqual(res.Cols, []string{"id", "double_amount", "(quantity + 1)"}) {
		t.Errorf("cols = %v", res.Cols)
	}
	want := [][]types.Value{
		{types.Int(4), types.Float(12), types.Int(5)},
		{types.Int(3), types.Float(9), types.Int(4)},
		{types.Int(2), types.Float(6), types.Int(3)},
	}
	if !reflect.DeepEqual(res.Rows, want) {
		t.Errorf("rows = %v, want %v", res.Rows, want)
	}

	// LIMIT after ORDER BY; ORDER BY 1-based position.
	res = mustExec(t, e, nil, "SELECT id FROM orders ORDER BY 1 DESC LIMIT 2")
	if len(res.Rows) != 2 || res.Rows[0][0].I != 9 || res.Rows[1][0].I != 8 {
		t.Errorf("order/limit rows = %v", res.Rows)
	}
}

func TestGroupByAggregates(t *testing.T) {
	e := ordersEngine(t, core.TableConfig{}, 60)
	res := mustExec(t, e, nil,
		`SELECT region, COUNT(*), SUM(quantity), MIN(id), MAX(id), AVG(amount)
		 FROM orders WHERE id < 30 GROUP BY region ORDER BY region`)
	// Compute the oracle by hand over the seeded data.
	type acc struct {
		n, sum, min, max int64
		amtSum           float64
	}
	oracle := map[string]*acc{}
	regions := []string{"EMEA", "APJ", "AMER"}
	for i := int64(0); i < 30; i++ {
		r := regions[i%3]
		a := oracle[r]
		if a == nil {
			a = &acc{min: i, max: i}
			oracle[r] = a
		}
		a.n++
		a.sum += i % 5
		if i < a.min {
			a.min = i
		}
		if i > a.max {
			a.max = i
		}
		a.amtSum += float64(i) * 1.5
		if a.n == 1 {
			a.min, a.max = i, i
		}
	}
	if len(res.Rows) != 3 {
		t.Fatalf("got %d groups, want 3: %v", len(res.Rows), res.Rows)
	}
	for _, row := range res.Rows {
		r := row[0].S
		a := oracle[r]
		if a == nil {
			t.Fatalf("unexpected group %q", r)
		}
		if row[1].I != a.n || row[2].I != a.sum || row[3].I != a.min || row[4].I != a.max {
			t.Errorf("group %s = %v, want count=%d sum=%d min=%d max=%d", r, row, a.n, a.sum, a.min, a.max)
		}
		if avg := a.amtSum / float64(a.n); row[5].F != avg {
			t.Errorf("group %s avg = %v, want %v", r, row[5].F, avg)
		}
	}

	// Expression over aggregates (Script projection path).
	res = mustExec(t, e, nil,
		"SELECT region, SUM(amount) / COUNT(*) AS manual_avg FROM orders GROUP BY region ORDER BY region")
	if len(res.Rows) != 3 {
		t.Fatalf("got %d groups, want 3", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row[1].Kind != types.KindFloat64 {
			t.Errorf("manual_avg kind = %v", row[1].Kind)
		}
	}
}

func TestJoin(t *testing.T) {
	e := testEngine(t, core.TableConfig{})
	mustExec(t, e, nil, "CREATE TABLE customers (id BIGINT PRIMARY KEY, name VARCHAR NOT NULL, tier BIGINT NOT NULL)")
	mustExec(t, e, nil, "CREATE TABLE orders (id BIGINT PRIMARY KEY, cust BIGINT NOT NULL, amount DOUBLE NOT NULL)")
	mustExec(t, e, nil, "INSERT INTO customers VALUES (1, 'acme', 1), (2, 'globex', 2), (3, 'umbrella', 1)")
	mustExec(t, e, nil, "INSERT INTO orders VALUES (10, 1, 5.0), (11, 2, 7.5), (12, 1, 2.5), (13, 3, 9.0)")

	res := mustExec(t, e, nil,
		`SELECT o.id, c.name FROM orders AS o JOIN customers AS c ON o.cust = c.id
		 WHERE c.tier = 1 AND o.amount > 3 ORDER BY o.id`)
	want := [][]types.Value{
		{types.Int(10), types.Str("acme")},
		{types.Int(13), types.Str("umbrella")},
	}
	if !reflect.DeepEqual(res.Rows, want) {
		t.Errorf("join rows = %v, want %v", res.Rows, want)
	}

	// Aggregate over a join.
	res = mustExec(t, e, nil,
		"SELECT c.name, SUM(o.amount) FROM orders AS o JOIN customers AS c ON o.cust = c.id GROUP BY c.name ORDER BY c.name")
	want = [][]types.Value{
		{types.Str("acme"), types.Float(7.5)},
		{types.Str("globex"), types.Float(7.5)},
		{types.Str("umbrella"), types.Float(9)},
	}
	if !reflect.DeepEqual(res.Rows, want) {
		t.Errorf("join agg rows = %v, want %v", res.Rows, want)
	}
}

func TestPrepareAndPlanCache(t *testing.T) {
	e := ordersEngine(t, core.TableConfig{}, 10)
	h0, m0, _ := e.CacheStats()

	p, err := e.Prepare("SELECT id FROM orders WHERE id = ?")
	if err != nil {
		t.Fatal(err)
	}
	if p.NumParams() != 1 || p.ParamKinds()[0] != types.KindInt64 {
		t.Errorf("params = %d %v", p.NumParams(), p.ParamKinds())
	}
	for i := int64(0); i < 5; i++ {
		res, err := p.ExecCtx(context.Background(), nil, types.Int(i))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 1 || res.Rows[0][0].I != i {
			t.Errorf("param %d rows = %v", i, res.Rows)
		}
	}
	// Same normalized text → cache hit despite casing/whitespace.
	mustExec(t, e, nil, "select id  from orders where id = ?", types.Int(1))
	h1, m1, size := e.CacheStats()
	if h1-h0 < 1 {
		t.Errorf("cache hits %d → %d, want an increase", h0, h1)
	}
	if m1-m0 != 1 {
		t.Errorf("cache misses %d → %d, want exactly one new entry", m0, m1)
	}
	if size == 0 {
		t.Error("cache is empty")
	}

	// Parameter coercion: int binds to a DOUBLE placeholder.
	res := mustExec(t, e, nil, "SELECT COUNT(*) FROM orders WHERE amount > ?", types.Int(3))
	if res.Rows[0][0].I == 0 {
		t.Errorf("coerced param query returned %v", res.Rows)
	}
	// Arity mismatch surfaces as an error.
	if _, err := e.ExecCtx(context.Background(), nil, "SELECT id FROM orders WHERE id = ?"); err == nil {
		t.Error("expected arity error")
	}
}

func TestTransactionScope(t *testing.T) {
	e := ordersEngine(t, core.TableConfig{}, 5)
	db := e.db

	// Aborted transaction leaves no trace.
	tx := db.Begin(mvcc.TxnSnapshot)
	mustExec(t, e, tx, "INSERT INTO orders VALUES (100, 'x', 'EMEA', 1, 1.0)")
	mustExec(t, e, tx, "UPDATE orders SET amount = 0 WHERE id = 1")
	res := mustExec(t, e, tx, "SELECT COUNT(*) FROM orders")
	if res.Rows[0][0].I != 6 {
		t.Errorf("in-txn count = %v, want 6", res.Rows[0][0])
	}
	db.Abort(tx)
	res = mustExec(t, e, nil, "SELECT COUNT(*) FROM orders")
	if res.Rows[0][0].I != 5 {
		t.Errorf("post-abort count = %v, want 5", res.Rows[0][0])
	}

	// Committed transaction applies atomically.
	tx = db.Begin(mvcc.TxnSnapshot)
	mustExec(t, e, tx, "INSERT INTO orders VALUES (100, 'x', 'EMEA', 1, 1.0)")
	mustExec(t, e, tx, "DELETE FROM orders WHERE id = 0")
	if err := db.Commit(tx); err != nil {
		t.Fatal(err)
	}
	res = mustExec(t, e, nil, "SELECT id FROM orders ORDER BY id DESC LIMIT 1")
	if res.Rows[0][0].I != 100 {
		t.Errorf("post-commit max id = %v", res.Rows[0][0])
	}
}

func TestCheckErrors(t *testing.T) {
	e := ordersEngine(t, core.TableConfig{}, 1)
	bad := []string{
		"SELECT nope FROM orders",
		"SELECT id FROM nope",
		"SELECT o.id FROM orders",                                      // unknown qualifier
		"SELECT id FROM orders WHERE region > 5",                       // kind mismatch
		"SELECT id FROM orders WHERE id",                               // non-boolean WHERE
		"SELECT id, COUNT(*) FROM orders",                              // bare col in aggregate query
		"SELECT SUM(region) FROM orders",                               // SUM over string
		"SELECT id FROM orders ORDER BY nope",                          // unresolved order key
		"SELECT id FROM orders ORDER BY 3",                             // position out of range
		"SELECT SUM(id + 1) FROM orders",                               // non-column agg arg
		"INSERT INTO orders VALUES (1, 'a', 'b', 2)",                   // arity
		"INSERT INTO orders (id, id) VALUES (1, 2)",                    // dup column
		"INSERT INTO orders VALUES (1, 'a', 'b', 'x', 1.0)",            // kind mismatch
		"UPDATE orders SET nope = 1",                                   // unknown set column
		"SELECT id FROM orders WHERE id = ? AND region = ?1",           // bad token
		"SELECT a.id FROM orders AS a JOIN orders AS a ON a.id = a.id", // dup alias
		"SELECT id FROM orders AS a JOIN orders AS b ON a.id < b.id",   // non-equality join
		"CREATE TABLE t2 (a BIGINT PRIMARY KEY, b BIGINT PRIMARY KEY)",
	}
	for _, in := range bad {
		if _, err := e.ExecCtx(context.Background(), nil, in); err == nil {
			t.Errorf("Exec(%q): expected error, got none", in)
		}
	}
	// Unresolvable parameter kind.
	if _, err := e.ExecCtx(context.Background(), nil, "SELECT id FROM orders WHERE ? = ?"); err == nil {
		t.Error("expected parameter-inference error")
	}
}

func TestDateCoercion(t *testing.T) {
	e := testEngine(t, core.TableConfig{})
	mustExec(t, e, nil, "CREATE TABLE events (id BIGINT PRIMARY KEY, day DATE NOT NULL)")
	mustExec(t, e, nil, "INSERT INTO events VALUES (1, '2026-01-15'), (2, '2026-03-01')")
	res := mustExec(t, e, nil, "SELECT id FROM events WHERE day < '2026-02-01'")
	if len(res.Rows) != 1 || res.Rows[0][0].I != 1 {
		t.Errorf("date filter rows = %v", res.Rows)
	}
	// String parameter binds to a DATE placeholder.
	res = mustExec(t, e, nil, "SELECT COUNT(*) FROM events WHERE day >= ?", types.Str("2026-01-01"))
	if res.Rows[0][0].I != 2 {
		t.Errorf("date param count = %v", res.Rows)
	}
	if _, err := e.ExecCtx(context.Background(), nil, "SELECT id FROM events WHERE day = 'not-a-date'"); err == nil {
		t.Error("expected bad-date error")
	}
}

// TestSQLGroupByUsesMorselParallelPath is the acceptance check from
// the issue: a SQL grouped aggregate over a filtered scan must compile
// to the batch morsel-parallel path, observed via the engine's
// parallel-scan counter.
func TestSQLGroupByUsesMorselParallelPath(t *testing.T) {
	defaults := core.TableConfig{ScanWorkers: 4, ScanMorselRows: 64}
	e := ordersEngine(t, defaults, 600)
	reg := e.db.Metrics()
	counter := reg.Counter("hana_parallel_scans_total", obs.L("table", "orders"))

	before := counter.Value()
	res := mustExec(t, e, nil,
		"SELECT region, COUNT(*), SUM(quantity) FROM orders WHERE quantity >= 1 GROUP BY region")
	if after := counter.Value(); after <= before {
		t.Errorf("hana_parallel_scans_total %d → %d: SQL aggregate did not take the morsel-parallel path", before, after)
	}

	// The numbers must still be right: compare against the oracle.
	oracle := map[string][2]int64{}
	regions := []string{"EMEA", "APJ", "AMER"}
	for i := int64(0); i < 600; i++ {
		if q := i % 5; q >= 1 {
			a := oracle[regions[i%3]]
			a[0]++
			a[1] += q
			oracle[regions[i%3]] = a
		}
	}
	if len(res.Rows) != len(oracle) {
		t.Fatalf("got %d groups, want %d", len(res.Rows), len(oracle))
	}
	for _, row := range res.Rows {
		want := oracle[row[0].S]
		if row[1].I != want[0] || row[2].I != want[1] {
			t.Errorf("group %s = [%v %v], want %v", row[0].S, row[1], row[2], want)
		}
	}
}

func TestRenderRows(t *testing.T) {
	rows := [][]types.Value{
		{types.Int(1), types.Str("plain"), types.Float(2.5)},
		{types.Str("has space"), types.Str(""), types.Null},
	}
	got := RenderRows(rows)
	want := []string{"1 plain 2.5", "'has space' '' NULL"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("RenderRows = %q, want %q", got, want)
	}
}
