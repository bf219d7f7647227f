package main

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"

	hana "repro"
	"repro/internal/client"
)

const (
	ordersTable    = "orders"
	customersTable = "customers"
)

// The statements every SQL-speaking session prepares once. The four
// q_* texts are the benchmark's analytic query classes.
var sqlText = [numClasses]string{
	clsPoint:  "SELECT id, amount FROM orders WHERE id = ?",
	clsInsert: "INSERT INTO orders VALUES (?, ?, ?, ?, ?, ?, ?)",
	clsUpdate: "UPDATE orders SET customer = ?, product = ?, region = ?, status = ?, quantity = ?, amount = ? WHERE id = ?",
	clsDelete: "DELETE FROM orders WHERE id = ?",

	clsGroupLow:  "SELECT region, COUNT(*), SUM(quantity), SUM(amount) FROM orders GROUP BY region",
	clsGroupHigh: "SELECT customer, COUNT(*), SUM(amount) FROM orders GROUP BY customer",
	clsFilter:    "SELECT COUNT(*), SUM(amount) FROM orders WHERE amount BETWEEN ? AND ?",
	clsJoin:      "SELECT c.segment, COUNT(*), SUM(o.amount) FROM orders AS o JOIN customers AS c ON o.customer = c.cust_id GROUP BY c.segment",
}

// grouped says whether a query class's first output column is a group
// key (q_filter is an ungrouped aggregate).
func grouped(c class) bool { return c != clsFilter }

var errNotFound = errors.New("benchmark: key not found")

// answerSet is one query's result as the access path delivered it:
// engine rows when embedded, protocol lines over the wire. Turning it
// into comparable groups happens outside the timed call.
type answerSet struct {
	rows  [][]hana.Value
	lines []string
}

func (a answerSet) len() int { return len(a.rows) + len(a.lines) }

func (a answerSet) groups(c class) (groups, error) {
	out := make(groups, a.len())
	first := 0
	if grouped(c) {
		first = 1
	}
	for _, r := range a.rows {
		key := ""
		if first == 1 {
			key = r[0].S
		}
		vals := make([]float64, len(r)-first)
		for i, v := range r[first:] {
			if v.Kind == hana.Float64 {
				vals[i] = v.F
			} else {
				vals[i] = float64(v.I)
			}
		}
		out[key] = vals
	}
	for _, line := range a.lines {
		f := strings.Fields(line)
		key := ""
		if first == 1 {
			key = f[0]
		}
		vals := make([]float64, len(f)-first)
		for i, tok := range f[first:] {
			v, err := strconv.ParseFloat(tok, 64)
			if err != nil {
				return nil, fmt.Errorf("%s: row %q: %w", c, line, err)
			}
			vals[i] = v
		}
		out[key] = vals
	}
	return out, nil
}

// session is one ERP user's connection to the system under test,
// through whichever access path the workload measures. A session is
// used by one goroutine.
type session interface {
	// Point returns the amount stored under key.
	Point(key int64) (float64, error)
	Insert(row []hana.Value) error
	Update(key int64, row []hana.Value) error
	Delete(key int64) error
	// Query runs one analytic query class; lo and hi bound q_filter.
	Query(c class, lo, hi float64) (answerSet, error)
	// trace makes the session record a span around every call it makes
	// into the system (nil turns that off).
	trace(tr *spanRec)
	Close()
}

// ---- native: hana.Table / hana.View / calc graphs, no SQL, no wire ----

type nativeSession struct {
	db        *hana.DB
	orders    *hana.Table
	customers *hana.Table
	tr        *spanRec
}

func newNativeSession(db *hana.DB) *nativeSession {
	return &nativeSession{db: db, orders: db.Table(ordersTable), customers: db.Table(customersTable)}
}

func (s *nativeSession) Point(key int64) (float64, error) {
	s.tr.begin("core.View")
	v := s.orders.View(nil)
	s.tr.end()
	s.tr.begin("core.Get")
	m := v.Get(hana.Int(key))
	s.tr.end()
	s.tr.begin("core.View.Close")
	v.Close()
	s.tr.end()
	if m == nil {
		return 0, errNotFound
	}
	return m.Row[colAmount].F, nil
}

// write runs fn in its own transaction, the way one ERP booking does.
func (s *nativeSession) write(op string, fn func(tx *hana.Txn) error) error {
	s.tr.begin("mvcc.Begin")
	tx := s.db.Begin(hana.TxnSnapshot)
	s.tr.end()
	s.tr.begin(op)
	err := fn(tx)
	s.tr.end()
	if err != nil {
		s.db.Abort(tx)
		return err
	}
	s.tr.begin("core.Commit")
	err = s.db.Commit(tx)
	s.tr.end()
	return err
}

func (s *nativeSession) Insert(row []hana.Value) error {
	return s.write("core.Insert", func(tx *hana.Txn) error {
		_, err := s.orders.Insert(tx, row)
		return err
	})
}

func (s *nativeSession) Update(key int64, row []hana.Value) error {
	return s.write("core.UpdateKey", func(tx *hana.Txn) error {
		_, err := s.orders.UpdateKey(tx, hana.Int(key), row)
		return err
	})
}

func (s *nativeSession) Delete(key int64) error {
	return s.write("core.DeleteKey", func(tx *hana.Txn) error {
		n, err := s.orders.DeleteKey(tx, hana.Int(key))
		if err == nil && n == 0 {
			err = errNotFound
		}
		return err
	})
}

// queryGraph hand-builds the calc graph the SQL planner produces for
// a query class. Graphs are optimized in place, so each execution
// builds its own.
func queryGraph(orders, customers *hana.Table, c class, lo, hi float64) (*hana.Graph, *hana.Node) {
	g := hana.NewGraph()
	count := hana.Agg{Func: hana.Count}
	sumAmount := hana.Agg{Func: hana.Sum, Col: colAmount}
	switch c {
	case clsGroupLow:
		return g, g.Aggregate(g.Table(orders), []int{colRegion}, count, hana.Agg{Func: hana.Sum, Col: colQuantity}, sumAmount)
	case clsGroupHigh:
		return g, g.Aggregate(g.Table(orders), []int{colCustomer}, count, sumAmount)
	case clsFilter:
		in := g.Filter(g.Table(orders), hana.Between{Col: colAmount, Lo: hana.Float(lo), Hi: hana.Float(hi), LoInc: true, HiInc: true})
		return g, g.Aggregate(in, nil, count, sumAmount)
	case clsJoin:
		in := g.Join(g.Table(orders), g.Table(customers), colCustomer, custID)
		width := len(orders.Schema().Columns)
		return g, g.Aggregate(in, []int{width + custSegment}, count, sumAmount)
	}
	panic("benchmark: no graph for class " + c.String())
}

func (s *nativeSession) Query(c class, lo, hi float64) (answerSet, error) {
	s.tr.begin("calc.ExecuteGraph")
	g, root := queryGraph(s.orders, s.customers, c, lo, hi)
	rows, err := hana.ExecuteGraph(g, root, hana.Env{})
	s.tr.end()
	return answerSet{rows: rows}, err
}

func (s *nativeSession) trace(tr *spanRec) { s.tr = tr }
func (s *nativeSession) Close()            {}

// ---- embedded SQL: prepared statements on a hana.SQLEngine ----

// sqlStatements is the prepared statement set, shared by an engine's
// sessions (prepared handles are immutable).
type sqlStatements [numClasses]*hana.SQLPrepared

func prepareAll(eng *hana.SQLEngine) (*sqlStatements, error) {
	var st sqlStatements
	for c, text := range sqlText {
		p, err := eng.Prepare(text)
		if err != nil {
			return nil, fmt.Errorf("prepare %s: %w", class(c), err)
		}
		st[c] = p
	}
	return &st, nil
}

type sqlSession struct {
	st *sqlStatements
	tr *spanRec
}

func (s *sqlSession) exec(c class, params ...hana.Value) (*hana.SQLResult, error) {
	s.tr.begin("sql.ExecCtx")
	res, err := s.st[c].ExecCtx(context.Background(), nil, params...)
	s.tr.end()
	return res, err
}

func (s *sqlSession) Point(key int64) (float64, error) {
	res, err := s.exec(clsPoint, hana.Int(key))
	if err != nil {
		return 0, err
	}
	if len(res.Rows) != 1 {
		return 0, errNotFound
	}
	return res.Rows[0][1].F, nil
}

func (s *sqlSession) Insert(row []hana.Value) error {
	_, err := s.exec(clsInsert, row...)
	return err
}

// updateParams orders a full row the way the UPDATE statement binds
// it: the six payload columns, then the key.
func updateParams(key int64, row []hana.Value) []hana.Value {
	return append(append(make([]hana.Value, 0, len(row)), row[1:]...), hana.Int(key))
}

func (s *sqlSession) Update(key int64, row []hana.Value) error {
	res, err := s.exec(clsUpdate, updateParams(key, row)...)
	if err == nil && res.Affected != 1 {
		err = errNotFound
	}
	return err
}

func (s *sqlSession) Delete(key int64) error {
	res, err := s.exec(clsDelete, hana.Int(key))
	if err == nil && res.Affected != 1 {
		err = errNotFound
	}
	return err
}

func filterParams(c class, lo, hi float64) []hana.Value {
	if c != clsFilter {
		return nil
	}
	return []hana.Value{hana.Float(lo), hana.Float(hi)}
}

func (s *sqlSession) Query(c class, lo, hi float64) (answerSet, error) {
	res, err := s.exec(c, filterParams(c, lo, hi)...)
	if err != nil {
		return answerSet{}, err
	}
	return answerSet{rows: res.Rows}, nil
}

func (s *sqlSession) trace(tr *spanRec) { s.tr = tr }
func (s *sqlSession) Close()            {}

// ---- wire: PREPARE / EXECUTE against a hanaserver over TCP ----

type wireSession struct {
	c  *client.Client
	tr *spanRec
}

// dialWire opens one protocol session and prepares the statement set
// on it (prepared statements are per server session).
func dialWire(cfg client.Config) (*wireSession, error) {
	c, err := client.Dial(cfg)
	if err != nil {
		return nil, err
	}
	for cl, text := range sqlText {
		if err := c.Prepare(class(cl).String(), text); err != nil {
			c.Close()
			return nil, fmt.Errorf("prepare %s: %w", class(cl), err)
		}
	}
	return &wireSession{c: c}, nil
}

// wireValue renders a parameter in the protocol's token syntax.
func wireValue(v hana.Value) string {
	switch v.Kind {
	case hana.String:
		return "'" + v.S + "'"
	case hana.Float64:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	default:
		return strconv.FormatInt(v.I, 10)
	}
}

func executeCmd(c class, params ...hana.Value) string {
	var b strings.Builder
	b.WriteString("EXECUTE ")
	b.WriteString(c.String())
	for _, p := range params {
		b.WriteByte(' ')
		b.WriteString(wireValue(p))
	}
	return b.String()
}

// do sends one command and returns the payload lines before the
// terminator; an ERR terminator becomes an error.
func (s *wireSession) do(cmd string) (lines []string, last string, err error) {
	s.tr.begin("client.Do")
	resp, err := s.c.Do(cmd)
	s.tr.end()
	if err != nil {
		return nil, "", err
	}
	last = resp[len(resp)-1]
	if strings.HasPrefix(last, "ERR") {
		return nil, "", &client.ServerError{Msg: last}
	}
	return resp[:len(resp)-1], last, nil
}

// affected runs a DML statement and checks it changed exactly one row.
func (s *wireSession) affected(cmd string) error {
	_, last, err := s.do(cmd)
	if err == nil && last != "OK 1" {
		err = fmt.Errorf("%w (%s)", errNotFound, last)
	}
	return err
}

func (s *wireSession) Point(key int64) (float64, error) {
	lines, _, err := s.do(executeCmd(clsPoint, hana.Int(key)))
	if err != nil {
		return 0, err
	}
	if len(lines) != 1 {
		return 0, errNotFound
	}
	_, amount, _ := strings.Cut(strings.TrimPrefix(lines[0], "ROW "), " ")
	return strconv.ParseFloat(amount, 64)
}

func (s *wireSession) Insert(row []hana.Value) error {
	return s.affected(executeCmd(clsInsert, row...))
}

func (s *wireSession) Update(key int64, row []hana.Value) error {
	return s.affected(executeCmd(clsUpdate, updateParams(key, row)...))
}

func (s *wireSession) Delete(key int64) error {
	return s.affected(executeCmd(clsDelete, hana.Int(key)))
}

func (s *wireSession) Query(c class, lo, hi float64) (answerSet, error) {
	lines, _, err := s.do(executeCmd(c, filterParams(c, lo, hi)...))
	if err != nil {
		return answerSet{}, err
	}
	for i, l := range lines {
		lines[i] = strings.TrimPrefix(l, "ROW ")
	}
	return answerSet{lines: lines}, nil
}

func (s *wireSession) trace(tr *spanRec) { s.tr = tr }
func (s *wireSession) Close()            { s.c.Close() }
