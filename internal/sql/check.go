package sql

import (
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/types"
)

// Catalog resolves table names to unified tables. *core.Database
// satisfies it; tests can supply a fixture catalog.
type Catalog interface {
	Table(name string) *core.Table
}

// CompiledStmt is a checked, immutable statement: the AST with all
// resolution fields filled, plus the metadata the engine needs to bind
// parameters and shape results. One CompiledStmt is shared by every
// concurrent execution of the same (normalized) statement text — the
// planner builds a fresh calc graph per execution, so nothing here is
// mutated after Check returns.
type CompiledStmt struct {
	// Text is the normalized statement text (the plan-cache key).
	Text string
	// Stmt is the checked AST.
	Stmt Statement
	// NumParams is the number of ? placeholders.
	NumParams int
	// ParamKinds holds the inferred kind of each placeholder, in
	// lexical order.
	ParamKinds []types.Kind
	// OutCols names the result columns of a SELECT (nil for DML).
	OutCols []string

	scope *scope      // SELECT: resolved FROM/JOIN tables
	table *core.Table // DML: the target table
}

// scopeTable is one table visible to name resolution, with the offset
// of its first column in the joined row (join output is the
// concatenation left columns ++ right columns).
type scopeTable struct {
	name   string
	alias  string // alias, or name when none
	schema *types.Schema
	offset int
	tab    *core.Table
}

type scope struct {
	tables []scopeTable
	width  int
}

func (s *scope) add(ref TableRef, tab *core.Table) error {
	alias := ref.Alias
	if alias == "" {
		alias = ref.Name
	}
	for _, t := range s.tables {
		if t.alias == alias {
			return errAt(0, "duplicate table name or alias %q (use AS to disambiguate)", alias)
		}
	}
	s.tables = append(s.tables, scopeTable{
		name:   ref.Name,
		alias:  alias,
		schema: tab.Schema(),
		offset: s.width,
		tab:    tab,
	})
	s.width += tab.Schema().NumColumns()
	return nil
}

// resolve fills ref.idx (global ordinal) and ref.kind.
func (s *scope) resolve(ref *ColumnRef) error {
	if ref.Table != "" {
		for _, t := range s.tables {
			if t.alias != ref.Table {
				continue
			}
			i := t.schema.ColumnIndex(ref.Name)
			if i < 0 {
				return errAt(0, "table %q has no column %q", ref.Table, ref.Name)
			}
			ref.idx = t.offset + i
			ref.kind = t.schema.Columns[i].Kind
			return nil
		}
		return errAt(0, "unknown table %q", ref.Table)
	}
	found := false
	for _, t := range s.tables {
		i := t.schema.ColumnIndex(ref.Name)
		if i < 0 {
			continue
		}
		if found {
			return errAt(0, "ambiguous column %q (qualify with a table name)", ref.Name)
		}
		found = true
		ref.idx = t.offset + i
		ref.kind = t.schema.Columns[i].Kind
	}
	if !found {
		return errAt(0, "unknown column %q", ref.Name)
	}
	return nil
}

// checker runs the semantic pass: name resolution, literal coercion,
// parameter-kind inference, and aggregate-query shape rules.
type checker struct {
	cat    Catalog
	params []types.Kind
}

// Check resolves stmt against cat and returns the compiled form.
// The AST is mutated in place (resolution fields) and must not be
// re-checked against a different catalog.
func Check(stmt Statement, cat Catalog) (*CompiledStmt, error) {
	c := &checker{cat: cat, params: make([]types.Kind, countParams(stmt))}
	cs := &CompiledStmt{Stmt: stmt, Text: Normalize(stmt.String())}
	var err error
	switch s := stmt.(type) {
	case *SelectStmt:
		err = c.checkSelect(s, cs)
	case *InsertStmt:
		err = c.checkInsert(s, cs)
	case *UpdateStmt:
		err = c.checkUpdate(s, cs)
	case *DeleteStmt:
		err = c.checkDelete(s, cs)
	case *CreateTableStmt:
		err = c.checkCreate(s)
	}
	if err != nil {
		return nil, err
	}
	for i, k := range c.params {
		if !k.Valid() {
			return nil, errAt(0, "cannot infer the type of parameter %d from context", i+1)
		}
	}
	cs.NumParams = len(c.params)
	cs.ParamKinds = c.params
	return cs, nil
}

// countParams walks the statement counting ? placeholders.
func countParams(stmt Statement) int {
	n := 0
	walkStmtExprs(stmt, func(e Expr) {
		if _, ok := e.(*Param); ok {
			n++
		}
	})
	return n
}

func walkStmtExprs(stmt Statement, fn func(Expr)) {
	switch s := stmt.(type) {
	case *SelectStmt:
		for _, it := range s.Items {
			walkExpr(it.Expr, fn)
		}
		for i := range s.Joins {
			walkExpr(s.Joins[i].On, fn)
		}
		walkExpr(s.Where, fn)
		for _, e := range s.GroupBy {
			walkExpr(e, fn)
		}
		for _, k := range s.OrderBy {
			walkExpr(k.Expr, fn)
		}
	case *InsertStmt:
		for _, row := range s.Rows {
			for _, e := range row {
				walkExpr(e, fn)
			}
		}
	case *UpdateStmt:
		for _, set := range s.Sets {
			walkExpr(set.Val, fn)
		}
		walkExpr(s.Where, fn)
	case *DeleteStmt:
		walkExpr(s.Where, fn)
	}
}

func walkExpr(e Expr, fn func(Expr)) {
	if e == nil {
		return
	}
	fn(e)
	switch x := e.(type) {
	case *Unary:
		walkExpr(x.E, fn)
	case *Binary:
		walkExpr(x.L, fn)
		walkExpr(x.R, fn)
	case *Between:
		walkExpr(x.E, fn)
		walkExpr(x.Lo, fn)
		walkExpr(x.Hi, fn)
	case *InList:
		walkExpr(x.E, fn)
		for _, el := range x.List {
			walkExpr(el, fn)
		}
	case *LikeExpr:
		walkExpr(x.E, fn)
		walkExpr(x.Pattern, fn)
	case *IsNullExpr:
		walkExpr(x.E, fn)
	case *Call:
		walkExpr(x.Arg, fn)
	}
}

func (c *checker) lookupTable(name string) (*core.Table, error) {
	t := c.cat.Table(name)
	if t == nil {
		return nil, errAt(0, "unknown table %q", name)
	}
	return t, nil
}

// ---- SELECT ----

func (c *checker) checkSelect(s *SelectStmt, cs *CompiledStmt) error {
	sc := &scope{}
	tab, err := c.lookupTable(s.From.Name)
	if err != nil {
		return err
	}
	if err := sc.add(s.From, tab); err != nil {
		return err
	}
	for i := range s.Joins {
		j := &s.Joins[i]
		// Resolve the ON condition with the joined table NOT yet in
		// scope on the left: it must be leftCol = rightCol with one
		// side from the accumulated left input and one from the newly
		// joined table.
		jt, err := c.lookupTable(j.Table.Name)
		if err != nil {
			return err
		}
		leftWidth := sc.width
		if err := sc.add(j.Table, jt); err != nil {
			return err
		}
		eq, ok := j.On.(*Binary)
		if !ok || eq.Op != "=" {
			return errAt(0, "JOIN ON must be an equality between two columns")
		}
		lref, lok := eq.L.(*ColumnRef)
		rref, rok := eq.R.(*ColumnRef)
		if !lok || !rok {
			return errAt(0, "JOIN ON must be an equality between two columns")
		}
		if err := sc.resolve(lref); err != nil {
			return err
		}
		if err := sc.resolve(rref); err != nil {
			return err
		}
		// Normalize so lref is the accumulated-left side.
		if lref.idx >= leftWidth && rref.idx < leftWidth {
			lref, rref = rref, lref
		}
		if lref.idx >= leftWidth || rref.idx < leftWidth {
			return errAt(0, "JOIN ON must relate the joined table %q to a table on its left", j.Table.Name)
		}
		if lref.kind != rref.kind {
			return errAt(0, "JOIN ON compares %v with %v", lref.kind, rref.kind)
		}
		j.leftIdx = lref.idx
		j.rightIdx = rref.idx - leftWidth
	}
	cs.scope = sc

	// Expand * into explicit column references, in scope order.
	var items []SelectItem
	for _, it := range s.Items {
		if !it.Star {
			items = append(items, it)
			continue
		}
		for _, t := range sc.tables {
			for _, col := range t.schema.Columns {
				items = append(items, SelectItem{Expr: &ColumnRef{Name: col.Name, Table: t.alias}})
			}
		}
	}
	s.Items = items

	if s.Where != nil {
		k, err := c.checkExpr(s.Where, sc, false)
		if err != nil {
			return err
		}
		if k != types.KindBool {
			return errAt(0, "WHERE wants a boolean, got %v", k)
		}
	}

	// GROUP BY columns.
	for _, e := range s.GroupBy {
		ref, ok := e.(*ColumnRef)
		if !ok {
			return errAt(0, "GROUP BY supports plain columns, got %s", e)
		}
		if err := sc.resolve(ref); err != nil {
			return err
		}
		s.groupIdx = append(s.groupIdx, ref.idx)
	}

	// Detect aggregation and collect the aggregate calls.
	hasAgg := false
	for _, it := range s.Items {
		walkExpr(it.Expr, func(e Expr) {
			if _, ok := e.(*Call); ok {
				hasAgg = true
			}
		})
	}
	s.aggregate = hasAgg || len(s.GroupBy) > 0

	for i := range s.Items {
		it := &s.Items[i]
		k, err := c.checkExpr(it.Expr, sc, s.aggregate)
		if err != nil {
			return err
		}
		_ = k
		if s.aggregate {
			if err := c.checkGroupedExpr(it.Expr, s); err != nil {
				return err
			}
			collectAggs(it.Expr, s)
		}
		cs.OutCols = append(cs.OutCols, itemName(*it))
	}

	// ORDER BY keys resolve against the output columns: by 1-based
	// position, alias, column name, or rendered expression text.
	for i := range s.OrderBy {
		key := &s.OrderBy[i]
		idx, err := resolveOrderKey(key.Expr, s.Items, cs.OutCols)
		if err != nil {
			return err
		}
		key.outIdx = idx
	}
	return nil
}

// itemName is the output column name: alias, bare column name, or the
// rendered expression.
func itemName(it SelectItem) string {
	if it.Alias != "" {
		return it.Alias
	}
	if ref, ok := it.Expr.(*ColumnRef); ok {
		return ref.Name
	}
	return it.Expr.String()
}

func resolveOrderKey(e Expr, items []SelectItem, names []string) (int, error) {
	switch x := e.(type) {
	case *Literal:
		if x.Val.Kind != types.KindInt64 {
			return 0, errAt(0, "ORDER BY literal must be a 1-based column position")
		}
		n := int(x.Val.I)
		if n < 1 || n > len(items) {
			return 0, errAt(0, "ORDER BY position %d out of range 1..%d", n, len(items))
		}
		return n - 1, nil
	case *ColumnRef:
		if x.Table == "" {
			for i, name := range names {
				if name == x.Name {
					return i, nil
				}
			}
		}
	}
	// Fall back to structural match against the rendered item text.
	want := e.String()
	for i, it := range items {
		if it.Expr.String() == want {
			return i, nil
		}
	}
	return 0, errAt(0, "ORDER BY key %s is not in the select list", e)
}

// checkGroupedExpr enforces the aggregate-query rule: outside an
// aggregate call, only GROUP BY columns may be referenced.
func (c *checker) checkGroupedExpr(e Expr, s *SelectStmt) error {
	if e == nil {
		return nil
	}
	if _, ok := e.(*Call); ok {
		return nil // aggregate args may reference any column
	}
	if ref, ok := e.(*ColumnRef); ok {
		for _, g := range s.groupIdx {
			if g == ref.idx {
				return nil
			}
		}
		return errAt(0, "column %s must appear in GROUP BY or inside an aggregate", ref)
	}
	var err error
	walkChildren(e, func(child Expr) {
		if err == nil {
			err = c.checkGroupedExpr(child, s)
		}
	})
	return err
}

// walkChildren visits the direct children of e.
func walkChildren(e Expr, fn func(Expr)) {
	switch x := e.(type) {
	case *Unary:
		fn(x.E)
	case *Binary:
		fn(x.L)
		fn(x.R)
	case *Between:
		fn(x.E)
		fn(x.Lo)
		fn(x.Hi)
	case *InList:
		fn(x.E)
		for _, el := range x.List {
			fn(el)
		}
	case *LikeExpr:
		fn(x.E)
		fn(x.Pattern)
	case *IsNullExpr:
		fn(x.E)
	case *Call:
		fn(x.Arg)
	}
}

// collectAggs registers every aggregate call in e on the statement,
// deduplicating by rendered text so SUM(v) appearing twice computes
// once. Each call records its slot in the aggregate output row.
func collectAggs(e Expr, s *SelectStmt) {
	walkExpr(e, func(x Expr) {
		call, ok := x.(*Call)
		if !ok {
			return
		}
		text := call.String()
		for i, prev := range s.aggCalls {
			if prev.String() == text {
				call.aggIdx = i
				return
			}
		}
		call.aggIdx = len(s.aggCalls)
		s.aggCalls = append(s.aggCalls, call)
		col := 0
		if !call.Star {
			col = call.Arg.(*ColumnRef).idx
		}
		s.aggs = append(s.aggs, engine.Agg{Func: call.agg, Col: col})
	})
}

// ---- expression checking ----

// checkExpr resolves names, coerces literals, infers parameter kinds,
// and returns the expression's kind. inAgg permits aggregate calls.
func (c *checker) checkExpr(e Expr, sc *scope, inAgg bool) (types.Kind, error) {
	switch x := e.(type) {
	case *ColumnRef:
		if err := sc.resolve(x); err != nil {
			return 0, err
		}
		return x.kind, nil
	case *Literal:
		return x.Val.Kind, nil // KindInvalid = NULL, coerced by context
	case *Param:
		return c.params[x.Ord], nil // KindInvalid until inferred
	case *Unary:
		k, err := c.checkExpr(x.E, sc, inAgg)
		if err != nil {
			return 0, err
		}
		if x.Op == "NOT" {
			if k != types.KindBool {
				return 0, errAt(0, "NOT wants a boolean, got %v", k)
			}
			return types.KindBool, nil
		}
		if k != types.KindInt64 && k != types.KindFloat64 {
			return 0, errAt(0, "unary - wants a number, got %v", k)
		}
		return k, nil
	case *Binary:
		return c.checkBinary(x, sc, inAgg)
	case *Between:
		if _, err := c.coercePair(&x.E, &x.Lo, sc, inAgg); err != nil {
			return 0, err
		}
		if _, err := c.coercePair(&x.E, &x.Hi, sc, inAgg); err != nil {
			return 0, err
		}
		return types.KindBool, nil
	case *InList:
		for i := range x.List {
			if _, err := c.coercePair(&x.E, &x.List[i], sc, inAgg); err != nil {
				return 0, err
			}
		}
		return types.KindBool, nil
	case *LikeExpr:
		k, err := c.checkExpr(x.E, sc, inAgg)
		if err != nil {
			return 0, err
		}
		if k != types.KindString {
			return 0, errAt(0, "LIKE wants a string, got %v", k)
		}
		pk, err := c.checkExpr(x.Pattern, sc, inAgg)
		if err != nil {
			return 0, err
		}
		if pk == types.KindInvalid {
			if p, ok := x.Pattern.(*Param); ok {
				c.params[p.Ord] = types.KindString
				pk = types.KindString
			}
		}
		if pk != types.KindString {
			return 0, errAt(0, "LIKE pattern wants a string, got %v", pk)
		}
		return types.KindBool, nil
	case *IsNullExpr:
		if _, err := c.checkExpr(x.E, sc, inAgg); err != nil {
			return 0, err
		}
		return types.KindBool, nil
	case *Call:
		return c.checkCall(x, sc, inAgg)
	}
	return 0, errAt(0, "unsupported expression %s", e)
}

func (c *checker) checkBinary(x *Binary, sc *scope, inAgg bool) (types.Kind, error) {
	switch x.Op {
	case "AND", "OR":
		for _, side := range []Expr{x.L, x.R} {
			k, err := c.checkExpr(side, sc, inAgg)
			if err != nil {
				return 0, err
			}
			if k != types.KindBool {
				return 0, errAt(0, "%s wants booleans, got %v", x.Op, k)
			}
		}
		return types.KindBool, nil
	case "=", "<>", "<", "<=", ">", ">=":
		if _, err := c.coercePair(&x.L, &x.R, sc, inAgg); err != nil {
			return 0, err
		}
		return types.KindBool, nil
	case "+", "-", "*", "/":
		lk, err := c.checkExpr(x.L, sc, inAgg)
		if err != nil {
			return 0, err
		}
		rk, err := c.checkExpr(x.R, sc, inAgg)
		if err != nil {
			return 0, err
		}
		// Infer numeric parameters as the other side's kind (or float).
		if lk == types.KindInvalid {
			lk, err = c.inferNumericParam(x.L, rk)
			if err != nil {
				return 0, err
			}
		}
		if rk == types.KindInvalid {
			rk, err = c.inferNumericParam(x.R, lk)
			if err != nil {
				return 0, err
			}
		}
		for _, k := range []types.Kind{lk, rk} {
			if k != types.KindInt64 && k != types.KindFloat64 {
				return 0, errAt(0, "%s wants numbers, got %v", x.Op, k)
			}
		}
		if x.Op == "/" || lk == types.KindFloat64 || rk == types.KindFloat64 {
			return types.KindFloat64, nil
		}
		return types.KindInt64, nil
	}
	return 0, errAt(0, "unknown operator %s", x.Op)
}

func (c *checker) inferNumericParam(e Expr, other types.Kind) (types.Kind, error) {
	p, ok := e.(*Param)
	if !ok {
		return 0, errAt(0, "cannot infer the type of %s", e)
	}
	k := other
	if k != types.KindInt64 && k != types.KindFloat64 {
		k = types.KindFloat64
	}
	c.params[p.Ord] = k
	p.kind = k
	return k, nil
}

func (c *checker) checkCall(x *Call, sc *scope, inAgg bool) (types.Kind, error) {
	if !inAgg {
		return 0, errAt(0, "aggregate %s is only allowed in a grouped SELECT list", x.Func)
	}
	switch x.Func {
	case "COUNT":
		x.agg = engine.AggCount
	case "SUM":
		x.agg = engine.AggSum
	case "MIN":
		x.agg = engine.AggMin
	case "MAX":
		x.agg = engine.AggMax
	case "AVG":
		x.agg = engine.AggAvg
	default:
		return 0, errAt(0, "unknown function %s", x.Func)
	}
	if x.Star {
		return types.KindInt64, nil
	}
	ref, ok := x.Arg.(*ColumnRef)
	if !ok {
		return 0, errAt(0, "%s wants a plain column argument, got %s", x.Func, x.Arg)
	}
	if err := sc.resolve(ref); err != nil {
		return 0, err
	}
	switch x.agg {
	case engine.AggCount:
		return types.KindInt64, nil
	case engine.AggAvg:
		return types.KindFloat64, nil
	case engine.AggSum:
		if ref.kind != types.KindInt64 && ref.kind != types.KindFloat64 {
			return 0, errAt(0, "SUM wants a numeric column, got %v", ref.kind)
		}
		return ref.kind, nil
	default: // MIN/MAX follow the column kind
		return ref.kind, nil
	}
}

// coercePair checks both sides of a comparison and rewrites literals
// (or infers parameters) so both sides share one kind — types.Compare
// requires kind agreement for non-NULL values.
func (c *checker) coercePair(l, r *Expr, sc *scope, inAgg bool) (types.Kind, error) {
	lk, err := c.checkExpr(*l, sc, inAgg)
	if err != nil {
		return 0, err
	}
	rk, err := c.checkExpr(*r, sc, inAgg)
	if err != nil {
		return 0, err
	}
	if lk == rk {
		return lk, nil
	}
	// One side untyped: NULL literal (stays NULL) or parameter.
	if lk == types.KindInvalid {
		return c.adoptKind(l, rk)
	}
	if rk == types.KindInvalid {
		return c.adoptKind(r, lk)
	}
	// Numeric widening: the int side becomes float.
	if lk == types.KindInt64 && rk == types.KindFloat64 {
		return rk, c.toFloat(l)
	}
	if rk == types.KindInt64 && lk == types.KindFloat64 {
		return lk, c.toFloat(r)
	}
	// Date literals: a string or int literal against a DATE column.
	if lk == types.KindDate && c.toDate(r) == nil {
		return lk, nil
	}
	if rk == types.KindDate && c.toDate(l) == nil {
		return rk, nil
	}
	return 0, errAt(0, "cannot compare %v with %v", lk, rk)
}

// adoptKind assigns kind k to an untyped side: a NULL literal keeps
// its NULL value (compares fine), a parameter records k for binding.
func (c *checker) adoptKind(e *Expr, k types.Kind) (types.Kind, error) {
	switch x := (*e).(type) {
	case *Literal:
		if x.Val.IsNull() {
			return k, nil
		}
	case *Param:
		c.params[x.Ord] = k
		x.kind = k
		return k, nil
	}
	return 0, errAt(0, "cannot infer the type of %s", *e)
}

// toFloat rewrites an int literal to float, or infers a float param.
func (c *checker) toFloat(e *Expr) error {
	switch x := (*e).(type) {
	case *Literal:
		if x.Val.Kind == types.KindInt64 {
			*e = &Literal{Val: types.Float(float64(x.Val.I))}
			return nil
		}
	case *Param:
		c.params[x.Ord] = types.KindFloat64
		x.kind = types.KindFloat64
		return nil
	case *Unary, *Binary:
		return nil // arithmetic coerces at evaluation time
	}
	return errAt(0, "cannot coerce %s to DOUBLE", *e)
}

// toDate rewrites a 'YYYY-MM-DD' string literal or day-count int
// literal to a DATE value, or infers a date param.
func (c *checker) toDate(e *Expr) error {
	switch x := (*e).(type) {
	case *Literal:
		switch x.Val.Kind {
		case types.KindString:
			t, err := time.Parse("2006-01-02", x.Val.S)
			if err != nil {
				return errAt(0, "bad date literal %q (want YYYY-MM-DD)", x.Val.S)
			}
			*e = &Literal{Val: types.DateOf(t)}
			return nil
		case types.KindInt64:
			*e = &Literal{Val: types.Date(x.Val.I)}
			return nil
		}
	case *Param:
		c.params[x.Ord] = types.KindDate
		x.kind = types.KindDate
		return nil
	}
	return errAt(0, "cannot coerce %s to DATE", *e)
}

// ---- DML ----

func (c *checker) checkInsert(s *InsertStmt, cs *CompiledStmt) error {
	tab, err := c.lookupTable(s.Table)
	if err != nil {
		return err
	}
	cs.table = tab
	schema := tab.Schema()
	if s.Cols == nil {
		s.colIdx = make([]int, schema.NumColumns())
		for i := range s.colIdx {
			s.colIdx[i] = i
		}
	} else {
		seen := map[int]bool{}
		for _, name := range s.Cols {
			i := schema.ColumnIndex(name)
			if i < 0 {
				return errAt(0, "table %q has no column %q", s.Table, name)
			}
			if seen[i] {
				return errAt(0, "column %q listed twice", name)
			}
			seen[i] = true
			s.colIdx = append(s.colIdx, i)
		}
	}
	empty := &scope{} // VALUES expressions cannot reference columns
	for _, row := range s.Rows {
		if len(row) != len(s.colIdx) {
			return errAt(0, "INSERT row has %d values, want %d", len(row), len(s.colIdx))
		}
		for i := range row {
			want := schema.Columns[s.colIdx[i]].Kind
			if err := c.coerceTo(&row[i], want, empty); err != nil {
				return err
			}
		}
	}
	return nil
}

// coerceTo checks a value expression against a target column kind.
func (c *checker) coerceTo(e *Expr, want types.Kind, sc *scope) error {
	k, err := c.checkExpr(*e, sc, false)
	if err != nil {
		return err
	}
	if k == want {
		return nil
	}
	if k == types.KindInvalid {
		_, err := c.adoptKind(e, want)
		return err
	}
	if want == types.KindFloat64 && k == types.KindInt64 {
		return c.toFloat(e)
	}
	if want == types.KindDate && (k == types.KindString || k == types.KindInt64) {
		return c.toDate(e)
	}
	return errAt(0, "column wants %v, got %v", want, k)
}

func (c *checker) checkUpdate(s *UpdateStmt, cs *CompiledStmt) error {
	tab, err := c.lookupTable(s.Table)
	if err != nil {
		return err
	}
	cs.table = tab
	schema := tab.Schema()
	if schema.Key < 0 {
		return errAt(0, "UPDATE requires a table with a primary key")
	}
	sc := &scope{}
	if err := sc.add(TableRef{Name: s.Table}, tab); err != nil {
		return err
	}
	cs.scope = sc
	for i := range s.Sets {
		set := &s.Sets[i]
		idx := schema.ColumnIndex(set.Col)
		if idx < 0 {
			return errAt(0, "table %q has no column %q", s.Table, set.Col)
		}
		set.idx = idx
		if err := c.coerceTo(&set.Val, schema.Columns[idx].Kind, sc); err != nil {
			return err
		}
	}
	return c.checkWhere(s.Where, sc)
}

func (c *checker) checkDelete(s *DeleteStmt, cs *CompiledStmt) error {
	tab, err := c.lookupTable(s.Table)
	if err != nil {
		return err
	}
	cs.table = tab
	if tab.Schema().Key < 0 {
		return errAt(0, "DELETE requires a table with a primary key")
	}
	sc := &scope{}
	if err := sc.add(TableRef{Name: s.Table}, tab); err != nil {
		return err
	}
	cs.scope = sc
	return c.checkWhere(s.Where, sc)
}

func (c *checker) checkWhere(where Expr, sc *scope) error {
	if where == nil {
		return nil
	}
	k, err := c.checkExpr(where, sc, false)
	if err != nil {
		return err
	}
	if k != types.KindBool {
		return errAt(0, "WHERE wants a boolean, got %v", k)
	}
	return nil
}

func (c *checker) checkCreate(s *CreateTableStmt) error {
	key := -1
	for i, col := range s.Cols {
		if col.PrimaryKey {
			if key >= 0 {
				return errAt(0, "multiple PRIMARY KEY columns")
			}
			key = i
		}
	}
	cols := make([]types.Column, len(s.Cols))
	for i, col := range s.Cols {
		cols[i] = types.Column{Name: col.Name, Kind: col.Kind, Nullable: col.Nullable && i != key}
	}
	if _, err := types.NewSchema(cols, key); err != nil {
		return errAt(0, "%v", err)
	}
	return nil
}

// Normalize canonicalizes statement text for plan-cache keying:
// whitespace collapses to single spaces and everything outside string
// literals is lowercased, so the same statement with different casing
// or spacing shares one cache entry.
func Normalize(text string) string {
	var b strings.Builder
	b.Grow(len(text))
	inStr := false
	space := false
	for i := 0; i < len(text); i++ {
		ch := text[i]
		if inStr {
			b.WriteByte(ch)
			if ch == '\'' {
				inStr = false
			}
			continue
		}
		if ch == ' ' || ch == '\t' || ch == '\r' || ch == '\n' {
			space = true
			continue
		}
		if space && b.Len() > 0 {
			b.WriteByte(' ')
		}
		space = false
		if ch == '\'' {
			inStr = true
		} else if ch >= 'A' && ch <= 'Z' {
			ch += 'a' - 'A'
		}
		b.WriteByte(ch)
	}
	return strings.TrimSuffix(strings.TrimSpace(b.String()), ";")
}
