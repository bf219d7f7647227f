package sql

import (
	"strconv"
	"strings"

	"repro/internal/types"
)

// parser is a hand-rolled recursive-descent parser over the token
// stream. Expressions use precedence climbing (OR < AND < NOT <
// comparison < additive < multiplicative < unary). Statement-level
// errors synchronize at the next ';' so a script keeps parsing past a
// bad statement (error recovery).
type parser struct {
	toks   []token
	pos    int
	params int // ? placeholders seen so far (lexical ordinals)
}

// Parse parses a single statement (a trailing ';' is tolerated).
func Parse(text string) (Statement, error) {
	toks, err := lex(text)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	stmt, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	p.acceptSym(";")
	if !p.at(tokEOF) {
		return nil, errAt(p.cur().pos, "unexpected %s after statement", p.cur())
	}
	return stmt, nil
}

func (p *parser) cur() token        { return p.toks[p.pos] }
func (p *parser) at(k tokKind) bool { return p.cur().kind == k }

// atKeyword reports whether the current token is the given keyword
// (identifiers double as keywords, matched case-insensitively).
func (p *parser) atKeyword(kw string) bool {
	return p.cur().kind == tokIdent && strings.EqualFold(p.cur().text, kw)
}

func (p *parser) acceptKeyword(kw string) bool {
	if p.atKeyword(kw) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return errAt(p.cur().pos, "expected %s, got %s", kw, p.cur())
	}
	return nil
}

func (p *parser) acceptSym(sym string) bool {
	if p.cur().kind == tokSymbol && p.cur().text == sym {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expectSym(sym string) error {
	if !p.acceptSym(sym) {
		return errAt(p.cur().pos, "expected %q, got %s", sym, p.cur())
	}
	return nil
}

func (p *parser) ident(what string) (string, error) {
	if p.cur().kind != tokIdent || reservedWord(p.cur().text) {
		return "", errAt(p.cur().pos, "expected %s, got %s", what, p.cur())
	}
	name := p.cur().text
	p.pos++
	return name, nil
}

// reservedWord lists the keywords that cannot be used as bare
// identifiers (keeps the grammar unambiguous without a lookahead).
func reservedWord(s string) bool {
	switch strings.ToUpper(s) {
	case "SELECT", "FROM", "WHERE", "GROUP", "BY", "ORDER", "LIMIT", "JOIN",
		"ON", "AS", "INSERT", "INTO", "VALUES", "UPDATE", "SET", "DELETE",
		"CREATE", "TABLE", "AND", "OR", "NOT", "BETWEEN", "IN", "LIKE", "IS",
		"NULL", "ASC", "DESC", "PRIMARY", "KEY", "TRUE", "FALSE":
		return true
	}
	return false
}

func (p *parser) parseStatement() (Statement, error) {
	switch {
	case p.atKeyword("SELECT"):
		return p.parseSelect()
	case p.atKeyword("INSERT"):
		return p.parseInsert()
	case p.atKeyword("UPDATE"):
		return p.parseUpdate()
	case p.atKeyword("DELETE"):
		return p.parseDelete()
	case p.atKeyword("CREATE"):
		return p.parseCreate()
	default:
		return nil, errAt(p.cur().pos, "expected a statement (SELECT, INSERT, UPDATE, DELETE, CREATE), got %s", p.cur())
	}
}

func (p *parser) parseTableRef() (TableRef, error) {
	name, err := p.ident("table name")
	if err != nil {
		return TableRef{}, err
	}
	ref := TableRef{Name: name}
	if p.acceptKeyword("AS") {
		if ref.Alias, err = p.ident("table alias"); err != nil {
			return TableRef{}, err
		}
	} else if p.cur().kind == tokIdent && !reservedWord(p.cur().text) {
		ref.Alias, _ = p.ident("table alias")
	}
	return ref, nil
}

func (p *parser) parseSelect() (*SelectStmt, error) {
	p.pos++ // SELECT
	stmt := &SelectStmt{Limit: -1}
	for {
		if p.acceptSym("*") {
			stmt.Items = append(stmt.Items, SelectItem{Star: true})
		} else {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := SelectItem{Expr: e}
			if p.acceptKeyword("AS") {
				alias, err := p.ident("column alias")
				if err != nil {
					return nil, err
				}
				item.Alias = alias
			}
			stmt.Items = append(stmt.Items, item)
		}
		if !p.acceptSym(",") {
			break
		}
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	from, err := p.parseTableRef()
	if err != nil {
		return nil, err
	}
	stmt.From = from
	for p.acceptKeyword("JOIN") {
		ref, err := p.parseTableRef()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("ON"); err != nil {
			return nil, err
		}
		on, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Joins = append(stmt.Joins, JoinClause{Table: ref, On: on})
	}
	if p.acceptKeyword("WHERE") {
		if stmt.Where, err = p.parseExpr(); err != nil {
			return nil, err
		}
	}
	if p.acceptKeyword("GROUP") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			stmt.GroupBy = append(stmt.GroupBy, e)
			if !p.acceptSym(",") {
				break
			}
		}
	}
	if p.acceptKeyword("ORDER") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			key := OrderKey{Expr: e}
			if p.acceptKeyword("DESC") {
				key.Desc = true
			} else {
				p.acceptKeyword("ASC")
			}
			stmt.OrderBy = append(stmt.OrderBy, key)
			if !p.acceptSym(",") {
				break
			}
		}
	}
	if p.acceptKeyword("LIMIT") {
		tok := p.cur()
		if tok.kind != tokNumber || tok.isFloat {
			return nil, errAt(tok.pos, "LIMIT wants an integer, got %s", tok)
		}
		n, err := strconv.Atoi(tok.text)
		if err != nil {
			return nil, errAt(tok.pos, "LIMIT %q: %v", tok.text, err)
		}
		p.pos++
		stmt.Limit = n
	}
	return stmt, nil
}

func (p *parser) parseInsert() (*InsertStmt, error) {
	p.pos++ // INSERT
	if err := p.expectKeyword("INTO"); err != nil {
		return nil, err
	}
	table, err := p.ident("table name")
	if err != nil {
		return nil, err
	}
	stmt := &InsertStmt{Table: table}
	if p.acceptSym("(") {
		for {
			col, err := p.ident("column name")
			if err != nil {
				return nil, err
			}
			stmt.Cols = append(stmt.Cols, col)
			if !p.acceptSym(",") {
				break
			}
		}
		if err := p.expectSym(")"); err != nil {
			return nil, err
		}
	}
	if err := p.expectKeyword("VALUES"); err != nil {
		return nil, err
	}
	for {
		if err := p.expectSym("("); err != nil {
			return nil, err
		}
		var row []Expr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			row = append(row, e)
			if !p.acceptSym(",") {
				break
			}
		}
		if err := p.expectSym(")"); err != nil {
			return nil, err
		}
		stmt.Rows = append(stmt.Rows, row)
		if !p.acceptSym(",") {
			break
		}
	}
	return stmt, nil
}

func (p *parser) parseUpdate() (*UpdateStmt, error) {
	p.pos++ // UPDATE
	table, err := p.ident("table name")
	if err != nil {
		return nil, err
	}
	stmt := &UpdateStmt{Table: table}
	if err := p.expectKeyword("SET"); err != nil {
		return nil, err
	}
	for {
		col, err := p.ident("column name")
		if err != nil {
			return nil, err
		}
		if err := p.expectSym("="); err != nil {
			return nil, err
		}
		val, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Sets = append(stmt.Sets, SetClause{Col: col, Val: val})
		if !p.acceptSym(",") {
			break
		}
	}
	if p.acceptKeyword("WHERE") {
		if stmt.Where, err = p.parseExpr(); err != nil {
			return nil, err
		}
	}
	return stmt, nil
}

func (p *parser) parseDelete() (*DeleteStmt, error) {
	p.pos++ // DELETE
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	table, err := p.ident("table name")
	if err != nil {
		return nil, err
	}
	stmt := &DeleteStmt{Table: table}
	if p.acceptKeyword("WHERE") {
		if stmt.Where, err = p.parseExpr(); err != nil {
			return nil, err
		}
	}
	return stmt, nil
}

func (p *parser) parseCreate() (*CreateTableStmt, error) {
	p.pos++ // CREATE
	if err := p.expectKeyword("TABLE"); err != nil {
		return nil, err
	}
	table, err := p.ident("table name")
	if err != nil {
		return nil, err
	}
	if err := p.expectSym("("); err != nil {
		return nil, err
	}
	stmt := &CreateTableStmt{Table: table}
	for {
		name, err := p.ident("column name")
		if err != nil {
			return nil, err
		}
		kindTok := p.cur()
		if kindTok.kind != tokIdent {
			return nil, errAt(kindTok.pos, "expected a type, got %s", kindTok)
		}
		kind, ok := typeKind(kindTok.text)
		if !ok {
			return nil, errAt(kindTok.pos, "unknown type %q", kindTok.text)
		}
		p.pos++
		// SQL columns are nullable unless constrained otherwise.
		def := ColumnDef{Name: name, Kind: kind, Nullable: true}
		for {
			switch {
			case p.acceptKeyword("PRIMARY"):
				if err := p.expectKeyword("KEY"); err != nil {
					return nil, err
				}
				def.PrimaryKey = true
			case p.acceptKeyword("NOT"):
				if err := p.expectKeyword("NULL"); err != nil {
					return nil, err
				}
				def.Nullable = false
			case p.acceptKeyword("NULL"):
				def.Nullable = true
			default:
				goto doneCol
			}
		}
	doneCol:
		stmt.Cols = append(stmt.Cols, def)
		if !p.acceptSym(",") {
			break
		}
	}
	if err := p.expectSym(")"); err != nil {
		return nil, err
	}
	return stmt, nil
}

// typeKind maps a SQL type name to a value kind.
func typeKind(name string) (types.Kind, bool) {
	switch strings.ToUpper(name) {
	case "BIGINT", "INT", "INTEGER":
		return types.KindInt64, true
	case "DOUBLE", "FLOAT", "REAL":
		return types.KindFloat64, true
	case "VARCHAR", "STRING", "TEXT":
		return types.KindString, true
	case "DATE":
		return types.KindDate, true
	case "BOOLEAN", "BOOL":
		return types.KindBool, true
	}
	return types.KindInvalid, false
}

// ---- expressions ----

// parseExpr parses an OR-level expression (lowest precedence).
func (p *parser) parseExpr() (Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("OR") {
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = &Binary{Op: "OR", L: left, R: right}
	}
	return left, nil
}

func (p *parser) parseAnd() (Expr, error) {
	left, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("AND") {
		right, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		left = &Binary{Op: "AND", L: left, R: right}
	}
	return left, nil
}

func (p *parser) parseNot() (Expr, error) {
	if p.acceptKeyword("NOT") {
		e, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &Unary{Op: "NOT", E: e}, nil
	}
	return p.parseComparison()
}

// parseComparison parses additive [op additive], plus the predicate
// suffix forms: BETWEEN, IN, LIKE, IS [NOT] NULL.
func (p *parser) parseComparison() (Expr, error) {
	left, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	if p.cur().kind == tokSymbol {
		switch op := p.cur().text; op {
		case "=", "<>", "<", "<=", ">", ">=":
			p.pos++
			right, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			return &Binary{Op: op, L: left, R: right}, nil
		}
	}
	not := false
	if p.atKeyword("NOT") {
		// Only consume NOT when a predicate suffix follows: NOT BETWEEN,
		// NOT IN, NOT LIKE.
		save := p.pos
		p.pos++
		if !p.atKeyword("BETWEEN") && !p.atKeyword("IN") && !p.atKeyword("LIKE") {
			p.pos = save
			return left, nil
		}
		not = true
	}
	switch {
	case p.acceptKeyword("BETWEEN"):
		lo, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("AND"); err != nil {
			return nil, err
		}
		hi, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return &Between{E: left, Lo: lo, Hi: hi, Not: not}, nil
	case p.acceptKeyword("IN"):
		if err := p.expectSym("("); err != nil {
			return nil, err
		}
		var list []Expr
		for {
			e, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			list = append(list, e)
			if !p.acceptSym(",") {
				break
			}
		}
		if err := p.expectSym(")"); err != nil {
			return nil, err
		}
		return &InList{E: left, List: list, Not: not}, nil
	case p.acceptKeyword("LIKE"):
		pat, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return &LikeExpr{E: left, Pattern: pat, Not: not}, nil
	case p.acceptKeyword("IS"):
		isNot := p.acceptKeyword("NOT")
		if err := p.expectKeyword("NULL"); err != nil {
			return nil, err
		}
		return &IsNullExpr{E: left, Not: isNot}, nil
	}
	return left, nil
}

func (p *parser) parseAdditive() (Expr, error) {
	left, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for p.cur().kind == tokSymbol && (p.cur().text == "+" || p.cur().text == "-") {
		op := p.cur().text
		p.pos++
		right, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		left = &Binary{Op: op, L: left, R: right}
	}
	return left, nil
}

func (p *parser) parseMultiplicative() (Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.cur().kind == tokSymbol && (p.cur().text == "*" || p.cur().text == "/") {
		op := p.cur().text
		p.pos++
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		left = &Binary{Op: op, L: left, R: right}
	}
	return left, nil
}

func (p *parser) parseUnary() (Expr, error) {
	if p.cur().kind == tokSymbol && p.cur().text == "-" {
		p.pos++
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		// Fold -literal immediately so "-5" is a constant.
		if lit, ok := e.(*Literal); ok && !lit.Val.IsNull() {
			switch lit.Val.Kind {
			case types.KindInt64:
				return &Literal{Val: types.Int(-lit.Val.I)}, nil
			case types.KindFloat64:
				return &Literal{Val: types.Float(-lit.Val.F)}, nil
			}
		}
		return &Unary{Op: "-", E: e}, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (Expr, error) {
	tok := p.cur()
	switch tok.kind {
	case tokNumber:
		p.pos++
		if tok.isFloat {
			f, err := strconv.ParseFloat(tok.text, 64)
			if err != nil {
				return nil, errAt(tok.pos, "bad number %q: %v", tok.text, err)
			}
			return &Literal{Val: types.Float(f)}, nil
		}
		n, err := strconv.ParseInt(tok.text, 10, 64)
		if err != nil {
			return nil, errAt(tok.pos, "bad number %q: %v", tok.text, err)
		}
		return &Literal{Val: types.Int(n)}, nil
	case tokString:
		p.pos++
		return &Literal{Val: types.Str(tok.text)}, nil
	case tokParam:
		p.pos++
		e := &Param{Ord: p.params}
		p.params++
		return e, nil
	case tokSymbol:
		if tok.text == "(" {
			p.pos++
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectSym(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	case tokIdent:
		switch strings.ToUpper(tok.text) {
		case "NULL":
			p.pos++
			return &Literal{Val: types.Null}, nil
		case "TRUE":
			p.pos++
			return &Literal{Val: types.Bool(true)}, nil
		case "FALSE":
			p.pos++
			return &Literal{Val: types.Bool(false)}, nil
		case "COUNT", "SUM", "MIN", "MAX", "AVG":
			// Aggregate call: NAME(*) or NAME(expr). A bare NAME not
			// followed by '(' would be an identifier, but the aggregate
			// names are reserved for clarity.
			fn := strings.ToUpper(tok.text)
			p.pos++
			if err := p.expectSym("("); err != nil {
				return nil, err
			}
			if fn == "COUNT" && p.acceptSym("*") {
				if err := p.expectSym(")"); err != nil {
					return nil, err
				}
				return &Call{Func: fn, Star: true}, nil
			}
			arg, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectSym(")"); err != nil {
				return nil, err
			}
			return &Call{Func: fn, Arg: arg}, nil
		}
		if reservedWord(tok.text) {
			return nil, errAt(tok.pos, "unexpected keyword %s in expression", tok)
		}
		p.pos++
		ref := &ColumnRef{Name: tok.text}
		if p.acceptSym(".") {
			col, err := p.ident("column name")
			if err != nil {
				return nil, err
			}
			ref.Table, ref.Name = ref.Name, col
		}
		return ref, nil
	}
	return nil, errAt(tok.pos, "unexpected %s in expression", tok)
}
