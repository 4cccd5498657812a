package sqlparse

import (
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"
)

// Parse parses one SQL statement (a trailing semicolon is allowed).
func Parse(src string) (Stmt, error) {
	toks, err := Lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	st, err := p.statement()
	if err != nil {
		return nil, err
	}
	p.accept(TokSymbol, ";")
	if !p.at(TokEOF, "") {
		return nil, p.errf("unexpected trailing input %q", p.cur().Text)
	}
	return st, nil
}

// ParseAll parses a semicolon-separated script.
func ParseAll(src string) ([]Stmt, error) {
	toks, err := Lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	var out []Stmt
	for {
		for p.accept(TokSymbol, ";") {
		}
		if p.at(TokEOF, "") {
			return out, nil
		}
		st, err := p.statement()
		if err != nil {
			return nil, err
		}
		out = append(out, st)
	}
}

type parser struct {
	toks   []Token
	pos    int
	params int
}

func (p *parser) cur() Token  { return p.toks[p.pos] }
func (p *parser) next() Token { t := p.toks[p.pos]; p.pos++; return t }

func (p *parser) at(kind TokenKind, text string) bool {
	t := p.cur()
	return t.Kind == kind && (text == "" || t.Text == text)
}

func (p *parser) atKw(kw string) bool { return p.at(TokKeyword, kw) }

func (p *parser) accept(kind TokenKind, text string) bool {
	if p.at(kind, text) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) acceptKw(kw string) bool { return p.accept(TokKeyword, kw) }

func (p *parser) expect(kind TokenKind, text string) (Token, error) {
	if !p.at(kind, text) {
		return Token{}, p.errf("expected %q, found %q", text, p.cur().Text)
	}
	return p.next(), nil
}

func (p *parser) expectKw(kw string) error {
	_, err := p.expect(TokKeyword, kw)
	return err
}

func (p *parser) errf(format string, args ...any) error {
	return &Error{Pos: p.cur().Pos, Msg: fmt.Sprintf(format, args...)}
}

// ident accepts an identifier or a non-reserved keyword used as a name.
func (p *parser) ident() (string, error) {
	t := p.cur()
	if t.Kind == TokIdent {
		p.pos++
		return t.Text, nil
	}
	return "", p.errf("expected identifier, found %q", t.Text)
}

func (p *parser) statement() (Stmt, error) {
	t := p.cur()
	if t.Kind != TokKeyword {
		return nil, p.errf("expected statement, found %q", t.Text)
	}
	switch t.Text {
	case "SELECT":
		return p.selectStmt()
	case "INSERT":
		return p.insertStmt()
	case "UPDATE":
		return p.updateStmt()
	case "DELETE":
		return p.deleteStmt()
	case "CREATE":
		return p.createStmt()
	case "DROP":
		return p.dropStmt()
	case "BEGIN":
		p.pos++
		p.acceptKw("TRANSACTION")
		return &Begin{}, nil
	case "COMMIT":
		p.pos++
		p.acceptKw("TRANSACTION")
		return &Commit{}, nil
	case "ROLLBACK":
		p.pos++
		p.acceptKw("TRANSACTION")
		return &Rollback{}, nil
	case "PRAGMA":
		p.pos++
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		pr := &Pragma{Name: strings.ToLower(name)}
		if p.accept(TokSymbol, "=") {
			if p.at(TokEOF, "") {
				return nil, p.errf("expected a value for pragma %s", name)
			}
			pr.Value = p.next().Text
		}
		return pr, nil
	default:
		return nil, p.errf("unsupported statement %q", t.Text)
	}
}

func (p *parser) createStmt() (Stmt, error) {
	p.pos++ // CREATE
	unique := p.acceptKw("UNIQUE")
	switch {
	case p.acceptKw("TABLE"):
		ct := &CreateTable{}
		if p.acceptKw("IF") {
			if err := p.expectKw("NOT"); err != nil {
				// NOT is lexed as keyword
				return nil, err
			}
			if err := p.expectKw("EXISTS"); err != nil {
				return nil, err
			}
			ct.IfNotExists = true
		}
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		ct.Name = name
		if _, err := p.expect(TokSymbol, "("); err != nil {
			return nil, err
		}
		for {
			col, err := p.columnDef()
			if err != nil {
				return nil, err
			}
			ct.Columns = append(ct.Columns, col)
			if p.accept(TokSymbol, ",") {
				continue
			}
			break
		}
		if _, err := p.expect(TokSymbol, ")"); err != nil {
			return nil, err
		}
		return ct, nil
	case p.acceptKw("INDEX"):
		ci := &CreateIndex{Unique: unique}
		if p.acceptKw("IF") {
			if err := p.expectKw("NOT"); err != nil {
				return nil, err
			}
			if err := p.expectKw("EXISTS"); err != nil {
				return nil, err
			}
			ci.IfNotExists = true
		}
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		ci.Name = name
		if err := p.expectKw("ON"); err != nil {
			return nil, err
		}
		tbl, err := p.ident()
		if err != nil {
			return nil, err
		}
		ci.Table = tbl
		if _, err := p.expect(TokSymbol, "("); err != nil {
			return nil, err
		}
		for {
			col, err := p.ident()
			if err != nil {
				return nil, err
			}
			ci.Columns = append(ci.Columns, col)
			p.acceptKw("ASC")
			p.acceptKw("DESC")
			if p.accept(TokSymbol, ",") {
				continue
			}
			break
		}
		if _, err := p.expect(TokSymbol, ")"); err != nil {
			return nil, err
		}
		return ci, nil
	default:
		return nil, p.errf("expected TABLE or INDEX after CREATE")
	}
}

func (p *parser) columnDef() (ColumnDef, error) {
	var cd ColumnDef
	name, err := p.ident()
	if err != nil {
		return cd, err
	}
	cd.Name = name
	// Optional type name: one or more type keywords/idents.
	for p.atKw("INTEGER") || p.atKw("INT") || p.atKw("TEXT") || p.atKw("REAL") || p.atKw("BLOB") {
		t := p.next().Text
		if t == "INT" {
			t = "INTEGER"
		}
		if cd.Type == "" {
			cd.Type = t
		}
	}
	// Idents as exotic type names (VARCHAR(20), DECIMAL etc.).
	if cd.Type == "" && p.cur().Kind == TokIdent {
		raw := strings.ToUpper(p.next().Text)
		switch {
		case strings.Contains(raw, "CHAR"), strings.Contains(raw, "CLOB"):
			cd.Type = "TEXT"
		case strings.Contains(raw, "DEC"), strings.Contains(raw, "NUM"), strings.Contains(raw, "DOUB"), strings.Contains(raw, "FLO"):
			cd.Type = "REAL"
		default:
			cd.Type = ""
		}
		if p.accept(TokSymbol, "(") {
			for !p.accept(TokSymbol, ")") {
				if p.at(TokEOF, "") {
					return cd, p.errf("unterminated type arguments")
				}
				p.pos++
			}
		}
	}
	// The catalog enforces one column constraint, INTEGER PRIMARY KEY
	// (the rowid alias); the rest are refused rather than kept unenforced.
	// CREATE UNIQUE INDEX is the enforced form of UNIQUE.
	for {
		switch {
		case p.acceptKw("PRIMARY"):
			if err := p.expectKw("KEY"); err != nil {
				return cd, err
			}
			if cd.Type != "INTEGER" {
				return cd, p.errf("column constraint PRIMARY KEY is not enforced on a %q column", cd.Type)
			}
			cd.PrimaryKey = true
		case p.atKw("NOT"):
			return cd, p.errf("column constraint NOT NULL is not enforced")
		case p.atKw("UNIQUE"), p.atKw("DEFAULT"):
			return cd, p.errf("column constraint %s is not enforced", p.cur().Text)
		default:
			return cd, nil
		}
	}
}

func (p *parser) dropStmt() (Stmt, error) {
	p.pos++ // DROP
	switch {
	case p.acceptKw("TABLE"):
		dt := &DropTable{}
		if p.acceptKw("IF") {
			if err := p.expectKw("EXISTS"); err != nil {
				return nil, err
			}
			dt.IfExists = true
		}
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		dt.Name = name
		return dt, nil
	case p.acceptKw("INDEX"):
		di := &DropIndex{}
		if p.acceptKw("IF") {
			if err := p.expectKw("EXISTS"); err != nil {
				return nil, err
			}
			di.IfExists = true
		}
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		di.Name = name
		return di, nil
	default:
		return nil, p.errf("expected TABLE or INDEX after DROP")
	}
}

func (p *parser) insertStmt() (Stmt, error) {
	p.pos++ // INSERT
	if err := p.expectKw("INTO"); err != nil {
		return nil, err
	}
	ins := &Insert{}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	ins.Table = name
	if p.accept(TokSymbol, "(") {
		for {
			col, err := p.ident()
			if err != nil {
				return nil, err
			}
			ins.Columns = append(ins.Columns, col)
			if p.accept(TokSymbol, ",") {
				continue
			}
			break
		}
		if _, err := p.expect(TokSymbol, ")"); err != nil {
			return nil, err
		}
	}
	if err := p.expectKw("VALUES"); err != nil {
		return nil, err
	}
	for {
		if _, err := p.expect(TokSymbol, "("); err != nil {
			return nil, err
		}
		var row []Expr
		for {
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			row = append(row, e)
			if p.accept(TokSymbol, ",") {
				continue
			}
			break
		}
		if _, err := p.expect(TokSymbol, ")"); err != nil {
			return nil, err
		}
		ins.Rows = append(ins.Rows, row)
		if p.accept(TokSymbol, ",") {
			continue
		}
		break
	}
	return ins, nil
}

func (p *parser) updateStmt() (Stmt, error) {
	p.pos++ // UPDATE
	up := &Update{}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	up.Table = name
	if err := p.expectKw("SET"); err != nil {
		return nil, err
	}
	for {
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokSymbol, "="); err != nil {
			return nil, err
		}
		val, err := p.expr()
		if err != nil {
			return nil, err
		}
		up.Set = append(up.Set, Assignment{Column: col, Value: val})
		if p.accept(TokSymbol, ",") {
			continue
		}
		break
	}
	if p.acceptKw("WHERE") {
		w, err := p.expr()
		if err != nil {
			return nil, err
		}
		up.Where = w
	}
	return up, nil
}

func (p *parser) deleteStmt() (Stmt, error) {
	p.pos++ // DELETE
	if err := p.expectKw("FROM"); err != nil {
		return nil, err
	}
	del := &Delete{}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	del.Table = name
	if p.acceptKw("WHERE") {
		w, err := p.expr()
		if err != nil {
			return nil, err
		}
		del.Where = w
	}
	return del, nil
}

func (p *parser) selectStmt() (*Select, error) {
	p.pos++ // SELECT
	sel := &Select{}
	sel.Distinct = p.acceptKw("DISTINCT")
	for {
		rc, err := p.resultColumn()
		if err != nil {
			return nil, err
		}
		sel.Columns = append(sel.Columns, rc)
		if p.accept(TokSymbol, ",") {
			continue
		}
		break
	}
	if p.acceptKw("FROM") {
		tr, err := p.tableRef()
		if err != nil {
			return nil, err
		}
		sel.From = &tr
		for {
			inner := p.acceptKw("INNER")
			left := false
			if !inner {
				left = p.acceptKw("LEFT")
				if left {
					p.acceptKw("OUTER")
				}
			}
			cross := false
			if !inner && !left {
				cross = p.acceptKw("CROSS")
			}
			if !p.acceptKw("JOIN") {
				if inner || left || cross {
					return nil, p.errf("expected JOIN")
				}
				if p.accept(TokSymbol, ",") { // comma join
					jt, err := p.tableRef()
					if err != nil {
						return nil, err
					}
					sel.Joins = append(sel.Joins, Join{Table: jt})
					continue
				}
				break
			}
			jt, err := p.tableRef()
			if err != nil {
				return nil, err
			}
			j := Join{Table: jt, Left: left}
			if p.acceptKw("ON") {
				on, err := p.expr()
				if err != nil {
					return nil, err
				}
				j.On = on
			}
			sel.Joins = append(sel.Joins, j)
		}
	}
	if p.acceptKw("WHERE") {
		w, err := p.expr()
		if err != nil {
			return nil, err
		}
		sel.Where = w
	}
	if p.acceptKw("GROUP") {
		if err := p.expectKw("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			sel.GroupBy = append(sel.GroupBy, e)
			if p.accept(TokSymbol, ",") {
				continue
			}
			break
		}
		if p.acceptKw("HAVING") {
			h, err := p.expr()
			if err != nil {
				return nil, err
			}
			sel.Having = h
		}
	}
	if p.acceptKw("ORDER") {
		if err := p.expectKw("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			term := OrderTerm{Expr: e}
			if p.acceptKw("DESC") {
				term.Desc = true
			} else {
				p.acceptKw("ASC")
			}
			sel.OrderBy = append(sel.OrderBy, term)
			if p.accept(TokSymbol, ",") {
				continue
			}
			break
		}
	}
	if p.acceptKw("LIMIT") {
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		sel.Limit = e
		if p.acceptKw("OFFSET") {
			o, err := p.expr()
			if err != nil {
				return nil, err
			}
			sel.Offset = o
		}
	}
	return sel, nil
}

func (p *parser) resultColumn() (ResultColumn, error) {
	if p.accept(TokSymbol, "*") {
		return ResultColumn{Star: true}, nil
	}
	// tbl.* lookahead.
	if p.cur().Kind == TokIdent && p.toks[p.pos+1].Kind == TokSymbol && p.toks[p.pos+1].Text == "." &&
		p.toks[p.pos+2].Kind == TokSymbol && p.toks[p.pos+2].Text == "*" {
		tbl := p.next().Text
		p.pos += 2
		return ResultColumn{Star: true, Table: tbl}, nil
	}
	e, err := p.expr()
	if err != nil {
		return ResultColumn{}, err
	}
	rc := ResultColumn{Expr: e}
	if p.acceptKw("AS") {
		a, err := p.ident()
		if err != nil {
			return rc, err
		}
		rc.Alias = a
	} else if p.cur().Kind == TokIdent {
		rc.Alias = p.next().Text
	}
	return rc, nil
}

func (p *parser) tableRef() (TableRef, error) {
	name, err := p.ident()
	if err != nil {
		return TableRef{}, err
	}
	tr := TableRef{Name: name}
	if p.acceptKw("AS") {
		a, err := p.ident()
		if err != nil {
			return tr, err
		}
		tr.Alias = a
	} else if p.cur().Kind == TokIdent {
		tr.Alias = p.next().Text
	}
	return tr, nil
}

// ---- expressions (precedence climbing) ----

func (p *parser) expr() (Expr, error) { return p.exprOr() }

func (p *parser) exprOr() (Expr, error) {
	l, err := p.exprAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptKw("OR") {
		r, err := p.exprAnd()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: "OR", L: l, R: r}
	}
	return l, nil
}

func (p *parser) exprAnd() (Expr, error) {
	l, err := p.exprNot()
	if err != nil {
		return nil, err
	}
	for p.atKw("AND") {
		p.pos++
		r, err := p.exprNot()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: "AND", L: l, R: r}
	}
	return l, nil
}

func (p *parser) exprNot() (Expr, error) {
	if p.acceptKw("NOT") {
		x, err := p.exprNot()
		if err != nil {
			return nil, err
		}
		return &Unary{Op: "NOT", X: x}, nil
	}
	return p.exprCmp()
}

func (p *parser) exprCmp() (Expr, error) {
	l, err := p.exprAdd()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.at(TokSymbol, "="), p.at(TokSymbol, "<"), p.at(TokSymbol, ">"),
			p.at(TokSymbol, "<="), p.at(TokSymbol, ">="), p.at(TokSymbol, "!="), p.at(TokSymbol, "<>"):
			op := p.next().Text
			if op == "<>" {
				op = "!="
			}
			r, err := p.exprAdd()
			if err != nil {
				return nil, err
			}
			l = &Binary{Op: op, L: l, R: r}
		case p.atKw("IS"):
			p.pos++
			not := p.acceptKw("NOT")
			if err := p.expectKw("NULL"); err != nil {
				return nil, err
			}
			l = &IsNull{X: l, Not: not}
		case p.atKw("LIKE"):
			p.pos++
			r, err := p.exprAdd()
			if err != nil {
				return nil, err
			}
			l = &Binary{Op: "LIKE", L: l, R: r}
		case p.atKw("NOT"):
			// NOT IN / NOT LIKE / NOT BETWEEN
			save := p.pos
			p.pos++
			switch {
			case p.atKw("IN"):
				in, err := p.inTail(l, true)
				if err != nil {
					return nil, err
				}
				l = in
			case p.atKw("LIKE"):
				p.pos++
				r, err := p.exprAdd()
				if err != nil {
					return nil, err
				}
				l = &Unary{Op: "NOT", X: &Binary{Op: "LIKE", L: l, R: r}}
			case p.atKw("BETWEEN"):
				b, err := p.betweenTail(l, true)
				if err != nil {
					return nil, err
				}
				l = b
			default:
				p.pos = save
				return l, nil
			}
		case p.atKw("IN"):
			in, err := p.inTail(l, false)
			if err != nil {
				return nil, err
			}
			l = in
		case p.atKw("BETWEEN"):
			b, err := p.betweenTail(l, false)
			if err != nil {
				return nil, err
			}
			l = b
		default:
			return l, nil
		}
	}
}

func (p *parser) inTail(l Expr, not bool) (Expr, error) {
	p.pos++ // IN
	if _, err := p.expect(TokSymbol, "("); err != nil {
		return nil, err
	}
	in := &InList{X: l, Not: not}
	for {
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		in.List = append(in.List, e)
		if p.accept(TokSymbol, ",") {
			continue
		}
		break
	}
	if _, err := p.expect(TokSymbol, ")"); err != nil {
		return nil, err
	}
	return in, nil
}

func (p *parser) betweenTail(l Expr, not bool) (Expr, error) {
	p.pos++ // BETWEEN
	lo, err := p.exprAdd()
	if err != nil {
		return nil, err
	}
	if err := p.expectKw("AND"); err != nil {
		return nil, err
	}
	hi, err := p.exprAdd()
	if err != nil {
		return nil, err
	}
	return &Between{X: l, Not: not, Lo: lo, Hi: hi}, nil
}

func (p *parser) exprAdd() (Expr, error) {
	l, err := p.exprMul()
	if err != nil {
		return nil, err
	}
	for p.at(TokSymbol, "+") || p.at(TokSymbol, "-") || p.at(TokSymbol, "||") {
		op := p.next().Text
		r, err := p.exprMul()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: op, L: l, R: r}
	}
	return l, nil
}

func (p *parser) exprMul() (Expr, error) {
	l, err := p.exprUnary()
	if err != nil {
		return nil, err
	}
	for p.at(TokSymbol, "*") || p.at(TokSymbol, "/") || p.at(TokSymbol, "%") {
		op := p.next().Text
		r, err := p.exprUnary()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: op, L: l, R: r}
	}
	return l, nil
}

func (p *parser) exprUnary() (Expr, error) {
	if p.accept(TokSymbol, "-") {
		x, err := p.exprUnary()
		if err != nil {
			return nil, err
		}
		return &Unary{Op: "-", X: x}, nil
	}
	if p.accept(TokSymbol, "+") {
		return p.exprUnary()
	}
	return p.exprPrimary()
}

func (p *parser) exprPrimary() (Expr, error) {
	t := p.cur()
	switch t.Kind {
	case TokInt:
		p.pos++
		v, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			f, ferr := strconv.ParseFloat(t.Text, 64)
			if ferr != nil {
				return nil, p.errf("bad number %q", t.Text)
			}
			return &FloatLit{Value: f}, nil
		}
		return &IntLit{Value: v}, nil
	case TokFloat:
		p.pos++
		f, err := strconv.ParseFloat(t.Text, 64)
		if err != nil {
			return nil, p.errf("bad number %q", t.Text)
		}
		return &FloatLit{Value: f}, nil
	case TokString:
		p.pos++
		return &StringLit{Value: t.Text}, nil
	case TokBlob:
		p.pos++
		b, err := hex.DecodeString(t.Text)
		if err != nil {
			return nil, p.errf("bad blob literal")
		}
		return &BlobLit{Value: b}, nil
	case TokParam:
		p.pos++
		idx := p.params
		p.params++
		return &Param{Index: idx}, nil
	case TokKeyword:
		switch t.Text {
		case "NULL":
			p.pos++
			return &NullLit{}, nil
		case "CASE":
			return p.caseExpr()
		case "CAST":
			p.pos++
			if _, err := p.expect(TokSymbol, "("); err != nil {
				return nil, err
			}
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			if err := p.expectKw("AS"); err != nil {
				return nil, err
			}
			// Consume the type tokens.
			for p.cur().Kind == TokKeyword || p.cur().Kind == TokIdent {
				p.pos++
			}
			if _, err := p.expect(TokSymbol, ")"); err != nil {
				return nil, err
			}
			return e, nil // affinity is dynamic; CAST is a pass-through
		}
		return nil, p.errf("unexpected keyword %q in expression", t.Text)
	case TokIdent:
		name := p.next().Text
		// Function call?
		if p.accept(TokSymbol, "(") {
			call := &Call{Name: strings.ToUpper(name)}
			if p.accept(TokSymbol, "*") {
				call.Star = true
				if _, err := p.expect(TokSymbol, ")"); err != nil {
					return nil, err
				}
				return call, nil
			}
			call.Distinct = p.acceptKw("DISTINCT")
			if !p.accept(TokSymbol, ")") {
				for {
					e, err := p.expr()
					if err != nil {
						return nil, err
					}
					call.Args = append(call.Args, e)
					if p.accept(TokSymbol, ",") {
						continue
					}
					break
				}
				if _, err := p.expect(TokSymbol, ")"); err != nil {
					return nil, err
				}
			}
			return call, nil
		}
		// Qualified column?
		if p.accept(TokSymbol, ".") {
			col, err := p.ident()
			if err != nil {
				return nil, err
			}
			return &ColumnRef{Table: name, Column: col}, nil
		}
		return &ColumnRef{Column: name}, nil
	case TokSymbol:
		if t.Text == "(" {
			p.pos++
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(TokSymbol, ")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	}
	return nil, p.errf("unexpected token %q in expression", t.Text)
}

func (p *parser) caseExpr() (Expr, error) {
	p.pos++ // CASE
	ce := &CaseExpr{}
	if !p.atKw("WHEN") {
		op, err := p.expr()
		if err != nil {
			return nil, err
		}
		ce.Operand = op
	}
	for p.acceptKw("WHEN") {
		cond, err := p.expr()
		if err != nil {
			return nil, err
		}
		if err := p.expectKw("THEN"); err != nil {
			return nil, err
		}
		then, err := p.expr()
		if err != nil {
			return nil, err
		}
		ce.Whens = append(ce.Whens, When{Cond: cond, Then: then})
	}
	if p.acceptKw("ELSE") {
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		ce.Else = e
	}
	if err := p.expectKw("END"); err != nil {
		return nil, err
	}
	if len(ce.Whens) == 0 {
		return nil, p.errf("CASE without WHEN")
	}
	return ce, nil
}
