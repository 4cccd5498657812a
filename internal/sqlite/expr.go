package sqlite

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/sqlite/sqlparse"
)

// source is one table binding in the current row scope.
type source struct {
	alias string // lower-cased alias or table name
	tbl   *Table
	vals  []Value // the current row: what a column reference reads
	rowid int64
	bound bool // vals are valid
	// skip has a bit set for each of the table's first 64 columns that no
	// expression of the statement reads: its rows decode those as NULL.
	skip uint64
	// row is the decode scratch (DESIGN.md §7): every candidate of a scan
	// is decoded over the one before, so a row kept past the next decode is
	// copied out first. An UPDATE's source keeps each candidate's stored
	// record in rec the same way.
	row  []Value
	rec  []byte
	keep bool
}

// evalCtx carries everything an expression evaluation can reference.
type evalCtx struct {
	sources []*source
	params  []Value
	// agg maps aggregate call nodes to their finalized values during
	// the output phase of a grouped query.
	agg map[*sqlparse.Call]Value
	rng func() int64 // deterministic RANDOM()
}

// colRef is a column reference after name resolution: the node bindExpr
// puts where the parser left a ColumnRef (embedded, so it stands in the
// same tree). Evaluating one is two index steps, no name is compared.
type colRef struct {
	sqlparse.ColumnRef
	src int   // the source it reads, by join level; -1 when it names nothing
	col int   // the column's position there; -1 is the rowid
	err error // set when the name does not resolve: what evaluating it returns
}

// named reports whether a table qualifier means this source.
func (s *source) named(table string) bool {
	return strings.ToLower(table) == s.alias || strings.EqualFold(table, s.tbl.Name)
}

// resolveRef is the one place that says what a column name refers to: the
// first source the qualifier admits (any, without one) that has the
// column, where the rowid's three names come before a user column spelled
// the same. A name that does not resolve still gets the level the planner
// files its conjunct under — the qualifier's source, the last level for an
// unknown qualifier, none for a bare name — and the error its evaluation
// returns, so a statement that never evaluates it (an empty table) runs.
func resolveRef(srcs []*source, table, column string) (src, col int, err error) {
	for i, s := range srcs {
		if table != "" && !s.named(table) {
			continue
		}
		switch strings.ToLower(column) {
		case "rowid", "_rowid_", "oid":
			return i, -1, nil
		}
		if c := s.tbl.ColumnIndex(column); c >= 0 {
			return i, c, nil
		}
		if table != "" {
			return i, 0, fmt.Errorf("%w: %s.%s", ErrNoSuchColumn, table, column)
		}
	}
	src = -1
	if table != "" {
		src = len(srcs) - 1
	}
	return src, 0, fmt.Errorf("%w: %s", ErrNoSuchColumn, column)
}

// bindExpr copies an expression with every column reference resolved
// against srcs. Literals and parameters are shared with the original.
func bindExpr(e sqlparse.Expr, srcs []*source) sqlparse.Expr {
	bind := func(e sqlparse.Expr) sqlparse.Expr { return bindExpr(e, srcs) }
	bindAll := func(es []sqlparse.Expr) []sqlparse.Expr {
		out := make([]sqlparse.Expr, len(es))
		for i, e := range es {
			out[i] = bind(e)
		}
		return out
	}
	switch x := e.(type) {
	case *sqlparse.ColumnRef:
		r := &colRef{ColumnRef: *x}
		r.src, r.col, r.err = resolveRef(srcs, x.Table, x.Column)
		return r
	case *sqlparse.Unary:
		return &sqlparse.Unary{Op: x.Op, X: bind(x.X)}
	case *sqlparse.Binary:
		return &sqlparse.Binary{Op: x.Op, L: bind(x.L), R: bind(x.R)}
	case *sqlparse.IsNull:
		return &sqlparse.IsNull{X: bind(x.X), Not: x.Not}
	case *sqlparse.InList:
		return &sqlparse.InList{X: bind(x.X), Not: x.Not, List: bindAll(x.List)}
	case *sqlparse.Between:
		return &sqlparse.Between{X: bind(x.X), Not: x.Not, Lo: bind(x.Lo), Hi: bind(x.Hi)}
	case *sqlparse.Call:
		c := *x
		c.Args = bindAll(x.Args)
		return &c
	case *sqlparse.CaseExpr:
		c := &sqlparse.CaseExpr{Operand: bind(x.Operand), Else: bind(x.Else), Whens: make([]sqlparse.When, len(x.Whens))}
		for i, w := range x.Whens {
			c.Whens[i] = sqlparse.When{Cond: bind(w.Cond), Then: bind(w.Then)}
		}
		return c
	}
	return e
}

// walkExpr calls fn for e and, where fn returns true, for every expression
// directly beneath it.
func walkExpr(e sqlparse.Expr, fn func(sqlparse.Expr) bool) {
	if e == nil || !fn(e) {
		return
	}
	switch x := e.(type) {
	case *sqlparse.Unary:
		walkExpr(x.X, fn)
	case *sqlparse.Binary:
		walkExpr(x.L, fn)
		walkExpr(x.R, fn)
	case *sqlparse.IsNull:
		walkExpr(x.X, fn)
	case *sqlparse.InList:
		walkExpr(x.X, fn)
		for _, i := range x.List {
			walkExpr(i, fn)
		}
	case *sqlparse.Between:
		walkExpr(x.X, fn)
		walkExpr(x.Lo, fn)
		walkExpr(x.Hi, fn)
	case *sqlparse.Call:
		for _, a := range x.Args {
			walkExpr(a, fn)
		}
	case *sqlparse.CaseExpr:
		walkExpr(x.Operand, fn)
		for _, w := range x.Whens {
			walkExpr(w.Cond, fn)
			walkExpr(w.Then, fn)
		}
		walkExpr(x.Else, fn)
	}
}

// eachRef calls fn for every column reference in a bound expression.
func eachRef(e sqlparse.Expr, fn func(*colRef)) {
	walkExpr(e, func(e sqlparse.Expr) bool {
		if r, ok := e.(*colRef); ok {
			fn(r)
		}
		return true
	})
}

// all reports whether every conjunct holds (NULL does not) in the current
// row scope.
func (c *evalCtx) all(conjs []sqlparse.Expr) (bool, error) {
	for _, cj := range conjs {
		v, err := c.eval(cj)
		if err != nil {
			return false, err
		}
		if v.IsNull() || !v.Truthy() {
			return false, nil
		}
	}
	return true, nil
}

// eval computes an expression against the current row scope.
func (c *evalCtx) eval(e sqlparse.Expr) (Value, error) {
	switch x := e.(type) {
	case *sqlparse.IntLit:
		return Int(x.Value), nil
	case *sqlparse.FloatLit:
		return Real(x.Value), nil
	case *sqlparse.StringLit:
		return Text(x.Value), nil
	case *sqlparse.BlobLit:
		return Blob(x.Value), nil
	case *sqlparse.NullLit:
		return Null, nil
	case *sqlparse.Param:
		if x.Index >= len(c.params) {
			return Null, fmt.Errorf("%w: parameter %d not bound", ErrParamMismatch, x.Index+1)
		}
		return c.params[x.Index], nil
	case *colRef:
		if x.err != nil {
			return Null, x.err
		}
		s := c.sources[x.src]
		if !s.bound {
			return Null, fmt.Errorf("%w: %s", ErrNoSuchColumn, x.Column)
		}
		if x.col < 0 {
			return Int(s.rowid), nil
		}
		return s.vals[x.col], nil
	case *sqlparse.Unary:
		return c.evalUnary(x)
	case *sqlparse.Binary:
		return c.evalBinary(x)
	case *sqlparse.IsNull:
		v, err := c.eval(x.X)
		if err != nil {
			return Null, err
		}
		return Bool(v.IsNull() != x.Not), nil
	case *sqlparse.InList:
		return c.evalIn(x)
	case *sqlparse.Between:
		v, err := c.eval(x.X)
		if err != nil {
			return Null, err
		}
		lo, err := c.eval(x.Lo)
		if err != nil {
			return Null, err
		}
		hi, err := c.eval(x.Hi)
		if err != nil {
			return Null, err
		}
		if v.IsNull() || lo.IsNull() || hi.IsNull() {
			return Null, nil
		}
		in := Compare(v, lo) >= 0 && Compare(v, hi) <= 0
		return Bool(in != x.Not), nil
	case *sqlparse.Call:
		if v, ok := c.agg[x]; ok {
			return v, nil
		}
		return c.evalFunc(x)
	case *sqlparse.CaseExpr:
		return c.evalCase(x)
	default:
		return Null, fmt.Errorf("%w: expression %T", ErrUnsupported, e)
	}
}

func (c *evalCtx) evalUnary(x *sqlparse.Unary) (Value, error) {
	v, err := c.eval(x.X)
	if err != nil {
		return Null, err
	}
	switch x.Op {
	case "-":
		if v.IsNull() {
			return Null, nil
		}
		if v.Type() == TypeInt {
			return Int(-v.Int()), nil
		}
		return Real(-v.Real()), nil
	case "NOT":
		if v.IsNull() {
			return Null, nil
		}
		return Bool(!v.Truthy()), nil
	default:
		return Null, fmt.Errorf("%w: unary %q", ErrUnsupported, x.Op)
	}
}

func (c *evalCtx) evalBinary(x *sqlparse.Binary) (Value, error) {
	// AND/OR need SQL three-valued logic with short-circuiting.
	switch x.Op {
	case "AND":
		l, err := c.eval(x.L)
		if err != nil {
			return Null, err
		}
		if !l.IsNull() && !l.Truthy() {
			return Bool(false), nil
		}
		r, err := c.eval(x.R)
		if err != nil {
			return Null, err
		}
		if !r.IsNull() && !r.Truthy() {
			return Bool(false), nil
		}
		if l.IsNull() || r.IsNull() {
			return Null, nil
		}
		return Bool(true), nil
	case "OR":
		l, err := c.eval(x.L)
		if err != nil {
			return Null, err
		}
		if !l.IsNull() && l.Truthy() {
			return Bool(true), nil
		}
		r, err := c.eval(x.R)
		if err != nil {
			return Null, err
		}
		if !r.IsNull() && r.Truthy() {
			return Bool(true), nil
		}
		if l.IsNull() || r.IsNull() {
			return Null, nil
		}
		return Bool(false), nil
	}

	l, err := c.eval(x.L)
	if err != nil {
		return Null, err
	}
	r, err := c.eval(x.R)
	if err != nil {
		return Null, err
	}
	switch x.Op {
	case "=", "!=", "<", "<=", ">", ">=":
		if l.IsNull() || r.IsNull() {
			return Null, nil
		}
		cmp := Compare(l, r)
		switch x.Op {
		case "=":
			return Bool(cmp == 0), nil
		case "!=":
			return Bool(cmp != 0), nil
		case "<":
			return Bool(cmp < 0), nil
		case "<=":
			return Bool(cmp <= 0), nil
		case ">":
			return Bool(cmp > 0), nil
		default:
			return Bool(cmp >= 0), nil
		}
	case "+", "-", "*", "/", "%":
		if l.IsNull() || r.IsNull() {
			return Null, nil
		}
		if l.Type() == TypeInt && r.Type() == TypeInt {
			a, b := l.Int(), r.Int()
			switch x.Op {
			case "+":
				return Int(a + b), nil
			case "-":
				return Int(a - b), nil
			case "*":
				return Int(a * b), nil
			case "/":
				if b == 0 {
					return Null, nil
				}
				return Int(a / b), nil
			default:
				if b == 0 {
					return Null, nil
				}
				return Int(a % b), nil
			}
		}
		a, b := l.Real(), r.Real()
		switch x.Op {
		case "+":
			return Real(a + b), nil
		case "-":
			return Real(a - b), nil
		case "*":
			return Real(a * b), nil
		case "/":
			if b == 0 {
				return Null, nil
			}
			return Real(a / b), nil
		default:
			if b == 0 {
				return Null, nil
			}
			return Real(math.Mod(a, b)), nil
		}
	case "||":
		if l.IsNull() || r.IsNull() {
			return Null, nil
		}
		return Text(l.Text() + r.Text()), nil
	case "LIKE":
		if l.IsNull() || r.IsNull() {
			return Null, nil
		}
		return Bool(likeMatch(r.Text(), l.Text())), nil
	default:
		return Null, fmt.Errorf("%w: operator %q", ErrUnsupported, x.Op)
	}
}

func (c *evalCtx) evalIn(x *sqlparse.InList) (Value, error) {
	v, err := c.eval(x.X)
	if err != nil {
		return Null, err
	}
	if v.IsNull() {
		return Null, nil
	}
	sawNull := false
	for _, item := range x.List {
		iv, err := c.eval(item)
		if err != nil {
			return Null, err
		}
		if iv.IsNull() {
			sawNull = true
			continue
		}
		if Compare(v, iv) == 0 {
			return Bool(!x.Not), nil
		}
	}
	if sawNull {
		return Null, nil
	}
	return Bool(x.Not), nil
}

func (c *evalCtx) evalCase(x *sqlparse.CaseExpr) (Value, error) {
	var operand Value
	hasOperand := x.Operand != nil
	if hasOperand {
		var err error
		operand, err = c.eval(x.Operand)
		if err != nil {
			return Null, err
		}
	}
	for _, w := range x.Whens {
		cond, err := c.eval(w.Cond)
		if err != nil {
			return Null, err
		}
		matched := false
		if hasOperand {
			matched = !cond.IsNull() && !operand.IsNull() && Compare(operand, cond) == 0
		} else {
			matched = !cond.IsNull() && cond.Truthy()
		}
		if matched {
			return c.eval(w.Then)
		}
	}
	if x.Else != nil {
		return c.eval(x.Else)
	}
	return Null, nil
}

// evalFunc handles scalar (non-aggregate) functions.
func (c *evalCtx) evalFunc(x *sqlparse.Call) (Value, error) {
	args := make([]Value, len(x.Args))
	for i, a := range x.Args {
		v, err := c.eval(a)
		if err != nil {
			return Null, err
		}
		args[i] = v
	}
	switch x.Name {
	case "LENGTH":
		if len(args) != 1 || args[0].IsNull() {
			return Null, nil
		}
		if args[0].Type() == TypeBlob {
			return Int(int64(len(args[0].Blob()))), nil
		}
		return Int(int64(len(args[0].Text()))), nil
	case "UPPER":
		if len(args) != 1 || args[0].IsNull() {
			return Null, nil
		}
		return Text(strings.ToUpper(args[0].Text())), nil
	case "LOWER":
		if len(args) != 1 || args[0].IsNull() {
			return Null, nil
		}
		return Text(strings.ToLower(args[0].Text())), nil
	case "ABS":
		if len(args) != 1 || args[0].IsNull() {
			return Null, nil
		}
		if args[0].Type() == TypeInt {
			v := args[0].Int()
			if v < 0 {
				v = -v
			}
			return Int(v), nil
		}
		return Real(math.Abs(args[0].Real())), nil
	case "COALESCE", "IFNULL":
		for _, a := range args {
			if !a.IsNull() {
				return a, nil
			}
		}
		return Null, nil
	case "SUBSTR", "SUBSTRING":
		if len(args) < 2 || args[0].IsNull() {
			return Null, nil
		}
		s := args[0].Text()
		start := int(args[1].Int())
		if start > 0 {
			start--
		} else if start < 0 {
			start = len(s) + start
		}
		if start < 0 {
			start = 0
		}
		if start > len(s) {
			return Text(""), nil
		}
		end := len(s)
		if len(args) >= 3 {
			if n := int(args[2].Int()); start+n < end {
				end = start + n
			}
		}
		if end < start {
			end = start
		}
		return Text(s[start:end]), nil
	case "MIN":
		// Scalar MIN with >= 2 args (single-arg MIN is an aggregate).
		best := Null
		for _, a := range args {
			if a.IsNull() {
				return Null, nil
			}
			if best.IsNull() || Compare(a, best) < 0 {
				best = a
			}
		}
		return best, nil
	case "MAX":
		best := Null
		for _, a := range args {
			if a.IsNull() {
				return Null, nil
			}
			if best.IsNull() || Compare(a, best) > 0 {
				best = a
			}
		}
		return best, nil
	case "RANDOM":
		if c.rng != nil {
			return Int(c.rng()), nil
		}
		return Int(0), nil
	case "ROUND":
		if len(args) < 1 || args[0].IsNull() {
			return Null, nil
		}
		digits := 0
		if len(args) >= 2 {
			digits = int(args[1].Int())
		}
		scale := math.Pow(10, float64(digits))
		return Real(math.Round(args[0].Real()*scale) / scale), nil
	case "TYPEOF":
		if len(args) != 1 {
			return Null, nil
		}
		return Text(strings.ToLower(args[0].Type().String())), nil
	default:
		return Null, fmt.Errorf("%w: function %s", ErrUnsupported, x.Name)
	}
}

// likeMatch implements SQL LIKE: case-insensitive, % matches any run,
// _ matches one character.
func likeMatch(pattern, s string) bool {
	return likeRec(strings.ToLower(pattern), strings.ToLower(s))
}

func likeRec(p, s string) bool {
	for len(p) > 0 {
		switch p[0] {
		case '%':
			p = p[1:]
			if len(p) == 0 {
				return true
			}
			for i := 0; i <= len(s); i++ {
				if likeRec(p, s[i:]) {
					return true
				}
			}
			return false
		case '_':
			if len(s) == 0 {
				return false
			}
			p, s = p[1:], s[1:]
		default:
			if len(s) == 0 || p[0] != s[0] {
				return false
			}
			p, s = p[1:], s[1:]
		}
	}
	return len(s) == 0
}

// aggregate names recognized when used with a single argument (or *).
func isAggregate(call *sqlparse.Call) bool {
	switch call.Name {
	case "COUNT", "SUM", "TOTAL", "AVG":
		return true
	case "MIN", "MAX":
		return call.Star || len(call.Args) == 1
	default:
		return false
	}
}

// collectAggregates gathers aggregate calls appearing in an expression
// (not the ones inside another's argument).
func collectAggregates(e sqlparse.Expr, out *[]*sqlparse.Call) {
	walkExpr(e, func(e sqlparse.Expr) bool {
		if c, ok := e.(*sqlparse.Call); ok && isAggregate(c) {
			*out = append(*out, c)
			return false
		}
		return true
	})
}

// aggState accumulates one aggregate over a group.
type aggState struct {
	call     *sqlparse.Call
	count    int64
	sumI     int64
	sumF     float64
	isFloat  bool
	best     Value
	haveBest bool
	distinct map[string]bool
}

func newAggState(call *sqlparse.Call) *aggState {
	st := &aggState{call: call}
	if call.Distinct {
		st.distinct = make(map[string]bool)
	}
	return st
}

func (st *aggState) step(ctx *evalCtx) error {
	var v Value
	if st.call.Star {
		v = Int(1)
	} else {
		var err error
		v, err = ctx.eval(st.call.Args[0])
		if err != nil {
			return err
		}
		if v.IsNull() {
			return nil // aggregates skip NULLs
		}
	}
	if st.distinct != nil {
		key := string(EncodeRecord([]Value{v}))
		if st.distinct[key] {
			return nil
		}
		st.distinct[key] = true
	}
	st.count++
	switch st.call.Name {
	case "SUM", "TOTAL", "AVG":
		if v.Type() == TypeReal || st.isFloat {
			st.isFloat = true
			st.sumF += v.Real()
		} else {
			st.sumI += v.Int()
			st.sumF += v.Real()
		}
	case "MIN":
		if !st.haveBest || Compare(v, st.best) < 0 {
			st.best, st.haveBest = v, true
		}
	case "MAX":
		if !st.haveBest || Compare(v, st.best) > 0 {
			st.best, st.haveBest = v, true
		}
	}
	return nil
}

func (st *aggState) final() Value {
	switch st.call.Name {
	case "COUNT":
		return Int(st.count)
	case "SUM":
		if st.count == 0 {
			return Null
		}
		if st.isFloat {
			return Real(st.sumF)
		}
		return Int(st.sumI)
	case "TOTAL":
		return Real(st.sumF)
	case "AVG":
		if st.count == 0 {
			return Null
		}
		return Real(st.sumF / float64(st.count))
	case "MIN", "MAX":
		if !st.haveBest {
			return Null
		}
		return st.best
	default:
		return Null
	}
}
