package sqlite

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/sqlite/sqlparse"
)

// A statement compiles once per catalog generation (DESIGN.md §5): compile
// resolves every name, files every conjunct under its join level and picks
// every access path; a run takes bound parameters and nothing else. The
// compiled form owns the run's scratch — each source's decoded row, a
// written row and its record, an updated row's stored record — so what a
// run returns (Rows, its row slices, TEXT and BLOB values) is allocated
// fresh and never aliases it.

// newSource binds a catalogued table under an alias (its own name without
// one).
func (db *DB) newSource(name, alias string) (*source, error) {
	t, err := db.cat.table(name)
	if err != nil {
		return nil, err
	}
	if alias == "" {
		alias = name
	}
	return &source{alias: strings.ToLower(alias), tbl: t}, nil
}

// ---- INSERT / UPDATE / DELETE ----

// writePlan is a compiled INSERT, UPDATE or DELETE.
type writePlan struct {
	ctx evalCtx // UPDATE and DELETE: the table is its one source
	t   *Table
	run func() (int64, error)

	// INSERT: table positions of the statement's columns, and the rows.
	positions []int
	rows      [][]sqlparse.Expr

	// UPDATE and DELETE: the WHERE's conjuncts and how to find the rows.
	conjs []sqlparse.Expr
	path  accessPath
	// UPDATE: the assigned positions and their expressions, and which
	// columns they assign (isSet, by position).
	setPos []int
	set    []sqlparse.Expr
	isSet  []bool

	// Scratch: the row being written and its record (the tree copies what
	// Insert hands it), and room for the one match of a rowid probe.
	row []Value
	rec []byte
	one [1]matchedRow
	// matches is live during a run only.
	matches []matchedRow
}

type matchedRow struct {
	rowid int64
	vals  []Value
	rec   []byte // UPDATE: the row's stored record, which its new one is spliced from
}

func (db *DB) compileWrite(st sqlparse.Stmt) (*writePlan, error) {
	w := &writePlan{}
	w.ctx.rng = db.rand
	var err error
	switch x := st.(type) {
	case *sqlparse.Insert:
		if w.t, err = db.cat.table(x.Table); err != nil {
			return nil, err
		}
		// Map statement columns to table positions.
		if len(x.Columns) == 0 {
			w.positions = make([]int, len(w.t.Columns))
			for i := range w.positions {
				w.positions[i] = i
			}
		}
		for _, cn := range x.Columns {
			pos := w.t.ColumnIndex(cn)
			if pos < 0 {
				return nil, fmt.Errorf("%w: %s.%s", ErrNoSuchColumn, w.t.Name, cn)
			}
			w.positions = append(w.positions, pos)
		}
		for _, row := range x.Rows {
			bound := make([]sqlparse.Expr, len(row))
			for i, e := range row {
				bound[i] = bindExpr(e, nil)
			}
			w.rows = append(w.rows, bound)
		}
		w.run = w.insert
	case *sqlparse.Update:
		if err = w.target(db, x.Table); err != nil {
			return nil, err
		}
		w.isSet = make([]bool, len(w.t.Columns))
		for _, a := range x.Set {
			pos := w.t.ColumnIndex(a.Column)
			if pos < 0 {
				return nil, fmt.Errorf("%w: %s.%s", ErrNoSuchColumn, w.t.Name, a.Column)
			}
			w.setPos = append(w.setPos, pos)
			w.set = append(w.set, bindExpr(a.Value, w.ctx.sources))
			w.isSet[pos] = true
		}
		w.where(x.Where)
		w.ctx.sources[0].keep = true
		w.run = w.update
	case *sqlparse.Delete:
		if err = w.target(db, x.Table); err != nil {
			return nil, err
		}
		w.where(x.Where)
		w.run = w.delete
	}
	return w, nil
}

// target makes the written table the plan's one source.
func (w *writePlan) target(db *DB, table string) error {
	s, err := db.newSource(table, "")
	if err != nil {
		return err
	}
	w.t, w.ctx.sources = s.tbl, []*source{s}
	return nil
}

// where compiles a single-table WHERE: its conjuncts, the access path
// they allow, and the source's skip mask — a row decodes only the columns
// the WHERE and the SET expressions read and those the table's indexes
// key on.
func (w *writePlan) where(e sqlparse.Expr) {
	srcs := w.ctx.sources
	if e != nil {
		splitConjuncts(bindExpr(e, srcs), &w.conjs)
	}
	w.path = choosePath(w.conjs, 0, w.t)
	srcs[0].skip = ^uint64(0)
	for _, list := range [][]sqlparse.Expr{w.conjs, w.set} {
		for _, e := range list {
			unskip(srcs, e)
		}
	}
	for _, idx := range w.t.Indexes {
		for _, pos := range idx.Cols {
			srcs[0].skip &^= 1 << uint(pos)
		}
	}
}

func (w *writePlan) insert() (int64, error) {
	t := w.t
	var affected int64
	for _, rowExprs := range w.rows {
		if len(rowExprs) != len(w.positions) {
			return 0, fmt.Errorf("%w: %d values for %d columns", ErrMisuse, len(rowExprs), len(w.positions))
		}
		w.row = nullRow(w.row, len(t.Columns))
		for i, e := range rowExprs {
			v, err := w.ctx.eval(e)
			if err != nil {
				return 0, err
			}
			pos := w.positions[i]
			w.row[pos] = applyAffinity(v, t.Columns[pos].Affinity)
		}
		if err := w.insertRow(w.row); err != nil {
			return 0, err
		}
		affected++
	}
	return affected, nil
}

// nullRow is row resized to n NULLs.
func nullRow(row []Value, n int) []Value {
	if cap(row) < n {
		return make([]Value, n)
	}
	row = row[:n]
	clear(row) // the zero Value is NULL
	return row
}

// insertRow stores one row, assigning a rowid and maintaining indexes.
func (w *writePlan) insertRow(vals []Value) error {
	t := w.t
	var rowid int64
	if t.RowidAlias >= 0 && !vals[t.RowidAlias].IsNull() {
		rowid = vals[t.RowidAlias].Int()
		if _, exists, err := t.tree.Get(rowid); err != nil {
			return err
		} else if exists {
			return fmt.Errorf("%w: %s primary key %d", ErrConstraint, t.Name, rowid)
		}
		if t.nextRowid != 0 && rowid >= t.nextRowid {
			t.nextRowid = rowid + 1
		}
	} else {
		if t.nextRowid == 0 {
			maxID, err := t.tree.MaxRowid()
			if err != nil {
				return err
			}
			t.nextRowid = maxID + 1
		}
		rowid = t.nextRowid
		t.nextRowid++
		if t.RowidAlias >= 0 {
			vals[t.RowidAlias] = Int(rowid)
		}
	}
	// Unique index checks before any mutation.
	for _, idx := range t.Indexes {
		if !idx.Unique {
			continue
		}
		dup, err := uniqueExists(idx, vals)
		if err != nil {
			return err
		}
		if dup {
			return fmt.Errorf("%w: unique index %s", ErrConstraint, idx.Name)
		}
	}
	if err := w.store(rowid, vals); err != nil {
		return err
	}
	for _, idx := range t.Indexes {
		if err := insertIndexEntry(idx, vals, rowid); err != nil {
			return err
		}
	}
	return nil
}

// store writes vals as the table's row rowid, encoding into the plan's
// record buffer. The rowid column is implicit, as in SQLite: it is stored
// NULL.
func (w *writePlan) store(rowid int64, vals []Value) error {
	a := w.t.RowidAlias
	var kept Value
	if a >= 0 {
		kept, vals[a] = vals[a], Null
	}
	w.rec = appendRecord(w.rec[:0], vals)
	if a >= 0 {
		vals[a] = kept
	}
	return w.t.tree.Insert(rowid, w.rec)
}

// uniqueExists probes a unique index for a duplicate of vals' key.
func uniqueExists(idx *Index, vals []Value) (bool, error) {
	prefix := make([]Value, len(idx.Cols))
	for i, pos := range idx.Cols {
		if vals[pos].IsNull() {
			return false, nil // NULLs never collide, as in SQL
		}
		prefix[i] = vals[pos]
	}
	cur, err := idx.tree.SeekKey(indexPrefix(prefix))
	if err != nil {
		return false, err
	}
	if !cur.Valid() {
		return false, nil
	}
	key, err := cur.Key()
	if err != nil {
		return false, err
	}
	kv, err := DecodeRecord(key)
	if err != nil {
		return false, err
	}
	if len(kv) < len(prefix) {
		return false, nil
	}
	for i := range prefix {
		if Compare(kv[i], prefix[i]) != 0 {
			return false, nil
		}
	}
	return true, nil
}

// collect materializes the rows the WHERE selects before any is changed,
// so mutation never races the scan cursor. A rowid probe yields at most one
// row, which stays where it was decoded, its record where the source kept
// it; any other path decodes the next candidate over them, so a match is
// copied out.
func (w *writePlan) collect() ([]matchedRow, error) {
	s := w.ctx.sources[0]
	w.matches = w.one[:0]
	err := s.iterate(&w.path, &w.ctx, w.match)
	s.bound = false
	matches := w.matches
	w.matches = nil
	return matches, err
}

func (w *writePlan) match() error {
	ok, err := w.ctx.all(w.conjs)
	if err != nil || !ok {
		return err
	}
	s := w.ctx.sources[0]
	m := matchedRow{rowid: s.rowid, vals: s.vals, rec: s.rec}
	if w.path.kind != scanRowidEq {
		m.vals, m.rec = append([]Value(nil), m.vals...), append([]byte(nil), m.rec...)
	}
	w.matches = append(w.matches, m)
	return nil
}

func (w *writePlan) update() (int64, error) {
	matches, err := w.collect()
	if err != nil {
		return 0, err
	}
	t, s := w.t, w.ctx.sources[0]
	for _, m := range matches {
		s.vals, s.rowid, s.bound = m.vals, m.rowid, true
		newVals := append(w.row[:0], m.vals...)
		w.row = newVals
		for i, e := range w.set {
			v, err := w.ctx.eval(e)
			if err != nil {
				return 0, err
			}
			newVals[w.setPos[i]] = applyAffinity(v, t.Columns[w.setPos[i]].Affinity)
		}
		newRowid := m.rowid
		if t.RowidAlias >= 0 {
			newRowid = newVals[t.RowidAlias].Int()
		}
		// Maintain indexes whose key actually changed.
		for _, idx := range t.Indexes {
			changed := newRowid != m.rowid
			for _, pos := range idx.Cols {
				if Compare(m.vals[pos], newVals[pos]) != 0 {
					changed = true
					break
				}
			}
			if !changed {
				continue
			}
			if idx.Unique {
				dup, err := uniqueExists(idx, newVals)
				if err != nil {
					return 0, err
				}
				if dup {
					return 0, fmt.Errorf("%w: unique index %s", ErrConstraint, idx.Name)
				}
			}
			if err := deleteIndexEntry(idx, m.vals, m.rowid); err != nil {
				return 0, err
			}
			if err := insertIndexEntry(idx, newVals, newRowid); err != nil {
				return 0, err
			}
		}
		if newRowid != m.rowid {
			if _, exists, err := t.tree.Get(newRowid); err != nil {
				return 0, err
			} else if exists {
				return 0, fmt.Errorf("%w: %s primary key %d", ErrConstraint, t.Name, newRowid)
			}
			if _, err := t.tree.Delete(m.rowid); err != nil {
				return 0, err
			}
		}
		// The new record is the old one with the SET columns encoded in:
		// what the row keeps is copied as it lies, never decoded.
		if w.rec, err = spliceRecord(w.rec[:0], m.rec, newVals, w.isSet, t.RowidAlias); err != nil {
			return 0, err
		}
		if err := t.tree.Insert(newRowid, w.rec); err != nil {
			return 0, err
		}
	}
	s.bound = false
	return int64(len(matches)), nil
}

func (w *writePlan) delete() (int64, error) {
	matches, err := w.collect()
	if err != nil {
		return 0, err
	}
	for _, m := range matches {
		for _, idx := range w.t.Indexes {
			if err := deleteIndexEntry(idx, m.vals, m.rowid); err != nil {
				return 0, err
			}
		}
		if _, err := w.t.tree.Delete(m.rowid); err != nil {
			return 0, err
		}
	}
	return int64(len(matches)), nil
}

// ---- access planning ----

// accessKind is the chosen scan strategy for one table.
type accessKind int

const (
	scanFull accessKind = iota
	scanRowidEq
	scanRowidRange
	scanIndexEq
)

// accessPath describes how to read one table given already-bound outer
// sources.
type accessPath struct {
	kind accessKind
	idx  *Index
	// eq holds the expressions producing the equality key: the rowid
	// probe for scanRowidEq, or the index prefix for scanIndexEq.
	eq []sqlparse.Expr
	// range bounds for scanRowidRange (either may be nil).
	lo, hi             sqlparse.Expr
	loStrict, hiStrict bool
}

// splitConjuncts flattens an AND tree.
func splitConjuncts(e sqlparse.Expr, out *[]sqlparse.Expr) {
	if b, ok := e.(*sqlparse.Binary); ok && b.Op == "AND" {
		splitConjuncts(b.L, out)
		splitConjuncts(b.R, out)
		return
	}
	*out = append(*out, e)
}

// earliestLevel determines the first join level at which a bound conjunct
// can be evaluated: every source it reads is bound. Constant predicates
// run at the first level.
func earliestLevel(e sqlparse.Expr) int {
	level := 1
	eachRef(e, func(r *colRef) { level = max(level, r.src+1) })
	return level
}

// columnOf matches a bound expression against "a column of table t, the
// source at level": its position, -1 for the rowid under any of its names
// (the INTEGER PRIMARY KEY's included).
func columnOf(e sqlparse.Expr, level int, t *Table) (int, bool) {
	r, ok := e.(*colRef)
	if !ok || r.err != nil || r.src != level {
		return 0, false
	}
	if r.col == t.RowidAlias {
		return -1, true
	}
	return r.col, true
}

// outerOnly reports whether e reads only sources below level (so it can
// be evaluated before the source at level is bound).
func outerOnly(e sqlparse.Expr, level int) bool {
	ok := true
	eachRef(e, func(r *colRef) { ok = ok && r.src >= 0 && r.src < level })
	return ok
}

// choosePath picks the cheapest access path for table t, the source at
// level, from the conjuncts assigned to that level.
func choosePath(conjs []sqlparse.Expr, level int, t *Table) accessPath {
	eqByCol := map[int]sqlparse.Expr{} // column position (or -1 = rowid) -> probe expr
	var loE, hiE sqlparse.Expr
	var loStrict, hiStrict bool
	for _, cj := range conjs {
		switch x := cj.(type) {
		case *sqlparse.Binary:
			col, colOK := columnOf(x.L, level, t)
			probe := x.R
			op := x.Op
			if !colOK {
				if col2, ok2 := columnOf(x.R, level, t); ok2 {
					col, colOK, probe = col2, true, x.L
					switch op {
					case "<":
						op = ">"
					case "<=":
						op = ">="
					case ">":
						op = "<"
					case ">=":
						op = "<="
					}
				}
			}
			if !colOK || !outerOnly(probe, level) {
				continue
			}
			switch op {
			case "=":
				if _, dup := eqByCol[col]; !dup {
					eqByCol[col] = probe
				}
			case ">":
				if col == -1 && loE == nil {
					loE, loStrict = probe, true
				}
			case ">=":
				if col == -1 && loE == nil {
					loE = probe
				}
			case "<":
				if col == -1 && hiE == nil {
					hiE, hiStrict = probe, true
				}
			case "<=":
				if col == -1 && hiE == nil {
					hiE = probe
				}
			}
		case *sqlparse.Between:
			if col, ok := columnOf(x.X, level, t); ok && col == -1 && !x.Not &&
				outerOnly(x.Lo, level) && outerOnly(x.Hi, level) {
				if loE == nil {
					loE = x.Lo
				}
				if hiE == nil {
					hiE = x.Hi
				}
			}
		}
	}
	if probe, ok := eqByCol[-1]; ok {
		return accessPath{kind: scanRowidEq, eq: []sqlparse.Expr{probe}}
	}
	// Longest equality prefix over any index.
	var best *Index
	bestLen := 0
	for _, idx := range t.Indexes {
		n := 0
		for _, pos := range idx.Cols {
			if _, ok := eqByCol[pos]; ok {
				n++
			} else {
				break
			}
		}
		if n > bestLen {
			best, bestLen = idx, n
		}
	}
	if best != nil {
		eq := make([]sqlparse.Expr, bestLen)
		for i := 0; i < bestLen; i++ {
			eq[i] = eqByCol[best.Cols[i]]
		}
		return accessPath{kind: scanIndexEq, idx: best, eq: eq}
	}
	if loE != nil || hiE != nil {
		return accessPath{kind: scanRowidRange, lo: loE, hi: hiE, loStrict: loStrict, hiStrict: hiStrict}
	}
	return accessPath{kind: scanFull}
}

// decode makes a stored row the source's current one, decoding it over the
// scratch row (and, for an UPDATE's source, copying its record over the
// kept one); s.rowid is already the row's.
func (s *source) decode(payload []byte) (err error) {
	if s.keep {
		s.rec = append(s.rec[:0], payload...)
	}
	s.row, err = decodeRecord(payload, len(s.tbl.Columns), s.skip, s.row)
	if err == nil {
		fillRowidAlias(s.tbl, s.row, s.rowid)
		s.vals, s.bound = s.row, true
	}
	return err
}

// get is a point lookup: the row is decoded once, under its page's pin,
// and fn runs after the pin is dropped. No such row is nothing to emit.
func (s *source) get(rowid int64, fn func() error) error {
	s.rowid = rowid
	ok, err := s.tbl.tree.View(rowid, s.decode)
	if err != nil || !ok {
		return err
	}
	return fn()
}

// bindNulls makes an all-NULL row the source's current one.
func (s *source) bindNulls() {
	s.row = nullRow(s.row, len(s.tbl.Columns))
	s.vals, s.rowid, s.bound = s.row, 0, true
}

// iterate drives one access path, binding every candidate row in turn and
// invoking fn for it.
func (s *source) iterate(path *accessPath, ctx *evalCtx, fn func() error) error {
	t := s.tbl
	switch path.kind {
	case scanRowidEq:
		v, err := ctx.eval(path.eq[0])
		if err != nil {
			return err
		}
		if v.IsNull() {
			return nil
		}
		return s.get(v.Int(), fn)
	case scanIndexEq:
		prefix := make([]Value, len(path.eq))
		for i, e := range path.eq {
			v, err := ctx.eval(e)
			if err != nil {
				return err
			}
			if v.IsNull() {
				return nil
			}
			prefix[i] = v
		}
		cur, err := path.idx.tree.SeekKey(indexPrefix(prefix))
		if err != nil {
			return err
		}
		for cur.Valid() {
			key, err := cur.Key()
			if err != nil {
				return err
			}
			kv, err := DecodeRecord(key)
			if err != nil {
				return err
			}
			if len(kv) < len(prefix)+1 {
				return fmt.Errorf("sqlite: short index key in %s", path.idx.Name)
			}
			match := true
			for i := range prefix {
				if Compare(kv[i], prefix[i]) != 0 {
					match = false
					break
				}
			}
			if !match {
				return nil
			}
			if err := s.get(kv[len(kv)-1].Int(), fn); err != nil {
				return err
			}
			if err := cur.Next(); err != nil {
				return err
			}
		}
		return nil
	default: // a rowid range; a full scan is the one without bounds
		lo, hi := int64(math.MinInt64), int64(math.MaxInt64)
		if path.kind == scanRowidRange {
			lo = 1
		}
		if path.lo != nil {
			v, err := ctx.eval(path.lo)
			if err != nil {
				return err
			}
			lo = v.Int()
			if path.loStrict {
				lo++
			}
		}
		if path.hi != nil {
			v, err := ctx.eval(path.hi)
			if err != nil {
				return err
			}
			hi = v.Int()
			if path.hiStrict {
				hi--
			}
		}
		cur, err := t.tree.SeekRowid(lo)
		if err != nil {
			return err
		}
		for cur.Valid() {
			rowid, err := cur.Rowid()
			if err != nil {
				return err
			}
			if rowid > hi {
				return nil
			}
			payload, err := cur.Payload()
			if err != nil {
				return err
			}
			s.rowid = rowid
			if err := s.decode(payload); err != nil {
				return err
			}
			if err := fn(); err != nil {
				return err
			}
			if err := cur.Next(); err != nil {
				return err
			}
		}
		return nil
	}
}

// ---- SELECT ----

// selectPlan is a compiled SELECT.
type selectPlan struct {
	distinct bool
	ctx      evalCtx
	levels   []joinLevel     // one per source, in join order
	noFrom   []sqlparse.Expr // the WHERE of a SELECT without FROM
	names    []string        // result column names: every Rows of the statement shares them
	outs     []sqlparse.Expr
	groupBy  []sqlparse.Expr
	having   sqlparse.Expr
	order    []orderTerm
	aggs     []*sqlparse.Call
	grouped  bool
	limit    sqlparse.Expr // nil = none
	offset   sqlparse.Expr

	// Live during a run only: result rows — each with its sort keys behind
	// its output values until the ordering is done — and the groups.
	rows       [][]Value
	groups     map[string]*group
	groupOrder []string
}

// joinLevel is one level of the nested-loop join.
type joinLevel struct {
	src  *source
	left bool
	// conjs is the ON conjuncts, then the WHERE conjuncts, first evaluable
	// once src is bound; where is the WHERE ones alone, which a LEFT
	// JOIN's null-extended row must still satisfy though it bypasses ON.
	conjs, where []sqlparse.Expr
	path         accessPath
	visit        func() error // iterate's callback at this level
	matched      bool         // some row of the current scan passed conjs
}

// orderTerm is one compiled ORDER BY term.
type orderTerm struct {
	expr sqlparse.Expr
	col  int // the output column it names, -1 to evaluate expr
	desc bool
}

// group is the accumulator state of one GROUP BY group.
type group struct {
	states   []*aggState
	snapshot []*source // deep copy of the first contributing row
}

func (db *DB) compileSelect(sel *sqlparse.Select) (*selectPlan, error) {
	p := &selectPlan{distinct: sel.Distinct}
	p.ctx.rng = db.rand
	// Bind sources.
	addSource := func(tr sqlparse.TableRef, left bool) error {
		s, err := db.newSource(tr.Name, tr.Alias)
		if err != nil {
			return err
		}
		p.ctx.sources = append(p.ctx.sources, s)
		p.levels = append(p.levels, joinLevel{src: s, left: left})
		return nil
	}
	if sel.From != nil {
		if err := addSource(*sel.From, false); err != nil {
			return nil, err
		}
		for _, j := range sel.Joins {
			if err := addSource(j.Table, j.Left); err != nil {
				return nil, err
			}
		}
	}
	srcs := p.ctx.sources
	if err := p.compileOutputs(sel); err != nil {
		return nil, err
	}

	// Gather predicate conjuncts and file each under its earliest level,
	// WHERE's from the first on, the ON of join i once its table is bound.
	file := func(e sqlparse.Expr, minLevel int, on bool) {
		var cj []sqlparse.Expr
		splitConjuncts(bindExpr(e, srcs), &cj)
		for _, e := range cj {
			switch lv := min(max(earliestLevel(e), minLevel), len(srcs)); {
			case lv == 0:
				p.noFrom = append(p.noFrom, e)
			case on:
				p.levels[lv-1].conjs = append(p.levels[lv-1].conjs, e)
			default:
				p.levels[lv-1].where = append(p.levels[lv-1].where, e)
			}
		}
	}
	if sel.Where != nil {
		file(sel.Where, 1, false)
	}
	for ji, j := range sel.Joins {
		if j.On != nil {
			file(j.On, ji+2, true)
		}
	}
	for i := range p.levels {
		lv := &p.levels[i]
		lv.conjs = append(lv.conjs, lv.where...)
		lv.path = choosePath(lv.conjs, i, lv.src.tbl)
		lv.visit = func() error {
			ok, err := p.ctx.all(lv.conjs)
			if err != nil || !ok {
				return err
			}
			lv.matched = true
			return p.loop(i + 1)
		}
	}

	for _, e := range sel.GroupBy {
		p.groupBy = append(p.groupBy, bindExpr(e, srcs))
	}
	p.having = bindExpr(sel.Having, srcs)
	p.limit, p.offset = bindExpr(sel.Limit, srcs), bindExpr(sel.Offset, srcs)
	// An ORDER BY term that names an output column — by ordinal, or by a
	// bare name — sorts by that column's value.
	for _, ot := range sel.OrderBy {
		term := orderTerm{expr: bindExpr(ot.Expr, srcs), col: -1, desc: ot.Desc}
		switch x := ot.Expr.(type) {
		case *sqlparse.IntLit:
			if x.Value >= 1 && int(x.Value) <= len(p.outs) {
				term.col = int(x.Value) - 1
			}
		case *sqlparse.ColumnRef:
			if x.Table == "" {
				for ci, name := range p.names {
					if strings.EqualFold(name, x.Column) {
						term.col = ci
						break
					}
				}
			}
		}
		p.order = append(p.order, term)
	}

	// Aggregation setup.
	for _, e := range p.outs {
		collectAggregates(e, &p.aggs)
	}
	collectAggregates(p.having, &p.aggs)
	for _, ot := range p.order {
		collectAggregates(ot.expr, &p.aggs)
	}
	p.grouped = len(p.groupBy) > 0 || len(p.aggs) > 0

	p.pruneColumns()
	return p, nil
}

// compileOutputs expands stars, names the result columns and binds their
// expressions.
func (p *selectPlan) compileOutputs(sel *sqlparse.Select) error {
	srcs := p.ctx.sources
	for _, rc := range sel.Columns {
		if rc.Star {
			matched := false
			for _, s := range srcs {
				if rc.Table != "" && !s.named(rc.Table) {
					continue
				}
				matched = true
				for _, c := range s.tbl.Columns {
					p.names = append(p.names, c.Name)
					p.outs = append(p.outs, bindExpr(&sqlparse.ColumnRef{Table: s.alias, Column: c.Name}, srcs))
				}
			}
			if !matched {
				return fmt.Errorf("%w: %s.*", ErrNoSuchTable, rc.Table)
			}
			continue
		}
		name := rc.Alias
		if name == "" {
			if cr, ok := rc.Expr.(*sqlparse.ColumnRef); ok {
				name = cr.Column
			} else {
				name = fmt.Sprintf("column%d", len(p.outs)+1)
			}
		}
		p.names = append(p.names, name)
		p.outs = append(p.outs, bindExpr(rc.Expr, srcs))
	}
	if len(p.outs) == 0 {
		return fmt.Errorf("%w: empty select list", ErrMisuse)
	}
	p.names = p.names[:len(p.names):len(p.names)] // shared with every Rows: an append must copy
	return nil
}

// pruneColumns sets each source's skip mask: every column is skipped but
// those some expression of the statement reads.
func (p *selectPlan) pruneColumns() {
	srcs := p.ctx.sources
	for _, s := range srcs {
		s.skip = ^uint64(0)
	}
	for _, lists := range [][]sqlparse.Expr{p.outs, p.groupBy, {p.having}} {
		for _, e := range lists {
			unskip(srcs, e)
		}
	}
	for _, lv := range p.levels {
		for _, e := range lv.conjs {
			unskip(srcs, e)
		}
	}
	for _, ot := range p.order {
		unskip(srcs, ot.expr)
	}
}

// unskip clears the skip bit of every column e reads.
func unskip(srcs []*source, e sqlparse.Expr) {
	eachRef(e, func(r *colRef) {
		if r.err == nil && r.col >= 0 {
			srcs[r.src].skip &^= 1 << uint(r.col)
		}
	})
}

// run executes the plan with the given parameters. The result rows are
// gathered in the Rows they are returned in, a one-row result in the row
// list the Rows carries inline.
func (p *selectPlan) run(params []Value) (*Rows, error) {
	p.ctx.params = params
	out := &Rows{Columns: p.names}
	p.rows = out.one[:0]
	err := p.collect(out)
	p.rows, p.groups, p.groupOrder = nil, nil, nil
	if err != nil {
		return nil, err
	}
	return out, nil
}

func (p *selectPlan) collect(out *Rows) error {
	ctx := &p.ctx
	if len(p.levels) == 0 {
		ok, err := ctx.all(p.noFrom)
		if err == nil && ok {
			err = p.onRow()
		}
		if err != nil {
			return err
		}
	} else if err := p.loop(0); err != nil {
		return err
	}
	if p.grouped {
		if err := p.finishGroups(); err != nil {
			return err
		}
	}
	n := len(p.outs)
	results := p.rows

	// DISTINCT.
	if p.distinct {
		seen := map[string]bool{}
		kept := results[:0]
		for _, row := range results {
			k := string(EncodeRecord(row[:n]))
			if !seen[k] {
				seen[k] = true
				kept = append(kept, row)
			}
		}
		results = kept
	}

	// ORDER BY.
	if len(p.order) > 0 {
		sort.SliceStable(results, func(i, j int) bool {
			for k, ot := range p.order {
				c := Compare(results[i][n+k], results[j][n+k])
				if c == 0 {
					continue
				}
				if ot.desc {
					return c > 0
				}
				return c < 0
			}
			return false
		})
		for i, row := range results {
			results[i] = row[:n:n]
		}
	}

	// LIMIT / OFFSET.
	if p.limit != nil {
		lv, err := ctx.eval(p.limit)
		if err != nil {
			return err
		}
		limit := int(lv.Int())
		offset := 0
		if p.offset != nil {
			ov, err := ctx.eval(p.offset)
			if err != nil {
				return err
			}
			offset = int(ov.Int())
		}
		if offset > len(results) {
			offset = len(results)
		}
		results = results[offset:]
		if limit >= 0 && limit < len(results) {
			results = results[:limit]
		}
	}
	out.Data = results
	return nil
}

// loop is the nested-loop join (SQLite's only join algorithm, §6.3.3)
// from level on: every combination of rows that passes its conjuncts
// reaches onRow.
func (p *selectPlan) loop(level int) error {
	if level == len(p.levels) {
		return p.onRow()
	}
	lv := &p.levels[level]
	s := lv.src
	lv.matched = false
	err := s.iterate(&lv.path, &p.ctx, lv.visit)
	s.bound = false
	if err != nil {
		return err
	}
	if !lv.matched && lv.left {
		// LEFT JOIN: emit one null-extended row, bypassing the ON
		// predicates but honouring WHERE.
		s.bindNulls()
		ok, err := p.ctx.all(lv.where)
		if err == nil && ok {
			err = p.loop(level + 1)
		}
		s.bound = false
		return err
	}
	return nil
}

// evalRow computes one result row in ctx's scope: the output values, then
// the sort keys in the same allocation.
func (p *selectPlan) evalRow(ctx *evalCtx) ([]Value, error) {
	row := make([]Value, len(p.outs), len(p.outs)+len(p.order))
	for i, e := range p.outs {
		v, err := ctx.eval(e)
		if err != nil {
			return nil, err
		}
		row[i] = v
	}
	for _, ot := range p.order {
		if ot.col >= 0 {
			row = append(row, row[ot.col])
			continue
		}
		v, err := ctx.eval(ot.expr)
		if err != nil {
			return nil, err
		}
		row = append(row, v)
	}
	return row, nil
}

// onRow takes one joined row: a result row, or a step of its group's
// aggregates.
func (p *selectPlan) onRow() error {
	ctx := &p.ctx
	if !p.grouped {
		row, err := p.evalRow(ctx)
		if err == nil {
			p.rows = append(p.rows, row)
		}
		return err
	}
	keyVals := make([]Value, len(p.groupBy))
	for i, ge := range p.groupBy {
		v, err := ctx.eval(ge)
		if err != nil {
			return err
		}
		keyVals[i] = v
	}
	g := p.group(string(EncodeRecord(keyVals)))
	for _, st := range g.states {
		if err := st.step(ctx); err != nil {
			return err
		}
	}
	return nil
}

// group finds a group by key, opening it on the current row if it is new.
func (p *selectPlan) group(key string) *group {
	if g, ok := p.groups[key]; ok {
		return g
	}
	g := &group{snapshot: make([]*source, len(p.ctx.sources))}
	for i, s := range p.ctx.sources {
		g.snapshot[i] = &source{alias: s.alias, tbl: s.tbl, rowid: s.rowid, bound: s.bound,
			vals: append([]Value(nil), s.vals...)}
	}
	for _, call := range p.aggs {
		g.states = append(g.states, newAggState(call))
	}
	if p.groups == nil {
		p.groups = map[string]*group{}
	}
	p.groups[key] = g
	p.groupOrder = append(p.groupOrder, key)
	return g
}

// finishGroups turns every group that passes HAVING into a result row.
func (p *selectPlan) finishGroups() error {
	if len(p.groups) == 0 && len(p.groupBy) == 0 {
		// Aggregate over an empty input still yields one row.
		for _, s := range p.group("").snapshot {
			s.bindNulls()
		}
	}
	for _, key := range p.groupOrder {
		g := p.groups[key]
		gctx := &evalCtx{sources: g.snapshot, params: p.ctx.params, rng: p.ctx.rng,
			agg: make(map[*sqlparse.Call]Value)}
		for i, call := range p.aggs {
			gctx.agg[call] = g.states[i].final()
		}
		if p.having != nil {
			hv, err := gctx.eval(p.having)
			if err != nil {
				return err
			}
			if hv.IsNull() || !hv.Truthy() {
				continue
			}
		}
		row, err := p.evalRow(gctx)
		if err != nil {
			return err
		}
		p.rows = append(p.rows, row)
	}
	return nil
}
