package sqlite

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/sqlite/sqlparse"
)

// ---- INSERT ----

func (db *DB) execInsert(x *sqlparse.Insert, params []Value) (int64, error) {
	t, err := db.cat.table(x.Table)
	if err != nil {
		return 0, err
	}
	// Map statement columns to table positions.
	var positions []int
	if len(x.Columns) == 0 {
		positions = make([]int, len(t.Columns))
		for i := range positions {
			positions[i] = i
		}
	} else {
		positions = make([]int, len(x.Columns))
		for i, cn := range x.Columns {
			pos := t.ColumnIndex(cn)
			if pos < 0 {
				return 0, fmt.Errorf("%w: %s.%s", ErrNoSuchColumn, t.Name, cn)
			}
			positions[i] = pos
		}
	}
	ctx := &evalCtx{params: params, rng: db.rand}
	var affected int64
	for _, rowExprs := range x.Rows {
		if len(rowExprs) != len(positions) {
			return 0, fmt.Errorf("%w: %d values for %d columns", ErrMisuse, len(rowExprs), len(positions))
		}
		vals := make([]Value, len(t.Columns))
		for i := range vals {
			vals[i] = Null
		}
		for i, e := range rowExprs {
			v, err := ctx.eval(e)
			if err != nil {
				return 0, err
			}
			pos := positions[i]
			vals[pos] = applyAffinity(v, t.Columns[pos].Affinity)
		}
		if err := db.insertRow(t, vals); err != nil {
			return 0, err
		}
		affected++
	}
	return affected, nil
}

// insertRow stores one row, assigning a rowid and maintaining indexes.
func (db *DB) insertRow(t *Table, vals []Value) error {
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
		dup, err := db.uniqueExists(idx, vals)
		if err != nil {
			return err
		}
		if dup {
			return fmt.Errorf("%w: unique index %s", ErrConstraint, idx.Name)
		}
	}
	stored := make([]Value, len(vals))
	copy(stored, vals)
	if t.RowidAlias >= 0 {
		stored[t.RowidAlias] = Null // the rowid column is implicit, as in SQLite
	}
	if err := t.tree.Insert(rowid, EncodeRecord(stored)); err != nil {
		return err
	}
	for _, idx := range t.Indexes {
		if err := insertIndexEntry(idx, vals, rowid); err != nil {
			return err
		}
	}
	return nil
}

// uniqueExists probes a unique index for a duplicate of vals' key.
func (db *DB) uniqueExists(idx *Index, vals []Value) (bool, error) {
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

// eachColumnRef calls fn for every column reference in an expression.
func eachColumnRef(e sqlparse.Expr, fn func(*sqlparse.ColumnRef)) {
	switch x := e.(type) {
	case *sqlparse.ColumnRef:
		fn(x)
	case *sqlparse.Unary:
		eachColumnRef(x.X, fn)
	case *sqlparse.Binary:
		eachColumnRef(x.L, fn)
		eachColumnRef(x.R, fn)
	case *sqlparse.IsNull:
		eachColumnRef(x.X, fn)
	case *sqlparse.InList:
		eachColumnRef(x.X, fn)
		for _, i := range x.List {
			eachColumnRef(i, fn)
		}
	case *sqlparse.Between:
		eachColumnRef(x.X, fn)
		eachColumnRef(x.Lo, fn)
		eachColumnRef(x.Hi, fn)
	case *sqlparse.Call:
		for _, a := range x.Args {
			eachColumnRef(a, fn)
		}
	case *sqlparse.CaseExpr:
		if x.Operand != nil {
			eachColumnRef(x.Operand, fn)
		}
		for _, w := range x.Whens {
			eachColumnRef(w.Cond, fn)
			eachColumnRef(w.Then, fn)
		}
		if x.Else != nil {
			eachColumnRef(x.Else, fn)
		}
	}
}

// exprRefs lists the (lower-cased) alias qualifiers and bare columns an
// expression references.
func exprRefs(e sqlparse.Expr, refs map[string]bool, bare *[]string) {
	eachColumnRef(e, func(x *sqlparse.ColumnRef) {
		if x.Table != "" {
			refs[strings.ToLower(x.Table)] = true
		} else {
			*bare = append(*bare, x.Column)
		}
	})
}

// earliestLevel determines the first join level at which a conjunct can
// be evaluated: all referenced aliases bound, bare columns resolvable.
func earliestLevel(e sqlparse.Expr, srcs []*source) int {
	refs := map[string]bool{}
	var bare []string
	exprRefs(e, refs, &bare)
	level := 0
	for alias := range refs {
		found := false
		for i, s := range srcs {
			if s.alias == alias || strings.EqualFold(s.tbl.Name, alias) {
				if i+1 > level {
					level = i + 1
				}
				found = true
				break
			}
		}
		if !found {
			return len(srcs) // unresolvable here; surfaces as an error later
		}
	}
	for _, col := range bare {
		for i, s := range srcs {
			if s.tbl.ColumnIndex(col) >= 0 || strings.EqualFold(col, "rowid") {
				if i+1 > level {
					level = i + 1
				}
				break
			}
		}
	}
	if level == 0 {
		level = 1 // constant predicates run at the first level
	}
	return level
}

// columnOf matches an expression against "a column of table s", given
// that everything below level is bound.
func columnOf(e sqlparse.Expr, s *source) (int, bool) {
	cr, ok := e.(*sqlparse.ColumnRef)
	if !ok {
		return 0, false
	}
	if cr.Table != "" && strings.ToLower(cr.Table) != s.alias && !strings.EqualFold(cr.Table, s.tbl.Name) {
		return 0, false
	}
	if strings.EqualFold(cr.Column, "rowid") || (s.tbl.RowidAlias >= 0 && strings.EqualFold(cr.Column, s.tbl.Columns[s.tbl.RowidAlias].Name)) {
		return -1, true // -1 denotes the rowid
	}
	if i := s.tbl.ColumnIndex(cr.Column); i >= 0 {
		return i, true
	}
	return 0, false
}

// outerOnly reports whether e references nothing from source s (so it
// can be evaluated before s is bound).
func outerOnly(e sqlparse.Expr, s *source, srcs []*source, level int) bool {
	refs := map[string]bool{}
	var bare []string
	exprRefs(e, refs, &bare)
	if refs[s.alias] || refs[strings.ToLower(s.tbl.Name)] {
		return false
	}
	for alias := range refs {
		ok := false
		for i := 0; i < level; i++ {
			if srcs[i].alias == alias || strings.EqualFold(srcs[i].tbl.Name, alias) {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	for _, col := range bare {
		ok := false
		for i := 0; i < level; i++ {
			if srcs[i].tbl.ColumnIndex(col) >= 0 {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// plan picks the cheapest access path for srcs[level] from the
// conjuncts assigned to that level.
func plan(conjs []sqlparse.Expr, srcs []*source, level int) accessPath {
	s := srcs[level]
	eqByCol := map[int]sqlparse.Expr{} // column position (or -1 = rowid) -> probe expr
	var loE, hiE sqlparse.Expr
	var loStrict, hiStrict bool
	for _, cj := range conjs {
		switch x := cj.(type) {
		case *sqlparse.Binary:
			col, colOK := columnOf(x.L, s)
			probe := x.R
			op := x.Op
			if !colOK {
				if col2, ok2 := columnOf(x.R, s); ok2 {
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
			if !colOK || !outerOnly(probe, s, srcs, level) {
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
			if col, ok := columnOf(x.X, s); ok && col == -1 && !x.Not &&
				outerOnly(x.Lo, s, srcs, level) && outerOnly(x.Hi, s, srcs, level) {
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
	for _, idx := range s.tbl.Indexes {
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

// iterate drives one access path, invoking fn for every candidate row.
func (db *DB) iterate(s *source, path accessPath, ctx *evalCtx, fn func(rowid int64, vals []Value) (bool, error)) error {
	t := s.tbl
	decode := func(rowid int64, payload []byte) ([]Value, error) {
		vals, err := decodeRecord(payload, len(t.Columns), s.skip)
		if err == nil {
			fillRowidAlias(t, vals, rowid)
		}
		return vals, err
	}
	emit := func(rowid int64, payload []byte) (bool, error) {
		vals, err := decode(rowid, payload)
		if err != nil {
			return false, err
		}
		return fn(rowid, vals)
	}
	// get is a point lookup: the row is decoded once, under its page's pin,
	// and fn runs after the pin is dropped. No such row is nothing to emit.
	get := func(rowid int64) (bool, error) {
		var vals []Value
		ok, err := t.tree.View(rowid, func(payload []byte) (err error) {
			vals, err = decode(rowid, payload)
			return err
		})
		if err != nil || !ok {
			return true, err
		}
		return fn(rowid, vals)
	}
	switch path.kind {
	case scanRowidEq:
		v, err := ctx.eval(path.eq[0])
		if err != nil {
			return err
		}
		if v.IsNull() {
			return nil
		}
		_, err = get(v.Int())
		return err
	case scanRowidRange:
		lo := int64(1)
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
		var hi int64 = 1<<63 - 1
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
			cont, err := emit(rowid, payload)
			if err != nil || !cont {
				return err
			}
			if err := cur.Next(); err != nil {
				return err
			}
		}
		return nil
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
			if cont, err := get(kv[len(kv)-1].Int()); err != nil || !cont {
				return err
			}
			if err := cur.Next(); err != nil {
				return err
			}
		}
		return nil
	default: // full scan
		cur, err := t.tree.SeekFirst()
		if err != nil {
			return err
		}
		for cur.Valid() {
			rowid, err := cur.Rowid()
			if err != nil {
				return err
			}
			payload, err := cur.Payload()
			if err != nil {
				return err
			}
			cont, err := emit(rowid, payload)
			if err != nil || !cont {
				return err
			}
			if err := cur.Next(); err != nil {
				return err
			}
		}
		return nil
	}
}

// ---- UPDATE / DELETE ----

type matchedRow struct {
	rowid int64
	vals  []Value
}

// collectMatches materializes the rows a single-table WHERE selects,
// so mutation never races the scan cursor.
func (db *DB) collectMatches(t *Table, where sqlparse.Expr, params []Value) ([]matchedRow, error) {
	s := &source{alias: strings.ToLower(t.Name), tbl: t}
	srcs := []*source{s}
	ctx := &evalCtx{sources: srcs, params: params, rng: db.rand}
	var conjs []sqlparse.Expr
	if where != nil {
		splitConjuncts(where, &conjs)
	}
	path := plan(conjs, srcs, 0)
	var out []matchedRow
	err := db.iterate(s, path, ctx, func(rowid int64, vals []Value) (bool, error) {
		s.vals, s.rowid, s.bound = vals, rowid, true
		for _, cj := range conjs {
			v, err := ctx.eval(cj)
			if err != nil {
				return false, err
			}
			if v.IsNull() || !v.Truthy() {
				return true, nil
			}
		}
		out = append(out, matchedRow{rowid: rowid, vals: vals}) // decoded for this row alone
		return true, nil
	})
	s.bound = false
	return out, err
}

func (db *DB) execUpdate(x *sqlparse.Update, params []Value) (int64, error) {
	t, err := db.cat.table(x.Table)
	if err != nil {
		return 0, err
	}
	setPos := make([]int, len(x.Set))
	for i, a := range x.Set {
		pos := t.ColumnIndex(a.Column)
		if pos < 0 {
			return 0, fmt.Errorf("%w: %s.%s", ErrNoSuchColumn, t.Name, a.Column)
		}
		setPos[i] = pos
	}
	matches, err := db.collectMatches(t, x.Where, params)
	if err != nil {
		return 0, err
	}
	s := &source{alias: strings.ToLower(t.Name), tbl: t}
	ctx := &evalCtx{sources: []*source{s}, params: params, rng: db.rand}
	for _, m := range matches {
		s.vals, s.rowid, s.bound = m.vals, m.rowid, true
		newVals := make([]Value, len(m.vals))
		copy(newVals, m.vals)
		for i, a := range x.Set {
			v, err := ctx.eval(a.Value)
			if err != nil {
				return 0, err
			}
			newVals[setPos[i]] = applyAffinity(v, t.Columns[setPos[i]].Affinity)
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
				dup, err := db.uniqueExists(idx, newVals)
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
		stored := make([]Value, len(newVals))
		copy(stored, newVals)
		if t.RowidAlias >= 0 {
			stored[t.RowidAlias] = Null
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
		if err := t.tree.Insert(newRowid, EncodeRecord(stored)); err != nil {
			return 0, err
		}
	}
	s.bound = false
	return int64(len(matches)), nil
}

func (db *DB) execDelete(x *sqlparse.Delete, params []Value) (int64, error) {
	t, err := db.cat.table(x.Table)
	if err != nil {
		return 0, err
	}
	matches, err := db.collectMatches(t, x.Where, params)
	if err != nil {
		return 0, err
	}
	for _, m := range matches {
		for _, idx := range t.Indexes {
			if err := deleteIndexEntry(idx, m.vals, m.rowid); err != nil {
				return 0, err
			}
		}
		if _, err := t.tree.Delete(m.rowid); err != nil {
			return 0, err
		}
	}
	return int64(len(matches)), nil
}

// ---- SELECT ----

// outputCol is one compiled result column.
type outputCol struct {
	name string
	expr sqlparse.Expr
}

func (db *DB) runSelect(sel *sqlparse.Select, params []Value) (*Rows, error) {
	if err := db.cat.fresh(); err != nil {
		return nil, err
	}
	// Bind sources.
	var srcs []*source
	var leftFlags []bool
	addSource := func(tr sqlparse.TableRef, left bool) error {
		t, err := db.cat.table(tr.Name)
		if err != nil {
			return err
		}
		alias := strings.ToLower(tr.Alias)
		if alias == "" {
			alias = strings.ToLower(tr.Name)
		}
		srcs = append(srcs, &source{alias: alias, tbl: t})
		leftFlags = append(leftFlags, left)
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
	ctx := &evalCtx{sources: srcs, params: params, rng: db.rand}

	// Compile the output list.
	cols, err := db.compileOutputs(sel, srcs)
	if err != nil {
		return nil, err
	}

	pruneColumns(sel, cols, srcs)

	// Gather predicate conjuncts and assign each to its earliest level.
	// ON conjuncts are tracked separately from WHERE conjuncts: a LEFT
	// JOIN's null-extended row bypasses the ON predicates but must
	// still satisfy WHERE.
	nLevels := len(srcs)
	if nLevels == 0 {
		nLevels = 1
	}
	perLevelWhere := make([][]sqlparse.Expr, nLevels+1)
	perLevelOn := make([][]sqlparse.Expr, nLevels+1)
	assign := func(pool [][]sqlparse.Expr, e sqlparse.Expr, minLevel int) {
		lv := earliestLevel(e, srcs)
		if lv < minLevel {
			lv = minLevel
		}
		if lv > nLevels {
			lv = nLevels
		}
		pool[lv] = append(pool[lv], e)
	}
	if sel.Where != nil {
		var cj []sqlparse.Expr
		splitConjuncts(sel.Where, &cj)
		for _, e := range cj {
			assign(perLevelWhere, e, 1)
		}
	}
	for ji, j := range sel.Joins {
		if j.On == nil {
			continue
		}
		var cj []sqlparse.Expr
		splitConjuncts(j.On, &cj)
		for _, e := range cj {
			assign(perLevelOn, e, ji+2) // ON of join i runs once srcs[i+1] is bound
		}
	}

	// Aggregation setup.
	var aggCalls []*sqlparse.Call
	for _, oc := range cols {
		collectAggregates(oc.expr, &aggCalls)
	}
	if sel.Having != nil {
		collectAggregates(sel.Having, &aggCalls)
	}
	for _, ot := range sel.OrderBy {
		collectAggregates(ot.Expr, &aggCalls)
	}
	grouped := len(sel.GroupBy) > 0 || len(aggCalls) > 0

	out := &Rows{}
	for _, oc := range cols {
		out.Columns = append(out.Columns, oc.name)
	}

	type resultRow struct {
		vals []Value
		sort []Value
	}
	var results []resultRow

	// Pre-resolve ORDER BY terms that name output columns.
	orderColIdx := make([]int, len(sel.OrderBy)) // -1 means evaluate expr
	for i, ot := range sel.OrderBy {
		orderColIdx[i] = -1
		switch x := ot.Expr.(type) {
		case *sqlparse.IntLit:
			if x.Value >= 1 && int(x.Value) <= len(cols) {
				orderColIdx[i] = int(x.Value) - 1
			}
		case *sqlparse.ColumnRef:
			if x.Table == "" {
				for ci, oc := range cols {
					if strings.EqualFold(oc.name, x.Column) {
						orderColIdx[i] = ci
						break
					}
				}
			}
		}
	}

	evalRow := func() (resultRow, error) {
		var rr resultRow
		rr.vals = make([]Value, len(cols))
		for i, oc := range cols {
			v, err := ctx.eval(oc.expr)
			if err != nil {
				return rr, err
			}
			rr.vals[i] = v
		}
		for i, ot := range sel.OrderBy {
			if ci := orderColIdx[i]; ci >= 0 {
				rr.sort = append(rr.sort, rr.vals[ci])
				continue
			}
			v, err := ctx.eval(ot.Expr)
			if err != nil {
				return rr, err
			}
			rr.sort = append(rr.sort, v)
		}
		return rr, nil
	}

	// Group accumulator state.
	type group struct {
		states   []*aggState
		snapshot []*source // deep copy of the first contributing row
	}
	groups := map[string]*group{}
	var groupOrder []string

	snapshotSources := func() []*source {
		cp := make([]*source, len(srcs))
		for i, s := range srcs {
			ns := &source{alias: s.alias, tbl: s.tbl, rowid: s.rowid, bound: s.bound}
			ns.vals = make([]Value, len(s.vals))
			copy(ns.vals, s.vals)
			cp[i] = ns
		}
		return cp
	}

	onRow := func() error {
		if !grouped {
			rr, err := evalRow()
			if err != nil {
				return err
			}
			results = append(results, rr)
			return nil
		}
		keyVals := make([]Value, len(sel.GroupBy))
		for i, ge := range sel.GroupBy {
			v, err := ctx.eval(ge)
			if err != nil {
				return err
			}
			keyVals[i] = v
		}
		key := string(EncodeRecord(keyVals))
		g, ok := groups[key]
		if !ok {
			g = &group{snapshot: snapshotSources()}
			for _, call := range aggCalls {
				g.states = append(g.states, newAggState(call))
			}
			groups[key] = g
			groupOrder = append(groupOrder, key)
		}
		for _, st := range g.states {
			if err := st.step(ctx); err != nil {
				return err
			}
		}
		return nil
	}

	evalAll := func(conjs []sqlparse.Expr) (bool, error) {
		for _, cj := range conjs {
			v, err := ctx.eval(cj)
			if err != nil {
				return false, err
			}
			if v.IsNull() || !v.Truthy() {
				return false, nil
			}
		}
		return true, nil
	}

	// Nested-loop join (SQLite's only join algorithm, §6.3.3).
	var loop func(level int) error
	loop = func(level int) error {
		if level == len(srcs) {
			return onRow()
		}
		s := srcs[level]
		both := append(append([]sqlparse.Expr(nil), perLevelOn[level+1]...), perLevelWhere[level+1]...)
		path := plan(both, srcs, level)
		matched := false
		err := db.iterate(s, path, ctx, func(rowid int64, vals []Value) (bool, error) {
			s.vals, s.rowid, s.bound = vals, rowid, true
			ok, err := evalAll(both)
			if err != nil {
				return false, err
			}
			if !ok {
				return true, nil
			}
			matched = true
			if err := loop(level + 1); err != nil {
				return false, err
			}
			return true, nil
		})
		s.bound = false
		if err != nil {
			return err
		}
		if !matched && leftFlags[level] {
			// LEFT JOIN: emit one null-extended row, bypassing the ON
			// predicates but honouring WHERE.
			s.vals = make([]Value, len(s.tbl.Columns))
			for i := range s.vals {
				s.vals[i] = Null
			}
			s.rowid, s.bound = 0, true
			ok, err := evalAll(perLevelWhere[level+1])
			if err == nil && ok {
				err = loop(level + 1)
			}
			s.bound = false
			return err
		}
		return nil
	}

	if len(srcs) == 0 {
		ok := true
		if sel.Where != nil {
			var err error
			ok, err = evalAll(perLevelWhere[1])
			if err != nil {
				return nil, err
			}
		}
		if ok {
			if err := onRow(); err != nil {
				return nil, err
			}
		}
	} else if err := loop(0); err != nil {
		return nil, err
	}

	// Finalize groups.
	if grouped {
		if len(groups) == 0 && len(sel.GroupBy) == 0 {
			// Aggregate over an empty input still yields one row.
			g := &group{snapshot: snapshotSources()}
			for _, call := range aggCalls {
				g.states = append(g.states, newAggState(call))
			}
			groups[""] = g
			groupOrder = append(groupOrder, "")
			for _, s := range g.snapshot {
				s.vals = make([]Value, len(s.tbl.Columns))
				for i := range s.vals {
					s.vals[i] = Null
				}
				s.bound = true
			}
		}
		for _, key := range groupOrder {
			g := groups[key]
			gctx := &evalCtx{sources: g.snapshot, params: params, rng: db.rand,
				agg: make(map[*sqlparse.Call]Value)}
			for i, call := range aggCalls {
				gctx.agg[call] = g.states[i].final()
			}
			if sel.Having != nil {
				hv, err := gctx.eval(sel.Having)
				if err != nil {
					return nil, err
				}
				if hv.IsNull() || !hv.Truthy() {
					continue
				}
			}
			saved := ctx
			ctx = gctx
			rr, err := evalRow()
			ctx = saved
			if err != nil {
				return nil, err
			}
			results = append(results, rr)
		}
	}

	// DISTINCT.
	if sel.Distinct {
		seen := map[string]bool{}
		kept := results[:0]
		for _, rr := range results {
			k := string(EncodeRecord(rr.vals))
			if !seen[k] {
				seen[k] = true
				kept = append(kept, rr)
			}
		}
		results = kept
	}

	// ORDER BY.
	if len(sel.OrderBy) > 0 {
		sort.SliceStable(results, func(i, j int) bool {
			for k, ot := range sel.OrderBy {
				c := Compare(results[i].sort[k], results[j].sort[k])
				if c == 0 {
					continue
				}
				if ot.Desc {
					return c > 0
				}
				return c < 0
			}
			return false
		})
	}

	// LIMIT / OFFSET.
	if sel.Limit != nil {
		lv, err := ctx.eval(sel.Limit)
		if err != nil {
			return nil, err
		}
		limit := int(lv.Int())
		offset := 0
		if sel.Offset != nil {
			ov, err := ctx.eval(sel.Offset)
			if err != nil {
				return nil, err
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

	for _, rr := range results {
		out.Data = append(out.Data, rr.vals)
	}
	return out, nil
}

// pruneColumns sets each source's skip mask: every column is skipped but
// those some expression of the statement may read. A reference marks its
// column in every source it could name, so the masks err towards decoding.
func pruneColumns(sel *sqlparse.Select, cols []outputCol, srcs []*source) {
	for _, s := range srcs {
		s.skip = ^uint64(0)
	}
	read := func(x *sqlparse.ColumnRef) {
		for _, s := range srcs {
			if x.Table != "" && strings.ToLower(x.Table) != s.alias && !strings.EqualFold(x.Table, s.tbl.Name) {
				continue
			}
			if i := s.tbl.ColumnIndex(x.Column); i >= 0 {
				s.skip &^= 1 << uint(i)
			}
		}
	}
	for _, oc := range cols {
		eachColumnRef(oc.expr, read)
	}
	eachColumnRef(sel.Where, read)
	for _, j := range sel.Joins {
		eachColumnRef(j.On, read)
	}
	for _, e := range sel.GroupBy {
		eachColumnRef(e, read)
	}
	eachColumnRef(sel.Having, read)
	for _, ot := range sel.OrderBy {
		eachColumnRef(ot.Expr, read)
	}
}

// compileOutputs expands stars and names the result columns.
func (db *DB) compileOutputs(sel *sqlparse.Select, srcs []*source) ([]outputCol, error) {
	var cols []outputCol
	for _, rc := range sel.Columns {
		if rc.Star {
			matched := false
			for _, s := range srcs {
				if rc.Table != "" && strings.ToLower(rc.Table) != s.alias && !strings.EqualFold(rc.Table, s.tbl.Name) {
					continue
				}
				matched = true
				for _, c := range s.tbl.Columns {
					cols = append(cols, outputCol{
						name: c.Name,
						expr: &sqlparse.ColumnRef{Table: s.alias, Column: c.Name},
					})
				}
			}
			if !matched {
				return nil, fmt.Errorf("%w: %s.*", ErrNoSuchTable, rc.Table)
			}
			continue
		}
		name := rc.Alias
		if name == "" {
			if cr, ok := rc.Expr.(*sqlparse.ColumnRef); ok {
				name = cr.Column
			} else {
				name = fmt.Sprintf("column%d", len(cols)+1)
			}
		}
		cols = append(cols, outputCol{name: name, expr: rc.Expr})
	}
	if len(cols) == 0 {
		return nil, fmt.Errorf("%w: empty select list", ErrMisuse)
	}
	return cols, nil
}
