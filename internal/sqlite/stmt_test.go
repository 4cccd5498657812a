package sqlite

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/sqlite/pager"
	"repro/internal/sqlite/sqlparse"
)

// fresh is a statement nothing was compiled for yet: what every run was
// before statements kept their compiled form.
func fresh(t *testing.T, db *DB, sql string) *Stmt {
	t.Helper()
	ast, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	return &Stmt{db: db, ast: ast}
}

var sentinels = []error{ErrNoSuchTable, ErrNoSuchIndex, ErrNoSuchColumn, ErrTableExists, ErrIndexExists,
	ErrConstraint, ErrMisuse, ErrTxState, ErrUnsupported, ErrParamMismatch, pager.ErrReadOnly}

// sameError reports whether two runs failed the same way: both or neither,
// the same sentinels, the same words.
func sameError(a, b error) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	for _, s := range sentinels {
		if errors.Is(a, s) != errors.Is(b, s) {
			return false
		}
	}
	return a.Error() == b.Error()
}

func sameRows(a, b *Rows) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	if len(a.Data) != len(b.Data) || fmt.Sprint(a.Columns) != fmt.Sprint(b.Columns) {
		return false
	}
	for i := range a.Data {
		if !sameValues(a.Data[i], b.Data[i]) {
			return false
		}
	}
	return true
}

// samePages fails the test unless two databases' files hold the same bytes.
func samePages(t *testing.T, a, b *DB, when string) {
	t.Helper()
	if a.pg.NPages() != b.pg.NPages() {
		t.Fatalf("%s: %d pages cached, %d compiled afresh", when, a.pg.NPages(), b.pg.NPages())
	}
	for pgno := pager.Pgno(1); pgno <= a.pg.NPages(); pgno++ {
		pa, err := a.pg.Get(pgno)
		if err != nil {
			t.Fatal(err)
		}
		pb, err := b.pg.Get(pgno)
		if err != nil {
			t.Fatal(err)
		}
		same := bytes.Equal(pa.Data(), pb.Data())
		pa.Release()
		pb.Release()
		if !same {
			t.Fatalf("%s: page %d differs between the cached and the freshly compiled database", when, pgno)
		}
	}
}

// A statement run through its kept compiled form answers as one compiled
// for the run: the SELECT corpus and the write shapes run three times each,
// with different parameters, through one cached Stmt on one database and
// through a fresh compile per run on its twin. Rows, affected counts, error
// identities and, afterwards, every page of the two files must agree.
func TestCachedStatementMatchesFreshCompile(t *testing.T) {
	type run []any
	three := func(a, b, c run) []run { return []run{a, b, c} }
	stmts := []struct {
		sql  string
		runs []run
	}{
		{`SELECT name, salary FROM emp WHERE id = ?`, three(run{7}, run{77}, run{12})},
		{`SELECT id FROM emp WHERE dept = ? AND salary > ? ORDER BY 1`, three(run{"ops", 20.0}, run{"lab", 0.0}, run{"none", 1.0})},
		{`SELECT id FROM emp WHERE id BETWEEN ? AND ?`, three(run{5, 7}, run{30, 99}, run{9, 3})},
		{`SELECT id FROM emp WHERE id > ? AND id <= ?`, three(run{10, 20}, run{0, 2}, run{39, 40})},
		{`SELECT id, name FROM emp WHERE dept IN (?, ?) ORDER BY salary DESC LIMIT ? OFFSET ?`,
			three(run{"ops", "lab", 5, 0}, run{"sales", "sales", 3, 2}, run{"ops", "x", -1, 30})},
		{`SELECT DISTINCT dept FROM emp WHERE salary > ? ORDER BY dept`, three(run{0.0}, run{58.0}, run{100.0})},
		{`SELECT dept, COUNT(*), SUM(salary) FROM emp WHERE id > ? GROUP BY dept HAVING COUNT(*) > ? ORDER BY dept`,
			three(run{0, 0}, run{20, 6}, run{40, 0})},
		{`SELECT COUNT(*), MIN(salary), MAX(note) FROM emp WHERE id > ?`, three(run{0}, run{38}, run{400})},
		{`SELECT e.name, d.name FROM emp e JOIN dept d ON e.dept_id = d.id WHERE d.floor >= ? ORDER BY e.id`,
			three(run{0}, run{9}, run{11})},
		{`SELECT d.name, e.note FROM dept d LEFT JOIN emp e ON e.dept_id = d.id AND e.salary > ? ORDER BY d.id, e.id`,
			three(run{55.0}, run{0.0}, run{1000.0})},
		{`SELECT d.name, COUNT(e.id) FROM dept d LEFT JOIN emp e ON e.dept_id = d.id AND e.id < ? GROUP BY d.id ORDER BY name`,
			three(run{10}, run{0}, run{100})},
		{`SELECT CASE WHEN salary > ? THEN 'big' WHEN note IS NULL THEN 'quiet' ELSE name END FROM emp ORDER BY salary * ? + id`,
			three(run{30.0, 1}, run{0.0, -1}, run{99.0, 0})},
		{`SELECT id, RANDOM() FROM emp WHERE id <= ?`, three(run{3}, run{1}, run{5})},
		{`SELECT ? + 1, ? || 'y'`, three(run{1, "x"}, run{2.5, "z"}, run{nil, nil})},
		{`SELECT nosuch FROM emp WHERE id = ?`, three(run{1}, run{0}, run{2})},
		{`SELECT id FROM emp WHERE id = ?`, three(run{3}, run{}, run{4, 5})},
		{`SELECT id FROM nosuch WHERE id = ?`, three(run{1}, run{2}, run{3})},
		{`INSERT INTO dept (id, name, floor) VALUES (?, ?, ?)`, three(run{20, "new", 1}, run{21, "newer", nil}, run{20, "dup", 2})},
		{`INSERT INTO sales VALUES (?, ?, 'm'), (?, ?, 'n')`, three(run{"south", 5, "south", 6}, run{"west", 7, "east", 8}, run{nil, nil, "x", 9})},
		{`INSERT INTO emp (name, dept, salary) VALUES (?, ?, RANDOM())`, three(run{"auto1", "ops"}, run{"auto2", "lab"}, run{"auto3", "ops"})},
		{`UPDATE emp SET salary = ?, note = ? WHERE id = ?`, three(run{1.5, "raised", 7}, run{2.5, nil, 8}, run{3.5, "nobody", 4000})},
		{`UPDATE emp SET dept = ? WHERE dept = ? AND id < ?`, three(run{"moved", "ops", 20}, run{"ops", "moved", 10}, run{"lab", "none", 99})},
		{`UPDATE emp SET salary = salary + ? WHERE id BETWEEN ? AND ?`, three(run{1.0, 1, 10}, run{-1.0, 5, 15}, run{0.5, 50, 40})},
		{`UPDATE emp SET id = id + ? WHERE id > ?`, three(run{100, 35}, run{1000, 130}, run{1, 9000})},
		{`UPDATE emp SET id = ? WHERE id = ?`, three(run{1, 2}, run{500, 2}, run{2, 500})},
		{`UPDATE emp SET nosuch = ? WHERE id = ?`, three(run{1, 2}, run{3, 4}, run{5, 6})},
		{`DELETE FROM sales WHERE region = ? AND amount > ?`, three(run{"west", 300}, run{"east", 0}, run{"mars", 0})},
		{`DELETE FROM emp WHERE id = ?`, three(run{3}, run{3}, run{9})},
		{`DELETE FROM emp WHERE dept = ?`, three(run{"moved"}, run{"sales"}, run{"sales"})},
	}
	for _, q := range selectCorpus {
		stmts = append(stmts, struct {
			sql  string
			runs []run
		}{q.sql, three(q.args, q.args, q.args)})
	}
	for _, mode := range allModes() {
		t.Run(mode.String(), func(t *testing.T) {
			cachedDB, freshDB := newEnv(t, mode).open(t), newEnv(t, mode).open(t)
			defer cachedDB.Close()
			defer freshDB.Close()
			loadCorpus(t, cachedDB)
			loadCorpus(t, freshDB)
			for _, q := range stmts {
				cached, err := cachedDB.Prepare(q.sql)
				if err != nil {
					t.Fatalf("%s: %v", q.sql, err)
				}
				_, isSelect := cached.ast.(*sqlparse.Select)
				for i, args := range q.runs {
					once := fresh(t, freshDB, q.sql)
					if isSelect {
						got, gerr := cached.Query(args...)
						want, werr := once.Query(args...)
						if !sameError(gerr, werr) || !sameRows(got, want) {
							t.Fatalf("%s, run %d with %v:\ncached %v (%v)\nfresh  %v (%v)", q.sql, i, args, got, gerr, want, werr)
						}
						continue
					}
					got, gerr := cached.Exec(args...)
					want, werr := once.Exec(args...)
					if !sameError(gerr, werr) || got != want {
						t.Fatalf("%s, run %d with %v: cached changed %d rows (%v), fresh %d (%v)", q.sql, i, args, got, gerr, want, werr)
					}
				}
			}
			// What the writes left behind, read every way the corpus reads.
			for _, q := range selectCorpus {
				got, gerr := cachedDB.Query(q.sql, q.args...)
				want, werr := freshDB.Query(q.sql, q.args...)
				if !sameError(gerr, werr) || !sameRows(got, want) {
					t.Fatalf("%s afterwards:\ncached %v (%v)\nfresh  %v (%v)", q.sql, got, gerr, want, werr)
				}
			}
			samePages(t, cachedDB, freshDB, "after the corpus")
		})
	}
}

// pathOf compiles a statement and reports how it reads its first table.
func pathOf(t *testing.T, st *Stmt) accessKind {
	t.Helper()
	if err := st.compile(); err != nil {
		t.Fatalf("compile: %v", err)
	}
	if st.sel != nil {
		return st.sel.levels[0].path.kind
	}
	return st.wr.path.kind
}

// The planner and the evaluator agree on what a name means, because one
// function tells both: the rowid answers to four names, bare or qualified,
// and its three built-in ones come before a user column spelled the same.
func TestPlannerKnowsTheRowidsNames(t *testing.T) {
	db := newEnv(t, pager.Off).open(t)
	defer db.Close()
	mustExec(t, db, `CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)`)
	mustExec(t, db, `CREATE TABLE u (oid INTEGER, v TEXT)`)
	mustExec(t, db, `CREATE INDEX u_oid ON u (oid)`)
	for i := 1; i <= 20; i++ {
		mustExec(t, db, `INSERT INTO t VALUES (?, ?)`, i, fmt.Sprint("t", i))
		mustExec(t, db, `INSERT INTO u VALUES (?, ?)`, 100-i, fmt.Sprint("u", i)) // rowid i, oid column 100-i
	}
	for _, c := range []struct {
		sql  string
		want accessKind
		v    string
	}{
		{`SELECT v FROM t WHERE rowid = ?`, scanRowidEq, "t7"},
		{`SELECT v FROM t WHERE _rowid_ = ?`, scanRowidEq, "t7"},
		{`SELECT v FROM t WHERE oid = ?`, scanRowidEq, "t7"},
		{`SELECT v FROM t WHERE id = ?`, scanRowidEq, "t7"},
		{`SELECT v FROM t WHERE ? = _ROWID_`, scanRowidEq, "t7"},
		{`SELECT x.v FROM t x WHERE x.rowid = ?`, scanRowidEq, "t7"},
		{`SELECT x.v FROM t x WHERE x._rowid_ = ?`, scanRowidEq, "t7"},
		{`SELECT x.v FROM t x WHERE x.OID = ?`, scanRowidEq, "t7"},
		{`SELECT x.v FROM t x WHERE x.id = ?`, scanRowidEq, "t7"},
		{`SELECT t.v FROM t WHERE t.oid = ?`, scanRowidEq, "t7"},
		{`SELECT v FROM t WHERE oid > ? AND _rowid_ < 9`, scanRowidRange, "t8"},
		{`SELECT v FROM t WHERE v = 't7' AND 0 < ?`, scanFull, "t7"},
		// u's column named oid is shadowed by the rowid, for both.
		{`SELECT v FROM u WHERE oid = ?`, scanRowidEq, "u7"},
		{`SELECT v FROM u WHERE u.oid = ?`, scanRowidEq, "u7"},
		{`SELECT v FROM u WHERE oid + 0 = ?`, scanFull, "u7"},
	} {
		st, err := db.Prepare(c.sql)
		if err != nil {
			t.Fatalf("%s: %v", c.sql, err)
		}
		if got := pathOf(t, st); got != c.want {
			t.Errorf("%s: access path %d, want %d", c.sql, got, c.want)
		}
		rows, err := st.Query(7)
		if err != nil || rows.Len() != 1 || rows.Data[0][0].Text() != c.v {
			t.Errorf("%s: %v (%v), want one row %s", c.sql, rows, err, c.v)
		}
	}
	if row, _, err := db.QueryRow(`SELECT oid, rowid FROM u WHERE v = 'u7'`); err != nil || row[0].Int() != 7 || row[1].Int() != 7 {
		t.Errorf("u.oid reads %v (%v), want the rowid 7", row, err)
	}
	upd, err := db.Prepare(`UPDATE t SET v = ? WHERE _rowid_ = ?`)
	if err != nil {
		t.Fatal(err)
	}
	if got := pathOf(t, upd); got != scanRowidEq {
		t.Errorf("UPDATE … WHERE _rowid_ = ?: access path %d, want a rowid probe", got)
	}
}

// A compiled statement is stamped with the schema it was compiled against;
// whatever replaces the schema — DDL, or a rollback, which reloads every
// Table — makes the next run compile again rather than fail or read through
// a table that is gone.
func TestSchemaChangeRecompilesCachedStatements(t *testing.T) {
	for _, mode := range allModes() {
		t.Run(mode.String(), func(t *testing.T) {
			db := newEnv(t, mode).open(t)
			defer db.Close()
			mustExec(t, db, `CREATE TABLE t (id INTEGER PRIMARY KEY, k INTEGER, v TEXT)`)
			for i := 1; i <= 30; i++ {
				mustExec(t, db, `INSERT INTO t VALUES (?, ?, ?)`, i, i%5, fmt.Sprint("v", i))
			}
			sel, err := db.Prepare(`SELECT id, v FROM t WHERE k = ? ORDER BY id`)
			if err != nil {
				t.Fatal(err)
			}
			upd, err := db.Prepare(`UPDATE t SET v = ? WHERE k = ?`)
			if err != nil {
				t.Fatal(err)
			}
			ins, err := db.Prepare(`INSERT INTO t (k, v) VALUES (?, ?)`)
			if err != nil {
				t.Fatal(err)
			}
			check := func(when string, wantPath accessKind, k int, wantIDs ...int64) {
				t.Helper()
				rows, err := sel.Query(k)
				if err != nil {
					t.Fatalf("%s: %v", when, err)
				}
				if got := sel.sel.levels[0].path.kind; got != wantPath {
					t.Errorf("%s: SELECT reads by path %d, want %d", when, got, wantPath)
				}
				if got := pathOf(t, upd); got != wantPath {
					t.Errorf("%s: UPDATE reads by path %d, want %d", when, got, wantPath)
				}
				var ids []int64
				for _, r := range rows.Data {
					ids = append(ids, r[0].Int())
				}
				if fmt.Sprint(ids) != fmt.Sprint(wantIDs) {
					t.Errorf("%s: k = %d is rows %v, want %v", when, k, ids, wantIDs)
				}
			}
			check("before any index", scanFull, 2, 2, 7, 12, 17, 22, 27)

			mustExec(t, db, `CREATE INDEX t_k ON t (k)`)
			if n, err := upd.Exec("via index", 2); err != nil || n != 6 {
				t.Fatalf("UPDATE after CREATE INDEX: %d rows (%v)", n, err)
			}
			check("after CREATE INDEX", scanIndexEq, 2, 2, 7, 12, 17, 22, 27)

			mustExec(t, db, `DROP INDEX t_k`)
			if n, err := upd.Exec("no index", 3); err != nil || n != 6 {
				t.Fatalf("UPDATE after DROP INDEX: %d rows (%v)", n, err)
			}
			check("after DROP INDEX", scanFull, 3, 3, 8, 13, 18, 23, 28)

			// The same name, another shape: the columns in another order.
			mustExec(t, db, `DROP TABLE t`)
			if _, err := sel.Query(1); !errors.Is(err, ErrNoSuchTable) {
				t.Fatalf("SELECT from a dropped table: %v", err)
			}
			mustExec(t, db, `CREATE TABLE t (v TEXT, k INTEGER, id INTEGER PRIMARY KEY)`)
			for i := 1; i <= 10; i++ {
				if _, err := ins.Exec(i%2, fmt.Sprint("w", i)); err != nil {
					t.Fatal(err)
				}
			}
			check("after re-creation", scanFull, 1, 1, 3, 5, 7, 9)
			if row, _, err := db.QueryRow(`SELECT v, k FROM t WHERE id = 3`); err != nil || row[0].Text() != "w3" || row[1].Int() != 1 {
				t.Fatalf("row 3 of the re-created table: %v (%v)", row, err)
			}

			// A rolled-back DDL: the index is gone again, and so is its path.
			mustExec(t, db, `BEGIN`)
			mustExec(t, db, `CREATE INDEX t_k ON t (k)`)
			check("inside the DDL's transaction", scanIndexEq, 0, 2, 4, 6, 8, 10)
			mustExec(t, db, `ROLLBACK`)
			check("after ROLLBACK of CREATE INDEX", scanFull, 0, 2, 4, 6, 8, 10)

			// Rolled-back INSERTs: the next rowid comes from the reloaded
			// table, not from the one the cached INSERT was compiled on.
			mustExec(t, db, `BEGIN`)
			for i := 0; i < 5; i++ {
				if _, err := ins.Exec(7, "gone"); err != nil {
					t.Fatal(err)
				}
			}
			mustExec(t, db, `ROLLBACK`)
			if _, err := ins.Exec(7, "kept"); err != nil {
				t.Fatal(err)
			}
			check("after ROLLBACK of INSERTs", scanFull, 7, 11)
		})
	}
}

// A reader connection's schema never changes, but its catalog reloads all
// the same whenever a write is refused: the cached statements recompile
// against the reloaded tables and answer as before.
func TestReaderConnectionRecompilesAfterRefusedWrites(t *testing.T) {
	e := newEnv(t, pager.Off)
	w := e.open(t)
	defer w.Close()
	mustExec(t, w, `CREATE TABLE t (id INTEGER PRIMARY KEY, k INTEGER)`)
	for i := 1; i <= 10; i++ {
		mustExec(t, w, `INSERT INTO t VALUES (?, ?)`, i, i*i)
	}
	snap, err := e.fs.OpenSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	r, err := OpenReader(e.fs, "test.db", snap, Config{Mode: pager.Off, CacheSize: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	mustExec(t, w, `UPDATE t SET k = 0`) // after the pin: not the reader's to see
	const q = `SELECT k FROM t WHERE id = ?`
	for _, refused := range []string{`CREATE INDEX t_k ON t (k)`, `INSERT INTO t VALUES (11, 0)`, `DROP TABLE t`, `UPDATE t SET k = 1 WHERE id = 4`} {
		gen := r.cat.gen
		if row, ok, err := r.QueryRow(q, 4); err != nil || !ok || row[0].Int() != 16 {
			t.Fatalf("before %s: %v %v (%v)", refused, row, ok, err)
		}
		if _, err := r.Exec(refused); !errors.Is(err, pager.ErrReadOnly) {
			t.Fatalf("%s on a reader: %v, want ErrReadOnly", refused, err)
		}
		if r.cat.gen == gen {
			t.Fatalf("%s: the catalog reloaded under the same generation", refused)
		}
		if row, ok, err := r.QueryRow(q, 4); err != nil || !ok || row[0].Int() != 16 {
			t.Fatalf("after %s: %v %v (%v)", refused, row, ok, err)
		}
	}
}

// The scratch a compiled statement decodes and encodes in never shows: not
// between the rows of one run, not between runs, not in a result.
func TestStatementScratchDoesNotLeak(t *testing.T) {
	db := newEnv(t, pager.Off).open(t)
	defer db.Close()
	mustExec(t, db, `CREATE TABLE t (id INTEGER PRIMARY KEY, k INTEGER, v TEXT)`)
	mustExec(t, db, `CREATE INDEX t_k ON t (k)`)
	const rows = 400 // several leaves on 1 KB pages
	for i := 1; i <= rows; i++ {
		mustExec(t, db, `INSERT INTO t VALUES (?, ?, ?)`, i, i%10, fmt.Sprint("value-", i))
	}

	// Rowids move under the scan: every row moves once, whole.
	move, err := db.Prepare(`UPDATE t SET id = id + ?`)
	if err != nil {
		t.Fatal(err)
	}
	for _, by := range []int{1000, 5000} { // each past every rowid there is: no collision
		if n, err := move.Exec(by); err != nil || n != rows {
			t.Fatalf("UPDATE t SET id = id + %d: %d rows (%v)", by, n, err)
		}
	}
	all := mustQuery(t, db, `SELECT id, k, v FROM t ORDER BY id`)
	if all.Len() != rows {
		t.Fatalf("%d rows after moving every rowid, want %d", all.Len(), rows)
	}
	for i, r := range all.Data {
		was := i + 1
		if r[0].Int() != int64(was+6000) || r[1].Int() != int64(was%10) || r[2].Text() != fmt.Sprint("value-", was) {
			t.Fatalf("row %d moved to %v", was, r)
		}
	}

	// An indexed column over a rowid range: the index and the table agree.
	shift, err := db.Prepare(`UPDATE t SET k = k + ? WHERE id BETWEEN ? AND ?`)
	if err != nil {
		t.Fatal(err)
	}
	if got := pathOf(t, shift); got != scanRowidRange {
		t.Fatalf("the range UPDATE reads by path %d", got)
	}
	for _, r := range [][3]int{{100, 6100, 6200}, {-100, 6150, 6250}, {7, 5990, 6500}} {
		want := int64(min(r[2], rows+6000) - max(r[1], 6001) + 1)
		if n, err := shift.Exec(r[0], r[1], r[2]); err != nil || n != want {
			t.Fatalf("UPDATE of k over %d..%d: %d rows (%v), want %d", r[1], r[2], n, err, want)
		}
	}
	for k := -100; k <= 120; k++ {
		byIndex := mustQuery(t, db, `SELECT id FROM t WHERE k = ? ORDER BY id`, k)
		byScan := mustQuery(t, db, `SELECT id FROM t WHERE k + 0 = ? ORDER BY id`, k)
		if !sameRows(byIndex, byScan) {
			t.Fatalf("k = %d: the index finds %d rows, the table holds %d", k, byIndex.Len(), byScan.Len())
		}
	}

	// A result outlives the next run of its statement.
	sel, err := db.Prepare(`SELECT id, v FROM t WHERE id >= ? ORDER BY id LIMIT 3`)
	if err != nil {
		t.Fatal(err)
	}
	first, err := sel.Query(6001)
	if err != nil {
		t.Fatal(err)
	}
	kept := fmt.Sprint(first.Columns, first.Data)
	if _, err := sel.Query(6200); err != nil {
		t.Fatal(err)
	}
	if now := fmt.Sprint(first.Columns, first.Data); now != kept || first.Data[0][1].Text() != "value-1" {
		t.Fatalf("a kept result changed under the next run:\nwas %s\nnow %s", kept, now)
	}

	// Parameters are this run's alone: the last run's do not make up for
	// ones that are missing, surplus ones are ignored, and an unbound one
	// fails only where it is evaluated.
	one, err := db.Prepare(`UPDATE t SET v = ? WHERE id = ?`)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := one.Exec("set", 6001); err != nil || n != 1 {
		t.Fatalf("UPDATE with both parameters: %d (%v)", n, err)
	}
	if _, err := one.Exec("unset"); !errors.Is(err, ErrParamMismatch) {
		t.Fatalf("UPDATE short of a parameter after a full run: %v", err)
	}
	if _, err := one.Exec(); !errors.Is(err, ErrParamMismatch) {
		t.Fatalf("UPDATE with no parameters: %v", err)
	}
	if n, err := one.Exec("again", 6002, "surplus"); err != nil || n != 1 {
		t.Fatalf("UPDATE with a surplus parameter: %d (%v)", n, err)
	}
	if row, _, _ := db.QueryRow(`SELECT v FROM t WHERE id = 6001`); row[0].Text() != "set" {
		t.Fatalf("row 6001 is %v after the failed runs", row)
	}
	mustExec(t, db, `CREATE TABLE empty (id INTEGER PRIMARY KEY, v TEXT)`)
	if rows, err := db.Query(`SELECT id FROM empty WHERE v = ?`); err != nil || rows.Len() != 0 {
		t.Fatalf("an unbound parameter no row evaluates: %v (%v)", rows, err)
	}
	if _, err := db.Query(`SELECT id FROM empty WHERE id = ?`); !errors.Is(err, ErrParamMismatch) {
		t.Fatalf("an unbound parameter the rowid probe evaluates: %v", err)
	}
}

// Exec, Query and QueryRow remember at most stmtCacheSize statements, and
// answer right whether a text is remembered, forgotten or never parsed.
func TestStatementCacheIsBounded(t *testing.T) {
	db := newEnv(t, pager.Off).open(t)
	defer db.Close()
	mustExec(t, db, `CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)`)
	const n = 3*stmtCacheSize + 7
	for i := 1; i <= n; i++ {
		mustExec(t, db, fmt.Sprintf(`INSERT INTO t VALUES (%d, %d)`, i, i*3))
		if len(db.stmts) > stmtCacheSize {
			t.Fatalf("%d statements cached after %d texts, the bound is %d", len(db.stmts), i, stmtCacheSize)
		}
	}
	for round := 0; round < 2; round++ {
		for i := 1; i <= n; i++ {
			row, ok, err := db.QueryRow(fmt.Sprintf(`SELECT v + %d FROM t WHERE id = ?`, i), i)
			if err != nil || !ok || row[0].Int() != int64(i*4) {
				t.Fatalf("text %d, round %d: %v %v (%v)", i, round, row, ok, err)
			}
			if len(db.stmts) > stmtCacheSize {
				t.Fatalf("%d statements cached, the bound is %d", len(db.stmts), stmtCacheSize)
			}
		}
	}
	if len(db.stmts) == 0 {
		t.Fatal("nothing is cached")
	}
	before := len(db.stmts)
	if _, err := db.Exec(`SELEC 1`); err == nil {
		t.Fatal("a text that does not parse ran")
	}
	if len(db.stmts) != before {
		t.Fatal("a text that does not parse was cached")
	}
	if err := db.ExecScript(`INSERT INTO t VALUES (100000, 1); DELETE FROM t WHERE id = 100000`); err != nil || len(db.stmts) != before {
		t.Fatalf("ExecScript: %v, %d statements cached where %d were", err, len(db.stmts), before)
	}
}
