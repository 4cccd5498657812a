package sqlite

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/simclock"
	"repro/internal/simfs"
	"repro/internal/sqlite/pager"
	"repro/internal/sqlite/sqlparse"
	"repro/internal/storage"
)

type env struct {
	fs   *simfs.FS
	host *metrics.HostCounters
	mode pager.JournalMode
}

func newEnv(t *testing.T, mode pager.JournalMode) *env {
	t.Helper()
	prof := storage.OpenSSD()
	prof.Nand.Blocks = 512
	prof.Nand.PagesPerBlock = 32
	prof.Nand.PageSize = 1024
	fsMode := simfs.Ordered
	transactional := false
	if mode == pager.Off {
		fsMode = simfs.OffXFTL
		transactional = true
	}
	dev, err := storage.New(prof, simclock.New(), storage.Options{Transactional: transactional})
	if err != nil {
		t.Fatal(err)
	}
	host := &metrics.HostCounters{}
	fsys, err := simfs.New(dev, fsMode, host)
	if err != nil {
		t.Fatal(err)
	}
	return &env{fs: fsys, host: host, mode: mode}
}

func (e *env) open(t *testing.T) *DB {
	t.Helper()
	db, err := Open(e.fs, "test.db", Config{Mode: e.mode, CacheSize: 300})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return db
}

func mustExec(t *testing.T, db *DB, sql string, args ...any) int64 {
	t.Helper()
	n, err := db.Exec(sql, args...)
	if err != nil {
		t.Fatalf("Exec(%q): %v", sql, err)
	}
	return n
}

func mustQuery(t *testing.T, db *DB, sql string, args ...any) *Rows {
	t.Helper()
	rows, err := db.Query(sql, args...)
	if err != nil {
		t.Fatalf("Query(%q): %v", sql, err)
	}
	return rows
}

func allModes() []pager.JournalMode {
	return []pager.JournalMode{pager.Rollback, pager.WAL, pager.Off}
}

func TestCreateInsertSelect(t *testing.T) {
	for _, mode := range allModes() {
		t.Run(mode.String(), func(t *testing.T) {
			db := newEnv(t, mode).open(t)
			defer db.Close()
			mustExec(t, db, `CREATE TABLE users (id INTEGER PRIMARY KEY, name TEXT, age INTEGER)`)
			mustExec(t, db, `INSERT INTO users (id, name, age) VALUES (1, 'alice', 30), (2, 'bob', 25)`)
			rows := mustQuery(t, db, `SELECT name, age FROM users WHERE id = 1`)
			if rows.Len() != 1 || rows.Data[0][0].Text() != "alice" || rows.Data[0][1].Int() != 30 {
				t.Errorf("rows = %+v", rows.Data)
			}
		})
	}
}

func TestAutoRowid(t *testing.T) {
	db := newEnv(t, pager.Rollback).open(t)
	defer db.Close()
	mustExec(t, db, `CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)`)
	mustExec(t, db, `INSERT INTO t (v) VALUES ('a'), ('b'), ('c')`)
	rows := mustQuery(t, db, `SELECT id, v FROM t ORDER BY id`)
	for i, want := range []string{"a", "b", "c"} {
		if rows.Data[i][0].Int() != int64(i+1) || rows.Data[i][1].Text() != want {
			t.Errorf("row %d = %v", i, rows.Data[i])
		}
	}
	// Explicit high id pushes the auto counter.
	mustExec(t, db, `INSERT INTO t (id, v) VALUES (100, 'x')`)
	mustExec(t, db, `INSERT INTO t (v) VALUES ('y')`)
	row, ok, _ := db.QueryRow(`SELECT id FROM t WHERE v = 'y'`)
	if !ok || row[0].Int() != 101 {
		t.Errorf("auto id after explicit = %v", row)
	}
}

func TestPrimaryKeyConstraint(t *testing.T) {
	db := newEnv(t, pager.Rollback).open(t)
	defer db.Close()
	mustExec(t, db, `CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)`)
	mustExec(t, db, `INSERT INTO t VALUES (1, 'a')`)
	if _, err := db.Exec(`INSERT INTO t VALUES (1, 'b')`); !errors.Is(err, ErrConstraint) {
		t.Errorf("duplicate pk = %v, want ErrConstraint", err)
	}
	// The failed autocommit statement must not corrupt the table.
	rows := mustQuery(t, db, `SELECT v FROM t WHERE id = 1`)
	if rows.Len() != 1 || rows.Data[0][0].Text() != "a" {
		t.Errorf("state after failed insert: %v", rows.Data)
	}
}

func TestUpdateDelete(t *testing.T) {
	for _, mode := range allModes() {
		t.Run(mode.String(), func(t *testing.T) {
			db := newEnv(t, mode).open(t)
			defer db.Close()
			mustExec(t, db, `CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)`)
			for i := 1; i <= 50; i++ {
				mustExec(t, db, `INSERT INTO t VALUES (?, ?)`, i, i*10)
			}
			n := mustExec(t, db, `UPDATE t SET v = v + 1 WHERE id <= 10`)
			if n != 10 {
				t.Errorf("update affected %d, want 10", n)
			}
			row, _, _ := db.QueryRow(`SELECT v FROM t WHERE id = 5`)
			if row[0].Int() != 51 {
				t.Errorf("v = %d, want 51", row[0].Int())
			}
			n = mustExec(t, db, `DELETE FROM t WHERE id > 40`)
			if n != 10 {
				t.Errorf("delete affected %d, want 10", n)
			}
			row, _, _ = db.QueryRow(`SELECT COUNT(*) FROM t`)
			if row[0].Int() != 40 {
				t.Errorf("count = %d, want 40", row[0].Int())
			}
		})
	}
}

func TestSecondaryIndexLookupAndMaintenance(t *testing.T) {
	db := newEnv(t, pager.Rollback).open(t)
	defer db.Close()
	mustExec(t, db, `CREATE TABLE emp (id INTEGER PRIMARY KEY, dept TEXT, salary INTEGER)`)
	mustExec(t, db, `CREATE INDEX idx_dept ON emp (dept)`)
	for i := 1; i <= 100; i++ {
		dept := "eng"
		if i%3 == 0 {
			dept = "sales"
		}
		mustExec(t, db, `INSERT INTO emp VALUES (?, ?, ?)`, i, dept, i*1000)
	}
	rows := mustQuery(t, db, `SELECT COUNT(*) FROM emp WHERE dept = 'sales'`)
	if rows.Data[0][0].Int() != 33 {
		t.Errorf("sales count = %d, want 33", rows.Data[0][0].Int())
	}
	// Update moves rows between index keys.
	mustExec(t, db, `UPDATE emp SET dept = 'ops' WHERE id = 3`)
	rows = mustQuery(t, db, `SELECT COUNT(*) FROM emp WHERE dept = 'sales'`)
	if rows.Data[0][0].Int() != 32 {
		t.Errorf("after update, sales = %d, want 32", rows.Data[0][0].Int())
	}
	rows = mustQuery(t, db, `SELECT id FROM emp WHERE dept = 'ops'`)
	if rows.Len() != 1 || rows.Data[0][0].Int() != 3 {
		t.Errorf("ops rows = %v", rows.Data)
	}
	// Delete removes index entries.
	mustExec(t, db, `DELETE FROM emp WHERE dept = 'ops'`)
	rows = mustQuery(t, db, `SELECT COUNT(*) FROM emp WHERE dept = 'ops'`)
	if rows.Data[0][0].Int() != 0 {
		t.Error("deleted row still visible via index")
	}
}

func TestUniqueIndex(t *testing.T) {
	db := newEnv(t, pager.Rollback).open(t)
	defer db.Close()
	mustExec(t, db, `CREATE TABLE t (id INTEGER PRIMARY KEY, email TEXT)`)
	mustExec(t, db, `CREATE UNIQUE INDEX idx_email ON t (email)`)
	mustExec(t, db, `INSERT INTO t VALUES (1, 'a@x.com')`)
	if _, err := db.Exec(`INSERT INTO t VALUES (2, 'a@x.com')`); !errors.Is(err, ErrConstraint) {
		t.Errorf("duplicate unique = %v, want ErrConstraint", err)
	}
	if _, err := db.Exec(`UPDATE t SET email = 'b@x.com' WHERE id = 1`); err != nil {
		t.Errorf("legitimate update failed: %v", err)
	}
}

// TestUnenforcedColumnConstraintsRefused: the catalog keeps no column
// constraint but the INTEGER PRIMARY KEY rowid alias, so CREATE TABLE
// refuses the others, naming the one it refused, instead of storing a
// table that would accept rows breaking them.
func TestUnenforcedColumnConstraintsRefused(t *testing.T) {
	db := newEnv(t, pager.Rollback).open(t)
	defer db.Close()
	for _, c := range []struct{ col, name string }{
		{"a INTEGER NOT NULL", "NOT NULL"},
		{"b INTEGER DEFAULT 5", "DEFAULT"},
		{"c TEXT UNIQUE", "UNIQUE"},
		{"d TEXT PRIMARY KEY", "PRIMARY KEY"},
		{"e PRIMARY KEY", "PRIMARY KEY"},
	} {
		_, err := db.Exec(`CREATE TABLE t (id INTEGER, ` + c.col + `)`)
		var perr *sqlparse.Error
		if !errors.As(err, &perr) || !strings.Contains(err.Error(), "constraint "+c.name+" is not enforced") {
			t.Errorf("column %q: CREATE TABLE err = %v, want a parse error refusing %s", c.col, err, c.name)
		}
		if _, err := db.Query(`SELECT * FROM t`); !errors.Is(err, ErrNoSuchTable) {
			t.Fatalf("column %q: refused table exists: %v", c.col, err)
		}
	}
	mustExec(t, db, `CREATE TABLE t (id INT PRIMARY KEY, a TEXT)`)
}

func TestCompositeIndexPrefix(t *testing.T) {
	db := newEnv(t, pager.Rollback).open(t)
	defer db.Close()
	mustExec(t, db, `CREATE TABLE stock (id INTEGER PRIMARY KEY, w_id INTEGER, i_id INTEGER, qty INTEGER)`)
	mustExec(t, db, `CREATE INDEX idx_stock ON stock (w_id, i_id)`)
	id := 1
	for w := 1; w <= 3; w++ {
		for i := 1; i <= 20; i++ {
			mustExec(t, db, `INSERT INTO stock VALUES (?, ?, ?, ?)`, id, w, i, id)
			id++
		}
	}
	rows := mustQuery(t, db, `SELECT qty FROM stock WHERE w_id = 2 AND i_id = 5`)
	if rows.Len() != 1 || rows.Data[0][0].Int() != 25 {
		t.Errorf("composite lookup = %v", rows.Data)
	}
	rows = mustQuery(t, db, `SELECT COUNT(*) FROM stock WHERE w_id = 2`)
	if rows.Data[0][0].Int() != 20 {
		t.Errorf("prefix count = %d, want 20", rows.Data[0][0].Int())
	}
}

func TestJoins(t *testing.T) {
	db := newEnv(t, pager.Rollback).open(t)
	defer db.Close()
	mustExec(t, db, `CREATE TABLE dept (id INTEGER PRIMARY KEY, name TEXT)`)
	mustExec(t, db, `CREATE TABLE emp (id INTEGER PRIMARY KEY, dept_id INTEGER, name TEXT)`)
	mustExec(t, db, `INSERT INTO dept VALUES (1, 'eng'), (2, 'sales'), (3, 'empty')`)
	mustExec(t, db, `INSERT INTO emp VALUES (1, 1, 'alice'), (2, 1, 'bob'), (3, 2, 'carol')`)

	rows := mustQuery(t, db, `SELECT e.name, d.name FROM emp e JOIN dept d ON e.dept_id = d.id ORDER BY e.id`)
	if rows.Len() != 3 || rows.Data[0][1].Text() != "eng" || rows.Data[2][1].Text() != "sales" {
		t.Errorf("join rows = %v", rows.Data)
	}

	rows = mustQuery(t, db, `SELECT d.name, COUNT(e.id) FROM dept d LEFT JOIN emp e ON e.dept_id = d.id GROUP BY d.id ORDER BY d.id`)
	if rows.Len() != 3 {
		t.Fatalf("left join groups = %d, want 3", rows.Len())
	}
	if rows.Data[2][0].Text() != "empty" || rows.Data[2][1].Int() != 0 {
		t.Errorf("empty dept row = %v", rows.Data[2])
	}

	// Comma join with WHERE.
	rows = mustQuery(t, db, `SELECT COUNT(*) FROM emp, dept WHERE emp.dept_id = dept.id`)
	if rows.Data[0][0].Int() != 3 {
		t.Errorf("comma join count = %d", rows.Data[0][0].Int())
	}
}

func TestAggregatesAndGroupBy(t *testing.T) {
	db := newEnv(t, pager.Rollback).open(t)
	defer db.Close()
	mustExec(t, db, `CREATE TABLE sales (id INTEGER PRIMARY KEY, region TEXT, amount REAL)`)
	data := []struct {
		region string
		amount float64
	}{
		{"north", 10}, {"north", 20}, {"south", 5}, {"south", 15}, {"south", 10},
	}
	for i, d := range data {
		mustExec(t, db, `INSERT INTO sales VALUES (?, ?, ?)`, i+1, d.region, d.amount)
	}
	rows := mustQuery(t, db, `SELECT region, COUNT(*), SUM(amount), AVG(amount), MIN(amount), MAX(amount)
		FROM sales GROUP BY region ORDER BY region`)
	if rows.Len() != 2 {
		t.Fatalf("groups = %d", rows.Len())
	}
	north := rows.Data[0]
	if north[0].Text() != "north" || north[1].Int() != 2 || north[2].Real() != 30 ||
		north[3].Real() != 15 || north[4].Real() != 10 || north[5].Real() != 20 {
		t.Errorf("north = %v", north)
	}
	// HAVING filter.
	rows = mustQuery(t, db, `SELECT region FROM sales GROUP BY region HAVING COUNT(*) > 2`)
	if rows.Len() != 1 || rows.Data[0][0].Text() != "south" {
		t.Errorf("having = %v", rows.Data)
	}
	// Aggregate over empty set.
	rows = mustQuery(t, db, `SELECT COUNT(*), SUM(amount) FROM sales WHERE region = 'west'`)
	if rows.Data[0][0].Int() != 0 || !rows.Data[0][1].IsNull() {
		t.Errorf("empty agg = %v", rows.Data[0])
	}
	// COUNT(DISTINCT).
	rows = mustQuery(t, db, `SELECT COUNT(DISTINCT region) FROM sales`)
	if rows.Data[0][0].Int() != 2 {
		t.Errorf("count distinct = %v", rows.Data[0])
	}
}

func TestOrderByLimitDistinct(t *testing.T) {
	db := newEnv(t, pager.Rollback).open(t)
	defer db.Close()
	mustExec(t, db, `CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)`)
	for i := 1; i <= 20; i++ {
		mustExec(t, db, `INSERT INTO t VALUES (?, ?)`, i, i%5)
	}
	rows := mustQuery(t, db, `SELECT id FROM t ORDER BY id DESC LIMIT 3`)
	if rows.Len() != 3 || rows.Data[0][0].Int() != 20 || rows.Data[2][0].Int() != 18 {
		t.Errorf("order desc limit = %v", rows.Data)
	}
	rows = mustQuery(t, db, `SELECT id FROM t ORDER BY id LIMIT 5 OFFSET 10`)
	if rows.Len() != 5 || rows.Data[0][0].Int() != 11 {
		t.Errorf("offset = %v", rows.Data)
	}
	rows = mustQuery(t, db, `SELECT DISTINCT v FROM t ORDER BY v`)
	if rows.Len() != 5 {
		t.Errorf("distinct = %v", rows.Data)
	}
}

func TestExpressionsInSelect(t *testing.T) {
	db := newEnv(t, pager.Rollback).open(t)
	defer db.Close()
	mustExec(t, db, `CREATE TABLE t (id INTEGER PRIMARY KEY, a INTEGER, b TEXT)`)
	mustExec(t, db, `INSERT INTO t VALUES (1, 7, 'hello')`)
	row, _, _ := db.QueryRow(`SELECT a * 2 + 1, UPPER(b), LENGTH(b), b || '!' FROM t`)
	if row[0].Int() != 15 || row[1].Text() != "HELLO" || row[2].Int() != 5 || row[3].Text() != "hello!" {
		t.Errorf("exprs = %v", row)
	}
	row, _, _ = db.QueryRow(`SELECT CASE WHEN a > 5 THEN 'big' ELSE 'small' END FROM t`)
	if row[0].Text() != "big" {
		t.Errorf("case = %v", row)
	}
	row, _, _ = db.QueryRow(`SELECT COALESCE(NULL, NULL, a) FROM t`)
	if row[0].Int() != 7 {
		t.Errorf("coalesce = %v", row)
	}
	rows := mustQuery(t, db, `SELECT id FROM t WHERE b LIKE 'hel%'`)
	if rows.Len() != 1 {
		t.Errorf("like = %v", rows.Data)
	}
}

func TestNullSemantics(t *testing.T) {
	db := newEnv(t, pager.Rollback).open(t)
	defer db.Close()
	mustExec(t, db, `CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)`)
	mustExec(t, db, `INSERT INTO t VALUES (1, 10), (2, NULL)`)
	rows := mustQuery(t, db, `SELECT id FROM t WHERE v = 10`)
	if rows.Len() != 1 {
		t.Errorf("null row matched equality: %v", rows.Data)
	}
	rows = mustQuery(t, db, `SELECT id FROM t WHERE v IS NULL`)
	if rows.Len() != 1 || rows.Data[0][0].Int() != 2 {
		t.Errorf("is null = %v", rows.Data)
	}
	rows = mustQuery(t, db, `SELECT id FROM t WHERE v IS NOT NULL`)
	if rows.Len() != 1 || rows.Data[0][0].Int() != 1 {
		t.Errorf("is not null = %v", rows.Data)
	}
	// COUNT skips nulls, COUNT(*) does not.
	row, _, _ := db.QueryRow(`SELECT COUNT(v), COUNT(*) FROM t`)
	if row[0].Int() != 1 || row[1].Int() != 2 {
		t.Errorf("counts = %v", row)
	}
}

func TestExplicitTransactions(t *testing.T) {
	for _, mode := range allModes() {
		t.Run(mode.String(), func(t *testing.T) {
			db := newEnv(t, mode).open(t)
			defer db.Close()
			mustExec(t, db, `CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)`)
			mustExec(t, db, `INSERT INTO t VALUES (1, 1)`)
			mustExec(t, db, `BEGIN`)
			mustExec(t, db, `UPDATE t SET v = 2 WHERE id = 1`)
			mustExec(t, db, `INSERT INTO t VALUES (2, 2)`)
			mustExec(t, db, `ROLLBACK`)
			row, _, _ := db.QueryRow(`SELECT v FROM t WHERE id = 1`)
			if row[0].Int() != 1 {
				t.Errorf("v = %d after rollback, want 1", row[0].Int())
			}
			if _, ok, _ := db.QueryRow(`SELECT v FROM t WHERE id = 2`); ok {
				t.Error("rolled-back insert visible")
			}
			mustExec(t, db, `BEGIN`)
			mustExec(t, db, `UPDATE t SET v = 3 WHERE id = 1`)
			mustExec(t, db, `COMMIT`)
			row, _, _ = db.QueryRow(`SELECT v FROM t WHERE id = 1`)
			if row[0].Int() != 3 {
				t.Errorf("v = %d after commit, want 3", row[0].Int())
			}
		})
	}
}

// A transaction wider than the cache steals its own pages out and reads
// some back before it rolls back: those copies must leave the cache with
// the rest. Point reads, because a scan of a table six times the cache
// re-reads every page from storage and would not see a stale one.
func TestRollbackOfStolenPages(t *testing.T) {
	for _, mode := range allModes() {
		t.Run(mode.String(), func(t *testing.T) {
			db, err := Open(newEnv(t, mode).fs, "test.db", Config{Mode: mode, CacheSize: 8})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			mustExec(t, db, `CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER, pad TEXT)`)
			mustExec(t, db, `BEGIN`)
			for id := 1; id <= 400; id++ {
				mustExec(t, db, `INSERT INTO t VALUES (?, 1, ?)`, id, strings.Repeat("x", 100))
			}
			mustExec(t, db, `COMMIT`)
			if n := db.Pager().NPages(); n < 6*8 {
				t.Fatalf("table of %d pages is not six times the cache", n)
			}
			mustExec(t, db, `BEGIN`)
			mustExec(t, db, `UPDATE t SET v = 7`)
			if row, _, err := db.QueryRow(`SELECT SUM(v) FROM t`); err != nil || row[0].Int() != 7*400 {
				t.Fatalf("inside the transaction: SUM(v) = %v, err %v", row, err)
			}
			mustExec(t, db, `ROLLBACK`)
			for _, id := range []int{400, 399, 390, 380} {
				row, ok, err := db.QueryRow(`SELECT v FROM t WHERE id = ?`, id)
				if err != nil || !ok {
					t.Fatalf("id %d: ok=%v err=%v", id, ok, err)
				}
				if row[0].Int() != 1 {
					t.Errorf("id %d reads %d after the rollback, want 1", id, row[0].Int())
				}
			}
		})
	}
}

func TestRollbackOfDDL(t *testing.T) {
	db := newEnv(t, pager.Rollback).open(t)
	defer db.Close()
	mustExec(t, db, `CREATE TABLE keep (id INTEGER PRIMARY KEY)`)
	mustExec(t, db, `BEGIN`)
	mustExec(t, db, `CREATE TABLE temp_t (id INTEGER PRIMARY KEY)`)
	mustExec(t, db, `INSERT INTO temp_t VALUES (1)`)
	mustExec(t, db, `ROLLBACK`)
	if _, err := db.Query(`SELECT * FROM temp_t`); !errors.Is(err, ErrNoSuchTable) {
		t.Errorf("rolled-back table query = %v, want ErrNoSuchTable", err)
	}
	if _, err := db.Query(`SELECT * FROM keep`); err != nil {
		t.Errorf("pre-existing table lost: %v", err)
	}
}

func TestDropTableAndIndex(t *testing.T) {
	db := newEnv(t, pager.Rollback).open(t)
	defer db.Close()
	mustExec(t, db, `CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)`)
	mustExec(t, db, `CREATE INDEX iv ON t (v)`)
	mustExec(t, db, `INSERT INTO t VALUES (1, 'a')`)
	mustExec(t, db, `DROP INDEX iv`)
	rows := mustQuery(t, db, `SELECT id FROM t WHERE v = 'a'`) // falls back to scan
	if rows.Len() != 1 {
		t.Errorf("post-drop-index query = %v", rows.Data)
	}
	mustExec(t, db, `DROP TABLE t`)
	if _, err := db.Query(`SELECT * FROM t`); !errors.Is(err, ErrNoSuchTable) {
		t.Errorf("dropped table = %v", err)
	}
	mustExec(t, db, `DROP TABLE IF EXISTS t`) // no error
}

func TestPersistenceAcrossReopen(t *testing.T) {
	for _, mode := range allModes() {
		t.Run(mode.String(), func(t *testing.T) {
			e := newEnv(t, mode)
			db := e.open(t)
			mustExec(t, db, `CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)`)
			mustExec(t, db, `CREATE INDEX iv ON t (v)`)
			for i := 1; i <= 30; i++ {
				mustExec(t, db, `INSERT INTO t VALUES (?, ?)`, i, fmt.Sprintf("v%d", i))
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			db2 := e.open(t)
			defer db2.Close()
			rows := mustQuery(t, db2, `SELECT COUNT(*) FROM t`)
			if rows.Data[0][0].Int() != 30 {
				t.Errorf("count after reopen = %d", rows.Data[0][0].Int())
			}
			rows = mustQuery(t, db2, `SELECT id FROM t WHERE v = 'v7'`)
			if rows.Len() != 1 || rows.Data[0][0].Int() != 7 {
				t.Errorf("index after reopen = %v", rows.Data)
			}
			mustExec(t, db2, `INSERT INTO t VALUES (31, 'v31')`)
		})
	}
}

func TestCrashRecoveryMidTransaction(t *testing.T) {
	for _, mode := range allModes() {
		t.Run(mode.String(), func(t *testing.T) {
			e := newEnv(t, mode)
			db := e.open(t)
			mustExec(t, db, `CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)`)
			for i := 1; i <= 20; i++ {
				mustExec(t, db, `INSERT INTO t VALUES (?, 1)`, i)
			}
			if mode == pager.Rollback {
				// Carry the last insert's journal deletion to disk (its
				// durability rides the next transaction's fsync).
				mustExec(t, db, `UPDATE t SET v = 1 WHERE id = 1`)
			}
			// Open transaction updating everything, then power cut
			// before COMMIT.
			mustExec(t, db, `BEGIN`)
			mustExec(t, db, `UPDATE t SET v = 2`)
			e.fs.PowerCut()
			if err := e.fs.Remount(); err != nil {
				t.Fatal(err)
			}
			db2 := e.open(t) // recovery runs here
			defer db2.Close()
			rows := mustQuery(t, db2, `SELECT COUNT(*) FROM t WHERE v = 1`)
			if rows.Data[0][0].Int() != 20 {
				t.Errorf("%d rows with v=1 after crash, want 20 (atomicity)", rows.Data[0][0].Int())
			}
		})
	}
}

func TestCrashRecoveryCommittedSurvives(t *testing.T) {
	for _, mode := range allModes() {
		t.Run(mode.String(), func(t *testing.T) {
			e := newEnv(t, mode)
			db := e.open(t)
			mustExec(t, db, `CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)`)
			mustExec(t, db, `BEGIN`)
			for i := 1; i <= 10; i++ {
				mustExec(t, db, `INSERT INTO t VALUES (?, ?)`, i, i)
			}
			mustExec(t, db, `COMMIT`)
			if mode == pager.Rollback {
				// The rollback-journal commit point (journal deletion)
				// becomes durable with the next transaction's fsync.
				mustExec(t, db, `UPDATE t SET v = v WHERE id = 1`)
			}
			e.fs.PowerCut()
			if err := e.fs.Remount(); err != nil {
				t.Fatal(err)
			}
			db2 := e.open(t)
			defer db2.Close()
			rows := mustQuery(t, db2, `SELECT COUNT(*) FROM t`)
			if rows.Data[0][0].Int() != 10 {
				t.Errorf("count = %d after crash, want 10", rows.Data[0][0].Int())
			}
		})
	}
}

func TestParameterBinding(t *testing.T) {
	db := newEnv(t, pager.Rollback).open(t)
	defer db.Close()
	mustExec(t, db, `CREATE TABLE t (id INTEGER PRIMARY KEY, a REAL, b TEXT, c BLOB)`)
	mustExec(t, db, `INSERT INTO t VALUES (?, ?, ?, ?)`, 1, 2.5, "text", []byte{1, 2, 3})
	row, _, _ := db.QueryRow(`SELECT a, b, c FROM t WHERE id = ?`, 1)
	if row[0].Real() != 2.5 || row[1].Text() != "text" || len(row[2].Blob()) != 3 {
		t.Errorf("bound row = %v", row)
	}
	if _, err := db.Query(`SELECT * FROM t WHERE id = ?`); !errors.Is(err, ErrParamMismatch) {
		t.Errorf("missing param = %v", err)
	}
}

func TestPreparedStatements(t *testing.T) {
	db := newEnv(t, pager.Rollback).open(t)
	defer db.Close()
	mustExec(t, db, `CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)`)
	ins, err := db.Prepare(`INSERT INTO t VALUES (?, ?)`)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 10; i++ {
		if _, err := ins.Exec(i, i*i); err != nil {
			t.Fatal(err)
		}
	}
	sel, err := db.Prepare(`SELECT v FROM t WHERE id = ?`)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := sel.Query(7)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Data[0][0].Int() != 49 {
		t.Errorf("prepared query = %v", rows.Data)
	}
}

func TestBlobStorage(t *testing.T) {
	db := newEnv(t, pager.Rollback).open(t)
	defer db.Close()
	mustExec(t, db, `CREATE TABLE thumbs (id INTEGER PRIMARY KEY, img BLOB)`)
	// Blobs larger than a page exercise overflow chains (Facebook
	// stores thumbnails as blobs, §6.3.2).
	big := make([]byte, 5000)
	for i := range big {
		big[i] = byte(i % 251)
	}
	mustExec(t, db, `INSERT INTO thumbs VALUES (1, ?)`, big)
	row, _, _ := db.QueryRow(`SELECT img, LENGTH(img) FROM thumbs WHERE id = 1`)
	got := row[0].Blob()
	if len(got) != 5000 || row[1].Int() != 5000 {
		t.Fatalf("blob len = %d", len(got))
	}
	for i := range got {
		if got[i] != byte(i%251) {
			t.Fatalf("blob corrupt at %d", i)
		}
	}
}

func TestRowidRangeScan(t *testing.T) {
	db := newEnv(t, pager.Rollback).open(t)
	defer db.Close()
	mustExec(t, db, `CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)`)
	for i := 1; i <= 100; i++ {
		mustExec(t, db, `INSERT INTO t VALUES (?, ?)`, i, i)
	}
	rows := mustQuery(t, db, `SELECT COUNT(*) FROM t WHERE id > 10 AND id <= 20`)
	if rows.Data[0][0].Int() != 10 {
		t.Errorf("range count = %d", rows.Data[0][0].Int())
	}
	rows = mustQuery(t, db, `SELECT COUNT(*) FROM t WHERE id BETWEEN 5 AND 7`)
	if rows.Data[0][0].Int() != 3 {
		t.Errorf("between count = %d", rows.Data[0][0].Int())
	}
}

func TestInListAndCaseInWhere(t *testing.T) {
	db := newEnv(t, pager.Rollback).open(t)
	defer db.Close()
	mustExec(t, db, `CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)`)
	mustExec(t, db, `INSERT INTO t VALUES (1,'a'),(2,'b'),(3,'c'),(4,'d')`)
	rows := mustQuery(t, db, `SELECT id FROM t WHERE v IN ('a','c') ORDER BY id`)
	if rows.Len() != 2 || rows.Data[1][0].Int() != 3 {
		t.Errorf("in = %v", rows.Data)
	}
	rows = mustQuery(t, db, `SELECT id FROM t WHERE v NOT IN ('a','c') ORDER BY id`)
	if rows.Len() != 2 || rows.Data[0][0].Int() != 2 {
		t.Errorf("not in = %v", rows.Data)
	}
}

func TestPragmas(t *testing.T) {
	db := newEnv(t, pager.WAL).open(t)
	defer db.Close()
	mustExec(t, db, `PRAGMA cache_size = 500`)
	mustExec(t, db, `PRAGMA journal_mode = WAL`)
	if _, err := db.Exec(`PRAGMA journal_mode = DELETE`); err == nil {
		t.Error("switching journal mode after open should fail")
	}
	mustExec(t, db, `CREATE TABLE t (id INTEGER PRIMARY KEY)`)
	mustExec(t, db, `INSERT INTO t VALUES (1)`)
	mustExec(t, db, `PRAGMA wal_checkpoint`)
	if db.Pager().Checkpoints.Load() == 0 {
		t.Error("manual checkpoint did not run")
	}
}

func TestSelectWithoutFrom(t *testing.T) {
	db := newEnv(t, pager.Rollback).open(t)
	defer db.Close()
	row, ok, err := db.QueryRow(`SELECT 1 + 1, 'x' || 'y'`)
	if err != nil || !ok {
		t.Fatal(err)
	}
	if row[0].Int() != 2 || row[1].Text() != "xy" {
		t.Errorf("row = %v", row)
	}
}

func TestThreeWayJoin(t *testing.T) {
	db := newEnv(t, pager.Rollback).open(t)
	defer db.Close()
	mustExec(t, db, `CREATE TABLE a (id INTEGER PRIMARY KEY, bid INTEGER)`)
	mustExec(t, db, `CREATE TABLE b (id INTEGER PRIMARY KEY, cid INTEGER)`)
	mustExec(t, db, `CREATE TABLE c (id INTEGER PRIMARY KEY, name TEXT)`)
	mustExec(t, db, `INSERT INTO c VALUES (1, 'one'), (2, 'two')`)
	mustExec(t, db, `INSERT INTO b VALUES (10, 1), (20, 2)`)
	mustExec(t, db, `INSERT INTO a VALUES (100, 10), (200, 20), (300, 10)`)
	rows := mustQuery(t, db, `SELECT a.id, c.name FROM a
		JOIN b ON a.bid = b.id JOIN c ON b.cid = c.id ORDER BY a.id`)
	if rows.Len() != 3 || rows.Data[0][1].Text() != "one" || rows.Data[1][1].Text() != "two" {
		t.Errorf("3-way join = %v", rows.Data)
	}
}

func TestWALCheckpointDuringLoad(t *testing.T) {
	e := newEnv(t, pager.WAL)
	db, err := Open(e.fs, "test.db", Config{Mode: pager.WAL, CacheSize: 300, CheckpointPages: 40})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	mustExec(t, db, `CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)`)
	for i := 1; i <= 200; i++ {
		mustExec(t, db, `INSERT INTO t VALUES (?, 'value')`, i)
	}
	if db.Pager().Checkpoints.Load() == 0 {
		t.Error("no automatic checkpoint despite small threshold")
	}
	rows := mustQuery(t, db, `SELECT COUNT(*) FROM t`)
	if rows.Data[0][0].Int() != 200 {
		t.Errorf("count = %d", rows.Data[0][0].Int())
	}
}
