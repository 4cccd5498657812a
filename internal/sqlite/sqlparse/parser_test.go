package sqlparse

import (
	"testing"
)

func mustParse(t *testing.T, src string) Stmt {
	t.Helper()
	st, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return st
}

func TestParseCreateTable(t *testing.T) {
	st := mustParse(t, `CREATE TABLE partsupp (
		ps_partkey INTEGER PRIMARY KEY,
		ps_suppkey INTEGER,
		ps_availqty INTEGER,
		ps_supplycost REAL,
		ps_comment TEXT
	)`)
	ct, ok := st.(*CreateTable)
	if !ok {
		t.Fatalf("got %T", st)
	}
	if ct.Name != "partsupp" || len(ct.Columns) != 5 {
		t.Errorf("table = %q cols = %d", ct.Name, len(ct.Columns))
	}
	if !ct.Columns[0].PrimaryKey || ct.Columns[0].Type != "INTEGER" {
		t.Errorf("pk column parsed wrong: %+v", ct.Columns[0])
	}
	if ct.Columns[3].Type != "REAL" {
		t.Errorf("supplycost type = %q", ct.Columns[3].Type)
	}
}

func TestParseCreateTableExoticTypes(t *testing.T) {
	st := mustParse(t, `CREATE TABLE t (a VARCHAR(24), b NUMERIC(12,2), c INT)`)
	ct := st.(*CreateTable)
	if ct.Columns[0].Type != "TEXT" {
		t.Errorf("VARCHAR -> %q, want TEXT", ct.Columns[0].Type)
	}
	if ct.Columns[1].Type != "REAL" {
		t.Errorf("NUMERIC -> %q, want REAL", ct.Columns[1].Type)
	}
	if ct.Columns[2].Type != "INTEGER" {
		t.Errorf("INT -> %q, want INTEGER", ct.Columns[2].Type)
	}
}

func TestParseCreateIndex(t *testing.T) {
	st := mustParse(t, `CREATE UNIQUE INDEX idx_ps ON partsupp (ps_suppkey, ps_partkey)`)
	ci := st.(*CreateIndex)
	if !ci.Unique || ci.Table != "partsupp" || len(ci.Columns) != 2 {
		t.Errorf("%+v", ci)
	}
}

func TestParseInsert(t *testing.T) {
	st := mustParse(t, `INSERT INTO t (a, b) VALUES (1, 'x'), (2, ?)`)
	ins := st.(*Insert)
	if ins.Table != "t" || len(ins.Columns) != 2 || len(ins.Rows) != 2 {
		t.Fatalf("%+v", ins)
	}
	if _, ok := ins.Rows[1][1].(*Param); !ok {
		t.Errorf("param not parsed: %T", ins.Rows[1][1])
	}
}

func TestParseSelectJoinWhere(t *testing.T) {
	st := mustParse(t, `SELECT o.id, c.name AS cname, COUNT(*)
		FROM orders o JOIN customers c ON o.cust_id = c.id
		WHERE o.total > 10.5 AND c.city = 'NYC'
		GROUP BY c.id HAVING COUNT(*) > 1
		ORDER BY o.id DESC LIMIT 10 OFFSET 5`)
	sel := st.(*Select)
	if sel.From.Name != "orders" || sel.From.Alias != "o" {
		t.Errorf("from = %+v", sel.From)
	}
	if len(sel.Joins) != 1 || sel.Joins[0].Table.Name != "customers" {
		t.Errorf("joins = %+v", sel.Joins)
	}
	if sel.Where == nil || sel.GroupBy == nil || sel.Having == nil {
		t.Error("missing clauses")
	}
	if len(sel.OrderBy) != 1 || !sel.OrderBy[0].Desc {
		t.Errorf("order = %+v", sel.OrderBy)
	}
	if sel.Limit == nil || sel.Offset == nil {
		t.Error("limit/offset missing")
	}
	if len(sel.Columns) != 3 || sel.Columns[1].Alias != "cname" {
		t.Errorf("columns = %+v", sel.Columns)
	}
}

func TestParseSelectStar(t *testing.T) {
	sel := mustParse(t, `SELECT * FROM t`).(*Select)
	if !sel.Columns[0].Star {
		t.Error("star not parsed")
	}
	sel = mustParse(t, `SELECT t.* FROM t`).(*Select)
	if !sel.Columns[0].Star || sel.Columns[0].Table != "t" {
		t.Error("tbl.* not parsed")
	}
}

func TestParseUpdateDelete(t *testing.T) {
	up := mustParse(t, `UPDATE partsupp SET ps_supplycost = ps_supplycost + 1 WHERE ps_partkey = ?`).(*Update)
	if up.Table != "partsupp" || len(up.Set) != 1 || up.Where == nil {
		t.Errorf("%+v", up)
	}
	del := mustParse(t, `DELETE FROM t WHERE a BETWEEN 1 AND 5`).(*Delete)
	if del.Table != "t" || del.Where == nil {
		t.Errorf("%+v", del)
	}
	if _, ok := del.Where.(*Between); !ok {
		t.Errorf("where = %T", del.Where)
	}
}

func TestParseTxControl(t *testing.T) {
	if _, ok := mustParse(t, "BEGIN").(*Begin); !ok {
		t.Error("BEGIN")
	}
	if _, ok := mustParse(t, "BEGIN TRANSACTION;").(*Begin); !ok {
		t.Error("BEGIN TRANSACTION")
	}
	if _, ok := mustParse(t, "COMMIT").(*Commit); !ok {
		t.Error("COMMIT")
	}
	if _, ok := mustParse(t, "ROLLBACK").(*Rollback); !ok {
		t.Error("ROLLBACK")
	}
}

func TestParsePragma(t *testing.T) {
	pr := mustParse(t, "PRAGMA journal_mode = WAL").(*Pragma)
	if pr.Name != "journal_mode" || pr.Value != "WAL" {
		t.Errorf("%+v", pr)
	}
}

func TestParseExpressions(t *testing.T) {
	cases := []string{
		`SELECT 1+2*3`,
		`SELECT -x, NOT y FROM t`,
		`SELECT a || 'suffix' FROM t`,
		`SELECT * FROM t WHERE a IN (1,2,3) AND b NOT IN (4)`,
		`SELECT * FROM t WHERE a IS NULL OR b IS NOT NULL`,
		`SELECT * FROM t WHERE name LIKE 'abc%'`,
		`SELECT * FROM t WHERE name NOT LIKE '%x'`,
		`SELECT CASE WHEN a > 0 THEN 'pos' ELSE 'neg' END FROM t`,
		`SELECT CASE a WHEN 1 THEN 'one' WHEN 2 THEN 'two' END FROM t`,
		`SELECT COUNT(DISTINCT a), SUM(b), MIN(c), MAX(d), AVG(e) FROM t`,
		`SELECT CAST(a AS INTEGER) FROM t`,
		`SELECT x'deadbeef'`,
		`SELECT * FROM a, b WHERE a.id = b.id`,
		`SELECT "quoted col" FROM [quoted table]`,
	}
	for _, src := range cases {
		if _, err := Parse(src); err != nil {
			t.Errorf("Parse(%q): %v", src, err)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		``,
		`SELEC 1`,
		`SELECT FROM`,
		`INSERT INTO`,
		`CREATE TABLE`,
		`SELECT 'unterminated`,
		`SELECT * FROM t WHERE`,
		`UPDATE t SET`,
		`SELECT 1 2`,
		`SELECT (1`,
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestParseAllScript(t *testing.T) {
	stmts, err := ParseAll(`
		CREATE TABLE a (x INTEGER);
		INSERT INTO a VALUES (1);
		-- a comment
		SELECT * FROM a;
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != 3 {
		t.Errorf("got %d statements, want 3", len(stmts))
	}
}

func TestParamNumbering(t *testing.T) {
	ins := mustParse(t, `INSERT INTO t VALUES (?, ?, ?)`).(*Insert)
	for i, e := range ins.Rows[0] {
		p, ok := e.(*Param)
		if !ok || p.Index != i {
			t.Errorf("param %d parsed as %+v", i, e)
		}
	}
}
