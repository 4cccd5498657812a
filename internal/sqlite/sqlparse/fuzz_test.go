package sqlparse

import (
	"reflect"
	"testing"
)

// The connection's statement cache is keyed by text: whatever Parse accepts
// must mean one thing, every time. Parse never panics, and a text it
// accepts parses a second time to a deeply equal tree; ParseAll accepts at
// least what Parse does. The seeds are the statement shapes of the engine's
// own corpus (internal/sqlite's selectCorpus and its write forms).
func FuzzParse(f *testing.F) {
	for _, s := range []string{
		`SELECT * FROM emp WHERE id = ?`,
		`SELECT rowid, name FROM emp WHERE rowid > 35`,
		`SELECT COUNT(*), SUM(salary) FROM emp`,
		`SELECT id, note FROM emp WHERE dept = 'lab' AND salary > 20`,
		`SELECT COUNT(*) FROM emp WHERE id BETWEEN 5 AND 7`,
		`SELECT id FROM emp ORDER BY salary DESC LIMIT 5 OFFSET 10`,
		`SELECT id FROM emp WHERE note LIKE 'hello-1%'`,
		`SELECT id FROM emp WHERE note IS NOT NULL`,
		`SELECT id FROM emp WHERE dept NOT IN ('ops','lab') ORDER BY id`,
		`SELECT DISTINCT dept FROM emp ORDER BY dept`,
		`SELECT salary * 2 + 1, UPPER(name), LENGTH(note), name || '!' FROM emp`,
		`SELECT CASE WHEN salary > 30 THEN 'big' ELSE name END FROM emp`,
		`SELECT CASE dept WHEN 'ops' THEN 1 ELSE -1.5e3 END, x'0aFF' FROM emp`,
		`SELECT 1 + 1, 'x' || 'y'`,
		`SELECT COUNT(DISTINCT region) FROM sales`,
		`SELECT region, SUM(amount) FROM sales GROUP BY region HAVING SUM(amount) > 2700 ORDER BY SUM(amount) DESC`,
		`SELECT COUNT(*) FROM emp, dept WHERE emp.dept_id = dept.id`,
		`SELECT e.name, d.name AS dn FROM emp e JOIN dept d ON e.dept_id = d.id ORDER BY e.id`,
		`SELECT d.name, e.note FROM dept d LEFT JOIN emp e ON e.dept_id = d.id AND e.salary > 55 ORDER BY d.id, e.id`,
		`SELECT id, RANDOM() FROM emp WHERE NOT (id <= ? OR id % 2 = 0)`,
		`INSERT INTO dept (id, name, floor) VALUES (?, ?, ?)`,
		`INSERT INTO sales VALUES (?, ?, 'm'), (?, NULL, 'n')`,
		`UPDATE emp SET salary = salary + ?, note = ? WHERE id BETWEEN ? AND ?`,
		`UPDATE kv SET v = v + 1 WHERE k = ?`,
		`DELETE FROM sales WHERE region = ? AND amount > ?`,
		`CREATE TABLE IF NOT EXISTS t (id INTEGER PRIMARY KEY, a REAL, b TEXT, c BLOB)`,
		`CREATE UNIQUE INDEX IF NOT EXISTS t_a ON t (a, b)`,
		`DROP TABLE IF EXISTS t`, `DROP INDEX t_a`,
		`BEGIN TRANSACTION`, `COMMIT`, `ROLLBACK`, `PRAGMA journal_mode = wal`,
		`SELECT 1; SELECT 2`, `SELEC 1`, `'`, ``, `-- only a comment`,
		`CREATE TABLE A(A INTEGER PRIMARY KEY,A TEXT,A A(`,    // ran the type-argument skip past the end
		`CREATE TABLE A(A INT PRIMARY KEY,A TEXT UNIQUE,A A(`, // refused at UNIQUE
		`CREATE TABLE t (a TEXT PRIMARY KEY, b INT NOT NULL DEFAULT 0)`,
		`PRAGMA A=`, // took the end of input for the value
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, sql string) {
		all, allErr := ParseAll(sql)
		st, err := Parse(sql)
		if err != nil {
			return
		}
		again, err := Parse(sql)
		if err != nil || !reflect.DeepEqual(st, again) {
			t.Fatalf("%q parsed to %#v, then to %#v (%v)", sql, st, again, err)
		}
		if allErr != nil || len(all) != 1 || !reflect.DeepEqual(all[0], st) {
			t.Fatalf("%q is one statement to Parse, %d to ParseAll (%v)", sql, len(all), allErr)
		}
	})
}
