//go:build !race

package sqlite

import (
	"strings"
	"testing"
	"unsafe"

	"repro/internal/sqlite/pager"
)

// The synthetic workload's two statements against its table, prepared or
// handed to Query and Exec as text the connection has seen before: a run
// allocates what it returns, nothing for itself. A point SELECT is its Rows,
// which carries a one-row list inline, and the row — decoded under the
// page's pin over the statement's scratch row, the comment it does not read
// never materialized; an UPDATE is nothing — it decodes no column, and its
// new record is spliced from a copy of the old one in the statement's own
// buffers, the comment's bytes copied as they lie, and encoded straight
// over the same-size cell. (Boxing a key above 255 into the variadic
// arguments is the caller's, and rounds away. The bounds were 26 and 23
// before the in-place decode, 18 and 14 while every run planned its
// statement again, 3 and 2 while the cell was encoded apart, 3 and 1 while
// the SELECT's row list was apart and the UPDATE decoded the comment to
// encode it again. Not under -race: the race runtime allocates.)
func TestPointStatementAllocs(t *testing.T) {
	db := partsuppDB(t)
	sel, err := db.Prepare(selText)
	if err != nil {
		t.Fatal(err)
	}
	upd, err := db.Prepare(updText)
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `BEGIN`)
	defer mustExec(t, db, `ROLLBACK`)
	key := 0
	next := func() int { key = key%partsuppRows + 1; return key }
	check := func(what string, r *Rows, n int64, err error) {
		if err != nil || (r != nil && r.Len() != 1) || (r == nil && n != 1) {
			t.Fatalf("%s %d: %v", what, key, err)
		}
	}
	for _, c := range []struct {
		what string
		run  func()
		max  float64
	}{
		{"prepared point SELECT", func() { r, err := sel.Query(next()); check("SELECT", r, 0, err) }, 2},
		{"prepared point UPDATE", func() { n, err := upd.Exec(0.5, next()); check("UPDATE", nil, n, err) }, 0},
		{"point SELECT by text", func() { r, err := db.Query(selText, next()); check("SELECT", r, 0, err) }, 2},
		{"point UPDATE by text", func() { n, err := db.Exec(updText, 0.5, next()); check("UPDATE", nil, n, err) }, 0},
	} {
		for i := 0; i < partsuppRows; i++ { // every page cached, and journalled by the open transaction
			c.run()
		}
		if allocs := testing.AllocsPerRun(partsuppRows, c.run); allocs > c.max {
			t.Errorf("%s allocates %.1f objects, want at most %.0f", c.what, allocs, c.max)
		}
	}
}

// The synthetic workload's table and its two point statements.
const (
	partsuppRows = 600 // a three-level tree on 1 KB pages, inside the 300-page cache
	selText      = `SELECT ps_supplycost FROM partsupp WHERE ps_partkey = ?`
	updText      = `UPDATE partsupp SET ps_supplycost = ? WHERE ps_partkey = ?`
)

func partsuppDB(t *testing.T) *DB {
	db := newEnv(t, pager.Off).open(t)
	t.Cleanup(func() { db.Close() })
	mustExec(t, db, `CREATE TABLE partsupp (ps_partkey INTEGER PRIMARY KEY, ps_suppkey INTEGER,
		ps_availqty INTEGER, ps_supplycost REAL, ps_comment TEXT)`)
	for k := 1; k <= partsuppRows; k++ {
		mustExec(t, db, `INSERT INTO partsupp VALUES (?, ?, ?, ?, ?)`, k, k%97, k%89, float64(k)/100, strings.Repeat("c", 199))
	}
	return db
}

// Run with typed parameters allocates nothing a caller-owned result
// cannot hold: a point SELECT refills the Result's Rows and carves its row
// from the Result's room, and an UPDATE is nothing, as it is by Exec.
// Stmt.Query, which wraps the same entry, still returns a fresh result:
// its Rows and its row, exactly, and the Rows stays 72 bytes, in the
// 80-byte size class (the room lives in Result, not Rows: a slice more
// moves every Query's Rows to the 96-byte class).
func TestRunAllocs(t *testing.T) {
	if n := unsafe.Sizeof(Rows{}); n != 72 {
		t.Errorf("Rows is %d bytes, want 72", n)
	}
	db := partsuppDB(t)
	sel, err := db.Prepare(selText)
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `BEGIN`)
	defer mustExec(t, db, `ROLLBACK`)
	var res Result
	params := make([]Value, 2)
	boxed := make([]any, partsuppRows+1) // Query's keys, boxed ahead of the count
	for k := range boxed {
		boxed[k] = int64(k)
	}
	key := int64(0)
	next := func() Value { key = key%partsuppRows + 1; return Int(key) }
	for _, c := range []struct {
		what string
		run  func()
		want float64
	}{
		{"refilled point SELECT", func() {
			params[0] = next()
			if _, err := db.Run(&res, selText, params[:1]); err != nil || res.Len() != 1 || res.Data[0][0].Real() != float64(key)/100 {
				t.Fatalf("SELECT %d: %v (%v)", key, res.Data, err)
			}
		}, 0},
		{"typed point UPDATE", func() {
			params[0], params[1] = Real(float64(key)/100), next()
			if n, err := db.Run(nil, updText, params); err != nil || n != 1 {
				t.Fatalf("UPDATE %d: %d rows (%v)", key, n, err)
			}
		}, 0},
		{"prepared point SELECT", func() {
			if r, err := sel.Query(boxed[next().Int()]); err != nil || r.Len() != 1 {
				t.Fatalf("SELECT %d: %v", key, err)
			}
		}, 2},
	} {
		for i := 0; i < partsuppRows; i++ { // every page cached, and journalled by the open transaction
			c.run()
		}
		if allocs := testing.AllocsPerRun(partsuppRows, c.run); allocs != c.want {
			t.Errorf("%s allocates %.1f objects, want %.0f", c.what, allocs, c.want)
		}
	}
}

// A row is sized before it is written: the record is the one allocation.
func TestEncodeRecordAllocs(t *testing.T) {
	row := []Value{Int(4711), Int(63), Int(12), Real(47.11), Text(strings.Repeat("c", 199))}
	if allocs := testing.AllocsPerRun(1000, func() { _ = EncodeRecord(row) }); allocs != 1 {
		t.Errorf("EncodeRecord allocates %.1f objects for a partsupp row, want 1", allocs)
	}
}

// The index comparator — thirteen-odd probes per leaf search — compares
// two records where they lie: no value is decoded out, whatever the types.
func TestCompareRecordsAllocs(t *testing.T) {
	a := EncodeRecord([]Value{Null, Int(7), Real(2.5), Text("partsupp-comment"), Blob([]byte{1, 2, 3}), Int(41)})
	b := EncodeRecord([]Value{Null, Int(7), Real(2.5), Text("partsupp-comment"), Blob([]byte{1, 2, 3}), Int(42)})
	if allocs := testing.AllocsPerRun(1000, func() {
		if CompareRecords(a, b) >= 0 || CompareRecords(a[:len(a)-1], b) >= 0 { // the second, by bytes: a cut record
			t.Fatal("CompareRecords misorders its operands")
		}
	}); allocs != 0 {
		t.Errorf("CompareRecords allocates %.1f objects, want none", allocs)
	}
}
