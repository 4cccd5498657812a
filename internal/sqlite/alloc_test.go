//go:build !race

package sqlite

import (
	"strings"
	"testing"

	"repro/internal/sqlite/pager"
)

// The synthetic workload's two prepared statements against its table: a
// point SELECT decodes its row once, under the page's pin, into a slice
// sized from the record header, and never materializes the comment it does
// not read; an UPDATE decodes the whole row the same way, encodes the new
// one in one allocation and writes its same-size cell over the old one.
// The bounds are what the statements allocate today (26 and 23 before the
// in-place decode, 18 and 18 before the one-pass encoder); most of what is
// left is the executor's per-statement planning.
// (Not under -race: the race runtime allocates.)
func TestPointStatementAllocs(t *testing.T) {
	db := newEnv(t, pager.Off).open(t)
	defer db.Close()
	mustExec(t, db, `CREATE TABLE partsupp (ps_partkey INTEGER PRIMARY KEY, ps_suppkey INTEGER,
		ps_availqty INTEGER, ps_supplycost REAL, ps_comment TEXT)`)
	const rows = 600 // a three-level tree on 1 KB pages, inside the 300-page cache
	for k := 1; k <= rows; k++ {
		mustExec(t, db, `INSERT INTO partsupp VALUES (?, ?, ?, ?, ?)`, k, k%97, k%89, float64(k)/100, strings.Repeat("c", 199))
	}
	sel, err := db.Prepare(`SELECT ps_supplycost FROM partsupp WHERE ps_partkey = ?`)
	if err != nil {
		t.Fatal(err)
	}
	upd, err := db.Prepare(`UPDATE partsupp SET ps_supplycost = ? WHERE ps_partkey = ?`)
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `BEGIN`)
	defer mustExec(t, db, `ROLLBACK`)
	key := 0
	selectOne := func() {
		key = key%rows + 1
		if r, err := sel.Query(key); err != nil || r.Len() != 1 {
			t.Fatalf("SELECT %d: %v", key, err)
		}
	}
	updateOne := func() {
		key = key%rows + 1
		if n, err := upd.Exec(0.5, key); err != nil || n != 1 {
			t.Fatalf("UPDATE %d: %v", key, err)
		}
	}
	for i := 0; i < rows; i++ { // every page cached, and journalled by the open transaction
		selectOne()
		updateOne()
	}
	if allocs := testing.AllocsPerRun(rows, selectOne); allocs > 18 {
		t.Errorf("prepared point SELECT allocates %.1f objects, want at most 18", allocs)
	}
	if allocs := testing.AllocsPerRun(rows, updateOne); allocs > 14 {
		t.Errorf("prepared point UPDATE allocates %.1f objects, want at most 14", allocs)
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
