package sqlite

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/simfs"
	"repro/internal/sqlite/pager"
)

// A reader connection advanced from snapshot to snapshot over the change
// log reads what a connection cold-opened at the same snapshot reads,
// through seeded streams of UPDATE, INSERT, DELETE, ROLLBACK and every
// schema statement: the same rows from every table, and every page its
// cache holds the snapshot's page. Every schema statement writes page 1
// or grows the file — the premise that lets an advance keep its catalog
// unless page 1 changed.
func TestAdvancedReaderMatchesColdReader(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4} {
		t.Run(fmt.Sprint(seed), func(t *testing.T) { advanceStream(t, seed) })
	}
}

func advanceStream(t *testing.T, seed int64) {
	e := newEnv(t, pager.Off)
	const name = "test.db"
	w, err := Open(e.fs, name, Config{Mode: pager.Off, CacheSize: 16}) // small: commits steal
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	rng := rand.New(rand.NewSource(seed))
	text := func() string {
		if rng.Intn(6) == 0 {
			return strings.Repeat("o", 250+rng.Intn(600)) // spills to overflow pages
		}
		return strings.Repeat("i", 1+rng.Intn(60))
	}
	var (
		tables, indexes []string // live
		names           []string // every table ever created: a dropped one must be gone on both sides
		nextName        int
	)
	create := func(exec func(sql string)) string {
		nextName++
		tbl := fmt.Sprintf("t%d", nextName)
		exec(fmt.Sprintf("CREATE TABLE %s (k INTEGER PRIMARY KEY, v TEXT)", tbl))
		tables, names = append(tables, tbl), append(names, tbl)
		return tbl
	}
	for i := 0; i < 2; i++ {
		tbl := create(func(sql string) { mustExec(t, w, sql) })
		for k := 1; k <= 40; k++ {
			mustExec(t, w, fmt.Sprintf("INSERT INTO %s VALUES (?, ?)", tbl), k, text())
		}
	}
	pick := func(s []string) int { return rng.Intn(len(s)) }
	nextKey := 41 // above every key a table was loaded with
	pointOp := func() {
		tbl := tables[pick(tables)]
		switch k := 1 + rng.Intn(nextKey); rng.Intn(3) {
		case 0:
			mustExec(t, w, fmt.Sprintf("UPDATE %s SET v = ? WHERE k = ?", tbl), text(), k)
		case 1:
			nextKey++
			mustExec(t, w, fmt.Sprintf("INSERT INTO %s VALUES (?, ?)", tbl), nextKey, text())
		default:
			mustExec(t, w, fmt.Sprintf("DELETE FROM %s WHERE k = ?", tbl), k)
		}
	}
	// One schema statement in its own commit; it must write page 1 or
	// grow the file.
	ddl := func(sql string) {
		t.Helper()
		before, size := e.fs.Device().CommitSeq(), w.Pager().NPages()
		mustExec(t, w, sql)
		changed, ok := e.fs.ChangesSince(nil, name, before, e.fs.Device().CommitSeq())
		if w.Pager().NPages() == size && !(ok && slices.Contains(changed, 0)) {
			t.Fatalf("%s left page 1 and the file size alone (changed %v, ok %v)", sql, changed, ok)
		}
	}

	open := func(snap *simfs.Snapshot) *DB {
		db, err := OpenReader(e.fs, name, snap, Config{Mode: pager.Off, CacheSize: 24})
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	snap, err := e.fs.OpenSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	adv := open(snap)
	var changed []int64
	advances, colds := 0, 0
	page := make([]byte, e.fs.PageSize())
	for step := 0; step < 150; step++ {
		switch r := rng.Intn(20); {
		case r < 13:
			mustExec(t, w, "BEGIN")
			for n := 1 + rng.Intn(4); n > 0; n-- {
				pointOp()
			}
			mustExec(t, w, "COMMIT")
		case r < 14:
			mustExec(t, w, "BEGIN")
			pointOp()
			mustExec(t, w, "ROLLBACK")
		case r < 16:
			create(ddl)
		case r < 17 && len(tables) > 1:
			i := pick(tables)
			ddl("DROP TABLE " + tables[i])
			tables = slices.Delete(tables, i, i+1)
			indexes = indexes[:0] // every index here belongs to some table; forget which
		case r < 19:
			idx := fmt.Sprintf("i%d", step)
			ddl(fmt.Sprintf("CREATE INDEX %s ON %s (v)", idx, tables[pick(tables)]))
			indexes = append(indexes, idx)
		case len(indexes) > 0:
			i := pick(indexes)
			ddl("DROP INDEX IF EXISTS " + indexes[i])
			indexes = slices.Delete(indexes, i, i+1)
		}
		if rng.Intn(3) == 0 {
			continue // let commits pile up: the next advance crosses several
		}

		next, err := e.fs.OpenSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		var ok bool
		changed, ok = e.fs.ChangesSince(changed[:0], name, snap.Seq(), next.Seq())
		if ok {
			if err := adv.Advance(next, changed); err != nil {
				t.Fatalf("step %d: advance: %v", step, err)
			}
			advances++
		} else {
			_ = adv.Close()
			adv = open(next)
			colds++
		}
		_ = snap.Close()
		snap = next

		cold := open(snap)
		if adv.Pager().NPages() != cold.Pager().NPages() {
			t.Fatalf("step %d: advanced reader sees %d pages, cold %d", step, adv.Pager().NPages(), cold.Pager().NPages())
		}
		for _, tbl := range names {
			for _, q := range []string{"SELECT * FROM " + tbl, "SELECT k FROM " + tbl + " WHERE v > 'j'"} {
				a, aerr := adv.Query(q)
				c, cerr := cold.Query(q)
				if (aerr == nil) != (cerr == nil) || aerr == nil && !reflect.DeepEqual(a.Data, c.Data) {
					t.Fatalf("step %d: %s: advanced reader %d rows (%v), cold %d rows (%v)", step, q, rowCount(a), aerr, rowCount(c), cerr)
				}
			}
		}
		_ = cold.Close()
		// Every page, cached or not, reads as the snapshot has it.
		for pgno := pager.Pgno(1); pgno <= adv.Pager().NPages(); pgno++ {
			pg, err := adv.Pager().Get(pgno)
			if err != nil {
				t.Fatal(err)
			}
			clear(page)
			if idx := int64(pgno - 1); idx < snap.Pages(name) {
				if err := snap.ReadPage(name, idx, page); err != nil {
					t.Fatal(err)
				}
			}
			same := bytes.Equal(pg.Data(), page)
			pg.Release()
			if !same {
				t.Fatalf("step %d: cached page %d differs from the snapshot's", step, pgno)
			}
		}
	}
	_ = adv.Close()
	_ = snap.Close()
	t.Logf("%d advances, %d cold opens", advances, colds)
	if advances < 40 {
		t.Errorf("only %d of the stream's snapshots were advanced: the test no longer exercises Advance", advances)
	}
}

// rowCount is a result's row count, -1 for none.
func rowCount(r *Rows) int {
	if r == nil {
		return -1
	}
	return r.Len()
}
