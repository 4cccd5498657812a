package sqlite

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/ftl"
	"repro/internal/metrics"
	"repro/internal/simclock"
	"repro/internal/simfs"
	"repro/internal/sqlite/pager"
	"repro/internal/storage"
)

// TestRLBenchmarkShape runs the RL Benchmark statement mix end-to-end
// in each journal mode: bulk inserts, point updates, selections, an
// index creation mid-stream, and a table drop — the workload the
// paper's §6.3.2 describes — validating cross-mode result equality.
func TestRLBenchmarkShape(t *testing.T) {
	type result struct {
		count int64
		sum   int64
	}
	results := map[pager.JournalMode]result{}
	for _, mode := range allModes() {
		db := newEnv(t, mode).open(t)
		mustExec(t, db, `CREATE TABLE bench (id INTEGER PRIMARY KEY, num INTEGER, txt TEXT)`)
		rng := rand.New(rand.NewSource(5))
		// Batched inserts.
		for batch := 0; batch < 10; batch++ {
			mustExec(t, db, `BEGIN`)
			for i := 0; i < 50; i++ {
				id := batch*50 + i + 1
				mustExec(t, db, `INSERT INTO bench VALUES (?, ?, ?)`,
					id, rng.Intn(1000), fmt.Sprintf("row-%d", id))
			}
			mustExec(t, db, `COMMIT`)
		}
		mustExec(t, db, `CREATE INDEX idx_num ON bench (num)`)
		// Updates through the index and by key.
		for i := 0; i < 100; i++ {
			mustExec(t, db, `UPDATE bench SET num = num + 1 WHERE id = ?`, rng.Intn(500)+1)
		}
		// Selections.
		for i := 0; i < 20; i++ {
			mustQuery(t, db, `SELECT COUNT(*) FROM bench WHERE num < ?`, rng.Intn(1000))
		}
		// Deletions and a re-insert.
		mustExec(t, db, `DELETE FROM bench WHERE id > 490`)
		mustExec(t, db, `INSERT INTO bench VALUES (500, 1, 'back')`)
		row, _, err := db.QueryRow(`SELECT COUNT(*), SUM(num) FROM bench`)
		if err != nil {
			t.Fatal(err)
		}
		results[mode] = result{count: row[0].Int(), sum: row[1].Int()}
		_ = db.Close()
	}
	// Every journal mode must compute identical results.
	base := results[pager.Rollback]
	for mode, r := range results {
		if r != base {
			t.Errorf("mode %s diverged: %+v vs %+v", mode, r, base)
		}
	}
	if base.count != 491 {
		t.Errorf("final count = %d, want 491", base.count)
	}
}

// TestRandomizedCrossModeEquivalence drives a random DML stream through
// all three journal modes with interleaved commits, rollbacks and
// crashes, asserting the three databases stay byte-for-byte equivalent
// in query results.
func TestRandomizedCrossModeEquivalence(t *testing.T) {
	type op struct {
		kind int // 0 insert, 1 update, 2 delete, 3 commit point, 4 rollback, 5 crash
		id   int
		val  int
	}
	rng := rand.New(rand.NewSource(77))
	var script []op
	for i := 0; i < 250; i++ {
		script = append(script, op{kind: rng.Intn(6), id: rng.Intn(60) + 1, val: rng.Intn(10000)})
	}
	fingerprint := func(mode pager.JournalMode) string {
		e := newEnv(t, mode)
		db := e.open(t)
		mustExec(t, db, `CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)`)
		inTx := false
		for _, o := range script {
			switch o.kind {
			case 0:
				if !inTx {
					mustExec(t, db, `BEGIN`)
					inTx = true
				}
				_, _ = db.Exec(`INSERT INTO t VALUES (?, ?)`, o.id, o.val) // may conflict: ignored
			case 1:
				if !inTx {
					mustExec(t, db, `BEGIN`)
					inTx = true
				}
				mustExec(t, db, `UPDATE t SET v = ? WHERE id = ?`, o.val, o.id)
			case 2:
				if !inTx {
					mustExec(t, db, `BEGIN`)
					inTx = true
				}
				mustExec(t, db, `DELETE FROM t WHERE id = ?`, o.id)
			case 3:
				if inTx {
					mustExec(t, db, `COMMIT`)
					inTx = false
				}
			case 4:
				if inTx {
					mustExec(t, db, `ROLLBACK`)
					inTx = false
				}
			case 5:
				// A mid-transaction crash must recover to exactly the
				// rollback of the open transaction. Rollback mode is
				// the crash-free reference executor (its commit point
				// — journal deletion — has delayed durability, which
				// would legally undo the preceding committed
				// transaction too); WAL and Off take the real crash.
				if !inTx {
					continue
				}
				if mode == pager.Rollback {
					mustExec(t, db, `ROLLBACK`)
				} else {
					e.fs.PowerCut()
					if err := e.fs.Remount(); err != nil {
						t.Fatal(err)
					}
					_ = db.Close()
					db = e.open(t)
				}
				inTx = false
			}
		}
		if inTx {
			mustExec(t, db, `COMMIT`)
		}
		// In rollback mode, carry the final journal deletion to disk.
		mustExec(t, db, `UPDATE t SET v = v WHERE id = 1`)
		rows := mustQuery(t, db, `SELECT id, v FROM t ORDER BY id`)
		out := ""
		for _, r := range rows.Data {
			out += fmt.Sprintf("%d=%d;", r[0].Int(), r[1].Int())
		}
		_ = db.Close()
		return out
	}
	base := fingerprint(pager.Rollback)
	for _, mode := range []pager.JournalMode{pager.WAL, pager.Off} {
		if got := fingerprint(mode); got != base {
			t.Errorf("mode %s diverged:\n  %s\nvs rollback:\n  %s", mode, got, base)
		}
	}
}

// TestLargeTransactionAcrossModes exercises transactions large enough
// to trigger steal in each mode (small cache) yet within the X-L2P
// capacity, verifying commit durability across reopen.
func TestLargeTransactionAcrossModes(t *testing.T) {
	for _, mode := range allModes() {
		t.Run(mode.String(), func(t *testing.T) {
			e := newEnv(t, mode)
			db, err := Open(e.fs, "big.db", Config{Mode: mode, CacheSize: 20})
			if err != nil {
				t.Fatal(err)
			}
			mustExec(t, db, `CREATE TABLE t (id INTEGER PRIMARY KEY, pad TEXT)`)
			pad := make([]byte, 400)
			for i := range pad {
				pad[i] = 'p'
			}
			mustExec(t, db, `BEGIN`)
			for i := 1; i <= 300; i++ {
				mustExec(t, db, `INSERT INTO t VALUES (?, ?)`, i, string(pad))
			}
			mustExec(t, db, `COMMIT`)
			_ = db.Close()
			db2, err := Open(e.fs, "big.db", Config{Mode: mode})
			if err != nil {
				t.Fatal(err)
			}
			defer db2.Close()
			row, _, err := db2.QueryRow(`SELECT COUNT(*) FROM t`)
			if err != nil {
				t.Fatal(err)
			}
			if row[0].Int() != 300 {
				t.Errorf("count = %d, want 300", row[0].Int())
			}
		})
	}
}

// TestSustainedChurnWithGC runs enough update traffic on a small device
// that garbage collection must cycle blocks under every journal mode,
// validating that DB contents survive sustained GC pressure.
func TestSustainedChurnWithGC(t *testing.T) {
	for _, mode := range allModes() {
		t.Run(mode.String(), func(t *testing.T) {
			prof := storage.OpenSSD()
			prof.Nand.Blocks = 160
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
			fsys, err := simfs.New(dev, fsMode, &metrics.HostCounters{})
			if err != nil {
				t.Fatal(err)
			}
			db, err := Open(fsys, "churn.db", Config{Mode: mode, CacheSize: 50})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			mustExec(t, db, `CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER, pad TEXT)`)
			pad := make([]byte, 200)
			for i := range pad {
				pad[i] = 'x'
			}
			const rows = 100
			for i := 1; i <= rows; i++ {
				mustExec(t, db, `INSERT INTO t VALUES (?, 0, ?)`, i, string(pad))
			}
			rng := rand.New(rand.NewSource(13))
			// Far more update traffic than the raw device capacity.
			// X-FTL mode needs proportionally more rounds to fill the
			// device: writing less is precisely its advantage.
			rounds := 250
			if mode == pager.Off {
				rounds = 900
			}
			for round := 0; round < rounds; round++ {
				mustExec(t, db, `BEGIN`)
				for j := 0; j < 20; j++ {
					mustExec(t, db, `UPDATE t SET v = v + 1 WHERE id = ?`, rng.Intn(rows)+1)
				}
				mustExec(t, db, `COMMIT`)
			}
			if dev.FlashStats().GCRuns.Load() == 0 {
				t.Error("GC never ran despite sustained churn on a small device")
			}
			row, _, err := db.QueryRow(`SELECT COUNT(*), SUM(v) FROM t`)
			if err != nil {
				t.Fatal(err)
			}
			if row[0].Int() != rows {
				t.Errorf("row count = %d, want %d", row[0].Int(), rows)
			}
			if row[1].Int() != int64(rounds*20) {
				t.Errorf("update sum = %d, want %d", row[1].Int(), rounds*20)
			}
		})
	}
}

// TestCommitAtomicMultiFile reproduces §4.3: a transaction spanning two
// database files commits atomically under one device transaction id —
// including across a power cut placed right before the commit.
func TestCommitAtomicMultiFile(t *testing.T) {
	e := newEnv(t, pager.Off)
	open2 := func() (*DB, *DB) {
		a, err := Open(e.fs, "a.db", Config{Mode: pager.Off})
		if err != nil {
			t.Fatal(err)
		}
		b, err := Open(e.fs, "b.db", Config{Mode: pager.Off})
		if err != nil {
			t.Fatal(err)
		}
		return a, b
	}
	a, b := open2()
	mustExec(t, a, `CREATE TABLE ta (id INTEGER PRIMARY KEY, v INTEGER)`)
	mustExec(t, b, `CREATE TABLE tb (id INTEGER PRIMARY KEY, v INTEGER)`)
	mustExec(t, a, `INSERT INTO ta VALUES (1, 10)`)
	mustExec(t, b, `INSERT INTO tb VALUES (1, 10)`)

	// Committed group: both sides move together.
	mustExec(t, a, `BEGIN`)
	mustExec(t, b, `BEGIN`)
	mustExec(t, a, `UPDATE ta SET v = 20 WHERE id = 1`)
	mustExec(t, b, `UPDATE tb SET v = 20 WHERE id = 1`)
	if err := CommitAtomic(a, b); err != nil {
		t.Fatalf("CommitAtomic: %v", err)
	}
	ra, _, _ := a.QueryRow(`SELECT v FROM ta WHERE id = 1`)
	rb, _, _ := b.QueryRow(`SELECT v FROM tb WHERE id = 1`)
	if ra[0].Int() != 20 || rb[0].Int() != 20 {
		t.Fatalf("group commit lost updates: %v / %v", ra, rb)
	}

	// Uncommitted group interrupted by power cut: neither side moves.
	mustExec(t, a, `BEGIN`)
	mustExec(t, b, `BEGIN`)
	mustExec(t, a, `UPDATE ta SET v = 99 WHERE id = 1`)
	mustExec(t, b, `UPDATE tb SET v = 99 WHERE id = 1`)
	// Stage everything to the device under one tid, but crash before
	// the committing fsync.
	if err := stageGroup([]*DB{a, b}); err != nil {
		t.Fatal(err)
	}
	if tid := a.pg.File().TxID(); tid == 0 || b.pg.File().TxID() != tid {
		t.Fatalf("staged under tids %d / %d, want one shared tid", tid, b.pg.File().TxID())
	}
	e.fs.PowerCut()
	if err := e.fs.Remount(); err != nil {
		t.Fatal(err)
	}
	a2, b2 := open2()
	defer a2.Close()
	defer b2.Close()
	ra, _, _ = a2.QueryRow(`SELECT v FROM ta WHERE id = 1`)
	rb, _, _ = b2.QueryRow(`SELECT v FROM tb WHERE id = 1`)
	if ra[0].Int() != 20 || rb[0].Int() != 20 {
		t.Errorf("crash mid-group: want both 20, got %v / %v", ra[0].Int(), rb[0].Int())
	}
}

// twoFiles opens a.db and b.db on one X-FTL file system, each holding the
// row (1, 10).
func twoFiles(t *testing.T) (e *env, a, b *DB) {
	t.Helper()
	e = newEnv(t, pager.Off)
	for i, name := range []string{"a.db", "b.db"} {
		db, err := Open(e.fs, name, Config{Mode: pager.Off})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = db.Close() })
		mustExec(t, db, `CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)`)
		mustExec(t, db, `INSERT INTO t VALUES (1, 10)`)
		if i == 0 {
			a = db
		} else {
			b = db
		}
	}
	return e, a, b
}

// wantV requires every connection to read v for row 1.
func wantV(t *testing.T, when string, v int64, dbs ...*DB) {
	t.Helper()
	for _, db := range dbs {
		row, ok, err := db.QueryRow(`SELECT v FROM t WHERE id = 1`)
		if err != nil || !ok {
			t.Fatalf("%s: %s: read back: ok=%v err=%v", when, db.name, ok, err)
		}
		if got := row[0].Int(); got != v {
			t.Errorf("%s: %s reads %d, want %d", when, db.name, got, v)
		}
	}
}

// fillXL2P fills the device's X-L2P table under a foreign tid, so that
// the next transactional write fails with core.ErrTableFull — a commit
// refused without a power cut. The returned function aborts the tid.
func fillXL2P(t *testing.T, fsys *simfs.FS) (free func()) {
	t.Helper()
	dev := fsys.Device()
	x, page := dev.XFTL(), make([]byte, fsys.PageSize())
	const foreign = 1 << 40
	var err error
	dev.Queue().Exclusive(func() {
		for lpn := ftl.LPN(dev.LogicalPages() - 1); err == nil; lpn-- {
			err = x.WriteTx(foreign, lpn, page)
		}
	})
	if !errors.Is(err, core.ErrTableFull) {
		t.Fatal(err)
	}
	return func() {
		t.Helper()
		dev.Queue().Exclusive(func() { err = x.Abort(foreign) })
		if err != nil {
			t.Fatal(err)
		}
	}
}

// A multi-file commit the device refuses leaves no trace on the
// connections that tried it: both are out of their transactions, read
// what was committed before, and commit again — more than once, so a
// follower does not keep the tid its lead has finished.
func TestFailedCommitAtomicRewinds(t *testing.T) {
	e, a, b := twoFiles(t)
	mustExec(t, a, `BEGIN`)
	mustExec(t, b, `BEGIN`)
	mustExec(t, a, `UPDATE t SET v = 99 WHERE id = 1`)
	mustExec(t, b, `UPDATE t SET v = 99 WHERE id = 1`)
	free := fillXL2P(t, e.fs)
	if err := CommitAtomic(a, b); !errors.Is(err, core.ErrTableFull) {
		t.Fatalf("CommitAtomic on a full X-L2P table: %v, want ErrTableFull", err)
	}
	free()
	if a.InTx() || b.InTx() || a.pg.InTx() || b.pg.InTx() {
		t.Fatalf("after the failed commit: in transaction a=%v b=%v", a.InTx(), b.InTx())
	}
	wantV(t, "after the failed commit", 10, a, b)
	for want := int64(11); want <= 12; want++ {
		mustExec(t, a, `BEGIN`)
		mustExec(t, b, `BEGIN`)
		mustExec(t, a, `UPDATE t SET v = v + 1 WHERE id = 1`)
		mustExec(t, b, `UPDATE t SET v = v + 1 WHERE id = 1`)
		if err := CommitAtomic(a, b); err != nil {
			t.Fatalf("retry: %v", err)
		}
		wantV(t, "after the retry", want, a, b)
	}
}

// A coordinator's abort after a successful prepare rewinds the very
// connections that prepared: what they cached of the aborted transaction
// — rows, and a table it created — is gone, not just what is on flash.
func TestPreparedAbortRewindsTheConnection(t *testing.T) {
	t.Run("rows", func(t *testing.T) {
		e, a, b := twoFiles(t)
		mustExec(t, a, `BEGIN`)
		mustExec(t, b, `BEGIN`)
		mustExec(t, a, `UPDATE t SET v = 99 WHERE id = 1`)
		mustExec(t, b, `UPDATE t SET v = 99 WHERE id = 1`)
		if _, err := PrepareAtomic(a, b); err != nil {
			t.Fatal(err)
		}
		if err := FinishPrepared(false, a, b); err != nil {
			t.Fatal(err)
		}
		if a.InTx() || b.InTx() {
			t.Fatalf("after the abort: in transaction a=%v b=%v", a.InTx(), b.InTx())
		}
		wantV(t, "after the abort", 10, a, b)
		mustExec(t, a, `UPDATE t SET v = v + 1 WHERE id = 1`)
		mustExec(t, b, `UPDATE t SET v = v + 1 WHERE id = 1`)
		wantV(t, "after the next update", 11, a, b)
		e.fs.PowerCut()
		if err := e.fs.Remount(); err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"a.db", "b.db"} {
			db, err := Open(e.fs, name, Config{Mode: pager.Off})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			wantV(t, "after power cut and remount", 11, db)
		}
	})
	t.Run("ddl", func(t *testing.T) {
		_, a, b := twoFiles(t)
		mustExec(t, a, `BEGIN`)
		mustExec(t, b, `BEGIN`)
		mustExec(t, a, `CREATE TABLE made (id INTEGER PRIMARY KEY)`)
		mustExec(t, a, `INSERT INTO made VALUES (1)`)
		mustExec(t, b, `UPDATE t SET v = 99 WHERE id = 1`)
		if _, err := PrepareAtomic(a, b); err != nil {
			t.Fatal(err)
		}
		if err := FinishPrepared(false, a, b); err != nil {
			t.Fatal(err)
		}
		if rows, err := a.Query(`SELECT id FROM made`); !errors.Is(err, ErrNoSuchTable) {
			t.Fatalf("table created by the aborted transaction: %v rows, err %v, want ErrNoSuchTable", rows, err)
		}
		wantV(t, "after the abort", 10, a, b)
	})
}

// TestCommitAtomicValidation checks the API misuse guards.
func TestCommitAtomicValidation(t *testing.T) {
	e := newEnv(t, pager.Off)
	a, _ := Open(e.fs, "a.db", Config{Mode: pager.Off})
	defer a.Close()
	if err := CommitAtomic(); err != nil {
		t.Errorf("empty group: %v", err)
	}
	b, _ := Open(e.fs, "b.db", Config{Mode: pager.Off})
	defer b.Close()
	if err := CommitAtomic(a, b); err == nil {
		t.Error("group commit without open transactions accepted")
	}
	// Mixed journal modes rejected.
	e2 := newEnv(t, pager.WAL)
	c, _ := Open(e2.fs, "c.db", Config{Mode: pager.WAL})
	defer c.Close()
	mustExec(t, c, `CREATE TABLE t (id INTEGER PRIMARY KEY)`)
	_ = c.Begin()
	_ = a.Begin()
	if err := CommitAtomic(a, c); err == nil {
		t.Error("cross-mode group commit accepted")
	}
	_ = a.Rollback()
	_ = c.Rollback()
}
