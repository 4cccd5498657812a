package torture

import (
	"cmp"
	"fmt"
	"math/rand"
	"strings"
	"time"

	xftl "repro"
	"repro/internal/nand"
	"repro/internal/sqlite"
	"repro/internal/sqlite/btree"
	"repro/internal/storage"
)

// sqlRun generates the full-stack schedule: the synth-style workload
// (sqlUpdates supplycost updates per transaction on a sqlTuples-row
// partsupp table) through SQLite, the file system and the device in one
// journal mode. Keys are part keys, a version is the supplycost (no two
// transactions write the same one), and observe is a table scan after the
// database reopened and ran its own recovery, with the table's B-tree
// checked (checkTree). Rollback mode runs the model under the
// rollback-journal contract (model.rbj).
//
// About one transaction in sqlRollbackEvery ends in a live ROLLBACK
// instead and is judged at once, power still on. The first of a run
// updates every row: wider than the cache, it steals its own pages out.
// What such a transaction wrote is observed by point reads — served from
// whatever the rollback left in the 8-page cache, the only place a page
// it wrote could survive. A scan cannot stand in: walking a table wider
// than an LRU cache re-reads every page from storage, stale copy or not.
type sqlRun struct {
	mode xftl.Mode
	// cut arms a power cut 1..cut NAND operations ahead, re-arming after
	// every recovery; 0 = no cuts. Half the cuts are aimed into a commit
	// window instead: armed at the entry of one of the next few Commits,
	// 1..n operations ahead where n is what the previous commit cost. Cuts
	// at random almost never land there, and it is the only place a valid
	// hot journal, an unapplied WAL tail or a half-done X-L2P commit exists.
	cut   int64
	scale float64 // multiplies the default fault-model rates; 0 = ideal flash
	corruption
}

const (
	sqlTuples        = 400
	sqlPad           = 28 // comment bytes: the packed table spans 15 pages, wider than the cache
	sqlTxns          = 40
	sqlUpdates       = 4
	sqlRollbackEvery = 5
)

// sqlProfile is a mid-size geometry: room for the simfs metadata and
// journal regions plus a few thousand database pages, yet fast to crash.
func sqlProfile() storage.Profile {
	return storage.Profile{
		Name: "torture-sql",
		Nand: nand.Config{
			Blocks:        256,
			PagesPerBlock: 64,
			PageSize:      2048,
			ReadLatency:   60 * time.Microsecond,
			ProgLatency:   400 * time.Microsecond,
			EraseLatency:  2 * time.Millisecond,
			Channels:      4,
			Ways:          1,
		},
		CmdOverhead:     30 * time.Microsecond,
		TransferPerPage: 8 * time.Microsecond,
		BarrierOverhead: 200 * time.Microsecond,
		Channels:        2,
	}
}

func (s sqlRun) run(seed int64) (*Report, error) {
	var fault *nand.FaultModel
	if s.scale > 0 {
		fault = nand.DefaultFaultModel(seed).Scale(s.scale)
	}
	st, err := xftl.NewStackDevice(sqlProfile(), s.mode, storage.Options{Fault: fault}, xftl.StackOptions{CacheSize: 8})
	if err != nil {
		return nil, err
	}
	rep := &Report{}
	m := newModel(s.mode == xftl.ModeRollback)
	dev := st.Device
	var db *sqlite.DB
	// open (re)opens the database — running the journal mode's own
	// recovery — and counts the path that took.
	open := func() error {
		if db, err = st.OpenDB("torture.db"); err != nil {
			return err
		}
		rep.JournalPlaybacks += db.Pager().JournalPlaybacks
		replays, _ := db.Pager().WALStats()
		rep.WALReplays += replays
		return nil
	}
	// obs observes the table: the keys in first by point reads, in that
	// order, then every other row by one scan, then the tree's shape.
	obs := func(first []int) (observe, error) {
		got := make(map[int64]int64, sqlTuples)
		for _, k := range first {
			row, ok, err := db.QueryRow(`SELECT ps_supplycost FROM partsupp WHERE ps_partkey = ?`, k)
			if err != nil {
				return nil, err
			}
			if got[int64(k)] = noVersion; ok {
				got[int64(k)] = int64(row[0].Real())
			}
		}
		rows, err := db.Query(`SELECT ps_partkey, ps_supplycost FROM partsupp`)
		if err != nil {
			return nil, err
		}
		for _, r := range rows.Data {
			if _, seen := got[r[0].Int()]; !seen {
				got[r[0].Int()] = int64(r[1].Real())
			}
		}
		return lookup(got), checkTree(db)
	}
	if err := open(); err != nil {
		return nil, err
	}
	if err := loadPartsupp(db, m); err != nil {
		return rep, fmt.Errorf("load: %w", err)
	}

	var (
		rng       = rand.New(rand.NewSource(seed * 7919))
		ends      = rand.New(rand.NewSource(seed)) // which transactions roll back
		txn       = 0
		commitOps = int64(0) // NAND operations the last completed commit cost
		window    = 0        // the transaction whose Commit the next cut is aimed into; 0 = armed at random
		wide      = true     // the next live rollback is the wide one
	)
	arm := func() {
		switch {
		case s.cut == 0:
		case rng.Intn(2) == 0:
			window = txn + 1 + rng.Intn(3)
		default:
			window = 0
			dev.PowerCutAfter(1 + rng.Int63n(s.cut))
		}
	}
	// recoverCrash is the schedule's answer to any error: crash step,
	// reopen, and the model judges the scan.
	recoverCrash := func(cause error, indoubt uint64) error {
		if err := crash(cause, fsRig{dev, st.FS}, s.corruption); err != nil {
			return err
		}
		rep.Crashes++
		if indoubt != 0 {
			rep.InDoubt++
		}
		if err := open(); err != nil {
			return fmt.Errorf("reopen: %w", err)
		}
		o, err := obs(nil)
		if err != nil {
			return fmt.Errorf("post-recovery scan: %w", err)
		}
		outcome, err := m.recover(indoubt, o)
		if outcome == "revoked" {
			rep.Revoked++
		}
		arm()
		return err
	}
	// crashed recovers from an error met in stage, tid indoubt (0: none).
	crashed := func(stage string, cause error, indoubt uint64) error {
		if err := recoverCrash(cause, indoubt); err != nil {
			return fmt.Errorf("%s: %w", stage, err)
		}
		return nil
	}

	// transact runs transaction txn to its end: Commit, or with rollback
	// set a live ROLLBACK judged at once. What it returns is a violation;
	// an error from the stack is a crash to recover from.
	transact := func(tid uint64, rollback bool) error {
		if err := db.Begin(); err != nil {
			return crashed("begin", err, 0)
		}
		var keys []int
		if rollback && wide {
			// One statement moves every row to one version; reading the
			// stolen pages back is the only way a clean copy of an
			// uncommitted page gets into the cache.
			version := txn*1000 + sqlUpdates
			for k := sqlTuples; k >= 1; k-- { // the table's end first: what a scan leaves cached
				keys = append(keys, k)
				m.write(tid, int64(k), int64(version))
			}
			if _, err := db.Exec(`UPDATE partsupp SET ps_supplycost = ?`, float64(version)); err != nil {
				return crashed("update", err, 0)
			}
			if _, err := db.Query(`SELECT SUM(ps_supplycost) FROM partsupp`); err != nil {
				return crashed("read back", err, 0)
			}
		}
		for i, k := range rng.Perm(sqlTuples)[:sqlUpdates] {
			version := int64(txn*1000 + i)
			keys = append(keys, k+1)
			m.write(tid, int64(k+1), version)
			if _, err := db.Exec(`UPDATE partsupp SET ps_supplycost = ? WHERE ps_partkey = ?`, float64(version), k+1); err != nil {
				return crashed("update", err, 0)
			}
		}
		if rollback {
			if err := db.Rollback(); err != nil {
				return crashed("rollback", err, 0)
			}
			m.abort(tid)
			o, err := obs(keys)
			if err != nil {
				return crashed("read after rollback", err, 0)
			}
			wide = false
			rep.Aborted++
			if err := m.verify(o); err != nil {
				return fmt.Errorf("rolled back live: %w", err)
			}
			return nil
		}
		if txn == window {
			// Before any commit has completed, any distance is as good.
			dev.PowerCutAfter(1 + rng.Int63n(cmp.Or(commitOps, s.cut)))
		}
		before := dev.NANDOps()
		if err := db.Commit(); err != nil {
			return crashed("commit", err, tid)
		}
		commitOps = dev.NANDOps() - before
		m.commit(tid)
		rep.Committed++
		return nil
	}

	arm()
	for txn = 1; txn <= sqlTxns; txn++ {
		rep.Transactions++
		if err := transact(uint64(txn), txn != window && ends.Intn(sqlRollbackEvery) == 0); err != nil {
			return rep, fmt.Errorf("txn %d %w", txn, err)
		}
	}
	dev.PowerCutAfter(0)
	if err := rewriteLongRow(db, m); err != nil {
		return rep, fmt.Errorf("long row: %w", err)
	}
	if err := widenRows(db, m); err != nil {
		return rep, fmt.Errorf("widen rows: %w", err)
	}
	o, err := obs(nil)
	if err != nil {
		return rep, fmt.Errorf("final scan: %w", err)
	}
	if err := m.verify(o); err != nil {
		return rep, err
	}
	return rep, rep.finish(dev)
}

// loadPartsupp creates partsupp, fills it with deterministic
// supplycosts and seeds the model with them.
func loadPartsupp(db *sqlite.DB, m *model) error {
	if _, err := db.Exec(`CREATE TABLE partsupp (ps_partkey INTEGER PRIMARY KEY, ps_supplycost REAL, ps_comment TEXT)`); err != nil {
		return err
	}
	if err := db.Begin(); err != nil {
		return err
	}
	for k := 1; k <= sqlTuples; k++ {
		if _, err := db.Exec(`INSERT INTO partsupp VALUES (?, ?, ?)`, k, float64(k), fmt.Sprintf("torture-%d-%s", k, strings.Repeat("c", sqlPad))); err != nil {
			_ = db.Rollback()
			return err
		}
		m.load(int64(k), int64(k))
	}
	return db.Commit()
}

// rewriteLongRow gives one row an overflow chain longer than the 8-page
// cache and commits, then rewrites the row and commits again, power on.
// The rewrite frees the old chain page by page while the row's leaf path
// is pinned: the chain's pages become the most recently unpinned frames,
// so the pinned path turns coldest, and each eviction the walk causes must
// step over it.
func rewriteLongRow(db *sqlite.DB, m *model) error {
	const key = 1
	long := strings.Repeat("x", 12*int(sqlProfile().Nand.PageSize))
	for i, stmt := range []struct {
		sql  string
		args []any
	}{
		{`UPDATE partsupp SET ps_supplycost = ?, ps_comment = ? WHERE ps_partkey = ?`, []any{long, key}},
		{`UPDATE partsupp SET ps_supplycost = ? WHERE ps_partkey = ?`, []any{key}},
	} {
		tid := uint64(sqlTxns + 1 + i)
		version := int64(tid * 1000)
		if err := db.Begin(); err != nil {
			return err
		}
		if _, err := db.Exec(stmt.sql, append([]any{float64(version)}, stmt.args...)...); err != nil {
			return err
		}
		if err := db.Commit(); err != nil {
			return err
		}
		m.write(tid, key, version)
		m.commit(tid)
	}
	return nil
}

// widenRows widens every row in one transaction, power on, the table's end
// first and each row by more than a leaf's slack: every full leaf then
// overflows first past its last cell. Only a leaf that is its parent's
// rightmost child may split by moving that one cell out; any other is cut
// at the middle, which checkTree tells apart.
func widenRows(db *sqlite.DB, m *model) error {
	const tid = sqlTxns + 3 // after rewriteLongRow's two
	if err := db.Begin(); err != nil {
		return err
	}
	version := int64(tid * 1000)
	for k := sqlTuples; k >= 1; k-- {
		comment := fmt.Sprintf("torture-%d-%s", k, strings.Repeat("w", sqlPad+100))
		if _, err := db.Exec(`UPDATE partsupp SET ps_supplycost = ?, ps_comment = ? WHERE ps_partkey = ?`, float64(version), comment, k); err != nil {
			return err
		}
		m.write(tid, int64(k), version)
	}
	if err := db.Commit(); err != nil {
		return err
	}
	m.commit(tid)
	return nil
}

// checkTree walks partsupp's B-tree, which checks its key order, and
// holds it to the split rule: no row is ever deleted, so a leaf holds a
// single cell only where a right-edge split left it, as its parent's
// rightmost child.
func checkTree(db *sqlite.DB) error {
	leaf := 0
	return db.TableLeaves("partsupp", func(l btree.Leaf) error {
		if leaf++; l.Cells == 1 && !l.Rightmost {
			return fmt.Errorf("partsupp leaf %d holds one cell and is not its parent's rightmost child", leaf)
		}
		return nil
	})
}
