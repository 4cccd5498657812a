package torture

import (
	"cmp"
	"fmt"
	"math/rand"
	"time"

	xftl "repro"
	"repro/internal/nand"
	"repro/internal/sqlite"
	"repro/internal/storage"
)

// sqlRun generates the full-stack schedule: the synth-style workload
// (sqlUpdates supplycost updates per transaction on a sqlTuples-row
// partsupp table) through SQLite, the file system and the device in one
// journal mode. Keys are part keys, a version is the supplycost (no two
// updates write the same one), and observe is a table scan after the
// database reopened and ran its own recovery. Rollback mode runs the
// model under the rollback-journal contract (model.rbj).
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
	sqlTuples  = 400
	sqlTxns    = 40
	sqlUpdates = 4
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
	st, err := xftl.NewStackOptions(sqlProfile(), s.mode, xftl.StackOptions{Fault: fault})
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
		if db, err = st.OpenDBWithCache("torture.db", 8); err != nil {
			return err
		}
		rep.JournalPlaybacks += db.Pager().JournalPlaybacks
		replays, _ := db.Pager().WALStats()
		rep.WALReplays += replays
		return nil
	}
	obs := func() (observe, error) {
		rows, err := db.Query(`SELECT ps_partkey, ps_supplycost FROM partsupp`)
		if err != nil {
			return nil, err
		}
		got := make(map[int64]int64, rows.Len())
		for _, r := range rows.Data {
			got[r[0].Int()] = int64(r[1].Real())
		}
		return lookup(got), nil
	}
	if err := open(); err != nil {
		return nil, err
	}
	if err := loadPartsupp(db, m); err != nil {
		return rep, fmt.Errorf("load: %w", err)
	}

	var (
		rng       = rand.New(rand.NewSource(seed * 7919))
		txn       = 0
		commitOps = int64(0) // NAND operations the last completed commit cost
		window    = 0        // the transaction whose Commit the next cut is aimed into; 0 = armed at random
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
		o, err := obs()
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

	// transact runs transaction txn up to its commit point; an error comes
	// with the stage it stopped in and, from Commit, the tid in doubt.
	transact := func(tid uint64) (stage string, indoubt uint64, err error) {
		if err := db.Begin(); err != nil {
			return "begin", 0, err
		}
		for i, k := range rng.Perm(sqlTuples)[:sqlUpdates] {
			version := int64(txn*1000 + i)
			m.write(tid, int64(k+1), version)
			if _, err := db.Exec(`UPDATE partsupp SET ps_supplycost = ? WHERE ps_partkey = ?`, float64(version), k+1); err != nil {
				return "update", 0, err
			}
		}
		if txn == window {
			// Before any commit has completed, any distance is as good.
			dev.PowerCutAfter(1 + rng.Int63n(cmp.Or(commitOps, s.cut)))
		}
		before := dev.NANDOps()
		if err := db.Commit(); err != nil {
			return "commit", tid, err
		}
		commitOps = dev.NANDOps() - before
		return "", 0, nil
	}

	arm()
	for txn = 1; txn <= sqlTxns; txn++ {
		rep.Transactions++
		if stage, indoubt, cause := transact(uint64(txn)); cause != nil {
			if err := recoverCrash(cause, indoubt); err != nil {
				return rep, fmt.Errorf("txn %d %s: %w", txn, stage, err)
			}
			continue
		}
		m.commit(uint64(txn))
		rep.Committed++
	}
	dev.PowerCutAfter(0)
	o, err := obs()
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
		if _, err := db.Exec(`INSERT INTO partsupp VALUES (?, ?, ?)`, k, float64(k), fmt.Sprintf("torture-%d", k)); err != nil {
			_ = db.Rollback()
			return err
		}
		m.load(int64(k), int64(k))
	}
	return db.Commit()
}
