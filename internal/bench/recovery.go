package bench

import (
	"fmt"
	"time"

	"repro/internal/workload/synth"
)

// RecoveryRun is one crash-recovery measurement (Table 5).
type RecoveryRun struct {
	Mode Mode
	// DeviceRestart is the firmware recovery time (loading mapping
	// state; for X-FTL this includes loading the X-L2P table and
	// reflecting committed entries, which is the whole recovery).
	DeviceRestart time.Duration
	// DBOpen is the SQLite-level recovery on first open (hot journal
	// playback in RBJ mode, WAL scan + checkpoint in WAL mode).
	DBOpen time.Duration
	// Restart is the paper's reported quantity: the work specific to
	// the mode (X-FTL: device recovery; RBJ/WAL: database recovery).
	Restart time.Duration
}

// RunTable5 reproduces the Table 5 experiment: power off the board in
// the middle of the synthetic workload, then measure the time to
// restart the SQLite database in each mode (§6.4).
func RunTable5(opts Options) (map[Mode]RecoveryRun, error) {
	out := make(map[Mode]RecoveryRun)
	txnsBefore := 120
	if opts.Quick {
		txnsBefore = 30
	}
	for _, mode := range AllModes() {
		opts.progress("table5: mode %s", mode)
		// Small cache so uncommitted pages steal to storage: the crash
		// interrupts a transaction whose journal is hot (RBJ), whose
		// WAL holds committed frames (WAL), or whose X-L2P rows are
		// active (X-FTL). ~10 pages end up needing repair in rollback
		// mode, matching the paper's setup.
		st, err := newStack(mode, opts, 64)
		if err != nil {
			return nil, err
		}
		db, err := st.OpenDB("synth.db")
		if err != nil {
			return nil, err
		}
		cfg := synth.DefaultConfig()
		cfg.Seed = opts.seedOr(cfg.Seed)
		cfg.Tuples = 20000
		cfg.UpdatesPerTxn = 5
		cfg.Transactions = txnsBefore
		if err := synth.Load(db, cfg); err != nil {
			return nil, fmt.Errorf("table5 load: %w", err)
		}
		if _, err := synth.Run(db, cfg); err != nil {
			return nil, fmt.Errorf("table5 run: %w", err)
		}
		// Open a transaction and update ~10 pages, then pull the plug.
		if err := db.Begin(); err != nil {
			return nil, err
		}
		for k := 1; k <= 10; k++ {
			if _, err := db.Exec(
				`UPDATE partsupp SET ps_supplycost = ps_supplycost + 1 WHERE ps_partkey = ?`,
				k*37); err != nil {
				return nil, err
			}
		}
		st.PowerCut()

		t0 := st.Clock.Now()
		if err := st.Remount(); err != nil {
			return nil, fmt.Errorf("table5 remount: %w", err)
		}
		t1 := st.Clock.Now()
		db2, err := st.OpenDB("synth.db")
		if err != nil {
			return nil, fmt.Errorf("table5 reopen: %w", err)
		}
		t2 := st.Clock.Now()
		// Sanity: the interrupted transaction must have vanished.
		row, ok, err := db2.QueryRow(
			`SELECT COUNT(*) FROM partsupp`)
		if err != nil || !ok || row[0].Int() != int64(cfg.Tuples) {
			return nil, fmt.Errorf("table5 %s: post-recovery count %v (%v)", mode, row, err)
		}
		_ = db2.Close()

		run := RecoveryRun{Mode: mode, DeviceRestart: t1 - t0, DBOpen: t2 - t1}
		if mode == XFTL {
			run.Restart = run.DeviceRestart
		} else {
			run.Restart = run.DBOpen
		}
		out[mode] = run
	}
	return out, nil
}

// Table5Table renders Table 5.
func Table5Table(runs map[Mode]RecoveryRun) *Table {
	t := &Table{
		Title:  "Table 5: SQLite restart time after power failure (msec)",
		Header: []string{"Mode", "restart (paper quantity)", "device recovery", "db open"},
	}
	for _, mode := range AllModes() {
		r := runs[mode]
		t.AddRow(mode.String(),
			fmt.Sprintf("%.1f", float64(r.Restart.Microseconds())/1000),
			fmt.Sprintf("%.1f", float64(r.DeviceRestart.Microseconds())/1000),
			fmt.Sprintf("%.1f", float64(r.DBOpen.Microseconds())/1000))
	}
	t.Notes = paperNoteLines(t.Title)
	return t
}
