package bench

import (
	"fmt"
	"time"

	"repro"
	"repro/internal/workload/android"
)

// TraceRun is one (trace, mode) replay measurement.
type TraceRun struct {
	Trace   string
	Mode    Mode
	Txns    int
	Elapsed time.Duration
	// UpdatedPagesPerTxn is the measured average number of database
	// pages written per transaction (Table 2's last data row).
	UpdatedPagesPerTxn float64
}

// ReplayTrace runs one Android trace in one mode. Scale shrinks the
// Table 2 statement census proportionally.
func ReplayTrace(name string, mode Mode, scale float64, opts Options) (TraceRun, error) {
	res := TraceRun{Trace: name, Mode: mode}
	tr, err := android.Generate(name, scale, 2013)
	if err != nil {
		return res, err
	}
	st, err := newStack(mode, opts, 0)
	if err != nil {
		return res, err
	}
	// One database per trace file, as the applications do.
	dbs := make([]*xftl.DB, tr.Counts.Files)
	for i := range dbs {
		db, err := st.OpenDB(fmt.Sprintf("trace-%d.db", i))
		if err != nil {
			return res, err
		}
		dbs[i] = db
		defer db.Close()
	}
	for _, op := range tr.Schema {
		if _, err := dbs[op.DB].Exec(op.SQL, op.Args...); err != nil {
			return res, fmt.Errorf("schema %q: %w", op.SQL, err)
		}
	}
	st.Host.Reset()
	start := st.Clock.Now()
	writeTxns := 0
	for _, txn := range tr.Txns {
		db := dbs[txn.DB]
		if len(txn.Ops) > 1 {
			if err := db.Begin(); err != nil {
				return res, err
			}
		}
		for _, op := range txn.Ops {
			if _, err := db.Exec(op.SQL, op.Args...); err != nil {
				return res, fmt.Errorf("replay %q: %w", op.SQL, err)
			}
		}
		if len(txn.Ops) > 1 {
			if err := db.Commit(); err != nil {
				return res, err
			}
		}
		res.Txns++
		if isWriteOp(txn.Ops[0].SQL) {
			writeTxns++
		}
	}
	res.Elapsed = st.Clock.Now() - start
	if writeTxns > 0 {
		h := st.Host.Snapshot()
		res.UpdatedPagesPerTxn = float64(h.DBWrites+h.JournalWrites) / float64(writeTxns)
		if mode == WAL {
			// WAL writes each page to the log and later the database;
			// count distinct page updates like the paper does.
			res.UpdatedPagesPerTxn = float64(h.JournalWrites) / float64(writeTxns)
		}
	}
	return res, nil
}

func isWriteOp(sql string) bool {
	switch {
	case len(sql) >= 6 && (sql[:6] == "INSERT" || sql[:6] == "UPDATE" || sql[:6] == "DELETE"):
		return true
	default:
		return false
	}
}

// Fig7 regenerates Figure 7: smartphone workload elapsed time for WAL
// and X-FTL (the paper omits RBJ there for clarity; it is included as
// an extra column since it costs little to produce).
type Fig7 struct {
	Scale float64
	Runs  map[string]map[Mode]TraceRun
}

// RunFig7 replays all four traces in all modes.
func RunFig7(opts Options) (*Fig7, error) {
	scale := 1.0
	if opts.Quick {
		scale = 0.05
	}
	f := &Fig7{Scale: scale, Runs: make(map[string]map[Mode]TraceRun)}
	for _, name := range android.Names() {
		f.Runs[name] = make(map[Mode]TraceRun)
		for _, mode := range []Mode{RBJ, WAL, XFTL} {
			opts.progress("fig7: %s %s", name, mode)
			run, err := ReplayTrace(name, mode, scale, opts)
			if err != nil {
				return nil, fmt.Errorf("fig7 %s/%s: %w", name, mode, err)
			}
			f.Runs[name][mode] = run
		}
	}
	return f, nil
}

// Table renders the Figure 7 bars as a table.
func (f *Fig7) Table() *Table {
	t := &Table{
		Title:  fmt.Sprintf("Figure 7: smartphone workload elapsed time (sec), scale %.2f", f.Scale),
		Header: []string{"Trace", "RBJ", "WAL", "X-FTL", "WAL/X-FTL"},
	}
	for _, name := range android.Names() {
		runs := f.Runs[name]
		t.AddRow(name,
			fmt.Sprintf("%.1f", runs[RBJ].Elapsed.Seconds()),
			fmt.Sprintf("%.1f", runs[WAL].Elapsed.Seconds()),
			fmt.Sprintf("%.1f", runs[XFTL].Elapsed.Seconds()),
			ratioStr(runs[WAL].Elapsed, runs[XFTL].Elapsed))
	}
	t.Notes = paperNoteLines(t.Title)
	return t
}

// Table2 renders the trace censuses next to the measured
// updated-pages-per-transaction from an X-FTL replay.
func Table2(f *Fig7) *Table {
	t := &Table{
		Title:  "Table 2: Android smartphone trace characteristics",
		Header: []string{"Metric", "RLBenchmark", "Gmail", "Facebook", "WebBrowser"},
	}
	get := func(fn func(android.Counts) string) []string {
		row := make([]string, 0, 4)
		for _, n := range android.Names() {
			c, _ := android.CountsFor(n)
			row = append(row, fn(c))
		}
		return row
	}
	addRow := func(metric string, vals []string) {
		t.AddRow(append([]string{metric}, vals...)...)
	}
	addRow("# database files", get(func(c android.Counts) string { return fmt.Sprint(c.Files) }))
	addRow("# tables", get(func(c android.Counts) string { return fmt.Sprint(c.Tables) }))
	addRow("# select queries", get(func(c android.Counts) string { return fmt.Sprint(c.Selects) }))
	addRow("# join queries", get(func(c android.Counts) string { return fmt.Sprint(c.Joins) }))
	addRow("# insert queries", get(func(c android.Counts) string { return fmt.Sprint(c.Inserts) }))
	addRow("# update queries", get(func(c android.Counts) string { return fmt.Sprint(c.Updates) }))
	addRow("# delete queries", get(func(c android.Counts) string { return fmt.Sprint(c.Deletes) }))
	addRow("# DDL/commands", get(func(c android.Counts) string { return fmt.Sprint(c.DDL) }))
	addRow("paper avg updated pages/txn", get(func(c android.Counts) string {
		return fmt.Sprintf("%.2f", c.AvgUpdatedPages)
	}))
	if f != nil {
		row := []string{"measured avg updated pages/txn"}
		for _, n := range android.Names() {
			row = append(row, fmt.Sprintf("%.2f", f.Runs[n][XFTL].UpdatedPagesPerTxn))
		}
		t.AddRow(row...)
	}
	return t
}
