package bench

import (
	"fmt"
	"time"

	"repro/internal/metrics"
	"repro/internal/workload/synth"
)

// SynthRun is one (mode, validity, updates-per-txn) cell of the
// synthetic-workload grid behind Figure 5, Table 1 and Figure 6.
type SynthRun struct {
	Mode             Mode
	TargetValidity   float64
	MeasuredValidity float64
	UpdatesPerTxn    int
	Transactions     int
	Elapsed          time.Duration // simulated time for the transaction phase
	Host             metrics.HostSnapshot
	Flash            metrics.FlashSnapshot
}

// RunSynth executes the paper's synthetic workload (§6.3.1) in one
// configuration and captures both counter families over the
// measurement window (load and aging excluded, as in the paper).
func RunSynth(mode Mode, validity float64, updates, txns int, opts Options) (SynthRun, error) {
	res := SynthRun{Mode: mode, TargetValidity: validity, UpdatesPerTxn: updates, Transactions: txns}
	st, err := stackForValidity(mode, validity, opts)
	if err != nil {
		return res, err
	}
	cfg := synth.DefaultConfig()
	cfg.Seed = opts.seedOr(cfg.Seed)
	cfg.UpdatesPerTxn = updates
	cfg.Transactions = txns
	if opts.Quick {
		cfg.Tuples = 3000
	}
	// Fill all non-reserved logical space and churn to GC steady state.
	if _, err := AgeDevice(st, 1.0, opts.seedOr(42)); err != nil {
		return res, fmt.Errorf("aging: %w", err)
	}
	db, err := st.OpenDB("synth.db")
	if err != nil {
		return res, err
	}
	defer db.Close()
	if err := synth.Load(db, cfg); err != nil {
		return res, fmt.Errorf("load: %w", err)
	}
	// Measurement window starts here; with -trace it is one tracer
	// generation, so aging and load stay out of the trace.
	st.AttachTracer(opts.Trace, fmt.Sprintf("%s v=%.0f%% u=%d", mode, validity*100, updates))
	st.Host.Reset()
	st.FlashStats().Reset()
	st.Device.FTL().ResetGCStats()
	start := st.Clock.Now()
	if _, err := synth.Run(db, cfg); err != nil {
		return res, fmt.Errorf("run: %w", err)
	}
	res.Elapsed = st.Clock.Now() - start
	res.Host = st.Host.Snapshot()
	res.Flash = st.FlashStats().Snapshot()
	res.MeasuredValidity = MeasuredValidity(st)
	return res, nil
}

// Fig5 regenerates Figure 5: elapsed time of 1,000 synthetic
// transactions as updates-per-transaction sweeps {1,5,10,15,20} under
// three GC validity ratios, for RBJ, WAL and X-FTL.
type Fig5 struct {
	Validities []float64
	Updates    []int
	// Cells[v][u][mode] is the run for Validities[v], Updates[u].
	Cells map[float64]map[int]map[Mode]SynthRun
}

// RunFig5 executes the full grid.
func RunFig5(opts Options) (*Fig5, error) {
	f := &Fig5{
		Validities: []float64{0.3, 0.5, 0.7},
		Updates:    []int{1, 5, 10, 15, 20},
		Cells:      make(map[float64]map[int]map[Mode]SynthRun),
	}
	txns := 1000
	if opts.Quick {
		f.Validities = []float64{0.5}
		f.Updates = []int{1, 5, 20}
		txns = 60
	}
	for _, v := range f.Validities {
		f.Cells[v] = make(map[int]map[Mode]SynthRun)
		for _, u := range f.Updates {
			f.Cells[v][u] = make(map[Mode]SynthRun)
			for _, mode := range AllModes() {
				opts.progress("fig5: validity %.0f%% updates %d mode %s", v*100, u, mode)
				run, err := RunSynth(mode, v, u, txns, opts)
				if err != nil {
					return nil, fmt.Errorf("fig5 %v/%d/%s: %w", v, u, mode, err)
				}
				f.Cells[v][u][mode] = run
			}
		}
	}
	return f, nil
}

// Tables renders one sub-table per validity ratio, as in Figure 5(a-c).
func (f *Fig5) Tables() []*Table {
	var out []*Table
	for _, v := range f.Validities {
		t := &Table{
			Title:  fmt.Sprintf("Figure 5: SQLite elapsed time (sec), GC validity %.0f%%", v*100),
			Header: []string{"updates/txn", "RBJ", "WAL", "X-FTL", "WAL/X-FTL", "RBJ/X-FTL"},
		}
		for _, u := range f.Updates {
			rbj := f.Cells[v][u][RBJ].Elapsed
			wal := f.Cells[v][u][WAL].Elapsed
			xf := f.Cells[v][u][XFTL].Elapsed
			t.AddRow(
				fmt.Sprintf("%d", u),
				fmt.Sprintf("%.1f", rbj.Seconds()),
				fmt.Sprintf("%.1f", wal.Seconds()),
				fmt.Sprintf("%.1f", xf.Seconds()),
				ratioStr(wal, xf),
				ratioStr(rbj, xf),
			)
		}
		mv := f.Cells[v][f.Updates[0]][XFTL].MeasuredValidity
		t.Notes = append(t.Notes, fmt.Sprintf("measured GC validity (X-FTL run, first point): %.0f%%", mv*100))
		t.Notes = append(t.Notes, paperNoteLines(t.Title)...)
		out = append(out, t)
	}
	return out
}

func ratioStr(a, b time.Duration) string {
	if b == 0 {
		return "-"
	}
	return fmt.Sprintf("%.1fx", float64(a)/float64(b))
}

// Table1 regenerates Table 1: host-side and FTL-side I/O counts for
// 1,000 transactions at 5 updates/txn and ~50% GC validity.
type Table1 struct {
	Runs map[Mode]SynthRun
}

// RunTable1 executes the three configurations at the Table 1 point.
func RunTable1(opts Options) (*Table1, error) {
	txns, updates := 1000, 5
	if opts.Quick {
		txns = 60
	}
	t1 := &Table1{Runs: make(map[Mode]SynthRun)}
	for _, mode := range AllModes() {
		opts.progress("table1: mode %s", mode)
		run, err := RunSynth(mode, 0.5, updates, txns, opts)
		if err != nil {
			return nil, fmt.Errorf("table1 %s: %w", mode, err)
		}
		t1.Runs[mode] = run
	}
	return t1, nil
}

// Table renders the Table 1 layout.
func (t1 *Table1) Table() *Table {
	t := &Table{
		Title: "Table 1: I/O counts (updates/txn = 5, GC validity ~50%)",
		Header: []string{"Mode", "DB", "Journal", "FSmeta", "TotalW", "fsyncs",
			"FTL-Write", "FTL-Read", "GC", "Erase"},
	}
	for _, mode := range AllModes() {
		r := t1.Runs[mode]
		h, fl := r.Host, r.Flash
		t.AddRow(mode.String(),
			fmt.Sprintf("%d", h.DBWrites),
			fmt.Sprintf("%d", h.JournalWrites),
			fmt.Sprintf("%d", h.FSMetaWrites),
			fmt.Sprintf("%d", h.TotalWrites()),
			fmt.Sprintf("%d", h.Fsyncs),
			fmt.Sprintf("%d", fl.PageWrites),
			fmt.Sprintf("%d", fl.PageReads),
			fmt.Sprintf("%d", fl.GCRuns),
			fmt.Sprintf("%d", fl.BlockErases),
		)
	}
	t.Notes = paperNoteLines(t.Title)
	return t
}

// Fig6 regenerates Figure 6: FTL-internal page-write and GC counts per
// validity ratio at 5 updates/txn.
type Fig6 struct {
	Validities []float64
	Cells      map[float64]map[Mode]SynthRun
}

// RunFig6 executes the grid (the Figure 5 midline re-used with counter
// capture).
func RunFig6(opts Options) (*Fig6, error) {
	f := &Fig6{
		Validities: []float64{0.3, 0.5, 0.7},
		Cells:      make(map[float64]map[Mode]SynthRun),
	}
	txns := 1000
	if opts.Quick {
		f.Validities = []float64{0.3, 0.7}
		txns = 60
	}
	for _, v := range f.Validities {
		f.Cells[v] = make(map[Mode]SynthRun)
		for _, mode := range AllModes() {
			opts.progress("fig6: validity %.0f%% mode %s", v*100, mode)
			run, err := RunSynth(mode, v, 5, txns, opts)
			if err != nil {
				return nil, fmt.Errorf("fig6 %v/%s: %w", v, mode, err)
			}
			f.Cells[v][mode] = run
		}
	}
	return f, nil
}

// Tables renders Figure 6(a) (write counts) and 6(b) (GC counts).
func (f *Fig6) Tables() []*Table {
	wt := &Table{
		Title:  "Figure 6(a): flash page-write count inside the device (5 updates/txn)",
		Header: []string{"GC validity", "RBJ", "WAL", "X-FTL"},
	}
	gt := &Table{
		Title:  "Figure 6(b): garbage collection count (5 updates/txn)",
		Header: []string{"GC validity", "RBJ", "WAL", "X-FTL"},
	}
	for _, v := range f.Validities {
		wt.AddRow(fmt.Sprintf("%.0f%%", v*100),
			fmt.Sprintf("%d", f.Cells[v][RBJ].Flash.PageWrites),
			fmt.Sprintf("%d", f.Cells[v][WAL].Flash.PageWrites),
			fmt.Sprintf("%d", f.Cells[v][XFTL].Flash.PageWrites))
		gt.AddRow(fmt.Sprintf("%.0f%%", v*100),
			fmt.Sprintf("%d", f.Cells[v][RBJ].Flash.GCRuns),
			fmt.Sprintf("%d", f.Cells[v][WAL].Flash.GCRuns),
			fmt.Sprintf("%d", f.Cells[v][XFTL].Flash.GCRuns))
	}
	wt.Notes = paperNoteLines(wt.Title)
	return []*Table{wt, gt}
}
