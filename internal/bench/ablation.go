package bench

import (
	"fmt"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/storage"
	"repro/internal/workload/synth"
)

// AblationRun is one design-variant measurement over the synthetic
// workload.
type AblationRun struct {
	Name    string
	Mode    Mode
	Elapsed time.Duration
	FlashW  int64
	Txns    int
}

// runVariant executes the synthetic workload on a custom-configured
// stack.
func runVariant(name string, mode Mode, txns int, opts Options,
	mut func(*storage.Options), dbTune func(*xftl.StackOptions)) (AblationRun, error) {
	res := AblationRun{Name: name, Mode: mode, Txns: txns}
	prof := storage.OpenSSD()
	devOpts := opts.device(prof)
	if mut != nil {
		mut(&devOpts)
	}
	stOpts := xftl.StackOptions{}
	if dbTune != nil {
		dbTune(&stOpts)
	}
	st, err := xftl.NewStackDevice(prof, mode, devOpts, stOpts)
	if err != nil {
		return res, err
	}
	db, err := st.OpenDB("ablate.db")
	if err != nil {
		return res, err
	}
	defer db.Close()
	cfg := synth.DefaultConfig()
	cfg.Seed = opts.seedOr(cfg.Seed)
	cfg.Transactions = txns
	if opts.Quick {
		cfg.Tuples = 3000
	}
	if err := synth.Load(db, cfg); err != nil {
		return res, err
	}
	st.FlashStats().Reset()
	start := st.Clock.Now()
	if _, err := synth.Run(db, cfg); err != nil {
		return res, err
	}
	res.Elapsed = st.Clock.Now() - start
	res.FlashW = st.FlashStats().Snapshot().PageWrites
	return res, nil
}

// Ablations runs the design-choice studies DESIGN.md calls out:
//
//   - X-L2P table size: 500 entries (8 KB image) vs 1000 (16 KB).
//   - Commit mapping cost: Table-1 calibrated (20 pages) vs idealized
//     incremental (dirty groups only).
//   - Barrier policy for the baseline firmware: full-map store (the
//     OpenSSD behaviour) vs idealized incremental flush — how much of
//     the journaling modes' cost is the firmware's fault.
//   - WAL checkpoint interval: 250 vs 1000 (paper default) vs 4000.
func Ablations(opts Options) ([]AblationRun, error) {
	txns := 500
	if opts.Quick {
		txns = 60
	}
	var out []AblationRun
	add := func(r AblationRun, err error) error {
		if err != nil {
			return err
		}
		out = append(out, r)
		return nil
	}

	// X-L2P table size.
	for _, entries := range []int{500, 1000} {
		opts.progress("ablation: X-L2P %d entries", entries)
		e := entries
		if err := add(runVariant(fmt.Sprintf("xl2p-%d-entries", e), XFTL, txns, opts,
			func(o *storage.Options) {
				o.XFTL = core.Config{TableEntries: e, CommitMapPages: 20}
			}, nil)); err != nil {
			return nil, err
		}
	}
	// Commit mapping cost.
	opts.progress("ablation: idealized commit")
	if err := add(runVariant("commit-incremental-only", XFTL, txns, opts,
		func(o *storage.Options) {
			o.XFTL = core.Config{TableEntries: 500, CommitMapPages: 0}
		}, nil)); err != nil {
		return nil, err
	}
	// Baseline barrier policy under WAL.
	for _, incremental := range []bool{false, true} {
		name := "wal-barrier-fullmap"
		if incremental {
			name = "wal-barrier-incremental"
		}
		opts.progress("ablation: %s", name)
		if err := add(runVariant(name, WAL, txns, opts,
			func(o *storage.Options) { o.FTL.IncrementalBarrier = incremental }, nil)); err != nil {
			return nil, err
		}
	}
	// WAL checkpoint interval.
	for _, ckpt := range []int64{250, 1000, 4000} {
		opts.progress("ablation: wal checkpoint %d", ckpt)
		c := ckpt
		if err := add(runVariant(fmt.Sprintf("wal-checkpoint-%d", c), WAL, txns, opts,
			nil, func(o *xftl.StackOptions) { o.CheckpointPages = c })); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// AblationTable renders the study.
func AblationTable(runs []AblationRun) *Table {
	t := &Table{
		Title:  "Ablations: design choices of DESIGN.md section 6 (synthetic workload, 5 updates/txn)",
		Header: []string{"Variant", "Mode", "sim sec", "flash writes/txn"},
	}
	for _, r := range runs {
		t.AddRow(r.Name, r.Mode.String(),
			fmt.Sprintf("%.1f", r.Elapsed.Seconds()),
			fmt.Sprintf("%.1f", float64(r.FlashW)/float64(r.Txns)))
	}
	return t
}
