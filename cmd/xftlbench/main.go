// Command xftlbench regenerates every table and figure of the paper's
// evaluation section (§6). Each subcommand runs one experiment and
// prints the corresponding table; "all" runs everything in paper order.
//
// Usage:
//
//	xftlbench [-quick] [-quiet] [-faults N] [-seed N] [-json PATH] {all|fig5|table1|fig6|table2|fig7|table3|table4|fig8|fig9|table5|ablate|mtenant|rwconc|fleet}
//	xftlbench [-quick] -torture
//
// -quick shrinks workloads for a fast smoke run; the published numbers
// in EXPERIMENTS.md come from full runs (no -quick). -faults N runs the
// chosen experiment on faulty flash (the wear-correlated NAND fault
// model scaled by N; 1 = realistic MLC rates). -torture skips the paper
// experiments and runs the crash/fault torture harness: a device-level
// sweep of seeds x cut points x fault rates plus full-SQL runs in all
// three journal modes, each checking committed-durable /
// uncommitted-discarded after every recovery.
//
// mtenant and rwconc are the beyond-the-paper legs (not part of "all",
// which reproduces the paper's figures only): mtenant is the NCQ
// multi-tenant sweep across channel counts and queue depths; rwconc
// runs MVCC snapshot readers against a streaming writer and compares
// reader throughput with the serialized rollback-journal baseline.
// -seed N overrides every workload generator's RNG seed (0 keeps the
// published defaults); the seed is recorded in the -json document.
// -json PATH additionally writes every table that was printed — plus
// the typed multi-tenant and rwconc points — as indented JSON.
// -trace PATH records cross-layer events during the experiments that
// support it (rwconc) and writes a Chrome trace-event JSON file that
// loads directly into Perfetto (ui.perfetto.dev) or chrome://tracing;
// a per-layer flame summary is printed to stderr.
//
// -profile PATH writes a CPU profile of the whole invocation, viewable
// with go tool pprof. What the simulator itself costs to run is measured
// by the fixed perf suite in benchmark/, not here.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"time"

	xftl "repro"
	"repro/internal/bench"
	"repro/internal/torture"
	"repro/internal/trace"
)

func main() {
	os.Exit(benchMain())
}

// benchMain is main with an exit status, so deferred cleanup (the CPU
// profile writer) runs on every path.
func benchMain() int {
	quick := flag.Bool("quick", false, "run reduced workloads (smoke mode)")
	quiet := flag.Bool("quiet", false, "suppress progress output")
	faults := flag.Float64("faults", 0, "NAND fault-model scale (0 = ideal flash, 1 = realistic MLC rates)")
	tortureMode := flag.Bool("torture", false, "run the crash/fault torture harness instead of an experiment")
	chaosMode := flag.Bool("chaos", false, "run the degraded-mode error-storm sweep: transient faults, die hangs, command deadlines, quarantine and mid-storm power cuts")
	seed := flag.Int64("seed", 0, "workload RNG seed override (0 = per-generator defaults)")
	shards := flag.Int("shards", 4, "maximum shard count for the fleet experiment (swept in powers of two from 1)")
	journal := flag.String("journal", "rbj", "rwconc baseline arm for the speedup comparison: rbj (serialized rollback journal) or wal (concurrent WAL readers)")
	recoveryScan := flag.Bool("recovery-scan", false, "run the recovery-hierarchy experiment: image fast path vs full-device OOB scan with the mapping image destroyed")
	jsonPath := flag.String("json", "", "also write machine-readable results (tables, ops, NAND counts, latency percentiles) to this path")
	tracePath := flag.String("trace", "", "record cross-layer events and write Chrome trace-event JSON (Perfetto-loadable) to this path")
	profilePath := flag.String("profile", "", "write a CPU profile of the whole invocation to this path (go tool pprof)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: xftlbench [-quick] [-quiet] [-faults N] [-seed N] [-json PATH] [-trace PATH] [-profile PATH] {all|fig5|table1|fig6|table2|fig7|table3|table4|fig8|fig9|table5|ablate|mtenant|rwconc|fleet}\n")
		fmt.Fprintf(os.Stderr, "       xftlbench [-quick] [-seed N] -torture\n")
		fmt.Fprintf(os.Stderr, "       xftlbench [-quick] [-seed N] -chaos\n")
		fmt.Fprintf(os.Stderr, "       xftlbench [-quick] -recovery-scan\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if *profilePath != "" {
		f, err := os.Create(*profilePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "xftlbench -profile: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "xftlbench -profile: %v\n", err)
			_ = f.Close()
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			_ = f.Close()
			fmt.Fprintf(os.Stderr, "[xftlbench] wrote CPU profile to %s\n", *profilePath)
		}()
	}
	wallStart := time.Now()
	if *tortureMode {
		if flag.NArg() != 0 {
			flag.Usage()
			return 2
		}
		if err := runTorture(*quick, *faults, *seed); err != nil {
			fmt.Fprintf(os.Stderr, "xftlbench -torture: %v\n", err)
			return 1
		}
		return 0
	}
	if *chaosMode {
		if flag.NArg() != 0 {
			flag.Usage()
			return 2
		}
		if err := runChaos(*quick, *quiet, *seed); err != nil {
			fmt.Fprintf(os.Stderr, "xftlbench -chaos: %v\n", err)
			return 1
		}
		return 0
	}
	if *recoveryScan {
		if flag.NArg() != 0 {
			flag.Usage()
			return 2
		}
		opts := bench.Options{Quick: *quick, FaultScale: *faults, Seed: *seed}
		if !*quiet {
			opts.Progress = func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, "[xftlbench] "+format+"\n", args...)
			}
		}
		runs, err := bench.RunRecoveryScan(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "xftlbench -recovery-scan: %v\n", err)
			return 1
		}
		t := bench.RecoveryScanTable(runs)
		fmt.Println(t)
		if *jsonPath != "" {
			doc := &bench.JSONDoc{Tool: "xftlbench", Quick: *quick, Seed: *seed, FaultScale: *faults}
			doc.Experiments = append(doc.Experiments, bench.JSONExperiment{
				Name: "recovery-scan", Tables: []*bench.Table{t},
			})
			doc.WallSeconds = time.Since(wallStart).Seconds()
			if err := bench.WriteJSON(*jsonPath, doc); err != nil {
				fmt.Fprintf(os.Stderr, "xftlbench -json: %v\n", err)
				return 1
			}
		}
		return 0
	}
	if flag.NArg() != 1 {
		flag.Usage()
		return 2
	}
	opts := bench.Options{Quick: *quick, FaultScale: *faults, Seed: *seed}
	if !*quiet {
		opts.Progress = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "[xftlbench] "+format+"\n", args...)
		}
	}
	if *tracePath != "" {
		opts.Trace = trace.New()
	}
	what := flag.Arg(0)
	doc := &bench.JSONDoc{Tool: "xftlbench", Quick: *quick, Seed: *seed, FaultScale: *faults}
	opts.FleetShards = *shards
	if *journal != "rbj" && *journal != "wal" {
		fmt.Fprintf(os.Stderr, "xftlbench: -journal must be rbj or wal, got %q\n", *journal)
		return 2
	}
	opts.Journal = *journal
	if err := run(what, opts, doc); err != nil {
		fmt.Fprintf(os.Stderr, "xftlbench %s: %v\n", what, err)
		return 1
	}
	if *jsonPath != "" {
		doc.WallSeconds = time.Since(wallStart).Seconds()
		if err := bench.WriteJSON(*jsonPath, doc); err != nil {
			fmt.Fprintf(os.Stderr, "xftlbench -json: %v\n", err)
			return 1
		}
	}
	if *tracePath != "" {
		if err := writeTrace(*tracePath, opts.Trace); err != nil {
			fmt.Fprintf(os.Stderr, "xftlbench -trace: %v\n", err)
			return 1
		}
	}
	return 0
}

// writeTrace dumps the recorded events as Chrome trace-event JSON and
// prints the flame summary. A run that recorded nothing (an experiment
// without trace support) still produces a valid, empty trace file.
func writeTrace(path string, tr *trace.Tracer) error {
	if tr.Len() == 0 {
		fmt.Fprintf(os.Stderr, "[xftlbench] warning: no trace events recorded (only rwconc emits traces today)\n")
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteChromeTrace(f); err != nil {
		_ = f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "[xftlbench] wrote %d trace events to %s (load in ui.perfetto.dev)\n", tr.Len(), path)
	fmt.Fprint(os.Stderr, tr.FlameSummary())
	return nil
}

// experiment is one subcommand: its name, whether "all" runs it, and
// the function producing its tables and typed points.
type experiment struct {
	name  string
	inAll bool
	run   func(bench.Options) (bench.JSONExperiment, error)
}

// tables adapts an experiment whose result only renders as tables.
func tables[R any](run func(bench.Options) (R, error), render func(R) []*bench.Table) func(bench.Options) (bench.JSONExperiment, error) {
	return func(o bench.Options) (bench.JSONExperiment, error) {
		r, err := run(o)
		if err != nil {
			return bench.JSONExperiment{}, err
		}
		return bench.JSONExperiment{Tables: render(r)}, nil
	}
}

// one adapts a single-table renderer to tables.
func one[R any](render func(R) *bench.Table) func(R) []*bench.Table {
	return func(r R) []*bench.Table { return []*bench.Table{render(r)} }
}

// run executes the requested experiment(s), printing each table and
// appending it to doc for -json output. "all" reproduces the paper's
// evaluation in paper order; mtenant, rwconc and fleet (the NCQ sweep,
// the MVCC session layer and the shard fleet) are new work and must be
// requested by name.
func run(what string, opts bench.Options, doc *bench.JSONDoc) error {
	// fig7's replay feeds table2's measured row when both run ("all");
	// table2 on its own prints the census-only view.
	var fig7 *bench.Fig7
	experiments := []experiment{
		{"fig5", true, tables(bench.RunFig5, (*bench.Fig5).Tables)},
		{"table1", true, tables(bench.RunTable1, one((*bench.Table1).Table))},
		{"fig6", true, tables(bench.RunFig6, (*bench.Fig6).Tables)},
		{"fig7", true, tables(bench.RunFig7, one(func(f *bench.Fig7) *bench.Table {
			fig7 = f
			return f.Table()
		}))},
		{"table2", true, func(bench.Options) (bench.JSONExperiment, error) {
			return bench.JSONExperiment{Tables: []*bench.Table{bench.Table2(fig7)}}, nil
		}},
		{"table3", true, func(bench.Options) (bench.JSONExperiment, error) {
			return bench.JSONExperiment{Tables: []*bench.Table{bench.Table3()}}, nil
		}},
		{"table4", true, tables(bench.RunTable4, func(t4 *bench.Table4) []*bench.Table {
			return []*bench.Table{bench.Table3(), t4.Table()}
		})},
		{"fig8", true, tables(bench.RunFig8, one((*bench.Fig8).Table))},
		{"fig9", true, tables(bench.RunFig9, one((*bench.Fig9).Table))},
		{"table5", true, tables(bench.RunTable5, one(bench.Table5Table))},
		{"ablate", true, tables(bench.Ablations, one(bench.AblationTable))},
		{"mtenant", false, func(o bench.Options) (bench.JSONExperiment, error) {
			mt, err := bench.RunMultiTenant(o)
			if err != nil {
				return bench.JSONExperiment{}, err
			}
			return bench.JSONExperiment{Tables: []*bench.Table{mt.Table()}, MultiTenant: mt}, nil
		}},
		{"rwconc", false, func(o bench.Options) (bench.JSONExperiment, error) {
			rw, err := bench.RunRWConc(o)
			if err != nil {
				return bench.JSONExperiment{}, err
			}
			return bench.JSONExperiment{Tables: []*bench.Table{rw.Table()}, RWConc: rw}, nil
		}},
		{"fleet", false, func(o bench.Options) (bench.JSONExperiment, error) {
			fb, err := bench.RunFleet(o, o.FleetShards)
			if err != nil {
				return bench.JSONExperiment{}, err
			}
			return bench.JSONExperiment{Tables: []*bench.Table{fb.Table()}, Fleet: fb}, nil
		}},
	}
	did := false
	for _, e := range experiments {
		if what != e.name && !(what == "all" && e.inAll) {
			continue
		}
		did = true
		res, err := e.run(opts)
		if err != nil {
			return err
		}
		for _, t := range res.Tables {
			fmt.Println(t)
		}
		res.Name = e.name
		doc.Experiments = append(doc.Experiments, res)
	}
	if !did {
		return fmt.Errorf("unknown experiment %q", what)
	}
	return nil
}

// runTorture runs the device-level acceptance sweep (seeds x cut
// cadences x fault scales), then the full-stack SQL torture in every
// journal mode. A non-zero faults value replaces the sweep's fault
// column and the SQL runs' default scale; a non-zero seed replaces
// every seed grid with that one seed (reproducing a failing summary
// line), and every run summary records the seeds it used.
func runTorture(quick bool, faults float64, seed int64) error {
	sw := torture.DefaultSweep()
	sw.Progress = func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "[torture] "+format+"\n", args...)
	}
	if quick {
		sw.Seeds = sw.Seeds[:2]
	}
	if seed != 0 {
		sw.Seeds = []int64{seed}
	}
	if faults > 0 {
		sw.FaultScale = []float64{0, faults}
	}
	rep, err := torture.Sweep(sw)
	if err != nil {
		return fmt.Errorf("device sweep: %w", err)
	}
	fmt.Printf("device sweep: %s\n", rep)

	seeds := []int64{1, 2, 3, 4, 5, 6}
	if quick {
		seeds = seeds[:2]
	}
	if seed != 0 {
		seeds = []int64{seed}
	}
	for _, mode := range []xftl.Mode{xftl.ModeRollback, xftl.ModeWAL, xftl.ModeXFTL} {
		agg := &torture.Report{}
		for _, seed := range seeds {
			o := torture.DefaultSQLOptions(mode, seed)
			if faults > 0 {
				o.FaultScale = faults
			}
			r, err := torture.RunSQL(o)
			if err != nil {
				return fmt.Errorf("sql %s seed %d: %w", mode, seed, err)
			}
			agg.Add(r)
		}
		fmt.Printf("sql %-5s: %s\n", mode, agg)
	}

	// Concurrent-session torture: snapshot readers racing a writer on
	// the MVCC session layer with a mid-run power cut; every snapshot
	// must be uniform and recovery must land on the last committed (or
	// in-doubt) generation.
	mvccSeeds := []int64{1, 2, 3, 4, 5, 6}
	if quick {
		mvccSeeds = mvccSeeds[:2]
	}
	if seed != 0 {
		mvccSeeds = []int64{seed}
	}
	magg := &torture.Report{}
	for _, seed := range mvccSeeds {
		r, err := torture.RunMVCC(torture.DefaultMVCCOptions(seed))
		if err != nil {
			return fmt.Errorf("mvcc seed %d: %w", seed, err)
		}
		magg.Add(r)
	}
	fmt.Printf("mvcc sessions: %s\n", magg)

	// Pooled-reader torture: the same workload with readers served
	// through the warm connection pool, and the manager kept alive
	// across the power cut — the pool's epoch check must invalidate
	// every pre-cut connection before serving a post-recovery read.
	pagg := &torture.Report{}
	for _, seed := range mvccSeeds {
		r, err := torture.RunPooledCut(torture.DefaultMVCCOptions(seed))
		if err != nil {
			return fmt.Errorf("pooled mvcc seed %d: %w", seed, err)
		}
		pagg.Add(r)
	}
	fmt.Printf("mvcc pooled:   %s\n", pagg)

	// WAL concurrent-reader torture: readers on captured log views
	// racing the appending writer, recovery by log replay on reopen.
	wagg := &torture.Report{}
	for _, seed := range mvccSeeds {
		r, err := torture.RunWALConcCut(torture.DefaultMVCCOptions(seed))
		if err != nil {
			return fmt.Errorf("walconc seed %d: %w", seed, err)
		}
		wagg.Add(r)
	}
	fmt.Printf("wal readers:   %s\n", wagg)

	// Fleet 2PC torture: cross-shard transactions killed at every stage
	// of the two-phase commit protocol; recovery must leave each one
	// committed on all participants or on none.
	fo := torture.DefaultFleetOptions()
	fo.Progress = func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "[torture] "+format+"\n", args...)
	}
	if quick {
		fo.Seeds = fo.Seeds[:1]
	}
	if seed != 0 {
		fo.Seeds = []int64{seed}
	}
	frep, err := torture.FleetSweep(fo)
	if err != nil {
		return fmt.Errorf("fleet 2pc: %w", err)
	}
	fmt.Printf("fleet 2pc:    %s\n", frep)

	// Metadata-corruption sweep: destroy every persisted copy of the
	// mapping table (and, separately, the bad-block table) after each
	// crash and require full recovery from per-page OOB records.
	ms := torture.DefaultMetaSweep()
	ms.Progress = func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "[torture] "+format+"\n", args...)
	}
	if quick {
		ms.Seeds = ms.Seeds[:1]
	}
	if seed != 0 {
		ms.Seeds = []int64{seed}
	}
	mrep, err := torture.MetaSweep(ms)
	if err != nil {
		return fmt.Errorf("meta sweep: %w", err)
	}
	fmt.Printf("meta sweep:   %s\n", mrep)
	return nil
}

// runChaos runs the degraded-mode error-storm acceptance sweep: the
// crash-torture workload under transient interface faults, die hangs,
// command deadlines with bounded retry, channel quarantine and
// mid-storm power cuts. A non-zero seed replaces the default seed grid.
func runChaos(quick, quiet bool, seed int64) error {
	o := torture.DefaultChaos()
	if quick {
		o.Seeds = o.Seeds[:1]
		o.Transactions = 120
	}
	if seed != 0 {
		o.Seeds = []int64{seed}
	}
	if !quiet {
		o.Progress = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "[chaos] "+format+"\n", args...)
		}
	}
	rep, err := torture.ChaosSweep(o)
	if err != nil {
		return fmt.Errorf("%w (report %s)", err, rep)
	}
	fmt.Printf("chaos sweep: %s\n", rep)
	return nil
}
