// Command xftlbench regenerates every table and figure of the paper's
// evaluation section (§6). Each subcommand runs one experiment and
// prints the corresponding table; "all" runs everything in paper order.
//
// Usage:
//
//	xftlbench [-quick] [-quiet] [-faults N] [-seed N] [-json PATH] {all|fig5|table1|fig6|table2|fig7|table3|table4|fig8|fig9|table5|ablate|mtenant|rwconc|fleet}
//	xftlbench [-quick] [-seed N] -torture
//	xftlbench [-quick] [-seed N] -chaos
//
// -quick shrinks workloads for a fast smoke run; the published numbers
// in EXPERIMENTS.md come from full runs (no -quick). -faults N runs the
// chosen experiment on faulty flash (the wear-correlated NAND fault
// model scaled by N; 1 = realistic MLC rates). -torture skips the paper
// experiments and runs the torture leg table (internal/torture, DESIGN.md
// §18): device, SQL, concurrent-session, fleet 2PC and metadata-corruption
// schedules, every recovery judged by one model of the paper's §5.4
// contract. -chaos runs the table's error-storm leg.
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
	for _, mode := range []struct {
		on   bool
		name string
	}{{*tortureMode, "torture"}, {*chaosMode, "chaos"}} {
		if !mode.on {
			continue
		}
		if flag.NArg() != 0 {
			flag.Usage()
			return 2
		}
		if err := runLegs(mode.name, *quick, *quiet, *faults, *seed); err != nil {
			fmt.Fprintf(os.Stderr, "xftlbench -%s: %v\n", mode.name, err)
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
			return bench.JSONExperiment{Tables: []*bench.Table{rw.Table(), rw.WritersTable()}, RWConc: rw}, nil
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

// runLegs is the -torture and -chaos front end: one loop over the leg
// table (torture.Legs; DESIGN.md §18 lists it), one summary line per leg
// on stdout. A non-zero faults value replaces the device sweep's fault
// column and the SQL legs' default scale; a non-zero seed replaces every
// leg's seed axis with that one seed, which is how a violation — whose
// message ends with this very command line — is replayed.
func runLegs(mode string, quick, quiet bool, faults float64, seed int64) error {
	r := torture.Runner{Quick: quick, Seed: seed}
	if !quiet {
		r.Progress = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "["+mode+"] "+format+"\n", args...)
		}
	}
	for _, l := range torture.Legs(faults) {
		if l.Flag != mode {
			continue
		}
		rep, err := r.Run(l)
		if err != nil {
			return fmt.Errorf("%w\n\t(report %s)", err, rep)
		}
		fmt.Printf("%-14s %s\n", l.Name+":", rep)
	}
	return nil
}
