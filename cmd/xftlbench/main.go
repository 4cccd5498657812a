// Command xftlbench regenerates every table and figure of the paper's
// evaluation section (§6). Each subcommand runs one experiment and
// prints its tables; "all" runs everything in paper order.
//
// Usage:
//
//	xftlbench [-quick] [-quiet] [-faults N] [-seed N] [-trace PATH] [-profile PATH] {all|fig5|table1|fig6|table2|fig7|table3|table4|fig8|fig9|table5|ablate}
//	xftlbench [-quick] [-seed N] -torture
//	xftlbench [-quick] [-seed N] -chaos
//
// -quick shrinks workloads for a smoke run; EXPERIMENTS.md quotes full
// runs. -faults N runs on faulty flash: the wear-correlated NAND fault
// model scaled by N (1 = realistic MLC rates). -seed N overrides every
// workload generator's RNG seed (0 keeps the published defaults).
// -torture runs the torture leg table instead (internal/torture,
// DESIGN.md §18), every recovery judged by one model of the paper's
// §5.4 contract; -chaos runs its error-storm leg.
//
// -trace PATH records cross-layer events in the synthetic workload's
// measurement windows (fig5, table1, fig6) as Chrome trace-event JSON
// for Perfetto or chrome://tracing, and prints a per-layer flame summary
// to stderr; the tables do not change. -profile PATH writes a CPU
// profile of the whole invocation. What the simulator itself costs to
// run is measured by the perf suite in benchmark/.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime/pprof"

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
	tracePath := flag.String("trace", "", "record cross-layer events and write Chrome trace-event JSON (Perfetto-loadable) to this path")
	profilePath := flag.String("profile", "", "write a CPU profile of the whole invocation to this path (go tool pprof)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: xftlbench [-quick] [-quiet] [-faults N] [-seed N] [-trace PATH] [-profile PATH] {all|fig5|table1|fig6|table2|fig7|table3|table4|fig8|fig9|table5|ablate}\n")
		fmt.Fprintf(os.Stderr, "       xftlbench [-quick] [-seed N] -torture\n")
		fmt.Fprintf(os.Stderr, "       xftlbench [-quick] [-seed N] -chaos\n")
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
	if err := run(what, opts); err != nil {
		fmt.Fprintf(os.Stderr, "xftlbench %s: %v\n", what, err)
		if errors.Is(err, errUnknownExperiment) {
			return 2
		}
		return 1
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
// outside the synthetic workload) still produces a valid, empty trace
// file.
func writeTrace(path string, tr *trace.Tracer) error {
	if tr.Len() == 0 {
		fmt.Fprintf(os.Stderr, "[xftlbench] warning: no trace events recorded (only fig5, table1 and fig6 emit traces)\n")
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

// experiment is one subcommand: its name and the function producing its
// tables.
type experiment struct {
	name string
	run  func(bench.Options) ([]*bench.Table, error)
}

// tables adapts an experiment driver and its renderer to one subcommand.
func tables[R any](run func(bench.Options) (R, error), render func(R) []*bench.Table) func(bench.Options) ([]*bench.Table, error) {
	return func(o bench.Options) ([]*bench.Table, error) {
		r, err := run(o)
		if err != nil {
			return nil, err
		}
		return render(r), nil
	}
}

// one adapts a single-table renderer to tables.
func one[R any](render func(R) *bench.Table) func(R) []*bench.Table {
	return func(r R) []*bench.Table { return []*bench.Table{render(r)} }
}

// errUnknownExperiment is a usage error: the subcommand names no
// experiment.
var errUnknownExperiment = errors.New("unknown experiment")

// experiments lists the subcommands in paper order, the order "all"
// runs them in.
func experiments() []experiment {
	// fig7's replay feeds table2's measured row when both run ("all");
	// table2 on its own prints the census-only view.
	var fig7 *bench.Fig7
	return []experiment{
		{"fig5", tables(bench.RunFig5, (*bench.Fig5).Tables)},
		{"table1", tables(bench.RunTable1, one((*bench.Table1).Table))},
		{"fig6", tables(bench.RunFig6, (*bench.Fig6).Tables)},
		{"fig7", tables(bench.RunFig7, one(func(f *bench.Fig7) *bench.Table {
			fig7 = f
			return f.Table()
		}))},
		{"table2", func(bench.Options) ([]*bench.Table, error) {
			return []*bench.Table{bench.Table2(fig7)}, nil
		}},
		{"table3", func(bench.Options) ([]*bench.Table, error) {
			return []*bench.Table{bench.Table3()}, nil
		}},
		{"table4", tables(bench.RunTable4, one((*bench.Table4).Table))},
		{"fig8", tables(bench.RunFig8, one((*bench.Fig8).Table))},
		{"fig9", tables(bench.RunFig9, one((*bench.Fig9).Table))},
		{"table5", tables(bench.RunTable5, one(bench.Table5Table))},
		{"ablate", tables(bench.Ablations, one(bench.AblationTable))},
	}
}

// run executes the requested experiment(s), printing each table. "all"
// reproduces the paper's evaluation in paper order.
func run(what string, opts bench.Options) error {
	did := false
	for _, e := range experiments() {
		if what != e.name && what != "all" {
			continue
		}
		did = true
		ts, err := e.run(opts)
		if err != nil {
			return err
		}
		for _, t := range ts {
			fmt.Println(t)
		}
	}
	if !did {
		return fmt.Errorf("%w %q", errUnknownExperiment, what)
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
