// Package bench contains the experiment drivers that regenerate every
// table and figure of the paper's evaluation (§6). Each experiment
// returns structured results plus a formatted table whose rows mirror
// what the paper reports; EXPERIMENTS.md records paper-vs-measured for
// each one.
package bench

import (
	"fmt"
	"math/rand"
	"strings"

	"repro"
	"repro/internal/ftl"
	"repro/internal/nand"
	"repro/internal/simfs"
	"repro/internal/storage"
	"repro/internal/trace"
)

// Mode aliases the facade's mode type for brevity.
type Mode = xftl.Mode

// The paper's three SQLite configurations.
const (
	RBJ  = xftl.ModeRollback
	WAL  = xftl.ModeWAL
	XFTL = xftl.ModeXFTL
)

// AllModes lists the paper's configurations in its plotting order.
func AllModes() []Mode { return []Mode{RBJ, WAL, XFTL} }

// Options configure every experiment. Quick trades fidelity for speed
// (unit tests and smoke runs); EXPERIMENTS.md quotes Quick=false runs.
type Options struct {
	Quick bool
	// FaultScale, when non-zero, runs the experiment on faulty flash:
	// the default wear-correlated NAND fault model scaled by this
	// factor (1 = realistic MLC rates). Program failures then exercise
	// bad-block retirement and ECC correction during the measurement,
	// so throughput reflects read-retry and retirement overheads. Set
	// from xftlbench's -faults flag.
	FaultScale float64
	// Seed, when non-zero, overrides every workload generator's
	// default RNG seed so whole runs can be replayed or varied from
	// xftlbench's -seed flag. Zero keeps each generator's historical
	// default (the published tables).
	Seed int64
	// Trace, when set, records cross-layer events in the synthetic
	// workload's measurement windows (fig5, table1, fig6); each run
	// attaches as its own tracer generation. Set from xftlbench's -trace
	// flag.
	Trace *trace.Tracer
	// Progress receives progress lines; nil silences them.
	Progress func(format string, args ...any)
}

// seedOr resolves the effective seed: the -seed override when set,
// otherwise the generator's historical default.
func (o Options) seedOr(def int64) int64 {
	if o.Seed != 0 {
		return o.Seed
	}
	return def
}

func (o Options) progress(format string, args ...any) {
	if o.Progress != nil {
		o.Progress(format, args...)
	}
}

// device returns the experiment's device options: the NAND fault
// model (nil for ideal flash) and the bad-block reserve, zero (the
// derived default) on ideal flash and ~6% of the device when faults are
// injected, so steady retirement over a full-length run does not
// exhaust the GC pool.
func (o Options) device(prof storage.Profile) storage.Options {
	if o.FaultScale <= 0 {
		return storage.Options{}
	}
	return storage.Options{
		Fault: nand.DefaultFaultModel(1).Scale(o.FaultScale),
		FTL:   ftl.Config{SpareBlocks: prof.Nand.Blocks / 16},
	}
}

// newStack builds a stack whose FTL exports enough logical space for
// the aging fill plus the experiment's database, whose page cache holds
// cacheSize pages (0: the SQLite default).
func newStack(mode Mode, opts Options, cacheSize int) (*xftl.Stack, error) {
	prof := storage.OpenSSD()
	return xftl.NewStackDevice(prof, mode, opts.device(prof), xftl.StackOptions{CacheSize: cacheSize})
}

// reservePages is the logical space the experiments keep free for
// file-system regions, the database, journals and slack.
const reservePages = 8192

// stackForValidity builds a stack whose logical capacity produces the
// requested steady-state GC victim validity. Under uniform random
// overwrites with greedy victim selection, validity is a function of
// physical space utilization, so the exported capacity (which the
// aging fill then occupies) is the knob — this reproduces the paper's
// "controlled aging of the flash memory chips" (§6.3.1). The
// utilization values are utilizationFor's, fit by measurement.
func stackForValidity(mode Mode, validity float64, opts Options) (*xftl.Stack, error) {
	prof := storage.OpenSSD()
	dataPages := int64(prof.Nand.Blocks-ftl.MetaBlocks) * int64(prof.Nand.PagesPerBlock)
	util := utilizationFor(validity)
	logical := int64(float64(dataPages)*util) + reservePages
	maxLogical := int64(float64(dataPages) * 0.97)
	dev := opts.device(prof)
	if hard := int64(prof.Nand.Blocks-ftl.MetaBlocks-ftl.GCLowWater-1-dev.FTL.SpareBlocks) * int64(prof.Nand.PagesPerBlock); hard < maxLogical {
		// The spare reserve comes out of over-provisioning headroom.
		maxLogical = hard
	}
	dev.FTL.LogicalPages = min(logical, maxLogical)
	return xftl.NewStackDevice(prof, mode, dev, xftl.StackOptions{})
}

// AgeDevice fills a fraction of the device's logical space with a
// filler file and churns it with random overwrites, so that garbage
// collection victims carry roughly the requested ratio of valid pages —
// the paper's "controlled aging" (§6.3.1); MeasuredValidity reports what
// they carried. It returns the file so the space stays occupied.
func AgeDevice(st *xftl.Stack, utilization float64, seed int64) (*simfs.File, error) {
	if utilization <= 0 {
		return nil, nil
	}
	logical := st.Device.LogicalPages()
	fillPages := int64(float64(logical) * utilization)
	if fillPages > logical-reservePages {
		fillPages = logical - reservePages
	}
	if fillPages <= 0 {
		return nil, nil
	}
	f, err := st.FS.Create("aging-filler.dat", simfs.RoleOther)
	if err != nil {
		return nil, err
	}
	page := make([]byte, st.FS.PageSize())
	rng := rand.New(rand.NewSource(seed))
	rng.Read(page)
	for i := int64(0); i < fillPages; i++ {
		if err := f.WritePage(i, page); err != nil {
			return nil, err
		}
		if i%256 == 255 {
			if err := f.Fsync(); err != nil {
				return nil, err
			}
		}
	}
	if err := f.Fsync(); err != nil {
		return nil, err
	}
	// Churn with random overwrites until garbage collection has cycled
	// enough victims to reach steady state, so the measurement window
	// sees the target validity ratio from its first transaction.
	stats := st.FlashStats()
	maxWrites := 3 * st.Device.Profile().Nand.TotalPages()
	const steadyVictims = 40
	startGC := stats.GCRuns.Load()
	for i := int64(0); stats.GCRuns.Load()-startGC < steadyVictims && i < maxWrites; i++ {
		if err := f.WritePage(rng.Int63n(fillPages), page); err != nil {
			return nil, err
		}
		if i%128 == 127 {
			if err := f.Fsync(); err != nil {
				return nil, err
			}
		}
	}
	if err := f.Fsync(); err != nil {
		return nil, err
	}
	return f, nil
}

// MeasuredValidity reports the average valid-page ratio of GC victims
// since the last reset.
func MeasuredValidity(st *xftl.Stack) float64 {
	_, v := st.Device.FTL().GCStats()
	return v
}

// utilizationFor maps the paper's target GC validity ratios onto
// physical space utilization. Greedy victim validity runs well below
// overall utilization for uniform random traffic (the classic greedy
// write-amplification curve); these points were fit by measurement on
// this simulator.
func utilizationFor(validity float64) float64 {
	switch {
	case validity <= 0.3:
		return 0.45
	case validity <= 0.5:
		return 0.65
	default:
		return 0.83
	}
}

// Table is a generic formatted result table.
type Table struct {
	Title   string
	Header  []string
	RowData [][]string
	Notes   []string
}

// AddRow appends one formatted row.
func (t *Table) AddRow(cells ...string) { t.RowData = append(t.RowData, cells) }

// String renders the table with aligned columns.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.RowData {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[min(i, len(widths)-1)], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.RowData {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}
