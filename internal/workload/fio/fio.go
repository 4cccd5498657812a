// Package fio reproduces the paper's file-system benchmark (§6.3.4): a
// Flexible-I/O-style random-write phase over a large file with an fsync
// every k page writes, measuring sustained IOPS in simulated time. The
// fsync cadence mimics the different transaction sizes of the synthetic
// database workload.
package fio

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/simfs"
)

// Config parameterizes one run.
type Config struct {
	// FilePages is the target file size in pages. The paper uses a
	// 4 GB file on a 128 GB drive; this reproduction scales both
	// down together (see DESIGN.md substitution #7).
	FilePages int64
	// Duration is how long (simulated) the random-write phase runs.
	Duration time.Duration
	// FsyncEvery issues an fsync after this many page writes — the
	// x-axis of Figures 8 and 9.
	FsyncEvery int
	Seed       int64
}

// DefaultConfig is a single-threaded Figure 8 point.
func DefaultConfig() Config {
	return Config{
		FilePages:  16384, // 128 MB of 8 KB pages
		Duration:   30 * time.Second,
		FsyncEvery: 5,
		Seed:       1,
	}
}

// Result reports a run's outcome.
type Result struct {
	PagesWritten int64
	Fsyncs       int64
	Elapsed      time.Duration // simulated
	// IOPS is single-stream page writes per simulated second.
	IOPS float64
}

// Run executes the random-write phase on a fresh file.
func Run(fsys *simfs.FS, cfg Config) (Result, error) {
	var res Result
	if cfg.FilePages <= 0 || cfg.FsyncEvery <= 0 {
		return res, errors.New("fio: FilePages and FsyncEvery must be positive")
	}
	name := fmt.Sprintf("fio-%d.dat", cfg.Seed)
	var f *simfs.File
	var err error
	if fsys.Exists(name) {
		f, err = fsys.Open(name)
	} else {
		f, err = fsys.Create(name, simfs.RoleOther)
	}
	if err != nil {
		return res, err
	}
	defer f.Close()

	rng := rand.New(rand.NewSource(cfg.Seed))
	page := make([]byte, fsys.PageSize())
	rng.Read(page)

	clock := fsys.Device().Clock()
	start := clock.Now()
	deadline := start + cfg.Duration
	for clock.Now() < deadline {
		idx := rng.Int63n(cfg.FilePages)
		page[0] = byte(res.PagesWritten) // vary content cheaply
		if err := f.WritePage(idx, page); err != nil {
			return res, err
		}
		res.PagesWritten++
		if res.PagesWritten%int64(cfg.FsyncEvery) == 0 {
			if err := f.Fsync(); err != nil {
				return res, err
			}
			res.Fsyncs++
		}
	}
	if err := f.Fsync(); err != nil {
		return res, err
	}
	res.Fsyncs++
	res.Elapsed = clock.Now() - start
	if res.Elapsed > 0 {
		res.IOPS = float64(res.PagesWritten) / res.Elapsed.Seconds()
	}
	return res, nil
}
