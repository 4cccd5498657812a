package fio

import (
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/simclock"
	"repro/internal/simfs"
	"repro/internal/storage"
)

func testFS(t *testing.T, mode simfs.JournalMode) *simfs.FS {
	t.Helper()
	prof := storage.OpenSSD()
	prof.Nand.Blocks = 256
	prof.Nand.PagesPerBlock = 32
	prof.Nand.PageSize = 2048
	dev, err := storage.New(prof, simclock.New(), storage.Options{Transactional: mode == simfs.OffXFTL})
	if err != nil {
		t.Fatal(err)
	}
	fsys, err := simfs.New(dev, mode, &metrics.HostCounters{})
	if err != nil {
		t.Fatal(err)
	}
	return fsys
}

func TestRunBasics(t *testing.T) {
	fsys := testFS(t, simfs.OffXFTL)
	cfg := Config{FilePages: 512, Duration: 2 * time.Second, FsyncEvery: 5, Seed: 1}
	res, err := Run(fsys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.PagesWritten == 0 || res.IOPS <= 0 {
		t.Errorf("result = %+v", res)
	}
	if res.Elapsed < cfg.Duration {
		t.Errorf("elapsed %v < duration %v", res.Elapsed, cfg.Duration)
	}
	wantFsyncs := res.PagesWritten/int64(cfg.FsyncEvery) + 1
	if res.Fsyncs != wantFsyncs {
		t.Errorf("fsyncs = %d, want %d", res.Fsyncs, wantFsyncs)
	}
}

func TestFsyncIntervalRaisesIOPS(t *testing.T) {
	iops := func(every int) float64 {
		fsys := testFS(t, simfs.Ordered)
		res, err := Run(fsys, Config{FilePages: 512, Duration: 2 * time.Second, FsyncEvery: every, Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		return res.IOPS
	}
	if a, b := iops(1), iops(20); b <= a {
		t.Errorf("IOPS did not rise with fsync interval: %f vs %f", a, b)
	}
}

func TestInvalidConfig(t *testing.T) {
	fsys := testFS(t, simfs.Ordered)
	if _, err := Run(fsys, Config{FilePages: 0, FsyncEvery: 5}); err == nil {
		t.Error("zero FilePages accepted")
	}
	if _, err := Run(fsys, Config{FilePages: 10, FsyncEvery: 0}); err == nil {
		t.Error("zero FsyncEvery accepted")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() int64 {
		fsys := testFS(t, simfs.OffXFTL)
		res, err := Run(fsys, Config{FilePages: 256, Duration: time.Second, FsyncEvery: 5, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		return res.PagesWritten
	}
	if a, b := run(), run(); a != b {
		t.Errorf("runs diverged: %d vs %d", a, b)
	}
}
